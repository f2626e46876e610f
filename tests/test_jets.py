"""The jet evaluator and the separable sphere env.

SphereGrid.env() is separable (t, r as (1, 1), th a column, ph a row), and
every component jet is evaluated through chart.component_jets in one
evaluate pass over the metric's plan.  Each array keeps the size of the
coordinates it depends on.  Public results must not depend on that: on the
separable env, broadcast to the grid where they are compared, they equal
bit for bit the results on the full meshgrid env."""

import dataclasses

import numpy as np
import pytest

from imcvf import builder, chart, expr, sphere
from imcvf.builder import validate_chart
from imcvf.chart import (FIRST_JETS, SECOND_JETS, BlockMetric, CoordinatePoint, component_jets,
                         det_values, inverse_values, metric_values)
from imcvf.curvature import christoffel_values, curvature_values
from imcvf.errors import ConvergenceError
from imcvf.expr import evaluate, parse
from imcvf.grid import SphereGrid
from imcvf.sphere import (SURFACE_JETS, first_variation_area_check,
                          gs_laplacian_coefficients, gs_trace, hawking_mass,
                          mean_curvature_values, star_values, surface_fields)
from imcvf.steering import frame_data, steering_parameter
from imcvf.straightout import (_ASSEMBLED_JETS, _CHART_D_JETS, _CLOSED_FORM_JETS,
                               _D_SECOND_JETS, _assembled_d_free, _grid_d_data,
                               assembled_form, solve_straight_out_d, straight_out_residual)

from conftest import build_seed, frame_values

SIZES = ((16, 32), (64, 128))


class MeshGrid(SphereGrid):
    """A SphereGrid whose env is the full (n_theta, n_phi) meshgrid."""

    def env(self):
        th, ph = np.meshgrid(self.theta, self.phi, indexing="ij")
        return {"t": np.full_like(th, self.t), "r": np.full_like(th, self.r),
                "th": th, "ph": ph}


@pytest.fixture(scope="module", params=("ef", "ea", "c"))
def seed(request):
    return build_seed(request.param, 0.1)


def _grids(size, r=3.0):
    return SphereGrid(0.0, r, *size), MeshGrid(0.0, r, *size)


def _same(a, b, shape):
    """a and b, each broadcast to shape (which neither may exceed), are
    equal bit for bit."""
    assert np.array_equal(np.broadcast_to(a, shape), np.broadcast_to(b, shape))


def test_env_is_separable():
    env = SphereGrid(0.5, 2.0, 16, 32).env()
    assert {k: v.shape for k, v in env.items()} == {
        "t": (1, 1), "r": (1, 1), "th": (16, 1), "ph": (1, 32)}


@pytest.mark.parametrize("size", SIZES)
def test_surface_fields_match_meshgrid_env(seed, size):
    sep, mesh = (surface_fields(seed, gr.env()) for gr in _grids(size))
    assert sep.keys() == mesh.keys()
    for key in sep:
        _same(sep[key], mesh[key], size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("method", ("closed", "trace"))
def test_mean_curvature_matches_meshgrid_env(seed, size, method):
    sep, mesh = (mean_curvature_values(seed, gr.env(), method=method)
                 for gr in _grids(size))
    for a, b in zip(sep, mesh):
        _same(a, b, size)


@pytest.mark.parametrize("size", SIZES)
def test_frame_data_and_steering_match_meshgrid_env(seed, size):
    sep, mesh = (frame_data(seed, gr.env()) for gr in _grids(size))
    for fld in dataclasses.fields(sep):
        a, b = getattr(sep, fld.name), getattr(mesh, fld.name)
        if np.ndim(a) == 0:          # the identically-zero radial commutators
            assert a == b == 0.0
        else:
            _same(a, b, size)
    _same(steering_parameter(sep), steering_parameter(mesh), size)


@pytest.mark.parametrize("size", SIZES)
def test_straight_out_residual_matches_meshgrid_env(seed, size):
    sep, mesh = (straight_out_residual(seed, gr) for gr in _grids(size))
    _same(sep.closed, mesh.closed, size)
    _same(sep.direct, mesh.direct, size)
    assert sep.max_difference == mesh.max_difference


@pytest.mark.parametrize("size", SIZES)
def test_straight_out_solve_matches_meshgrid_env(seed, size):
    def solve(gr):
        try:
            return solve_straight_out_d(seed, gr, max_iter=4)
        except ConvergenceError as exc:   # a stalled Poisson solve must stall alike
            return exc

    sep, mesh = (solve(gr) for gr in _grids(size, 4.7))
    if isinstance(sep, ConvergenceError):
        assert isinstance(mesh, ConvergenceError) and sep.history == mesh.history
        return
    _same(sep.d, mesh.d, size)
    assert sep.update_norms == mesh.update_norms
    assert sep.compat_integrals == mesh.compat_integrals


def test_hawking_mass_matches_meshgrid_env(seed):
    sep, mesh = (hawking_mass(seed, gr) for gr in _grids((16, 32)))
    assert sep == mesh


def test_jets_keep_the_size_of_their_coordinates():
    """On the separable env a jet of r alone is (1, 1), one of th a column,
    one of th and ph the grid and a constant 0-d; each is read-only."""
    g = build_seed("ef", 0.1)
    jets = component_jets(g, SphereGrid(0.0, 3.0, 16, 32).env(), ("a", "b", "c", "e", "a_r"))
    assert {k: v.shape for k, v in jets.items()} == {
        "a": (1, 1), "b": (16, 1), "c": (), "e": (16, 32), "a_r": (1, 1)}
    assert not any(v.flags.writeable for v in jets.values())


def _one_pass_assembled_form(grid, fields):
    """The assembled form computed in one pass, every term from the fields
    as given: the bitwise reference for the two stages of assembled_form,
    which must keep its operations and their order."""
    f = fields
    cot = grid.cot_theta[:, None]
    a, b, c = f["a"], f["b"], f["c"]
    w = f["W"]
    d, d_th, d_ph, det = f["d"], f["d_th"], f["d_ph"], f["det"]
    u = f["u"]
    u_th, u_ph = f["u_th"], f["u_ph"]

    k = 2.0 * c * f["e"] * f["f"] - b * f["e"] ** 2 - a * f["f"] ** 2
    k_th = (2.0 * (f["c_th"] * f["e"] * f["f"] + c * f["e_th"] * f["f"]
                   + c * f["e"] * f["f_th"])
            - (f["b_th"] * f["e"] ** 2 + 2.0 * b * f["e"] * f["e_th"])
            - (f["a_th"] * f["f"] ** 2 + 2.0 * a * f["f"] * f["f_th"]))
    k_ph = (2.0 * (f["c_ph"] * f["e"] * f["f"] + c * f["e_ph"] * f["f"]
                   + c * f["e"] * f["f_ph"])
            - (f["b_ph"] * f["e"] ** 2 + 2.0 * b * f["e"] * f["e_ph"])
            - (f["a_ph"] * f["f"] ** 2 + 2.0 * a * f["f"] * f["f_ph"]))
    u2v2 = u**2 * f["v"] ** 2
    det_th = (-(2.0 * u * u_th * f["v"] ** 2 + u**2 * 2.0 * f["v"] * f["v_th"]) * w
              - 2.0 * d * d_th * w - (u2v2 + d * d) * f["W_th"]
              + 2.0 * u * u_th * k + u**2 * k_th)
    det_ph = (-(2.0 * u * u_ph * f["v"] ** 2 + u**2 * 2.0 * f["v"] * f["v_ph"]) * w
              - 2.0 * d * d_ph * w - (u2v2 + d * d) * f["W_ph"]
              + 2.0 * u * u_ph * k + u**2 * k_ph)
    dth_half = det_th / (2.0 * det)
    dph_half = det_ph / (2.0 * det)

    cf_be, ce_af = f["cf_be"], f["ce_af"]
    cf_be_th = f["c_th"] * f["f"] + c * f["f_th"] - f["b_th"] * f["e"] - b * f["e_th"]
    cf_be_ph = f["c_ph"] * f["f"] + c * f["f_ph"] - f["b_ph"] * f["e"] - b * f["e_ph"]
    ce_af_th = f["c_th"] * f["e"] + c * f["e_th"] - f["a_th"] * f["f"] - a * f["f_th"]
    ce_af_ph = f["c_ph"] * f["e"] + c * f["e_ph"] - f["a_ph"] * f["f"] - a * f["f_ph"]

    u2_thth = 2.0 * (u_th**2 + u * f["u_th_th"])
    u2_thph = 2.0 * (u_th * u_ph + u * f["u_th_ph"])
    u2_phph = 2.0 * (u_ph**2 + u * f["u_ph_ph"])

    # |g_S| Lap(d)
    coef_th, coef_ph = gs_laplacian_coefficients(f, cot)
    lap = (gs_trace(f, f["d_th_th"], f["d_th_ph"], f["d_ph_ph"])
           + coef_th * d_th + coef_ph * d_ph)

    t1 = b * f["e_r_th"] - c * f["f_r_th"] - c * f["e_r_ph"] + a * f["f_r_ph"]
    t2 = -(d / u**2) * gs_trace(f, u2_thth, u2_thph, u2_phph)
    t3 = (cf_be / w) * (b * f["a_r_th"] - c * f["c_r_th"]
                        - c * f["a_r_ph"] + a * f["c_r_ph"])
    t4 = (ce_af / w) * (b * f["c_r_th"] - c * f["b_r_th"]
                        - c * f["c_r_ph"] + a * f["b_r_ph"])
    t5 = cot * (b * d_th - c * d_ph)
    t6 = -dth_half * (b * f["e_r"] + b * d_th - c * f["f_r"] - c * d_ph)
    t7 = -dph_half * (-c * f["e_r"] - c * d_th + a * f["f_r"] + a * d_ph)
    t8 = -(2.0 / u) * ((d_th - 2.0 * d * u_th / u - d * dth_half) * (b * u_th - c * u_ph)
                       + (d_ph - 2.0 * d * u_ph / u - d * dph_half) * (-c * u_th + a * u_ph))
    t9 = ((cf_be_th - cf_be * (dth_half + 2.0 * cot)) * (b * f["a_r"] - c * f["c_r"])
          + (cf_be_ph - cf_be * dph_half) * (-c * f["a_r"] + a * f["c_r"])) / w
    t10 = ((ce_af_th - ce_af * (dth_half + 2.0 * cot)) * (b * f["c_r"] - c * f["b_r"])
           + (ce_af_ph - ce_af * dph_half) * (-c * f["c_r"] + a * f["b_r"])) / w
    t11 = (f["b_th"] * f["e_r"] - f["c_ph"] * f["e_r"]
           - f["c_th"] * f["f_r"] + f["a_ph"] * f["f_r"])
    t12 = -(2.0 * d / u) * (f["b_th"] * u_th - f["c_ph"] * u_th
                            - f["c_th"] * u_ph + f["a_ph"] * u_ph)
    t13 = ((cf_be / w) * (f["b_th"] * f["a_r"] - f["a_r"] * f["c_ph"]
                          - f["c_r"] * f["c_th"] + f["a_ph"] * f["c_r"])
           + (ce_af / w) * (f["b_th"] * f["c_r"] - f["c_r"] * f["c_ph"]
                            - f["b_r"] * f["c_th"] + f["a_ph"] * f["b_r"]))
    return lap + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9 + t10 + t11 + t12 + t13


# every component depends on r, th and ph, so that no term of the assembled
# form vanishes identically (on the seeds u is radial and e, f do not depend
# on r, which zeroes t1, t2, t4 and t11)
GENERIC = {"v": "1+0.1*r*sin(th)^2*cos(ph)", "d": "0.05*r*sin(th)^3*sin(ph)",
           "e": "0.1*r*sin(th)^5*cos(ph)", "f": "0.1*r*sin(th)^5*sin(ph+0.3)",
           "u": "1+0.2*r*sin(th)^2*sin(ph)", "a": "r^2*(1+0.1*r*sin(th)^2*cos(ph))",
           "b": "r^2*sin(th)^2*(1+0.05*r*cos(th)^2*sin(ph))",
           "c": "0.1*r^3*sin(th)^3*sin(ph)"}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ("e", "ef", "ea", "c", "ac", "generic"))
def test_assembled_form_on_compact_jets_is_bitwise(kind, size):
    """The d-free stage of the assembled form reads each jet at its own
    size: its result equals, bit for bit, the form on the same fields
    materialised to full-grid copies, with d sampled on the grid, and the
    one-pass reference; so does the Picard map's input, where the second
    partials of d are zero."""
    g = BlockMetric(**GENERIC) if kind == "generic" else build_seed(kind, 0.1)
    grid = SphereGrid(0.0, 2.0, *size)
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _ASSEMBLED_JETS + _D_SECOND_JETS)
    fd = _grid_d_data(grid, f, np.array(np.broadcast_to(f["d"], size)))
    full = {k: np.array(np.broadcast_to(v, size)) for k, v in fd.items()}
    assert any(np.shape(v) != size for v in fd.values())
    assert all(v.shape == size for v in full.values())
    closed = assembled_form(grid, fd)
    _same(closed, assembled_form(grid, full), size)
    _same(closed, _one_pass_assembled_form(grid, full), size)
    picard = {**fd, "d_th_th": 0.0, "d_th_ph": 0.0, "d_ph_ph": 0.0}
    _same(assembled_form(grid, picard), _one_pass_assembled_form(grid, picard), size)


def test_d_free_stage_keeps_separable_factors_compact():
    grid = SphereGrid(0.0, 2.0, 16, 32)
    f = surface_fields(build_seed("ef", 0.1), grid.env(),
                       extra=_CLOSED_FORM_JETS + _ASSEMBLED_JETS)
    p = _assembled_d_free(grid, f)
    assert p["a"].shape == p["u"].shape == p["u2"].shape == (1, 1)
    assert p["b"].shape == p["tr_u2"].shape == (16, 1)
    assert p["t3"].shape == (16, 32)


# ---------------------------------------------------------------------------
# one evaluate pass, only the requested jets
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluate_calls(monkeypatch):
    """The plans handed to evaluate by the jet evaluator."""
    calls = []

    def counting(plan, env):
        assert isinstance(plan, expr.Plan)
        calls.append(plan)
        return evaluate(plan, env)

    monkeypatch.setattr(chart, "evaluate", counting)
    return calls


def test_component_jets_evaluate_only_the_requested_keys(evaluate_calls):
    g = build_seed("ef", 0.1)
    keys = ("a", "u_th", "d_th_ph")
    env = SphereGrid(0.0, 3.0, 16, 32).env()
    jets = component_jets(g, env, keys)
    assert list(jets) == list(keys)
    assert {k: v.shape for k, v in jets.items()} == {"a": (1, 1), "u_th": (), "d_th_ph": (16, 32)}
    assert not any(v.flags.writeable for v in jets.values())
    assert len(evaluate_calls) == 1 and evaluate_calls[0] is g._store[keys]
    requested = [g.deriv("a"), g.deriv("u", "th"), g.deriv("d", "th", "ph")]
    assert len(evaluate_calls[0].roots) == len(requested)
    for key, e in zip(keys, requested):
        assert np.array_equal(jets[key], evaluate(e, env)), key


@pytest.mark.parametrize("run, n_jets", [
    (lambda g, gr: surface_fields(g, gr.env()), len(SURFACE_JETS)),
    (lambda g, gr: hawking_mass(g, gr), len(SURFACE_JETS)),
    (lambda g, gr: straight_out_residual(g, gr), len(SURFACE_JETS) + 8 + 16),
    (lambda g, gr: solve_straight_out_d(g, gr, max_iter=1), len(SURFACE_JETS) + 6 + 13),
    (lambda g, gr: frame_data(g, gr.env()), 29),
])
def test_each_sphere_quantity_takes_one_evaluate_pass(evaluate_calls, run, n_jets):
    run(build_seed("ef", 0.1), SphereGrid(0.0, 4.7, 16, 32))
    assert [len(plan.roots) for plan in evaluate_calls] == [n_jets]


def test_hawking_plan_holds_no_partial_of_d(evaluate_calls):
    """hawking_mass runs the SURFACE_JETS plan, and no partial of d is in
    it: each one, added as a root, adds steps, where a subtree the plan
    already holds would share its slot."""
    g = build_seed("ef", 0.1)
    hawking_mass(g, SphereGrid(0.0, 4.7, 16, 32))
    (plan,) = evaluate_calls
    assert plan is g._store[SURFACE_JETS]
    roots = [g.deriv(*k.split("_")) for k in SURFACE_JETS]
    for x in expr.COORDS:
        assert len(expr.Plan(roots + [g.deriv("d", x)]).steps) > len(plan.steps), x


def test_frame_data_compiles_its_plan_once_per_metric(evaluate_calls):
    """frame_data keeps its plan on the metric, as component_jets does: a
    second call hands evaluate the very plan of the first, that plan gives
    bit for bit what a plan compiled afresh from the same expressions gives,
    and so do the two calls' frame data."""
    from imcvf.steering import _frame_roots

    g = build_seed("ef", 0.1)
    env = SphereGrid(0.0, 4.7, 16, 32).env()
    first, second = frame_data(g, env), frame_data(g, env)
    assert len(evaluate_calls) == 2 and evaluate_calls[0] is evaluate_calls[1]
    kept, fresh = evaluate(evaluate_calls[0], env), evaluate(expr.Plan(_frame_roots(g)), env)
    assert [_bits(v) for v in kept] == [_bits(v) for v in fresh]
    assert ([_bits(v) for v in dataclasses.astuple(first)]
            == [_bits(v) for v in dataclasses.astuple(second)])


def _bits(value):
    """value as bytes, equal exactly where two results are equal bit for
    bit; a report by its repr, which spells each float to its last bit."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value).tobytes()
    return repr(value)


_POINT = CoordinatePoint(0.3, 2.7, 1.1, 4.0).env()


@pytest.mark.parametrize("quantity", [
    lambda g, gr: hawking_mass(BlockMetric(**g.comps, theta_min=g.theta_min), gr),
    lambda g, gr: mean_curvature_values(g, gr.env(), method="closed"),
    lambda g, gr: mean_curvature_values(g, gr.env(), method="trace"),
    lambda g, gr: mean_curvature_values(g, _POINT, method="closed"),
    lambda g, gr: mean_curvature_values(g, _POINT, method="trace"),
    lambda g, gr: first_variation_area_check(g, gr),
    lambda g, gr: validate_chart(g),
], ids=["hawking", "closed", "trace", "closed-point", "trace-point", "first-variation",
        "validate"])
def test_surface_jets_give_the_bits_of_every_first_jet(seed_charts, monkeypatch, quantity):
    """Each sphere quantity on the twelve seeds, at 16x32 or at a point,
    holds the same bits from the SURFACE_JETS fields as from fields that
    hold every FIRST_JETS key: the jets surface_fields leaves out are jets
    none of them reads.  hawking_mass runs on a fresh copy of each metric,
    which records its tape, and so its surface_fields, anew."""
    grid = SphereGrid(0.3, 2.7, 16, 32)
    lean = [_bits(quantity(g, grid)) for _, _, g in seed_charts]
    real, calls = sphere.surface_fields, []

    def every_first_jet(g, env, extra=()):
        calls.append(g)
        return real(g, env, extra=FIRST_JETS + tuple(extra))

    monkeypatch.setattr(sphere, "surface_fields", every_first_jet)
    monkeypatch.setattr(builder, "surface_fields", every_first_jet)
    full = [_bits(quantity(g, grid)) for _, _, g in seed_charts]
    assert len(calls) == len(seed_charts)
    assert lean == full


def test_evaluate_sequence_shares_one_memo():
    """A repeated root, and a structurally equal copy of it, are one slot:
    the plan of [e, e] or [e, copy] has the steps of the plan of [e]."""
    e = parse("sin(th)^9*cos(ph) + r^2")
    copy = parse("sin(th)^9*cos(ph) + r^2")
    one, two, merged = expr.Plan([e]), expr.Plan([e, e]), expr.Plan([e, copy])
    assert len(two.steps) == len(merged.steps) == len(one.steps)
    assert two.roots == merged.roots == one.roots * 2
    env = SphereGrid(0.0, 2.0, 16, 32).env()
    alone, both = evaluate([e], env), evaluate(merged, env)
    assert np.array_equal(both[0], alone[0]) and both[1] is both[0]


@pytest.mark.parametrize("where", ["point", "grid"])
def test_plan_gives_each_root_the_bits_it_has_alone(seed_charts, where):
    """Every first and second jet of the twelve seeds, from the metric's
    plan (component_jets), equals bit for bit (and in shape) the root
    evaluated alone, at a point and on a 16x32 sphere, though the plan
    merges equal subtrees."""
    keys = FIRST_JETS + SECOND_JETS
    env = ({"t": 0.3, "r": 2.7, "th": 1.1, "ph": 4.0} if where == "point"
           else SphereGrid(0.3, 2.7, 16, 32).env())
    for kind, eps, g in seed_charts:
        together = component_jets(g, env, keys)
        for key, value in together.items():
            alone = evaluate(g.deriv(*key.split("_")), env)
            assert np.shape(value) == np.shape(alone), (kind, eps, key)
            assert np.asarray(value).tobytes() == np.asarray(alone).tobytes(), (kind, eps, key)


def test_two_threads_on_a_fresh_metric_give_the_bits_of_one():
    """Threads that start together on a fresh BlockMetric (four of them,
    more than the cores, with a short switch interval) all miss its plan:
    the first to take the store's lock compiles it, every one gets that
    plan, and the jets and masses are those of one thread on another fresh
    copy, bit for bit."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    grids = [SphereGrid(0.0, r, 16, 32) for r in (2.0, 3.5, 5.0, 7.5)]
    alone = build_seed("ea", 0.1)
    expected = [(component_jets(alone, gr.env(), FIRST_JETS), hawking_mass(alone, gr))
                for gr in grids]
    shared = build_seed("ea", 0.1)
    barrier = threading.Barrier(len(grids), timeout=30)

    def run(grid):
        barrier.wait()
        jets = component_jets(shared, grid.env(), FIRST_JETS)
        return shared._store[FIRST_JETS], jets, hawking_mass(shared, grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(grids)) as pool:
            got = [job.result(timeout=60) for job in [pool.submit(run, gr) for gr in grids]]
    finally:
        sys.setswitchinterval(interval)
    assert list(shared._store)[:2] == [FIRST_JETS, SURFACE_JETS] and len(shared._store) == 3
    assert all(plan is shared._store[FIRST_JETS] for plan, _, _ in got)
    for (_, jets, mass), (ref_jets, ref_mass) in zip(got, expected):
        assert mass == ref_mass
        for key in FIRST_JETS:
            assert jets[key].tobytes() == ref_jets[key].tobytes(), key


# ---------------------------------------------------------------------------
# one numeric path: a point is a grid of one node
# ---------------------------------------------------------------------------

def _point_and_node(exprs, point):
    """The expressions at a point (scalar env) and on the same point as a
    grid of one node (1-element array env), as float64 arrays."""
    at_point = evaluate(exprs, point)
    on_node = evaluate(exprs, {k: np.array([v]) for k, v in point.items()})
    return (np.array(at_point, dtype=float),
            np.array([np.broadcast_to(v, (1,))[0] for v in on_node], dtype=float))


def test_point_evaluation_equals_one_node_grid_bitwise(seed_charts):
    """Every jet the curvature uses, at random points of the twelve seeds:
    a scalar env takes the same numpy functions as an array env, so the
    values agree bit for bit (signed zeros and nan payloads included)."""
    rng = np.random.default_rng(5)
    keys = FIRST_JETS + SECOND_JETS
    for _, _, g in seed_charts:
        exprs = [g.deriv(*k.split("_")) for k in keys]
        for t, r, th, ph in rng.uniform([-1.0, 1.5, 0.1, 0.0], [1.0, 8.0, 3.0, 6.28], (10, 4)):
            point, node = _point_and_node(exprs, {"t": t, "r": r, "th": th, "ph": ph})
            assert point.tobytes() == node.tobytes()


@pytest.mark.parametrize("quantity", [metric_values, det_values, inverse_values,
                                      christoffel_values, curvature_values, star_values,
                                      frame_values])
def test_point_quantity_equals_one_node_grid_bitwise(seed_charts, quantity):
    """Each quantity at CoordinatePoint.env() is, bit for bit, its value on
    a grid of that one node (every key of a dict result), so a point needs
    no function of its own."""
    rng = np.random.default_rng(11)
    for _, _, g in seed_charts:
        for t, r, th, ph in rng.uniform([-1.0, 1.5, 0.1, 0.0], [1.0, 8.0, 3.0, 6.28], (5, 4)):
            point = CoordinatePoint(t, r, th, ph).env()
            at_point = quantity(g, point)
            on_node = quantity(g, {k: np.array([v]) for k, v in point.items()})
            if not isinstance(at_point, dict):
                at_point, on_node = {"": at_point}, {"": on_node}
            assert at_point.keys() == on_node.keys()
            for key, value in at_point.items():
                assert np.shape(value) == on_node[key].shape[1:], key
                assert np.asarray(value).tobytes() == on_node[key][0].tobytes(), key


@pytest.mark.parametrize("source, r", [("exp(r)", 1000.0), ("r^2", 1e200)])
def test_overflow_at_a_point_is_inf_as_on_a_grid(source, r):
    with np.errstate(over="ignore"):
        point, node = _point_and_node([parse(source)], {"r": r})
    assert point.tobytes() == node.tobytes() and point[0] == np.inf


@pytest.mark.parametrize("n", [1, 2, 3, 7, 33])
def test_point_set_as_one_grid_equals_each_point_bitwise(seed_charts, n):
    """curvature_values on n points stacked into one 1-D env (as `imcvf
    curvature --points` evaluates them) gives, bit for bit, each point's own
    one-point call, for every key; two of the points lie outside [0, 2 pi)
    in phi and are taken at their normalized ph."""
    rng = np.random.default_rng(n)
    for _, _, g in seed_charts:
        rows = rng.uniform([-1.0, 1.5, 0.1, 0.0], [1.0, 8.0, 3.0, 6.28], (n, 4))
        rows[:2, 3] = (7.0, -1.0)[:n]
        points = [CoordinatePoint(*row) for row in rows]
        stacked = curvature_values(g, {x: np.array([getattr(p, x) for p in points])
                                       for x in ("t", "r", "th", "ph")})
        for k, point in enumerate(points):
            alone = curvature_values(g, point.env())
            assert stacked.keys() == alone.keys()
            for key, value in alone.items():
                assert stacked[key][k].tobytes() == np.asarray(value).tobytes(), (key, k)
