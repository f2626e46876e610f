"""The jet evaluator and the separable sphere env.

SphereGrid.env() is separable (t, r as (1, 1), th a column, ph a row), and
every component jet is evaluated through chart.component_jets in one
evaluate pass.  Public results must not depend on that: on the separable
env they equal, bit for bit, the results on the full meshgrid env, and
every array spans the grid."""

import dataclasses

import numpy as np
import pytest

from imcvf import chart, expr
from imcvf.chart import (FIRST_JETS, SECOND_JETS, BlockMetric, CoordinatePoint, component_jets,
                         det_values, inverse_values, metric_values)
from imcvf.curvature import christoffel_values, curvature_values
from imcvf.errors import ConvergenceError
from imcvf.expr import evaluate, parse
from imcvf.grid import SphereGrid
from imcvf.sphere import (gs_laplacian_coefficients, gs_trace, hawking_mass,
                          mean_curvature_values, star_values, surface_fields)
from imcvf.steering import frame_data, steering_parameter
from imcvf.straightout import (_ASSEMBLED_JETS, _D_SECOND_JETS, _assembled_d_free,
                               _grid_d_data, assembled_form, solve_straight_out_d,
                               straight_out_residual)

from conftest import build_seed

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
    assert np.shape(a) == shape and np.shape(b) == shape
    assert np.array_equal(a, b)


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


def test_compact_base_keeps_only_the_distinct_entries():
    col = np.arange(3.0)[:, None]
    view = np.broadcast_to(col, (3, 4))
    base = chart.compact_base(view)
    assert base.shape == (3, 1) and np.array_equal(base, col)
    full = np.arange(12.0).reshape(3, 4)
    assert chart.compact_base(full).shape == full.shape
    assert np.shares_memory(chart.compact_base(full), full)
    assert chart.compact_base(np.broadcast_to(2.5, (3, 4))).shape == (1, 1)


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
    """The d-free stage of the assembled form reads the compact base of each
    broadcast jet: its result equals, bit for bit, the form on the same
    fields materialised to full-grid copies, with d sampled on the grid,
    and the one-pass reference; so does the Picard map's input, where the
    second partials of d are zero."""
    g = BlockMetric(**GENERIC) if kind == "generic" else build_seed(kind, 0.1)
    grid = SphereGrid(0.0, 2.0, *size)
    f = surface_fields(g, grid.env(), extra=_ASSEMBLED_JETS + _D_SECOND_JETS)
    fd = _grid_d_data(grid, f, np.array(f["d"]))
    full = {k: np.array(v) for k, v in fd.items()}
    assert any(0 in v.strides for v in fd.values())
    assert not any(0 in v.strides for v in full.values())
    closed = assembled_form(grid, fd)
    _same(closed, assembled_form(grid, full), size)
    _same(closed, _one_pass_assembled_form(grid, full), size)
    picard = {**fd, "d_th_th": 0.0, "d_th_ph": 0.0, "d_ph_ph": 0.0}
    _same(assembled_form(grid, picard), _one_pass_assembled_form(grid, picard), size)


def test_d_free_stage_keeps_separable_factors_compact():
    grid = SphereGrid(0.0, 2.0, 16, 32)
    f = surface_fields(build_seed("ef", 0.1), grid.env(), extra=_ASSEMBLED_JETS)
    p = _assembled_d_free(grid, f)
    assert p["a"].shape == p["u"].shape == p["u2"].shape == (1, 1)
    assert p["b"].shape == p["tr_u2"].shape == (16, 1)
    assert p["t3"].shape == (16, 32)


# ---------------------------------------------------------------------------
# one evaluate pass, only the requested jets
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluate_calls(monkeypatch):
    """Lists of expressions handed to evaluate by the jet evaluator."""
    calls = []

    def counting(exprs, env):
        exprs = list(exprs)
        calls.append(exprs)
        return evaluate(exprs, env)

    monkeypatch.setattr(chart, "evaluate", counting)
    return calls


def test_component_jets_evaluate_only_the_requested_keys(evaluate_calls):
    g = build_seed("ef", 0.1)
    keys = ("a", "u_th", "d_th_ph")
    jets = component_jets(g, SphereGrid(0.0, 3.0, 16, 32).env(), keys)
    assert list(jets) == list(keys)
    assert all(v.shape == (16, 32) and not v.flags.writeable for v in jets.values())
    assert len(evaluate_calls) == 1
    requested = [g.deriv("a"), g.deriv("u", "th"), g.deriv("d", "th", "ph")]
    assert [id(e) for e in evaluate_calls[0]] == [id(e) for e in requested]


@pytest.mark.parametrize("run, n_jets", [
    (lambda g, gr: surface_fields(g, gr.env()), len(FIRST_JETS)),
    (lambda g, gr: hawking_mass(g, gr), len(FIRST_JETS)),
    (lambda g, gr: straight_out_residual(g, gr), len(FIRST_JETS) + 16),
    (lambda g, gr: solve_straight_out_d(g, gr, max_iter=1), len(FIRST_JETS) + 13),
    (lambda g, gr: frame_data(g, gr.env()), 29),
])
def test_each_sphere_quantity_takes_one_evaluate_pass(evaluate_calls, run, n_jets):
    run(build_seed("ef", 0.1), SphereGrid(0.0, 4.7, 16, 32))
    assert [len(c) for c in evaluate_calls] == [n_jets]


def test_evaluate_sequence_shares_one_memo(monkeypatch):
    e = parse("sin(th)^9*cos(ph) + r^2")
    env = SphereGrid(0.0, 2.0, 16, 32).env()
    visits = []
    real = expr._ev

    def counting(node, *args):
        visits.append(node)
        return real(node, *args)

    monkeypatch.setattr(expr, "_ev", counting)
    one = evaluate([e], env)
    n_one = len(visits)
    visits.clear()
    two = evaluate([e, e], env)
    assert len(visits) == n_one + 1              # the second root is one memo hit
    assert np.array_equal(two[0], one[0]) and two[1] is two[0]


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
                                      christoffel_values, curvature_values, star_values])
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
