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
from imcvf.chart import FIRST_JETS, R, T, component_jets, inverse_from_components
from imcvf.errors import ConvergenceError
from imcvf.expr import evaluate, parse
from imcvf.grid import SphereGrid
from imcvf.sphere import hawking_mass, mean_curvature_values, surface_fields
from imcvf.steering import frame_data, steering_parameter
from imcvf.straightout import solve_straight_out_d, straight_out_residual

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


def test_inverse_rows_equal_rows_of_the_full_inverse(seed):
    f = surface_fields(seed, SphereGrid(0.0, 2.5, 64, 128).env())
    full = inverse_from_components(f, (64, 128))
    rows = inverse_from_components(f, (64, 128), rows=(T, R))
    assert rows.shape == (64, 128, 2, 4)
    assert np.array_equal(rows, full[..., (T, R), :])
