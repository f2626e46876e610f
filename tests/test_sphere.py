"""Sphere grid, normal frame, mean curvature, Hawking mass, Laplacian."""

import math

import numpy as np
import pytest

from imcvf.chart import BlockMetric, CoordinatePoint, SphericalMetric
from imcvf.errors import NullMeanCurvatureError
from imcvf.grid import SphereGrid
from imcvf.sphere import (
    MeanCurvatureDecomp,
    first_variation_area_check,
    hawking_mass,
    inverse_mean_curvature_vector,
    mean_curvature_values,
    mean_curvature_vector,
    normal_inner_products,
    sphere_frame,
    sphere_laplacian,
    star_from_christoffel,
    star_values,
    surface_fields,
)
from imcvf.expr import parse


def minkowski():
    return SphericalMetric("1", "1").block()


def e_perturbed(eps=0.01):
    """Valid-layout chart with a timelike-angular mixing term."""
    return BlockMetric(v="1", d="0", e=f"{eps}*sin(th)^4*cos(ph)", f="0",
                       u="1+0.2/r", a="r^2", b="r^2*sin(th)^2", c="0")


# ---------------------------------------------------------------------------
# grid and transforms
# ---------------------------------------------------------------------------

def test_weights_sum_to_4pi():
    grid = SphereGrid(0.0, 2.0, 32, 64)
    assert abs(grid.weights.sum() - 4 * math.pi) <= 1e-12


def test_area_of_round_sphere():
    grid = SphereGrid(0.0, 3.0, 24, 48)
    area = grid.integrate(np.full((24, 48), grid.r**2))
    assert area == pytest.approx(4 * math.pi * 9.0, rel=1e-10)


def test_spectral_derivatives_exact_on_harmonics():
    grid = SphereGrid(0.0, 1.0, 24, 48)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    f = np.sin(th) * np.cos(ph)
    np.testing.assert_allclose(grid.d_theta(f), np.cos(th) * np.cos(ph), atol=1e-12)
    np.testing.assert_allclose(grid.d_phi(f), -np.sin(th) * np.sin(ph), atol=1e-12)


def test_round_laplacian_eigenfunctions():
    grid = SphereGrid(0.0, 2.0, 24, 48)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    r2 = grid.r**2
    f1 = np.cos(th) * np.ones_like(ph)
    np.testing.assert_allclose(grid.laplacian_round(f1), -2.0 * f1 / r2, atol=1e-12)
    f2 = np.sin(th) * np.cos(ph)
    np.testing.assert_allclose(grid.laplacian_round(f2), -2.0 * f2 / r2, atol=1e-12)


def test_poisson_round_inverts_laplacian():
    grid = SphereGrid(0.0, 1.0, 24, 48)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    psi = np.sin(th) ** 2 * np.cos(2 * ph) + 0.3 * np.cos(th)
    sol = grid.solve_poisson_round(grid.laplacian_round(psi))
    np.testing.assert_allclose(sol, grid.mean_zero(psi), atol=1e-11)


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

def test_frame_spherical():
    g = SphericalMetric("1+1/r", "1+0.5/r").block()
    node = CoordinatePoint(0.0, 2.0, 1.1, 0.3)
    fr = sphere_frame(g, node)
    np.testing.assert_allclose(fr.n, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert fr.nn == pytest.approx(-(1.25) ** 2, rel=1e-12)


def test_frame_with_d_only():
    g = BlockMetric(v="1", d="0.2", e="0", f="0", u="2", a="r^2",
                    b="r^2*sin(th)^2", c="0")
    fr = sphere_frame(g, CoordinatePoint(0.0, 2.0, 1.0, 0.0))
    np.testing.assert_allclose(fr.n, [1.0, -0.05, 0.0, 0.0], atol=1e-15)


def test_frame_minkowski():
    fr = sphere_frame(minkowski(), CoordinatePoint(0.0, 2.0, 1.0, 0.0))
    np.testing.assert_allclose(fr.e_n, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(fr.e_r, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_frame_orthogonality_and_norm():
    rng = np.random.default_rng(31)
    g = BlockMetric(v="1+0.1/r", d="0.05*sin(th)^2", e="0.03*sin(th)^3*cos(ph)",
                    f="0.02*sin(th)^3*sin(ph)", u="1+0.3/r",
                    a="r^2*(1+0.05*sin(th)*cos(ph))", b="r^2*sin(th)^2", c="0.01*r^2*sin(th)^2")
    for _ in range(20):
        node = CoordinatePoint(rng.uniform(-1, 1), rng.uniform(1.5, 6.0),
                               rng.uniform(0.4, math.pi - 0.4),
                               rng.uniform(0, 2 * math.pi))
        ips = normal_inner_products(g, node)
        assert abs(ips["n_dr"]) <= 1e-10
        assert abs(ips["n_dth"]) <= 1e-10
        assert abs(ips["n_dph"]) <= 1e-10
        assert ips["nn_closed"] < 0
        assert ips["nn_direct"] == pytest.approx(ips["nn_closed"], rel=1e-10)


# ---------------------------------------------------------------------------
# star invariant
# ---------------------------------------------------------------------------

def test_star_spherical_is_zero():
    g = SphericalMetric("1+1/r", "1").block()
    star = star_values(g, CoordinatePoint(0.0, 2.0, 1.0, 0.5).env())
    assert star == pytest.approx(0.0, abs=1e-15)


def test_star_matches_christoffel_contraction():
    g = e_perturbed(0.05)
    grid = SphereGrid(0.0, 2.5, 16, 32)
    env = grid.env()
    closed = star_values(g, env)
    oracle = star_from_christoffel(g, env)
    assert np.max(np.abs(closed)) > 1e-4      # genuinely nonzero
    np.testing.assert_allclose(closed, oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# mean curvature and its inverse
# ---------------------------------------------------------------------------

def test_mean_curvature_spherical():
    g = SphericalMetric("1+1/r", "1").block()
    node = CoordinatePoint(0.0, 2.0, 1.2, 0.1)
    mc = mean_curvature_vector(g, node)
    assert mc.H_r == pytest.approx(-2.0 / (2.0 * 1.5), rel=1e-12)
    assert mc.H_n == pytest.approx(0.0, abs=1e-14)


def test_mean_curvature_minkowski():
    mc = mean_curvature_vector(minkowski(), CoordinatePoint(0.0, 2.0, 1.0, 0.0))
    assert mc.H_r == pytest.approx(-1.0, rel=1e-14)
    assert mc.H_n == pytest.approx(0.0, abs=1e-14)


def test_trace_formula_agrees_with_closed_form():
    g = e_perturbed(0.02)
    grid = SphereGrid(0.0, 3.0, 16, 32)
    env = grid.env()
    hr_c, hn_c, _ = mean_curvature_values(g, env, method="closed")
    hr_t, hn_t, _ = mean_curvature_values(g, env, method="trace")
    np.testing.assert_allclose(hr_t, hr_c, atol=1e-10)
    np.testing.assert_allclose(hn_t, hn_c, atol=1e-10)


def test_auto_method_falls_back_without_area_constraint():
    """A chart violating ab - c^2 = r^4 sin^2(th) must not get the radial
    closed form: auto dispatches to the trace formula."""
    g = BlockMetric(v="1", d="0", e="0", f="0", u="1",
                    a="r^3", b="r^2*sin(th)^2", c="0")
    node = CoordinatePoint(0.0, 2.0, 1.0, 0.0)
    mc = mean_curvature_vector(g, node)
    hr_t, _, _ = mean_curvature_values(g, node.env(), method="trace")
    assert mc.H_r == pytest.approx(float(hr_t), rel=1e-12)
    # a ~ r^3 makes the theta leg contribute -1.5/r: H_r = -2.5/r here
    assert mc.H_r == pytest.approx(-2.5 / node.r, rel=1e-12)


def test_inverse_mean_curvature_examples():
    i_r, i_n = inverse_mean_curvature_vector(MeanCurvatureDecomp(-1.0, 0.0, 0.0))
    assert (i_r, i_n) == (1.0, 0.0)
    i_r, i_n = inverse_mean_curvature_vector(MeanCurvatureDecomp(-2.0, 1.0, 0.0))
    assert i_r == pytest.approx(2.0 / 3.0)
    assert i_n == pytest.approx(-1.0 / 3.0)
    with pytest.raises(NullMeanCurvatureError):
        inverse_mean_curvature_vector(MeanCurvatureDecomp(1.0, 1.0, 0.0))


def test_inverse_mean_curvature_spherical_is_radial_flow():
    g = SphericalMetric("1+1/r", "1").block()
    node = CoordinatePoint(0.0, 2.0, 1.0, 0.0)
    mc = mean_curvature_vector(g, node)
    i_r, i_n = inverse_mean_curvature_vector(mc)
    u = 1.5
    assert i_r / u == pytest.approx(node.r / 2.0, rel=1e-12)  # I = (r/2) d_r
    assert i_n == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Hawking mass
# ---------------------------------------------------------------------------

def test_hawking_mass_minkowski_zero():
    grid = SphereGrid(0.0, 2.0, 16, 32)
    assert abs(hawking_mass(minkowski(), grid)) <= 1e-9


def test_hawking_mass_schwarzschild():
    g = SphericalMetric(parse("(1-2/r)^(-0.5)"), parse("(1-2/r)^0.5")).block()
    grid = SphereGrid(0.0, 5.0, 16, 32)
    assert hawking_mass(g, grid) == pytest.approx(1.0, abs=1e-8)


def test_hawking_mass_constant_u():
    g = SphericalMetric("2", "1").block()
    grid = SphereGrid(0.0, 3.0, 16, 32)
    assert hawking_mass(g, grid) == pytest.approx(1.125, abs=1e-8)


# ---------------------------------------------------------------------------
# surface Laplacian
# ---------------------------------------------------------------------------

def test_sphere_laplacian_round_eigenfunctions():
    g = minkowski()
    grid = SphereGrid(0.0, 2.0, 16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    psi = np.cos(th) * np.ones_like(ph)
    np.testing.assert_allclose(sphere_laplacian(g, grid, psi),
                               -2.0 * psi / grid.r**2, atol=1e-11)
    psi2 = np.sin(th) * np.cos(ph)
    np.testing.assert_allclose(sphere_laplacian(g, grid, psi2),
                               -2.0 * psi2 / grid.r**2, atol=1e-11)


def test_sphere_laplacian_annihilates_constants():
    g = minkowski()
    grid = SphereGrid(0.0, 2.0, 16, 32)
    out = sphere_laplacian(g, grid, np.ones((16, 32)))
    assert np.max(np.abs(out)) <= 1e-13


@pytest.mark.parametrize("n", [16, 64, 128])
def test_spectral_derivatives_send_constants_to_exact_zero(n):
    grid = SphereGrid(0.0, 2.0, n, 2 * n)
    const = np.full((n, 2 * n), 4.0)
    for op in (grid.d_theta, grid.d2_theta, grid.d_phi, grid.laplacian_round):
        assert np.all(op(const) == 0.0), op.__name__


def test_d2_theta_of_field_with_large_mean():
    grid = SphereGrid(0.0, 2.0, 128, 256)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    f = 4.0 + 0.1 * np.sin(th) ** 2 * np.cos(2 * ph)
    exact = 0.2 * np.cos(2 * th) * np.cos(2 * ph)
    assert np.max(np.abs(grid.d2_theta(f) - exact)) <= 1e-10


def test_sphere_laplacian_divergence_theorem():
    g = minkowski()
    grid = SphereGrid(0.0, 2.0, 24, 48)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    psi = np.exp(np.sin(th) * np.cos(ph))
    lap = sphere_laplacian(g, grid, psi)
    total = grid.integrate(lap * grid.r**2)
    assert abs(total) <= 1e-6 * np.max(np.abs(psi))


# ---------------------------------------------------------------------------
# first variation of area
# ---------------------------------------------------------------------------

def test_first_variation_spherical_and_minkowski():
    grid = SphereGrid(0.0, 2.0, 12, 24)
    assert first_variation_area_check(minkowski(), grid) <= 1e-10
    g = SphericalMetric("1+1/r", "1+0.2/r").block()
    assert first_variation_area_check(g, grid) <= 1e-10


def test_first_variation_perturbed_chart():
    grid = SphereGrid(0.0, 3.0, 16, 32)
    assert first_variation_area_check(e_perturbed(0.05), grid) <= 1e-8


# ---------------------------------------------------------------------------
# trace formula: only the Christoffel entries it reads
# ---------------------------------------------------------------------------

def test_tangent_christoffel_matches_generic_christoffel():
    from conftest import build_seed
    from imcvf.chart import PH, R, T, TH
    from imcvf.curvature import christoffel_values
    from imcvf.sphere import _tangent_christoffel

    g = build_seed("ef", 0.1)
    env = SphereGrid(0.0, 2.5, 64, 128).env()
    full = christoffel_values(g, env)
    rows = _tangent_christoffel(surface_fields(g, env))
    for k, row in zip((T, R), rows):
        for p, (i, j) in enumerate(((TH, TH), (TH, PH), (PH, PH))):
            ref = full[..., k, i, j]
            scale = np.max(np.abs(ref))
            assert scale > 0.0
            assert np.max(np.abs(row[p] - ref)) <= 1e-13 * scale, (k, i, j)


@pytest.mark.parametrize("size", ((16, 32), (64, 128)))
def test_tangent_christoffel_rows_equal_generic_rows_bitwise(seed_charts, size):
    """Same P entries, same cofactors and the same fixed-order raise as
    christoffel_values, so the trace formula's rows carry the same bits."""
    from imcvf.chart import PH, R, T, TH
    from imcvf.curvature import christoffel_values
    from imcvf.sphere import _tangent_christoffel

    env = SphereGrid(0.0, 2.5, *size).env()
    for kind, eps, g in seed_charts:
        full = christoffel_values(g, env)
        rows = _tangent_christoffel(surface_fields(g, env))
        for k, row in zip((T, R), rows):
            for p, (i, j) in enumerate(((TH, TH), (TH, PH), (PH, PH))):
                assert np.array_equal(np.broadcast_to(row[p], size), full[..., k, i, j]), \
                    (kind, eps, k, i, j)


def test_hawking_mass_peak_memory_at_128x256():
    """The trace formula forms no (4, 4, 4)-per-node array: one 128x256
    sphere stays well below the 16 MB such an array alone would take."""
    import tracemalloc

    from conftest import build_seed

    g = build_seed("ef", 0.1)
    grid = SphereGrid(0.0, 2.0, 128, 256)
    hawking_mass(g, grid)
    tracemalloc.start()
    try:
        hawking_mass(g, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_trace_formula_raises_on_singular_metric():
    from imcvf.errors import SingularMetricError

    g = BlockMetric(v="0", d="0", e="0", f="0", u="1",
                    a="r^2", b="r^2*sin(th)^2", c="0")
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(SingularMetricError):
        mean_curvature_values(g, SphereGrid(0.0, 2.0, 16, 32).env(), method="trace")


def test_hawking_mass_does_not_fill_metric_first_partials(monkeypatch):
    from imcvf import curvature

    def fail(*args):
        raise AssertionError("the trace formula filled the full dg array")

    monkeypatch.setattr(curvature, "_metric_first_partials", fail)
    m = hawking_mass(SphericalMetric("(1-2/r)^(-0.5)", "(1-2/r)^0.5").block(),
                     SphereGrid(0.0, 5.0, 16, 32))
    assert abs(m - 1.0) < 1e-8


def test_trace_oracle_fails_when_area_constraint_is_broken():
    """The trace formula reads no closed form, so on a chart with
    ab - c^2 != r^4 sin^2 it parts from H_r = -2/(r u)."""
    from imcvf.builder import validate_chart

    g = BlockMetric(v="1", d="0", e="0", f="0", u="1+0.2/r",
                    a="r^2*(1+0.1*r*sin(th)^2)", b="r^2*sin(th)^2", c="0")
    grid = SphereGrid(0.0, 2.0, 16, 32)
    hr_c, _, _ = mean_curvature_values(g, grid.env(), method="closed")
    hr_t, _, _ = mean_curvature_values(g, grid.env(), method="trace")
    assert np.max(np.abs(hr_t - hr_c)) > 1e-3
    rep = validate_chart(g)
    assert rep.h_r_err_max > 1e-3 and not rep.passed


def _replace_star_values(monkeypatch, replacement):
    """Put replacement in place of star_values in every imcvf module that
    holds it, so a call through any import of it is seen."""
    import sys

    original = star_values
    for name, module in list(sys.modules.items()):
        if name.startswith("imcvf") and getattr(module, "star_values", None) is original:
            monkeypatch.setattr(module, "star_values", replacement)


def test_trace_route_forms_no_star(monkeypatch):
    """Hawking mass, the first-variation check, the time-flat predicate and
    the steering lemma's H_{e_r} take H from the trace formula alone; none
    of them computes the closed-form star it is checked against."""
    from imcvf.steering import trace_h_er
    from imcvf.straightout import is_time_flat

    def fail(*args, **kwargs):
        raise AssertionError("the trace route computed star_values")

    g = SphericalMetric("1+1/r", "1").block()
    grid = SphereGrid(0.0, 2.0, 16, 32)
    _replace_star_values(monkeypatch, fail)
    assert hawking_mass(g, grid) == pytest.approx(0.5 * 2.0 * (1.0 - 1.0 / 1.5**2), abs=1e-10)
    assert first_variation_area_check(g, grid) <= 1e-10
    assert is_time_flat(g, grid)[0]
    assert np.allclose(trace_h_er(g, grid.env()), 2.0 / (2.0 * 1.5))


def test_validate_chart_forms_star_once(monkeypatch, seed_charts):
    from imcvf.builder import validate_chart

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return star_values(*args, **kwargs)

    _replace_star_values(monkeypatch, counted)
    for _, _, g in seed_charts[:3]:
        before = len(calls)
        assert validate_chart(g).passed
        assert len(calls) - before == 1
