"""ADM mass, conformal mass shift, conformal mean curvature, Hawking limit."""

import math

import numpy as np
import pytest

from imcvf.asymptotics import ConformalMetric3, _extrapolate, _sphere_flux, adm_mass
from imcvf.expr import FieldExpr, diff, evaluate, parse
from imcvf.grid import SphereGrid

from conftest import conformal_sphere_mean_curvature, hawking_to_adm_convergence

RADII = (10.0, 20.0, 40.0, 80.0)


def schwarzschild_factor(m=1.0):
    return ConformalMetric3(parse("1+m/(2*r)", params={"m": m}))


def adm_conformal_delta(u3: FieldExpr, radii) -> float:
    """Mass shift of the conformal transformation: the limit of
    -(1/2 pi) times the flux of du/dr through large coordinate spheres."""
    radii = np.sort(np.asarray(radii, dtype=float))
    u_r = ConformalMetric3(u3).jets(radii)[1]
    return _extrapolate(radii, [-_sphere_flux(r, du) / (2.0 * np.pi)
                                for r, du in zip(radii, u_r)])


# ---------------------------------------------------------------------------

def test_flat_mass_zero():
    res = adm_mass(ConformalMetric3(parse("1")), RADII)
    np.testing.assert_allclose(res.values, 0.0, atol=1e-15)
    assert res.mass == pytest.approx(0.0, abs=1e-15)


def test_schwarzschild_mass_extrapolates_to_m():
    res = adm_mass(schwarzschild_factor(1.0), RADII)
    assert res.mass == pytest.approx(1.0, abs=1e-3)
    assert not res.diverging
    # finite-radius values approach from above for this factor
    assert np.all(np.diff(np.abs(res.values - 1.0)) < 0)


def test_subleading_term_does_not_shift_mass():
    res = adm_mass(ConformalMetric3(parse("1+1/(2*r)+1/r^2")), RADII)
    assert res.mass == pytest.approx(1.0, abs=1e-3)


def test_asymptotic_flatness_check():
    """u(1e6) is within 1e-3 of 1 for a decaying factor, not for a growing one."""
    def u_far(factor):
        return float(factor.jets([1e6])[0][0])
    assert abs(u_far(schwarzschild_factor(1.0)) - 1.0) <= 1e-3
    assert not abs(u_far(ConformalMetric3(parse("1+r/1000"))) - 1.0) <= 1e-3


def test_non_decaying_factor_flagged():
    res = adm_mass(ConformalMetric3(parse("1+r^2/10000")), RADII)
    assert res.diverging


def _per_radius(u3, r):
    """u and du/dr at one radius, each from its own evaluate pass, as the
    per-radius surface integrals formed them."""
    r = np.asarray(r, dtype=float)
    return (np.asarray(evaluate(u3, {"r": r})), np.asarray(evaluate(diff(u3, "r"), {"r": r})))


@pytest.mark.parametrize("source", ["1+1/(2*r)", "1+1/(2*r)+1/r^2", "exp(0.3/r)", "1",
                                    "1+r^2/10000"])
def test_one_pass_over_the_radii_equals_one_pass_per_radius_bitwise(source):
    """adm_mass, adm_conformal_delta and hawking_to_adm_convergence take u
    and du/dr at all their radii in one pass; every value is, bit for bit,
    the one that a pass per radius gave."""
    u3 = parse(source)
    radii = (10.0, 80.0, 20.0, 40.0, 3.0)
    ordered = np.sort(radii)
    res = adm_mass(ConformalMetric3(u3), radii)
    flux = [_sphere_flux(r, -8.0 * u**3 * du) / (16.0 * np.pi)
            for r, (u, du) in ((r, _per_radius(u3, r)) for r in ordered)]
    assert res.values.tobytes() == np.asarray(flux).tobytes()
    delta = _extrapolate(ordered, [-_sphere_flux(r, _per_radius(u3, r)[1]) / (2.0 * np.pi)
                                   for r in ordered])
    assert np.float64(adm_conformal_delta(u3, radii)).tobytes() == np.float64(delta).tobytes()
    table = hawking_to_adm_convergence(ConformalMetric3(u3), radii, adm_radii=RADII)
    for r, m in zip(table.radii, table.hawking):
        u, du = (float(x) for x in _per_radius(u3, r))
        h = (2.0 / float(r) + 4.0 * du / u) / u**2
        rho = r * u**2
        expected = rho / 2.0 * (1.0 - (rho * h / 2.0) ** 2)
        assert np.float64(m).tobytes() == np.float64(expected).tobytes()
        assert h == conformal_sphere_mean_curvature(u3, float(r))


def test_conformal_delta_examples():
    assert adm_conformal_delta(parse("1"), RADII) == pytest.approx(0.0, abs=1e-15)
    assert adm_conformal_delta(parse("1+2/(2*r)"), RADII) == pytest.approx(2.0, abs=1e-6)


def test_conformal_delta_matches_adm_difference():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(-1.0, 1.0)
        u3 = parse(f"1+{a:.6f}/(2*r)+{b:.6f}/r^2")
        delta = adm_conformal_delta(u3, RADII)
        mass = adm_mass(ConformalMetric3(u3), RADII).mass
        assert delta == pytest.approx(mass, abs=1e-3)


# ---------------------------------------------------------------------------

def test_mean_curvature_euclidean():
    assert conformal_sphere_mean_curvature(parse("1"), 2.0) == pytest.approx(1.0)


def test_mean_curvature_horizon_root():
    u3 = parse("1+1/(2*r)")
    assert conformal_sphere_mean_curvature(u3, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_mean_curvature_hand_value():
    u3 = parse("1+1/(2*r)")
    # u = 3/2, u' = -1/2 at r = 1: H = (4/9)(2 - 4/3) = 8/27
    assert conformal_sphere_mean_curvature(u3, 1.0) == pytest.approx(8.0 / 27.0, rel=1e-12)


def test_horizon_area():
    m = 1.0
    r = m / 2.0
    u = 1.0 + m / (2 * r)
    area = 4 * math.pi * (r * u**2) ** 2
    assert area == pytest.approx(16 * math.pi * m**2, rel=1e-10)


def test_quadrature_exact_for_radial_integrands():
    grid = SphereGrid(0.0, 7.0, 16, 32)
    value = grid.integrate(np.full((16, 32), 3.25) * grid.r**2)
    assert value == pytest.approx(4 * math.pi * 7.0**2 * 3.25, rel=1e-12)


# ---------------------------------------------------------------------------

def test_hawking_mass_at_horizon_is_m():
    g3 = schwarzschild_factor(1.0)
    table = hawking_to_adm_convergence(g3, [0.5], adm_radii=RADII)
    assert table.hawking[0] == pytest.approx(1.0, abs=1e-9)


def test_hawking_to_adm_schwarzschild():
    g3 = schwarzschild_factor(1.0)
    table = hawking_to_adm_convergence(g3, [5.0, 10.0, 20.0, 50.0], adm_radii=RADII)
    # the Hawking mass of every centered sphere in this geometry is m itself
    np.testing.assert_allclose(table.hawking, 1.0, atol=1e-12)
    assert table.monotone
    assert table.gaps[-1] <= 1e-2


def test_hawking_to_adm_flat():
    table = hawking_to_adm_convergence(ConformalMetric3(parse("1")),
                                       [2.0, 5.0, 10.0], adm_radii=RADII)
    np.testing.assert_allclose(table.hawking, 0.0, atol=1e-13)


def test_hawking_to_adm_generic_decay():
    """A subleading 1/r^2 term gives a genuinely decreasing gap (~ 4/r)."""
    g3 = ConformalMetric3(parse("1+1/(2*r)+1/r^2"))
    table = hawking_to_adm_convergence(g3, [5.0, 10.0, 20.0, 50.0],
                                       adm_radii=(100.0, 200.0, 400.0, 800.0))
    assert np.all(np.diff(table.gaps) < 0)
    assert table.gaps[-1] <= table.gaps[0] / 5.0
