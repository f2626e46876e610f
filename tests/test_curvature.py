"""Generic curvature engine against the spherically symmetric closed forms."""

import math

import numpy as np
import pytest

from imcvf.chart import PH, R, T, TH, CoordinatePoint, SphericalMetric, metric_values
from imcvf.curvature import (
    christoffel_values,
    conformal_scalar,
    curvature_values,
    spherical_oracle,
)
from imcvf.expr import parse

IDX = {"t": 0, "r": 1, "th": 2, "ph": 3}


def random_uv(rng):
    """Smooth positive u, v with genuine t and r dependence."""
    def one():
        amp = rng.uniform(0.05, 0.35)
        r0 = rng.uniform(1.5, 4.0)
        width = rng.uniform(1.0, 3.0)
        om = rng.uniform(0.3, 1.5)
        wob = rng.uniform(0.05, 0.4)
        return parse(f"1+{amp:.6f}*exp(-((r-{r0:.4f})/{width:.4f})^2)"
                     f"*(1+{wob:.6f}*sin({om:.4f}*t))")
    return one(), one()


def random_env(rng, n):
    return {"t": rng.uniform(-1.0, 1.0, n), "r": rng.uniform(1.5, 7.0, n),
            "th": rng.uniform(0.4, math.pi - 0.4, n),
            "ph": rng.uniform(0.0, 2 * math.pi, n)}


def schwarzschild_areal(m=1.0):
    u = parse("(1-2*m/r)^(-0.5)", params={"m": m})
    v = parse("(1-2*m/r)^0.5", params={"m": m})
    return u, v


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_christoffel_spherical_entries():
    g = SphericalMetric("1+1/r", "1+0.5/r").block()
    p = CoordinatePoint(0.3, 2.0, 1.1, 0.7)
    gam = christoffel_values(g, p.env())
    u = 1.5
    assert gam[R, TH, TH] == pytest.approx(-p.r / u**2, rel=1e-12)
    assert gam[TH, R, TH] == pytest.approx(1.0 / p.r, rel=1e-12)
    assert gam[PH, TH, PH] == pytest.approx(math.cos(p.th) / math.sin(p.th), rel=1e-12)


def test_christoffel_minkowski_t_matrix_zero():
    g = SphericalMetric("1", "1").block()
    p = CoordinatePoint(0.0, 3.0, 1.0, 0.0)
    gam = christoffel_values(g, p.env())
    np.testing.assert_allclose(gam[T], 0.0, atol=1e-15)


def test_christoffel_symmetry():
    rng = np.random.default_rng(3)
    u, v = random_uv(rng)
    g = SphericalMetric(u, v).block()
    env = random_env(rng, 5)
    gam = christoffel_values(g, env)
    np.testing.assert_allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-14)


def test_christoffel_matches_oracle_matrices():
    rng = np.random.default_rng(5)
    u, v = random_uv(rng)
    g = SphericalMetric(u, v).block()
    env = random_env(rng, 20)
    gam = christoffel_values(g, env)
    orc = spherical_oracle(u, v, env)
    pairs = [("Gamma_t_tt", ("t", "t", "t")), ("Gamma_t_tr", ("t", "t", "r")),
             ("Gamma_t_rr", ("t", "r", "r")), ("Gamma_r_tt", ("r", "t", "t")),
             ("Gamma_r_tr", ("r", "t", "r")), ("Gamma_r_rr", ("r", "r", "r")),
             ("Gamma_r_thth", ("r", "th", "th")), ("Gamma_r_phph", ("r", "ph", "ph")),
             ("Gamma_th_rth", ("th", "r", "th")), ("Gamma_th_phph", ("th", "ph", "ph")),
             ("Gamma_ph_rph", ("ph", "r", "ph")), ("Gamma_ph_thph", ("ph", "th", "ph"))]
    for key, (k, i, j) in pairs:
        got = gam[..., IDX[k], IDX[i], IDX[j]]
        ref = orc[key]
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12, err_msg=key)


# ---------------------------------------------------------------------------
# Ricci / scalar / Einstein against the closed forms
# ---------------------------------------------------------------------------

def _mixed_err(got, ref):
    return np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))


def test_curvature_oracle_agreement_sample():
    """Ten random charts, twenty points each (the acceptance suite runs 50)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        u, v = random_uv(rng)
        g = SphericalMetric(u, v).block()
        env = random_env(rng, 20)
        out = curvature_values(g, env)
        orc = spherical_oracle(u, v, env)
        ric, scal, ein = out["ricci"], out["scalar"], out["einstein"]
        for key, got in [("Ric_tt", ric[..., 0, 0]), ("Ric_tr", ric[..., 0, 1]),
                         ("Ric_rr", ric[..., 1, 1]), ("Ric_thth", ric[..., 2, 2]),
                         ("Ric_phph", ric[..., 3, 3]), ("R", scal),
                         ("G_tt", ein[..., 0, 0]), ("G_tr", ein[..., 0, 1]),
                         ("G_rr", ein[..., 1, 1]), ("G_thth", ein[..., 2, 2]),
                         ("G_phph", ein[..., 3, 3])]:
            worst = max(worst, _mixed_err(got, orc[key]))
    assert worst <= 1e-8


def test_off_diagonal_ricci_vanishes():
    rng = np.random.default_rng(17)
    u, v = random_uv(rng)
    g = SphericalMetric(u, v).block()
    env = random_env(rng, 10)
    ric = curvature_values(g, env)["ricci"]
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        assert np.max(np.abs(ric[..., i, j])) <= 1e-10


def test_gphiphi_is_sin2_gthetatheta():
    rng = np.random.default_rng(19)
    u, v = random_uv(rng)
    g = SphericalMetric(u, v).block()
    env = random_env(rng, 10)
    ein = curvature_values(g, env)["einstein"]
    np.testing.assert_allclose(ein[..., 3, 3],
                               np.sin(env["th"]) ** 2 * ein[..., 2, 2],
                               rtol=1e-9, atol=1e-12)


def test_schwarzschild_vacuum():
    u, v = schwarzschild_areal(1.0)
    g = SphericalMetric(u, v).block()
    r = np.linspace(3.0, 20.0, 30)
    env = {"t": np.zeros_like(r), "r": r, "th": np.full_like(r, 1.0),
           "ph": np.zeros_like(r)}
    ein = curvature_values(g, env)["einstein"]
    assert np.max(np.abs(ein)) <= 1e-8


def test_einstein_tensor_identity():
    rng = np.random.default_rng(23)
    u, v = random_uv(rng)
    g = SphericalMetric(u, v).block()
    p = CoordinatePoint(0.2, 3.0, 1.2, 0.5)
    out = curvature_values(g, p.env())
    expected = out["ricci"] - 0.5 * out["scalar"] * metric_values(g, p.env())
    np.testing.assert_allclose(out["einstein"], expected, atol=1e-13)


def test_gtt_example_spherical():
    """G_tt closed form at a hand-checkable configuration."""
    u, v = schwarzschild_areal(1.0)
    g = SphericalMetric(u, v).block()
    p = CoordinatePoint(0.0, 4.0, math.pi / 2, 0.0)
    out = curvature_values(g, p.env())
    assert out["einstein"][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_scalar_curvature_spherical_cases():
    p = CoordinatePoint(0.0, 3.0, 1.0, 0.0)
    assert spherical_oracle(parse("1"), parse("1"), p.env())["R"] == 0.0

    u, v = schwarzschild_areal(1.0)
    assert spherical_oracle(u, v, p.env())["R"] == pytest.approx(0.0, abs=1e-12)

    u2 = parse("(1+1/(2*r))^2")
    p2 = CoordinatePoint(0.0, 2.0, 1.0, 0.0)
    got = spherical_oracle(u2, parse("1"), p2.env())["R"]
    ref = curvature_values(SphericalMetric(u2, parse("1")).block(), p2.env())["scalar"]
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_contracted_bianchi_numerically():
    """div G = 0 for a generic spherical chart, via exact derivative of the
    engine's Einstein tensor in r at fixed angles (t-static case)."""
    u = parse("1+0.3*exp(-((r-3)/2)^2)")
    v = parse("1+0.2/r")
    g = SphericalMetric(u, v).block()

    # numerical divergence via five-point derivative of G^r_j + Christoffel terms
    def mixed_einstein(r):
        env = {"t": 0.0, "r": r, "th": 1.1, "ph": 0.4}
        out = curvature_values(g, env)
        from imcvf.chart import inverse_values
        ginv = inverse_values(g, env)
        return np.einsum("...ik,...kj->...ij", ginv, out["einstein"])

    r0, h = 3.2, 1e-3
    rs = np.array([r0 - 2 * h, r0 - h, r0, r0 + h, r0 + 2 * h])
    packs = [mixed_einstein(r) for r in rs]
    dG_dr = (packs[0] - 8 * packs[1] + 8 * packs[3] - packs[4]) / (12 * h)

    env0 = {"t": 0.0, "r": r0, "th": 1.1, "ph": 0.4}
    gam = christoffel_values(g, env0)
    Gmix = packs[2]
    # div_j = d_i G^i_j + Gamma^i_ik G^k_j - Gamma^k_ij G^i_k ; static chart,
    # angle derivatives of the mixed components vanish in spherical symmetry
    div = (dG_dr[1, :]
           + np.einsum("iik,kj->j", gam, Gmix)
           - np.einsum("kij,ik->j", gam, Gmix))
    assert np.max(np.abs(div)) <= 1e-7


# ---------------------------------------------------------------------------
# conformal scalar curvature
# ---------------------------------------------------------------------------

def test_conformal_scalar_flat_harmonic():
    assert conformal_scalar(0.0, 2.0, 0.0, 3) == 0.0


def test_conformal_scalar_schwarzschild_factor():
    """u = 1 + m/(2 rho) is harmonic on flat R^3, so the image is scalar flat."""
    m = 1.0
    rho = 3.0
    u = 1.0 + m / (2 * rho)
    # laplacian of m/(2 rho) on flat space is zero away from the origin
    assert conformal_scalar(0.0, u, 0.0, 3) == 0.0


def test_conformal_scalar_dim2_identity():
    assert conformal_scalar(2.0, 0.0, 0.0, 2) == pytest.approx(2.0)


def test_conformal_scalar_dim3_formula():
    """Cross-check the n=3 formula against the engine: for g = u^4 delta the
    scalar curvature is -8 u^-5 lap(u); verify with u = 1 + 1/(2r)."""
    r = 2.5
    u_val = 1.0 + 1.0 / (2 * r)
    # radial laplacian of u(r) = 1 + 1/(2r): u'' + 2 u'/r = 1/r^3 - 1/r^3 = 0
    assert conformal_scalar(0.0, u_val, 0.0, 3) == 0.0
    # non-harmonic factor: u = 1 + r^2/20 at r = 2.5, lap u = 6/20
    u_val = 1.0 + r**2 / 20.0
    got = conformal_scalar(0.0, u_val, 0.3, 3)
    assert got == pytest.approx(-8.0 * 0.3 * u_val ** (-5.0), rel=1e-12)


def test_conformal_scalar_rejects_bad_dimension():
    with pytest.raises(ValueError):
        conformal_scalar(0.0, 1.0, 0.0, 1)
