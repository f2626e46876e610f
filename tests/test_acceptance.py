"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from imcvf.asymptotics import ConformalMetric3, adm_mass
from imcvf.builder import monotonicity_check_spherical
from imcvf.chart import BlockMetric, det_values, inverse_values, metric_values
from imcvf.curvature import curvature_values, spherical_oracle
from imcvf.errors import NotAreaExpandingError
from imcvf.expr import diff, evaluate, parse, to_source
from imcvf.grid import SphereGrid
from imcvf.sphere import mean_curvature_values, star_values, surface_fields
from imcvf.steering import frame_data, steering_parameter
from imcvf.straightout import ConnectionOneForm, connection_one_form, \
    divergence_alpha, gauge_rotation, one_form_norm_sq, rotate_one_form, \
    straight_out_residual
from imcvf.straightout import _CHART_D_JETS, _CLOSED_FORM_JETS

from conftest import build_seed, conformal_sphere_mean_curvature, frame_values, \
    hawking_to_adm_convergence, seed_inputs, spherical_block, steered_normal_component
from test_curvature import IDX, random_env, random_uv


def _report(n, message):
    print(f"PASS criterion {n}: {message}")


# ---------------------------------------------------------------------------

def test_criterion_1_appendix_oracle_suite():
    """Generic engine reproduces every spherically symmetric closed form on
    50 random charts x 20 points, relative error <= 1e-8, under 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    gamma_keys = [("Gamma_t_tt", ("t", "t", "t")), ("Gamma_t_tr", ("t", "t", "r")),
                  ("Gamma_t_rr", ("t", "r", "r")), ("Gamma_r_tt", ("r", "t", "t")),
                  ("Gamma_r_tr", ("r", "t", "r")), ("Gamma_r_rr", ("r", "r", "r")),
                  ("Gamma_r_thth", ("r", "th", "th")), ("Gamma_r_phph", ("r", "ph", "ph")),
                  ("Gamma_th_rth", ("th", "r", "th")), ("Gamma_th_phph", ("th", "ph", "ph")),
                  ("Gamma_ph_rph", ("ph", "r", "ph")), ("Gamma_ph_thph", ("ph", "th", "ph"))]
    for _ in range(50):
        u, v = random_uv(rng)
        g = spherical_block(u, v)
        env = random_env(rng, 20)
        out = curvature_values(g, env)
        orc = spherical_oracle(u, v, env)
        ric, scal, ein = out["ricci"], out["scalar"], out["einstein"]
        checks = [("Ric_tt", ric[..., 0, 0]), ("Ric_tr", ric[..., 0, 1]),
                  ("Ric_rr", ric[..., 1, 1]), ("Ric_thth", ric[..., 2, 2]),
                  ("Ric_phph", ric[..., 3, 3]), ("R", scal),
                  ("G_tt", ein[..., 0, 0]), ("G_tr", ein[..., 0, 1]),
                  ("G_rr", ein[..., 1, 1]), ("G_thth", ein[..., 2, 2]),
                  ("G_phph", ein[..., 3, 3])]
        for key, got in checks:
            worst = max(worst, float(np.max(np.abs(got - orc[key])
                                            / (1.0 + np.abs(orc[key])))))
        gam = out["gamma"]
        for key, (k, i, j) in gamma_keys:
            got = gam[..., IDX[k], IDX[i], IDX[j]]
            worst = max(worst, float(np.max(np.abs(got - orc[key])
                                            / (1.0 + np.abs(orc[key])))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    _report(1, f"appendix oracles max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_schwarzschild_golden_values():
    adm = adm_mass(ConformalMetric3(parse("1+1/(2*r)")), (10.0, 20.0, 40.0, 80.0))
    assert adm.mass == pytest.approx(1.0, abs=1e-3)

    h_horizon = conformal_sphere_mean_curvature(parse("1+1/(2*r)"), 0.5)
    assert abs(h_horizon) <= 1e-10

    table = hawking_to_adm_convergence(ConformalMetric3(parse("1+1/(2*r)")),
                                       [0.5], adm_radii=(10.0, 20.0, 40.0, 80.0))
    assert table.hawking[0] == pytest.approx(1.0, abs=1e-9)

    u = parse("(1-2/r)^(-0.5)")
    v = parse("(1-2/r)^0.5")
    g = spherical_block(u, v)
    r = np.linspace(3.0, 20.0, 40)
    env = {"t": np.zeros(40), "r": r, "th": np.full(40, 1.1), "ph": np.zeros(40)}
    gmax = float(np.max(np.abs(curvature_values(g, env)["einstein"])))
    assert gmax <= 1e-8
    _report(2, f"ADM {adm.mass:.6f}, H(1/2) {h_horizon:.1e}, "
               f"m_H(horizon) {table.hawking[0]:.9f}, |G|max {gmax:.1e}")


def test_criterion_3_imcvf_construction(seed_charts):
    from imcvf.builder import validate_chart
    start = time.perf_counter()
    assert len(seed_charts) >= 10
    worst_star, worst_hn, worst_hr = 0.0, 0.0, 0.0
    for kind, eps, g in seed_charts:
        grid = SphereGrid(0.2, 2.0, 64, 128)
        env = grid.env()
        fields = surface_fields(g, env)
        star = star_values(g, env, fields=fields)
        h_r, h_n, _ = mean_curvature_values(g, env, method="trace")
        worst_star = max(worst_star, float(np.max(np.abs(star))))
        worst_hn = max(worst_hn, float(np.max(np.abs(h_n))))
        worst_hr = max(worst_hr, float(np.max(np.abs(h_r + 2.0 / (grid.r * fields["u"])))))
        report = validate_chart(g)       # multi-radius sample grid
        assert report.passed, (kind, eps, report.as_dict())
    elapsed = time.perf_counter() - start
    assert worst_star <= 1e-9
    assert worst_hn <= 1e-8
    assert worst_hr <= 1e-9
    assert elapsed < 120.0
    _report(3, f"{len(seed_charts)} seeds: |star| {worst_star:.1e}, "
               f"|H_n| {worst_hn:.1e}, |H_r err| {worst_hr:.1e}, {elapsed:.1f}s")


POSITIVE_ENERGY = [
    "(1-2*(0.30*(1-exp(-0.050*r^3)))/r)^(-0.5)",
    "(1-2*(0.45*(1-exp(-0.020*r^3)))/r)^(-0.5)",
    "(1-2*(0.20*(1-exp(-0.100*r^3)))/r)^(-0.5)",
    "(1-2/r)^(-0.5)",          # vacuum: boundary case G_tt = 0
    "1",                       # flat
]


def test_criterion_4_spherical_monotonicity():
    worst_identity = 0.0
    for i, u_src in enumerate(POSITIVE_ENERGY):
        v_src = "(1-2/r)^0.5" if i == 3 else "1+0.1/r"
        rep = monotonicity_check_spherical(parse(u_src), parse(v_src), 0.0,
                                           r_range=(2.5, 12.0), n=80)
        assert np.all(rep.g_tt >= -1e-12), f"chart {i} is not positive energy"
        assert rep.monotone_ok and rep.violations == 0
        assert np.all(rep.dmh_ds >= -1e-8 * (1.0 + np.abs(rep.m_h)))
        worst_identity = max(worst_identity, rep.identity_err_max)
    assert worst_identity <= 1e-9
    _report(4, f"5 positive-energy charts monotone, identity err {worst_identity:.1e}")


def test_criterion_5_steering(seed_charts):
    worst_hn = 0.0
    for kind, eps, _ in seed_charts:
        ins = seed_inputs(kind, eps)
        b = (parse("r^4*sin(th)^2") + parse(ins["c"]) ** 2) / parse(ins["a"])
        g = BlockMetric(v=ins["v"], d="0", e=ins["e"], f=ins["f"], u=ins["u"],
                        a=ins["a"], b=b, c=ins["c"])
        grid = SphereGrid(0.2, 2.0, 64, 128)
        fd = frame_data(g, grid.env())
        q = steering_parameter(fd)
        worst_hn = max(worst_hn, float(np.max(np.abs(steered_normal_component(fd, q)))))
    assert worst_hn <= 1e-8

    # the minimal-surface error fires exactly when e_r(ab - c^2) <= 0
    from test_steering import synthetic_frame
    with pytest.raises(NotAreaExpandingError):
        steering_parameter(synthetic_frame(er_w=0.0))
    with pytest.raises(NotAreaExpandingError):
        steering_parameter(synthetic_frame(er_w=-2.0))
    steering_parameter(synthetic_frame(er_w=1e-9))
    _report(5, f"steering: steered |H_n| {worst_hn:.1e}")


def test_criterion_6_straight_out_cross_validation(seed_charts):
    worst = 0.0
    for kind, eps, g in seed_charts:
        grid = SphereGrid(0.1, 2.5, 64, 128)
        out = straight_out_residual(g, grid)
        worst = max(worst, out.max_difference)
    assert worst <= 1e-6
    _report(6, f"two-route agreement on {len(seed_charts)} charts: {worst:.1e}")


def test_criterion_7_poisson_gauge_suite():
    g = spherical_block("1", "1")
    grid = SphereGrid(0.0, 1.0, 64, 128)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    x = np.cos(th)
    harmonics = {
        1: (x * np.ones_like(ph), -np.sin(th) * np.ones_like(ph), np.zeros((64, 128))),
        2: (np.sin(th) ** 2 * np.cos(2 * ph),
            2 * np.sin(th) * np.cos(th) * np.cos(2 * ph),
            -2 * np.sin(th) ** 2 * np.sin(2 * ph)),
        3: ((5 * x**3 - 3 * x) / 2 * np.ones_like(ph),
            -(15 * x**2 - 3) / 2 * np.sin(th) * np.ones_like(ph),
            np.zeros((64, 128))),
    }
    worst_err, worst_div, worst_compat = 0.0, 0.0, 0.0
    for ell, (psi, a_th, a_ph) in harmonics.items():
        alpha = ConnectionOneForm(alpha_th=a_th, alpha_ph=a_ph)
        f = surface_fields(g, grid.env())
        _, integral = divergence_alpha(g, grid, alpha, fields=f)
        norm = math.sqrt(float(np.max(one_form_norm_sq(f, alpha))))
        worst_compat = max(worst_compat, abs(integral) / max(norm, 1e-12))
        angle = gauge_rotation(g, grid, alpha)
        worst_err = max(worst_err, float(np.max(np.abs(angle.theta_gauge
                                                       - grid.mean_zero(psi)))))
        rotated = rotate_one_form(grid, alpha, angle.theta_gauge)
        div, _ = divergence_alpha(g, grid, rotated)
        worst_div = max(worst_div, float(np.max(np.abs(div))))
    assert worst_err <= 1e-6
    assert worst_div <= 1e-7
    assert worst_compat <= 1e-6

    # grid convergence on a manufactured non-band-limited solution
    errors = []
    psi_expr = parse("exp(2*sin(th)*cos(ph))")
    for n in (16, 32):
        gr = SphereGrid(0.0, 1.0, n, 2 * n)
        env = gr.env()
        vals = np.asarray(evaluate(psi_expr, env))
        alpha = ConnectionOneForm(np.asarray(evaluate(diff(psi_expr, "th"), env)),
                                  np.asarray(evaluate(diff(psi_expr, "ph"), env)))
        angle = gauge_rotation(g, gr, alpha)
        errors.append(float(np.max(np.abs(angle.theta_gauge - gr.mean_zero(vals)))))
    ratio = errors[0] / max(errors[1], 1e-16)
    assert ratio >= 3.5
    _report(7, f"harmonics err {worst_err:.1e}, rotated div {worst_div:.1e}, "
               f"solvability {worst_compat:.1e}, convergence ratio {ratio:.1f}")


def test_criterion_8_hawking_to_adm():
    table = hawking_to_adm_convergence(ConformalMetric3(parse("1+1/(2*r)")),
                                       [5.0, 10.0, 20.0, 50.0],
                                       adm_radii=(10.0, 20.0, 40.0, 80.0))
    # every centered sphere already carries the full mass here, so the gaps
    # sit at rounding level; require non-increase with rounding slack
    assert np.all(np.diff(table.gaps) <= 1e-12)
    assert table.gaps[-1] <= 1e-2
    _report(8, f"gap at r=50: {table.gaps[-1]:.2e} (ADM {table.adm:.6f})")


def test_criterion_9_property_bundle():
    rng = np.random.default_rng(31415)

    # parser round trip
    from test_expr import _random_expr
    for _ in range(20):
        src = _random_expr(3, rng)
        e = parse(src)
        e2 = parse(to_source(e))
        env = {"t": rng.uniform(0.1, 1.0), "r": rng.uniform(1.0, 3.0),
               "th": rng.uniform(0.5, 2.5), "ph": rng.uniform(0.0, 6.0)}
        assert evaluate(e2, env) == pytest.approx(evaluate(e, env), rel=1e-12,
                                                  abs=1e-15)

    # symbolic derivative vs centered finite differences
    for _ in range(20):
        e = parse(_random_expr(3, rng))
        env = {"t": rng.uniform(0.1, 1.0), "r": rng.uniform(1.0, 3.0),
               "th": rng.uniform(0.5, 2.5), "ph": rng.uniform(0.0, 6.0)}
        for var in ("t", "r", "th"):
            up, dn = dict(env), dict(env)
            up[var] += 1e-5
            dn[var] -= 1e-5
            fd = (evaluate(e, up) - evaluate(e, dn)) / 2e-5
            exact = evaluate(diff(e, var), env)
            assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))

    # determinant and inverse closed forms vs brute force
    from test_chart import cofactor_det, random_block_metric, random_point
    for _ in range(25):
        g = random_block_metric(rng)
        p = random_point(rng)
        m = metric_values(g, p.env())
        assert det_values(g, p.env()) == pytest.approx(cofactor_det(m), rel=1e-10)
        np.testing.assert_allclose(metric_values(g, p.env()) @ inverse_values(g, p.env()),
                                   np.eye(4), atol=1e-10)

    # <n, n> closed form vs the quadratic form
    for _ in range(25):
        g = random_block_metric(rng)
        p = random_point(rng)
        env = p.env()
        n, m = frame_values(g, env)["n"], metric_values(g, env)
        assert n @ m @ n == pytest.approx(surface_fields(g, env)["nn"], rel=1e-10)

    # divergence-theorem integrals
    for kind, eps in [("e", 1e-2), ("ef", 1e-1)]:
        g = build_seed(kind, eps)
        grid = SphereGrid(0.0, 2.0, 32, 64)
        f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
        alpha = connection_one_form(g, grid, fields=f)
        _, integral = divergence_alpha(g, grid, alpha, fields=f)
        norm = math.sqrt(float(np.max(one_form_norm_sq(f, alpha))))
        assert abs(integral) <= 1e-6 * max(norm, 1e-12)

    _report(9, "parser, derivative, det/inverse, <n,n>, divergence bundles")
