"""Chart construction (solve_d), validation, flow parameter, monotonicity."""

import math

import numpy as np
import pytest

from imcvf.builder import (
    MonotonicityReport,
    ValidationSpec,
    complete_chart,
    complete_chart_file,
    imcvf_flow_param,
    imcvf_flow_radius,
    monotonicity_check_spherical,
    solve_d,
    validate_chart,
)
from imcvf.chart import BlockMetric, load_chart, save_chart
from imcvf.expr import Lit, evaluate, parse
from imcvf.grid import SphereGrid
from imcvf.sphere import star_values

from conftest import build_seed, seed_inputs


def test_solve_d_spherical_inputs_gives_zero_literal():
    d = solve_d("r^2", "r^2*sin(th)^2", "0", "0", "0", "1")
    assert isinstance(d, Lit) and d.value == 0.0


def test_solve_d_metric_only_perturbation_gives_zero():
    """With e = f = 0 every bracket carries a factor of e, f or the cross
    terms, so d collapses to the zero literal even for angular a."""
    a = parse("r^2*(1+0.1*sin(th)^2*cos(ph))")
    b = (parse("r^4*sin(th)^2") + parse("0") ** 2) / a
    d = solve_d(a, b, "0", "0", "0", "1")
    assert isinstance(d, Lit) and d.value == 0.0


def test_solve_d_e_perturbation_hand_value():
    """e = eps sin^4(th) cos(ph) on the round background: the first bracket
    contributes 2b e_th and the cross term (cf - be) B2 / (r^4 sin^2) adds a
    quarter of it, so d = -(5 eps u^2 / (2 r)) sin^3(th) cos(th) cos(ph)."""
    eps = 0.01
    d = solve_d("r^2", "r^2*sin(th)^2", "0", f"{eps}*sin(th)^4*cos(ph)", "0", "1+0.2/r")
    env = {"t": 0.0, "r": 2.0, "th": 0.9, "ph": 0.3}
    u = 1.1
    expected = -(2.5 * eps * u**2 / 2.0) * math.sin(0.9) ** 3 * math.cos(0.9) * math.cos(0.3)
    assert evaluate(d, env) == pytest.approx(expected, rel=1e-12)


def test_completed_chart_has_tiny_star():
    g = build_seed("ef", 1e-2)
    grid = SphereGrid(0.2, 2.5, 32, 64)
    star = star_values(g, grid.env())
    assert np.max(np.abs(star)) <= 1e-9


def test_validate_spherical_chart_passes():
    from imcvf.chart import SphericalMetric
    g = SphericalMetric("1+1/r", "1").block()
    rep = validate_chart(g)
    assert rep.passed
    # cond3 is float-rounding only; its absolute size scales with r^4
    assert rep.cond3_max <= 1e-11
    assert rep.cond4_max <= 1e-12
    assert rep.cond1_max == 0.0 and rep.cond2_max == 0.0


def test_validate_solved_chart_passes():
    g = build_seed("e", 1e-1)
    rep = validate_chart(g)
    assert rep.passed, rep.as_dict()
    assert rep.cond4_max <= 1e-9
    assert rep.h_n_max <= 1e-8
    assert rep.h_r_err_max <= 1e-9


def test_validate_unsolved_chart_fails():
    ins = seed_inputs("e", 1e-2)
    b = (parse("r^4*sin(th)^2") + parse(ins["c"]) ** 2) / parse(ins["a"])
    g = BlockMetric(v=ins["v"], d="0", e=ins["e"], f=ins["f"], u=ins["u"],
                    a=ins["a"], b=b, c=ins["c"])
    rep = validate_chart(g)
    assert not rep.passed
    assert rep.cond4_max > rep.tolerances["cond4"]


def test_complete_chart_file_roundtrip(tmp_path):
    ins = seed_inputs("e", 1e-2)
    doc = {"v": ins["v"], "e": ins["e"], "f": ins["f"], "u": ins["u"],
           "a": ins["a"], "c": ins["c"],
           "b": f"(r^4*sin(th)^2+({ins['c']})^2)/({ins['a']})",
           "solve_d": True}
    src = tmp_path / "seed.json"
    import json
    src.write_text(json.dumps(doc))
    cf = load_chart(str(src))
    g = complete_chart_file(cf)
    out = tmp_path / "full.json"
    save_chart(g, out)
    g2 = load_chart(str(out)).metric()
    rep = validate_chart(g2)
    assert rep.passed, rep.as_dict()


def test_pole_smoothness_of_solved_d():
    """d and its first theta-derivative tend to zero at the poles for
    windowed perturbations."""
    ins = seed_inputs("ef", 1e-1)
    g = complete_chart(**ins)
    from imcvf.expr import diff
    d = g.comps["d"]
    d_th = diff(d, "th")
    vals, slopes = [], []
    for th in (0.1, 0.03, 0.01, 0.003, 0.001):
        env = {"t": 0.0, "r": 2.0, "th": th, "ph": 0.7}
        vals.append(abs(evaluate(d, env)))
        slopes.append(abs(evaluate(d_th, env)))
    assert vals == sorted(vals, reverse=True)
    assert slopes == sorted(slopes, reverse=True)
    # the f-perturbation dominates near the pole with d ~ sin^2(th)
    assert vals[-1] <= 1e-7 and slopes[-1] <= 1e-3
    assert vals[-2] / vals[-1] >= 5.0


# ---------------------------------------------------------------------------
# flow parameter
# ---------------------------------------------------------------------------

def test_flow_param_values():
    assert imcvf_flow_param(1.0) == 0.0
    assert imcvf_flow_param(math.e) == pytest.approx(2.0)
    assert imcvf_flow_radius(imcvf_flow_param(3.7)) == pytest.approx(3.7, rel=1e-14)
    with pytest.raises(ValueError):
        imcvf_flow_param(0.0)


def test_area_scales_like_exp_s():
    """Area of S_{t,r(s)} grows exactly like e^s, checked by quadrature."""
    from imcvf.sphere import surface_fields
    g = build_seed("ea", 1e-2)

    def area(s):
        grid = SphereGrid(0.0, imcvf_flow_radius(s), 24, 48)
        f = surface_fields(g, grid.env())
        return grid.integrate_area(np.ones_like(f["W"]), np.sqrt(f["W"]))

    s0 = imcvf_flow_param(2.0)
    assert area(s0 + 1.0) / area(s0) == pytest.approx(math.e, rel=1e-10)


# ---------------------------------------------------------------------------
# monotonicity under the radial flow
# ---------------------------------------------------------------------------

def test_monotonicity_schwarzschild_constant_mass():
    u = parse("(1-2/r)^(-0.5)")
    v = parse("(1-2/r)^0.5")
    rep = monotonicity_check_spherical(u, v, 0.0, r_range=(3.0, 12.0), n=40)
    np.testing.assert_allclose(rep.m_h, 1.0, atol=1e-12)
    np.testing.assert_allclose(rep.g_tt, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.dmh_ds, 0.0, atol=1e-8)
    assert rep.identity_err_max <= 1e-9
    assert rep.monotone_ok


def test_monotonicity_minkowski():
    rep = monotonicity_check_spherical(parse("1"), parse("1"), 0.0)
    np.testing.assert_allclose(rep.m_h, 0.0, atol=1e-15)
    assert rep.monotone_ok


def test_monotonicity_positive_energy_bump():
    """u^2 = 1 + eps r^2 e^{-r}: where G_tt >= 0 the Hawking mass grows."""
    u = parse("(1+0.001*r^2*exp(-r))^0.5")
    rep = monotonicity_check_spherical(u, parse("1"), 0.0, r_range=(1.0, 8.0), n=80)
    assert rep.identity_err_max <= 1e-9
    assert rep.monotone_ok
    dec = rep.g_tt >= 0
    assert np.any(dec)
    assert np.all(rep.dmh_ds[dec] >= -1e-8 * (1 + np.abs(rep.m_h[dec])))


def test_monotonicity_identity_random_charts():
    rng = np.random.default_rng(77)
    for _ in range(5):
        amp = rng.uniform(0.05, 0.3)
        u = parse(f"1+{amp:.4f}*exp(-((r-{rng.uniform(2,5):.3f})/2)^2)")
        v = parse(f"1+{rng.uniform(0.05, 0.3):.4f}/r")
        rep = monotonicity_check_spherical(u, v, 0.0, r_range=(1.5, 9.0), n=50)
        assert rep.identity_err_max <= 1e-9


def test_validate_degenerate_chart_reports_instead_of_raising():
    # a < 0 beyond r = 2 makes ab - c^2 <= 0 on the outer sample spheres
    g = BlockMetric(v="1", d="0", e="0", f="0", u="1",
                    a="r^2*(1-0.5*r)", b="r^2*sin(th)^2", c="0")
    rep = validate_chart(g)
    assert rep.degenerate and not rep.passed and not rep.lorentzian_ok
    assert rep.cond3_max > rep.tolerances["cond3"]
    assert rep.as_dict()["degenerate"] is True
    assert validate_chart(build_seed("e", 1e-1)).degenerate is False
