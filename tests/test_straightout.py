"""Connection one-form, Poisson gauge, time-flat predicate, and the
cross-validated second-order straight-out form."""

import math

import numpy as np
import pytest

from imcvf import straightout
from imcvf.chart import PH, R, T, TH, BlockMetric, load_chart
from imcvf.curvature import christoffel_values
from imcvf.errors import CompatibilityError, ConvergenceError
from imcvf.expr import parse
from imcvf.grid import SphereGrid
from imcvf.sphere import surface_fields
from imcvf.straightout import (
    ConnectionOneForm,
    connection_one_form,
    divergence_alpha,
    gauge_rotation,
    is_time_flat,
    one_form_energy,
    one_form_norm_sq,
    rotate_one_form,
    solve_straight_out_d,
    straight_out_residual,
)
from imcvf.straightout import _CHART_D_JETS, _CLOSED_FORM_JETS

from conftest import EF_BUILD, build_seed, seed_inputs, sphere_laplacian, spherical_block


def minkowski():
    return spherical_block("1", "1")


def unsolved_seed(kind="e", eps=1e-2):
    ins = seed_inputs(kind, eps)
    b = (parse("r^4*sin(th)^2") + parse(ins["c"]) ** 2) / parse(ins["a"])
    return BlockMetric(v=ins["v"], d="0", e=ins["e"], f=ins["f"], u=ins["u"],
                       a=ins["a"], b=b, c=ins["c"])


def connection_one_form_direct(g: BlockMetric, grid: SphereGrid) -> ConnectionOneForm:
    """Defining inner product <nabla_X e_r, e_n>, via generic Christoffels;
    the independent oracle for the closed form."""
    env = grid.env()
    f = surface_fields(g, env)
    gam = christoffel_values(g, env)
    # <nabla_i e_r, e_n> = (1/u) Gamma^t_ir <d_t, n>/||n|| = -(1/u) Gamma^t_ir ||n||
    factor = -f["norm_n"] / f["u"]
    return ConnectionOneForm(alpha_th=factor * gam[..., T, TH, R],
                             alpha_ph=factor * gam[..., T, PH, R])


# ---------------------------------------------------------------------------
# the one-form and its divergence
# ---------------------------------------------------------------------------

def test_alpha_vanishes_spherical():
    g = spherical_block("1+1/r", "1+0.2/r")
    grid = SphereGrid(0.0, 2.0, 12, 24)
    alpha = connection_one_form(g, grid)
    assert np.max(np.abs(alpha.alpha_th)) <= 1e-14
    assert np.max(np.abs(alpha.alpha_ph)) <= 1e-14


def test_alpha_closed_form_matches_defining_inner_product():
    g = build_seed("ef", 1e-2)
    grid = SphereGrid(0.1, 2.5, 16, 32)
    closed = connection_one_form(g, grid)
    direct = connection_one_form_direct(g, grid)
    assert np.max(np.abs(closed.alpha_th)) > 1e-6
    np.testing.assert_allclose(closed.alpha_th, direct.alpha_th, atol=1e-9)
    np.testing.assert_allclose(closed.alpha_ph, direct.alpha_ph, atol=1e-9)


def test_divergence_of_zero():
    g = minkowski()
    grid = SphereGrid(0.0, 2.0, 16, 32)
    zero = ConnectionOneForm(np.zeros((16, 32)), np.zeros((16, 32)))
    div, integral = divergence_alpha(g, grid, zero)
    assert np.max(np.abs(div)) == 0.0 and integral == 0.0


def test_divergence_of_exact_form_is_laplacian():
    """alpha = d(cos th) on the round sphere: div = -2 cos(th)/r^2 and the
    area integral vanishes (divergence theorem)."""
    g = minkowski()
    grid = SphereGrid(0.0, 2.0, 24, 48)
    th = grid.theta[:, None]
    alpha = ConnectionOneForm(alpha_th=-np.sin(th) * np.ones(48), alpha_ph=np.zeros((24, 48)))
    div, integral = divergence_alpha(g, grid, alpha)
    np.testing.assert_allclose(div, -2.0 * np.cos(th) * np.ones(48) / 4.0, atol=1e-12)
    assert abs(integral) <= 1e-12


def test_solvability_integral_small_on_chart_one_forms():
    for kind, eps in [("e", 1e-2), ("ef", 1e-1), ("ea", 1e-3)]:
        g = build_seed(kind, eps)
        grid = SphereGrid(0.0, 3.0, 24, 48)
        f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
        alpha = connection_one_form(g, grid, fields=f)
        _, integral = divergence_alpha(g, grid, alpha, fields=f)
        norm = math.sqrt(float(np.max(one_form_norm_sq(f, alpha))))
        assert abs(integral) <= 1e-6 * max(norm, 1e-12)


# ---------------------------------------------------------------------------
# gauge rotation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["ef", "ea", "c"])
def test_sphere_laplacian_matches_poisson_operator(kind):
    """The two g_S Laplacians agree on eps = 0.1 seeds: sphere_laplacian
    (second partials, the g_S-trace and first-order coefficients) and the
    Poisson operator div(g_S^-1 grad) built from the spectral divergence.
    ea and c perturb the sphere metric itself (a_ph, c_th, c_ph != 0), so
    every first-order coefficient is exercised."""
    from imcvf.straightout import _laplace_full
    g = build_seed(kind, 0.1)
    grid = SphereGrid(0.0, 2.0, 48, 96)
    th, ph = grid.theta[:, None], grid.phi[None, :]
    psi = np.cos(th) + np.sin(th) ** 2 * np.cos(2 * ph) + 0.3 * np.sin(th) * np.sin(ph)
    lap = sphere_laplacian(g, grid, psi)
    div_grad = _laplace_full(grid, surface_fields(g, grid.env()), psi)
    assert np.max(np.abs(lap)) > 1.0
    assert np.max(np.abs(lap - div_grad)) <= 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the chart's own overflow
def test_gauge_rotation_on_a_nan_one_form_stops_at_the_first_residual():
    """On the golden ef chart at r = 1e76 the one-form is nan: the Poisson
    solve raises after one residual, not after 10 n_theta steps."""
    g = load_chart(EF_BUILD).metric()
    grid = SphereGrid(0.0, 1e76, 16, 32)
    alpha = connection_one_form(g, grid)
    assert np.all(np.isnan(alpha.alpha_th))
    with pytest.raises(ConvergenceError, match=r"not finite \(nan\)") as info:
        gauge_rotation(g, grid, alpha)
    assert len(info.value.history) == 1


def test_gauge_rotation_zero_alpha():
    g = minkowski()
    grid = SphereGrid(0.0, 1.0, 16, 32)
    angle = gauge_rotation(g, grid, ConnectionOneForm(np.zeros((16, 32)),
                                                      np.zeros((16, 32))))
    assert np.max(np.abs(angle.theta_gauge)) <= 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_gauge_rotation_reproduces_harmonics(ell):
    """alpha = d(psi) for a degree-ell harmonic: the gauge angle is psi."""
    g = minkowski()
    grid = SphereGrid(0.0, 1.0, 64, 128)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    x = np.cos(th)
    if ell == 1:
        psi = x * np.ones_like(ph)
        dpsi_th = -np.sin(th) * np.ones_like(ph)
        dpsi_ph = np.zeros_like(psi)
    elif ell == 2:
        psi = np.sin(th) ** 2 * np.cos(2 * ph)
        dpsi_th = 2 * np.sin(th) * np.cos(th) * np.cos(2 * ph)
        dpsi_ph = -2 * np.sin(th) ** 2 * np.sin(2 * ph)
    else:
        psi = (5 * x**3 - 3 * x) / 2 * np.ones_like(ph)
        dpsi_th = -(15 * x**2 - 3) / 2 * np.sin(th) * np.ones_like(ph)
        dpsi_ph = np.zeros_like(psi)
    alpha = ConnectionOneForm(alpha_th=dpsi_th, alpha_ph=dpsi_ph)
    angle = gauge_rotation(g, grid, alpha)
    target = grid.mean_zero(psi)
    assert np.max(np.abs(angle.theta_gauge - target)) <= 1e-6
    rotated = rotate_one_form(grid, alpha, angle.theta_gauge)
    div, _ = divergence_alpha(g, grid, rotated)
    assert np.max(np.abs(div)) <= 1e-7


def test_gauge_rotation_convergence_with_resolution():
    """Manufactured smooth solution: the error drops by far more than the
    second-order factor 3.5 per doubling (spectral transform)."""
    g_small = minkowski()
    errors = []
    psi_src = "exp(2*sin(th)*cos(ph))"
    for n in (16, 32):
        grid = SphereGrid(0.0, 1.0, n, 2 * n)
        env = grid.env()
        psi = parse(psi_src)
        from imcvf.expr import diff, evaluate
        vals = np.asarray(evaluate(psi, env))
        alpha = ConnectionOneForm(
            alpha_th=np.asarray(evaluate(diff(psi, "th"), env)),
            alpha_ph=np.asarray(evaluate(diff(psi, "ph"), env)))
        angle = gauge_rotation(g_small, grid, alpha)
        errors.append(np.max(np.abs(angle.theta_gauge - grid.mean_zero(vals))))
    assert errors[0] / max(errors[1], 1e-15) >= 3.5


def test_gauge_rotation_general_metric():
    g = build_seed("ea", 1e-1)
    grid = SphereGrid(0.0, 2.5, 32, 64)
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=f)
    angle = gauge_rotation(g, grid, alpha, fields=f)
    rotated = rotate_one_form(grid, alpha, angle.theta_gauge)
    div, integral = divergence_alpha(g, grid, rotated, fields=f)
    assert np.max(np.abs(div)) <= 1e-7
    assert abs(integral) <= 1e-8


def test_gauge_rotation_compatibility_error():
    """A synthetic 'one-form' with distributional sources at the poles has
    a divergence of nonzero mean and must be rejected."""
    g = minkowski()
    grid = SphereGrid(0.0, 1.0, 24, 48)
    alpha = ConnectionOneForm(alpha_th=grid.cot_theta[:, None] * np.ones(48),
                              alpha_ph=np.zeros((24, 48)))
    with pytest.raises(CompatibilityError):
        gauge_rotation(g, grid, alpha)


def test_gauge_covariance_against_ambient_derivative():
    """alpha of the hyperbolically rotated normal equals alpha - d(chi),
    verified through the ambient covariant derivative of the rotated frame."""
    from imcvf.chart import metric_values
    from imcvf.curvature import christoffel_values

    g = build_seed("ef", 1e-2)
    grid = SphereGrid(0.0, 2.5, 32, 64)
    env = grid.env()
    f = surface_fields(g, env, extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=f)

    rng = np.random.default_rng(101)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    worst = 0.0
    for _ in range(10):
        c1, c2, c3 = rng.uniform(-0.3, 0.3, 3)
        chi = c1 * np.cos(th) * np.ones_like(ph) + c2 * np.sin(th) * np.cos(ph) \
            + c3 * np.sin(th) ** 2 * np.sin(2 * ph)
        expected = rotate_one_form(grid, alpha, chi)

        # rotated frame as explicit 4-vector fields
        e_r = np.zeros(chi.shape + (4,))
        e_r[..., 1] = 1.0 / f["u"]
        n = np.stack([np.ones_like(chi), -f["d"] / f["u"] ** 2,
                      f["cf_be"] / f["W"], f["ce_af"] / f["W"]], axis=-1)
        e_n = n / f["norm_n"][..., None]
        nu = np.cosh(chi)[..., None] * e_r + np.sinh(chi)[..., None] * e_n
        nu_perp = np.sinh(chi)[..., None] * e_r + np.cosh(chi)[..., None] * e_n

        gam = christoffel_values(g, env)
        gmat = metric_values(g, env)
        for comp, dgrid in (("alpha_th", grid.d_theta), ("alpha_ph", grid.d_phi)):
            i = 2 if comp == "alpha_th" else 3
            dnu = np.stack([dgrid(nu[..., m]) for m in range(4)], axis=-1)
            cov = dnu + np.einsum("...mk,...k->...m", gam[..., :, i, :], nu)
            got = np.einsum("...m,...mn,...n->...", cov, gmat, nu_perp)
            worst = max(worst, float(np.max(np.abs(got - getattr(expected, comp)))))
    assert worst <= 1e-8


def test_energy_minimized_by_gauge_rotation():
    g = build_seed("ef", 1e-1)
    grid = SphereGrid(0.0, 2.0, 32, 64)
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=f)
    angle = gauge_rotation(g, grid, alpha, fields=f)
    best = one_form_energy(g, grid, rotate_one_form(grid, alpha, angle.theta_gauge),
                           fields=f)
    rng = np.random.default_rng(7)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    for _ in range(20):
        c = rng.uniform(-0.5, 0.5, 4)
        chi = (c[0] * np.cos(th) * np.ones_like(ph) + c[1] * np.sin(th) * np.sin(ph)
               + c[2] * np.sin(th) ** 2 * np.cos(2 * ph)
               + c[3] * np.cos(th) ** 2 * np.ones_like(ph))
        other = one_form_energy(g, grid, rotate_one_form(grid, alpha, chi), fields=f)
        assert other >= best - 1e-12


# ---------------------------------------------------------------------------
# time-flat predicate
# ---------------------------------------------------------------------------

def test_spherical_sphere_is_time_flat():
    g = spherical_block("1+1/r", "1")
    grid = SphereGrid(0.0, 2.0, 16, 32)
    flat, sup = is_time_flat(g, grid)
    assert flat and sup <= 1e-12


def test_time_flat_reports_sup_norm_on_generic_chart():
    g = unsolved_seed("e", 1e-1)
    grid = SphereGrid(0.0, 2.0, 24, 48)
    flat, sup = is_time_flat(g, grid)
    assert np.isfinite(sup)
    # with an order-0.1 perturbation the defect is genuine
    assert sup > 1e-7 and not flat


def test_solved_chart_time_flat():
    """With d from the tangency solve, nu_H = e_r; the predicate reduces to
    div(alpha) of the radial normal."""
    g = build_seed("e", 1e-3)
    grid = SphereGrid(0.0, 2.0, 24, 48)
    flat, sup = is_time_flat(g, grid, tol=1e-5)
    env = grid.env()
    f = surface_fields(g, env, extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=f)
    div, _ = divergence_alpha(g, grid, alpha, fields=f)
    assert sup == pytest.approx(np.max(np.abs(div)), rel=1e-6)


def test_gauge_rotation_does_not_make_a_surface_time_flat():
    """The rotated normal's one-form is divergence free by construction,
    but the predicate concerns the mean-curvature one-form, which is
    untouched by rotating nu: the two must not be conflated."""
    g = unsolved_seed("e", 1e-1)
    grid = SphereGrid(0.0, 2.0, 32, 64)
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=f)
    angle = gauge_rotation(g, grid, alpha, fields=f)
    rotated = rotate_one_form(grid, alpha, angle.theta_gauge)
    div_rot, _ = divergence_alpha(g, grid, rotated, fields=f)
    assert np.max(np.abs(div_rot)) <= 1e-7
    flat, sup = is_time_flat(g, grid)
    assert not flat and sup > 1e-4


# ---------------------------------------------------------------------------
# assembled closed form against the direct divergence
# ---------------------------------------------------------------------------

def test_straight_out_residual_spherical_zero():
    g = spherical_block("1+1/r", "1+0.1/r")
    grid = SphereGrid(0.0, 2.0, 16, 32)
    out = straight_out_residual(g, grid)
    assert np.max(np.abs(out.closed)) <= 1e-12
    assert np.max(np.abs(out.direct)) <= 1e-12


@pytest.mark.parametrize("kind,eps", [("e", 1e-2), ("ef", 1e-1), ("ea", 1e-2)])
def test_straight_out_two_routes_agree(kind, eps):
    """Unsolved charts (d = 0): the defect is nonzero and the two routes
    agree far below the 1e-6 requirement."""
    g = unsolved_seed(kind, eps)
    grid = SphereGrid(0.1, 2.5, 32, 64)
    out = straight_out_residual(g, grid)
    assert np.max(np.abs(out.direct)) > 1e-4
    assert out.max_difference <= 1e-6


def test_straight_out_two_routes_agree_solved_chart():
    g = build_seed("ef", 1e-2)
    grid = SphereGrid(0.0, 2.0, 32, 64)
    out = straight_out_residual(g, grid)
    assert out.max_difference <= 1e-6


# ---------------------------------------------------------------------------
# Picard solver
# ---------------------------------------------------------------------------

def test_picard_spherical_converges_immediately():
    g = spherical_block("1+1/r", "1")
    grid = SphereGrid(0.0, 2.0, 16, 32)
    sol = solve_straight_out_d(g, grid)
    assert sol.converged and sol.iterations == 1
    assert np.max(np.abs(sol.d)) <= 1e-12


def test_picard_small_perturbation_converges():
    g = unsolved_seed("e", 1e-3)
    grid = SphereGrid(0.0, 2.0, 24, 48)
    sol = solve_straight_out_d(g, grid)
    assert sol.converged and not sol.compatibility_failed
    assert sol.residual_inf <= 1e-6
    assert np.max(np.abs(sol.d)) > 1e-7      # a genuine correction
    assert all(abs(c) <= 1e-6 for c in sol.compat_integrals)

    # end to end: with the solved d the radial normal is straight out
    from imcvf.sphere import surface_fields
    from imcvf.straightout import _grid_d_data
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    alpha = connection_one_form(g, grid, fields=_grid_d_data(grid, f, sol.d))
    div, _ = divergence_alpha(g, grid, alpha, fields=f)
    before = connection_one_form(g, grid, fields=f)
    div0, _ = divergence_alpha(g, grid, before, fields=f)
    assert np.max(np.abs(div)) <= 1e-5
    assert np.max(np.abs(div)) < 0.02 * np.max(np.abs(div0))


def test_picard_map_takes_no_second_theta_derivative(monkeypatch):
    """G(d, d') reads only first partials of d: the Picard solve must not
    transform d twice in theta (each d2_theta is a full Legendre pass)."""
    calls = []
    d2_theta = SphereGrid.d2_theta

    def counted(self, f):
        calls.append(1)
        return d2_theta(self, f)

    monkeypatch.setattr(SphereGrid, "d2_theta", counted)
    sol = solve_straight_out_d(unsolved_seed("e", 1e-3), SphereGrid(0.0, 2.0, 16, 32))
    assert sol.converged and sol.iterations >= 2
    assert calls == []


def test_picard_forms_the_d_free_terms_once(monkeypatch):
    """The d-free stage of the assembled form runs once per solve; the
    d-dependent stage runs once per Picard step and once more for the
    final residual."""
    calls = {"free": 0, "terms": 0}
    free, terms = straightout._assembled_d_free, straightout._assembled_d_terms

    def counted_free(*args):
        calls["free"] += 1
        return free(*args)

    def counted_terms(*args):
        calls["terms"] += 1
        return terms(*args)

    monkeypatch.setattr(straightout, "_assembled_d_free", counted_free)
    monkeypatch.setattr(straightout, "_assembled_d_terms", counted_terms)
    sol = solve_straight_out_d(unsolved_seed("e", 1e-3), SphereGrid(0.0, 2.0, 16, 32))
    assert sol.converged and sol.iterations >= 2
    assert calls == {"free": 1, "terms": sol.iterations + 1}


def test_picard_spherical_gradient_calls(monkeypatch):
    """On the chart of test_picard_spherical_converges_immediately, G is zero
    and the solve converges in one step.  Step 0 takes one gradient for
    d's partials in _grid_d_data and one in _laplace_full for the first
    (and last) residual of the inner Poisson solve, whose right-hand side
    is zero.  At convergence _grid_d_data takes one more, and the final
    residual reuses it rather than differentiating d again in
    _laplace_full: 1 + 1 + 1 = 3 gradients, one fewer than 4 without the
    reuse."""
    calls = []
    gradient = SphereGrid.gradient

    def counted(self, f):
        calls.append(1)
        return gradient(self, f)

    monkeypatch.setattr(SphereGrid, "gradient", counted)
    sol = solve_straight_out_d(spherical_block("1+1/r", "1"),
                               SphereGrid(0.0, 2.0, 16, 32))
    assert sol.converged and sol.iterations == 1
    assert len(calls) == 3


def test_picard_compatibility_reporting_path():
    """Shut the solvability gate by construction: a chart off the area
    gauge (ab - c^2 != r^4 sin^2 th) has a solvability integral of 0.084 at
    r = 2 on any grid.  The solver must report it, not raise."""
    g = BlockMetric(v="1", d="0", e="0.1*sin(th)", f="0", u="1",
                    a="r^2*(1+0.1*cos(th))", b="r^2*sin(th)^2", c="0")
    sol = solve_straight_out_d(g, SphereGrid(0.0, 2.0, 16, 32))
    assert sol.compatibility_failed and not sol.converged
    assert sol.compat_integrals == [pytest.approx(0.0841127879, rel=1e-9)]


@pytest.mark.parametrize("compat_tol", [float("nan"), -1.0])
def test_picard_refuses_a_nan_or_negative_compat_tol(compat_tol):
    """nan turned the solvability gate off (abs(x) > nan is False), and a
    negative tolerance failed every solve as a compatibility failure."""
    g = unsolved_seed("e", 1e-2)
    with pytest.raises(ValueError, match=f"^compat_tol must be a number >= 0, got {compat_tol}$"):
        solve_straight_out_d(g, SphereGrid(0.0, 2.0, 16, 32), compat_tol=compat_tol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the chart's own overflow
def test_picard_refuses_a_solvability_integral_that_is_not_finite(monkeypatch):
    """On the golden ef chart at r = 1e76 the symbolic b_r overflows, and
    G(d, d') and its solvability integral are nan at Picard step 0: the
    solve names r before any Poisson step, where it applied the operator
    10 n_theta times on nan."""
    steps = []
    laplace = straightout._laplace_full

    def counted(*args, **kwargs):
        steps.append(1)
        return laplace(*args, **kwargs)

    monkeypatch.setattr(straightout, "_laplace_full", counted)
    g = load_chart(EF_BUILD).metric()
    with pytest.raises(ValueError,
                       match=r"^the solvability integral at r = 1e\+76 is not finite$"):
        solve_straight_out_d(g, SphereGrid(0.0, 1e76, 16, 32))
    assert steps == []


@pytest.mark.parametrize("kind,floor", [("ea", 1.83e-4), ("ef", 1.96e-6)])
def test_poisson_stall_is_reported_not_raised(kind, floor, tmp_path, capsys):
    """At 16x32 the inner Poisson solve of the first Picard step stalls
    above its floor: the solution says so and carries the residual history,
    and straightout --solve still exits 3."""
    from imcvf.chart import save_chart
    from imcvf.cli import main

    g = build_seed(kind, 0.1)
    sol = solve_straight_out_d(g, SphereGrid(0.0, 2.0, 16, 32))
    assert not sol.converged and not sol.compatibility_failed
    assert sol.iterations == 0 and sol.update_norms == [] and len(sol.compat_integrals) == 1
    assert len(sol.poisson_history) >= 6
    assert min(sol.poisson_history) == pytest.approx(floor, rel=0.01)
    assert np.all(sol.d == 0.0)

    path = tmp_path / "chart.json"
    save_chart(g, str(path))
    assert main(["straightout", "--chart", str(path), "--grid", "16,32", "--r", "2",
                 "--solve"]) == 3
    assert "Poisson solve stalled at residual" in capsys.readouterr().err
