"""Straight-out flow machinery on coordinate spheres.

The connection one-form of the radial unit normal e_r = (1/u) d_r has the
closed-form components

    alpha_th = -(1/u^2) Gamma^t_thr sqrt(-|g| / |g_S|),
    alpha_ph = -(1/u^2) Gamma^t_phr sqrt(-|g| / |g_S|),

whose surface divergence characterizes straight-out directions.  This
module evaluates the one-form, its divergence and the hyperbolic gauge
rotation solving  Lap(theta) = div(alpha); checks the time-flat predicate;
cross-validates the long assembled form

    2 sqrt(-|g_S| |g|) div(alpha) = |g_S| Lap_{g_S}(d) + F(d, d')

against the direct divergence; and runs the Picard iteration for the
second-order equation Lap(d) + G(d, d') = 0 with G = F / |g_S|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import BlockMetric, det_from_components
from .errors import CompatibilityError, ConvergenceError, \
    NonSpacelikeMeanCurvatureError
from .grid import SphereGrid
from .sphere import _trace_mean_curvature, gs_laplacian_coefficients, gs_trace, \
    surface_fields

__all__ = ["ConnectionOneForm", "HyperbolicAngle", "connection_one_form",
           "divergence_alpha", "gauge_rotation", "rotate_one_form", "one_form_energy",
           "is_time_flat", "StraightOutResidual", "straight_out_residual",
           "StraightOutSolution", "solve_straight_out_d"]


@dataclass(frozen=True)
class ConnectionOneForm:
    """Components (alpha_th, alpha_ph) on the grid of the one-form of a
    unit spacelike normal (e_r, or e_r rotated)."""

    alpha_th: np.ndarray
    alpha_ph: np.ndarray


@dataclass(frozen=True)
class HyperbolicAngle:
    """Gauge angle rotating the normal frame so that the one-form becomes
    divergence free; mean-zero normalized."""

    theta_gauge: np.ndarray
    residual_inf: float
    iterations: int


# jets that the closed forms read beyond surface_fields' SURFACE_JETS: the
# one-form's Gamma^t_thr and Gamma^t_phr read the first four, the d-free
# stage of the assembled form all six.  Where d is the chart's own, they
# also read its tangential partials, _CHART_D_JETS; where d lives on the
# grid, _grid_d_data puts spectral ones in their place.
_CLOSED_FORM_JETS = ("e_r", "f_r", "u_th", "u_ph", "v_th", "v_ph")
_CHART_D_JETS = ("d_th", "d_ph")


def _gamma_t_radial(f):
    """Closed forms of Gamma^t_thr and Gamma^t_phr from the fields dict f
    (surface_fields with _CLOSED_FORM_JETS and _CHART_D_JETS, or
    _grid_d_data where d lives on the grid)."""
    d, u2, det = f["d"], f["u"] ** 2, f["det"]
    g_thr = (u2 * f["W"] * (f["e_r"] + f["d_th"]) - d * f["W"] * 2.0 * f["u"] * f["u_th"]
             + u2 * f["cf_be"] * f["a_r"] + u2 * f["ce_af"] * f["c_r"]) / (2.0 * det)
    g_phr = (u2 * f["W"] * (f["f_r"] + f["d_ph"]) - d * f["W"] * 2.0 * f["u"] * f["u_ph"]
             + u2 * f["cf_be"] * f["c_r"] + u2 * f["ce_af"] * f["b_r"]) / (2.0 * det)
    return g_thr, g_phr


def connection_one_form(g: BlockMetric, grid: SphereGrid, fields=None) -> ConnectionOneForm:
    """One-form of e_r from the closed-form Christoffel entries.  fields,
    when given, must hold e_r, f_r, u_th, u_ph, d_th and d_ph besides the
    surface_fields entries: surface_fields(g, env, extra=_CLOSED_FORM_JETS
    + _CHART_D_JETS), or that dict through _grid_d_data."""
    f = fields if fields is not None else surface_fields(
        g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    g_thr, g_phr = _gamma_t_radial(f)
    scale = -np.sqrt(-f["det"] / f["W"]) / f["u"] ** 2
    return ConnectionOneForm(alpha_th=scale * g_thr, alpha_ph=scale * g_phr)


def _dual_vector(f, alpha: ConnectionOneForm):
    beta_th = (f["b"] * alpha.alpha_th - f["c"] * alpha.alpha_ph) / f["W"]
    beta_ph = (-f["c"] * alpha.alpha_th + f["a"] * alpha.alpha_ph) / f["W"]
    return beta_th, beta_ph


def divergence_alpha(g: BlockMetric, grid: SphereGrid, alpha: ConnectionOneForm,
                     fields=None):
    """Surface divergence of the one-form and its area integral.

    div = d(beta^th)/dth + d(beta^ph)/dph + beta^th cot(th) with the dual
    vector beta = g_S^{-1} alpha, evaluated spectrally through the
    sin-weighted form that keeps the transform in the scalar parity class.
    fields, when given, needs only the surface_fields entries a, b, c, W.
    """
    f = fields if fields is not None else surface_fields(g, grid.env())
    beta_th, beta_ph = _dual_vector(f, alpha)
    div = grid.div_tangent(beta_th, beta_ph)
    integral = grid.integrate_area(div, np.sqrt(f["W"]))
    return div, integral


def one_form_norm_sq(f, alpha: ConnectionOneForm):
    """Pointwise |alpha|^2 under the inverse induced metric."""
    return (f["b"] * alpha.alpha_th ** 2
            - 2.0 * f["c"] * alpha.alpha_th * alpha.alpha_ph
            + f["a"] * alpha.alpha_ph ** 2) / f["W"]


def one_form_energy(g: BlockMetric, grid: SphereGrid, alpha: ConnectionOneForm,
                    fields=None) -> float:
    """Normal-bundle bending energy: integral of |alpha|^2_{g_S} dA.

    Rotating the normal by an angle field chi maps alpha to alpha - d(chi),
    so among all rotations the energy is minimized exactly by the Poisson
    gauge; the straight-out normal is that minimizer.  fields, when given,
    needs only the surface_fields entries a, b, c, W.
    """
    f = fields if fields is not None else surface_fields(g, grid.env())
    return grid.integrate_area(one_form_norm_sq(f, alpha), np.sqrt(f["W"]))


def rotate_one_form(grid: SphereGrid, alpha: ConnectionOneForm,
                    chi: np.ndarray) -> ConnectionOneForm:
    """One-form after a hyperbolic rotation of the normal by angle chi:
    alpha - d(chi)."""
    chi_th, chi_ph = grid.gradient(chi)
    return ConnectionOneForm(alpha_th=alpha.alpha_th - chi_th,
                             alpha_ph=alpha.alpha_ph - chi_ph)


# ---------------------------------------------------------------------------
# Poisson gauge
# ---------------------------------------------------------------------------

def _laplace_full(grid, fields, x, grad=None):
    """div(grad x) with the induced metric, composed from the exact same
    discrete divergence used everywhere else; grad is the (x_th, x_ph) of
    grid.gradient(x) when the caller already holds it."""
    x_th, x_ph = grid.gradient(x) if grad is None else grad
    beta_th, beta_ph = _dual_vector(fields, ConnectionOneForm(alpha_th=x_th, alpha_ph=x_ph))
    return grid.div_tangent(beta_th, beta_ph)


def _poisson_solve(grid, fields, rhs, tol, floor_tol=None):
    """Mean-zero x with div(grad x) = rhs, by round-sphere preconditioned
    iteration of at most 10 n_theta steps.  Returns (x, residual_inf,
    iterations).

    The residual cannot drop below the band-truncation floor of the metric
    coefficient fields; a stagnated iterate is accepted when it sits under
    floor_tol (defaults to tol, i.e. strict), raised otherwise.  A residual
    that is not finite ends the iteration at once: no step mends it.
    """
    floor_tol = tol if floor_tol is None else floor_tol
    sqrt_gs = np.sqrt(fields["W"])
    x = grid.mean_zero(grid.solve_poisson_round(rhs), sqrt_gs)
    history = []
    best_x, best = x, np.inf
    for k in range(10 * grid.n_theta):
        res = rhs - _laplace_full(grid, fields, x)
        rnorm = float(np.max(np.abs(res)))
        history.append(rnorm)
        if rnorm < best:
            best_x, best = x, rnorm
        if rnorm <= tol:
            return x, rnorm, k
        if not math.isfinite(rnorm):
            break
        if k >= 5 and rnorm > 0.99 * max(history[-5:-1] + [0.0]):
            break                                  # stagnated at the floor
        x = grid.mean_zero(x + grid.solve_poisson_round(res), sqrt_gs)
    if best <= max(tol, floor_tol):
        return best_x, best, len(history)
    why = (f"stalled at residual {best:.3e}" if math.isfinite(rnorm)
           else f"reached a residual that is not finite ({rnorm!r})")
    raise ConvergenceError(f"Poisson iteration {why} (tol {tol:.1e})", history=history)


def gauge_rotation(g: BlockMetric, grid: SphereGrid, alpha: ConnectionOneForm,
                   fields=None) -> HyperbolicAngle:
    """Rotation angle solving  Lap_{g_S}(chi) = div(alpha), mean zero, to a
    sup-norm residual of 1e-7.

    Solvability requires the divergence to integrate to zero; violations
    beyond 1e-6 * |alpha| raise CompatibilityError.  After the rotation the
    one-form alpha - d(chi) has sup-norm divergence below the solver
    tolerance by construction (the same discrete operators are composed).
    fields, when given, needs only the surface_fields entries a, b, c, W.
    """
    f = fields if fields is not None else surface_fields(g, grid.env())
    div, integral = divergence_alpha(g, grid, alpha, fields=f)
    scale = float(np.sqrt(np.max(np.abs(one_form_norm_sq(f, alpha)))))
    if abs(integral) > 1e-6 * max(scale, 1e-12):
        raise CompatibilityError(
            f"div(alpha) integrates to {integral:.3e}, not compatible")
    x, rnorm, iters = _poisson_solve(grid, f, div, 1e-7)
    return HyperbolicAngle(theta_gauge=x, residual_inf=rnorm, iterations=iters)


# ---------------------------------------------------------------------------
# time-flat predicate
# ---------------------------------------------------------------------------

def is_time_flat(g: BlockMetric, grid: SphereGrid, tol: float = 1e-7):
    """Whether div of the mean-curvature one-form vanishes (sup-norm test).

    The one-form of nu_H = -H/|H| is the e_r one-form hyperbolically
    rotated by artanh(H_n / H_r), with H from the trace formula.  Requires
    a spacelike mean curvature vector.
    """
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _CHART_D_JETS)
    h_r, h_n = _trace_mean_curvature(f)
    if np.any(np.abs(h_r) <= np.abs(h_n)):
        raise NonSpacelikeMeanCurvatureError(
            "mean curvature vector is not spacelike on the sphere")
    alpha_h = rotate_one_form(grid, connection_one_form(g, grid, fields=f),
                              np.arctanh(h_n / h_r))
    div, _ = divergence_alpha(g, grid, alpha_h, fields=f)
    sup = float(np.max(np.abs(div)))
    return sup <= tol, sup


# ---------------------------------------------------------------------------
# the assembled second-order form and its cross-validation
# ---------------------------------------------------------------------------

# second partials of the components other than d that the assembled form
# reads, and those of d that its Laplacian reads (component jet keys)
_ASSEMBLED_JETS = ("e_r_th", "e_r_ph", "f_r_th", "f_r_ph", "a_r_th", "a_r_ph",
                   "b_r_th", "b_r_ph", "c_r_th", "c_r_ph",
                   "u_th_th", "u_th_ph", "u_ph_ph")
_D_SECOND_JETS = ("d_th_th", "d_th_ph", "d_ph_ph")


def _grid_d_data(grid: SphereGrid, f, d: np.ndarray) -> dict:
    """The fields dict f with grid samples of d merged in: d, its tangential
    partials by spectral derivatives and the |g| they imply replace the
    chart's own, so f needs none of _CHART_D_JETS; other entries that
    depend on d (nn, norm_n and any second partials of d) are left as the
    chart gives them."""
    d_th, d_ph = grid.gradient(d)
    out = {**f, "d": d, "d_th": d_th, "d_ph": d_ph}
    out["det"] = det_from_components(out, out["W"])
    return out


# entries of a fields dict that depend on d; the d-free stage reads none
_D_ENTRIES = ("d",) + _CHART_D_JETS + ("det", "nn", "norm_n") + _D_SECOND_JETS


def _assembled_d_free(grid: SphereGrid, fields) -> dict:
    """Every array of assembled_form that does not depend on d, formed from
    the jets at their own size: a separable factor stays at the size of the
    coordinates it depends on.  Elementwise arithmetic does not depend on
    broadcasting, so each array holds the bits full-grid jets give."""
    f = {key: v for key, v in fields.items() if key not in _D_ENTRIES}
    cot = grid.cot_theta[:, None]
    a, b, c = f["a"], f["b"], f["c"]
    w = f["W"]
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
    cf_be, ce_af = f["cf_be"], f["ce_af"]
    u2_thth = 2.0 * (u_th**2 + u * f["u_th_th"])
    u2_thph = 2.0 * (u_th * u_ph + u * f["u_th_ph"])
    u2_phph = 2.0 * (u_ph**2 + u * f["u_ph_ph"])
    coef_th, coef_ph = gs_laplacian_coefficients(f, cot)
    return {
        "a": a, "b": b, "c": c, "W": w, "u": u, "u_th": u_th, "u_ph": u_ph,
        "cot": cot, "two_cot": 2.0 * cot, "coef_th": coef_th, "coef_ph": coef_ph,
        # factors of det_th, det_ph, t2 and t6 .. t12 that hold no d
        "k": k, "k_th": k_th, "k_ph": k_ph, "W_th": f["W_th"], "W_ph": f["W_ph"],
        "u2v2": u**2 * f["v"] ** 2, "u2": u**2,
        "uv2_th": 2.0 * u * u_th * f["v"] ** 2 + u**2 * 2.0 * f["v"] * f["v_th"],
        "uv2_ph": 2.0 * u * u_ph * f["v"] ** 2 + u**2 * 2.0 * f["v"] * f["v_ph"],
        "two_u_th": 2.0 * u * u_th, "two_u_ph": 2.0 * u * u_ph,
        "tr_u2": gs_trace(f, u2_thth, u2_thph, u2_phph),
        "b_e_r": b * f["e_r"], "c_f_r": c * f["f_r"],
        "mc_e_r": -c * f["e_r"], "a_f_r": a * f["f_r"],
        "m2_u": -(2.0 / u), "bu_cu": b * u_th - c * u_ph, "cu_au": -c * u_th + a * u_ph,
        "cf_be": cf_be, "ce_af": ce_af,
        "cf_be_th": f["c_th"] * f["f"] + c * f["f_th"] - f["b_th"] * f["e"] - b * f["e_th"],
        "cf_be_ph": f["c_ph"] * f["f"] + c * f["f_ph"] - f["b_ph"] * f["e"] - b * f["e_ph"],
        "ce_af_th": f["c_th"] * f["e"] + c * f["e_th"] - f["a_th"] * f["f"] - a * f["f_th"],
        "ce_af_ph": f["c_ph"] * f["e"] + c * f["e_ph"] - f["a_ph"] * f["f"] - a * f["f_ph"],
        "ba_cc": b * f["a_r"] - c * f["c_r"], "ca_ac": -c * f["a_r"] + a * f["c_r"],
        "bc_cb": b * f["c_r"] - c * f["b_r"], "cc_ab": -c * f["c_r"] + a * f["b_r"],
        "t12_u": (f["b_th"] * u_th - f["c_ph"] * u_th
                  - f["c_th"] * u_ph + f["a_ph"] * u_ph),
        "t1": b * f["e_r_th"] - c * f["f_r_th"] - c * f["e_r_ph"] + a * f["f_r_ph"],
        "t3": (cf_be / w) * (b * f["a_r_th"] - c * f["c_r_th"]
                             - c * f["a_r_ph"] + a * f["c_r_ph"]),
        "t4": (ce_af / w) * (b * f["c_r_th"] - c * f["b_r_th"]
                             - c * f["c_r_ph"] + a * f["b_r_ph"]),
        "t11": (f["b_th"] * f["e_r"] - f["c_ph"] * f["e_r"]
                - f["c_th"] * f["f_r"] + f["a_ph"] * f["f_r"]),
        "t13": ((cf_be / w) * (f["b_th"] * f["a_r"] - f["a_r"] * f["c_ph"]
                               - f["c_r"] * f["c_th"] + f["a_ph"] * f["c_r"])
                + (ce_af / w) * (f["b_th"] * f["c_r"] - f["c_r"] * f["c_ph"]
                                 - f["b_r"] * f["c_th"] + f["a_ph"] * f["b_r"])),
    }


def _assembled_d_terms(p, fields) -> np.ndarray:
    """assembled_form from its d-free arrays p (_assembled_d_free) and the
    entries of fields that depend on d."""
    f = fields
    a, b, c, w = p["a"], p["b"], p["c"], p["W"]
    u, u_th, u_ph = p["u"], p["u_th"], p["u_ph"]
    d, d_th, d_ph, det = f["d"], f["d_th"], f["d_ph"], f["det"]

    det_th = (-p["uv2_th"] * w - 2.0 * d * d_th * w - (p["u2v2"] + d * d) * p["W_th"]
              + p["two_u_th"] * p["k"] + p["u2"] * p["k_th"])
    det_ph = (-p["uv2_ph"] * w - 2.0 * d * d_ph * w - (p["u2v2"] + d * d) * p["W_ph"]
              + p["two_u_ph"] * p["k"] + p["u2"] * p["k_ph"])
    dth_half = det_th / (2.0 * det)
    dph_half = det_ph / (2.0 * det)
    cf_be, ce_af = p["cf_be"], p["ce_af"]

    # |g_S| Lap(d)
    lap = (gs_trace(p, f["d_th_th"], f["d_th_ph"], f["d_ph_ph"])
           + p["coef_th"] * d_th + p["coef_ph"] * d_ph)

    t2 = -(d / p["u2"]) * p["tr_u2"]
    t5 = p["cot"] * (b * d_th - c * d_ph)
    t6 = -dth_half * (p["b_e_r"] + b * d_th - p["c_f_r"] - c * d_ph)
    t7 = -dph_half * (p["mc_e_r"] - c * d_th + p["a_f_r"] + a * d_ph)
    t8 = p["m2_u"] * ((d_th - 2.0 * d * u_th / u - d * dth_half) * p["bu_cu"]
                      + (d_ph - 2.0 * d * u_ph / u - d * dph_half) * p["cu_au"])
    t9 = ((p["cf_be_th"] - cf_be * (dth_half + p["two_cot"])) * p["ba_cc"]
          + (p["cf_be_ph"] - cf_be * dph_half) * p["ca_ac"]) / w
    t10 = ((p["ce_af_th"] - ce_af * (dth_half + p["two_cot"])) * p["bc_cb"]
           + (p["ce_af_ph"] - ce_af * dph_half) * p["cc_ab"]) / w
    t12 = -(2.0 * d / u) * p["t12_u"]
    return (lap + p["t1"] + t2 + p["t3"] + p["t4"] + t5 + t6 + t7 + t8 + t9 + t10
            + p["t11"] + t12 + p["t13"])


def assembled_form(grid: SphereGrid, fields) -> np.ndarray:
    """|g_S| Lap_{g_S}(d) + F(d, d'): the fully assembled closed form of
    2 sqrt(-|g_S||g|) div(alpha).  All 0/0-prone groupings are multiplied
    through, so the spherically symmetric limit is exactly zero.  fields
    must hold the _CLOSED_FORM_JETS, _CHART_D_JETS, _ASSEMBLED_JETS and
    _D_SECOND_JETS besides the surface_fields entries.

    It runs in two stages: _assembled_d_free forms every array that does
    not depend on d from the compact jets, and _assembled_d_terms adds the
    terms in d.  The Picard solve runs the first stage once and the second
    per step; the bits equal those of one pass over full-grid arrays."""
    return _assembled_d_terms(_assembled_d_free(grid, fields), fields)


@dataclass(frozen=True)
class StraightOutResidual:
    """Two evaluations of 2 sqrt(-|g_S||g|) div(alpha): the direct
    divergence route and the assembled closed form, plus their gap."""

    closed: np.ndarray
    direct: np.ndarray
    max_difference: float


def straight_out_residual(g: BlockMetric, grid: SphereGrid) -> StraightOutResidual:
    """Evaluate the straight-out defect both ways and compare.

    The agreement of the two routes (typically at rounding level, required
    below 1e-6) certifies the assembled second-order form."""
    f = surface_fields(g, grid.env(), extra=(_CLOSED_FORM_JETS + _CHART_D_JETS
                                             + _ASSEMBLED_JETS + _D_SECOND_JETS))
    alpha = connection_one_form(g, grid, fields=f)
    div, _ = divergence_alpha(g, grid, alpha, fields=f)
    direct = 2.0 * np.sqrt(-f["W"] * f["det"]) * div
    closed = assembled_form(grid, f)
    return StraightOutResidual(closed=closed, direct=direct,
                               max_difference=float(np.max(np.abs(closed - direct))))


# ---------------------------------------------------------------------------
# Picard iteration for the straight-out d
# ---------------------------------------------------------------------------

@dataclass
class StraightOutSolution:
    """Picard iterate d and its histories.  poisson_history holds the
    residual history of an inner Poisson solve that stalled, which ends the
    iteration unconverged; it is empty otherwise."""

    d: np.ndarray
    converged: bool
    compatibility_failed: bool
    iterations: int
    update_norms: list = field(default_factory=list)
    compat_integrals: list = field(default_factory=list)
    residual_inf: float = float("nan")
    poisson_history: list = field(default_factory=list)


def solve_straight_out_d(g: BlockMetric, grid: SphereGrid, max_iter: int = 200,
                         compat_tol: float = 1e-6) -> StraightOutSolution:
    """Picard iteration  Lap(d_{k+1}) = -G(d_k, d_k') with G = F/|g_S|,
    from d = 0 until an update is at most 1e-8 in sup norm.

    The chart's own d component is ignored; iterates live on the grid with
    spectral tangential derivatives and the mean-zero gauge.  A solvability
    integral far from zero is reported as a compatibility failure rather
    than raised: it would be evidence against solvability at that
    configuration.  So is an inner Poisson solve that stalls above its
    floor: the solution comes back unconverged with its poisson_history.
    A solvability integral that is not finite (the chart's arithmetic
    overflows on the sphere) is a ValueError naming r, raised before any
    Poisson step.  compat_tol must be a number >= 0 (not nan), as
    ValidationSpec holds its tolerances.
    """
    if not compat_tol >= 0:
        raise ValueError(f"compat_tol must be a number >= 0, got {compat_tol}")
    f = surface_fields(g, grid.env(), extra=_CLOSED_FORM_JETS + _ASSEMBLED_JETS)
    sqrt_gs = np.sqrt(f["W"])
    area = grid.integrate_area(np.ones_like(sqrt_gs), sqrt_gs)
    d_free = _assembled_d_free(grid, f)

    def big_g_of(fd):
        """G(d, d') = F / |g_S| on the fields fd of _grid_d_data: the
        assembled form with the Laplacian of d stripped (zero second
        partials, first-order pieces removed)."""
        fd = {**fd, "d_th_th": 0.0, "d_th_ph": 0.0, "d_ph_ph": 0.0}
        f_only = (_assembled_d_terms(d_free, fd)
                  - (d_free["coef_th"] * fd["d_th"] + d_free["coef_ph"] * fd["d_ph"]))
        return f_only / f["W"]

    d = np.zeros((grid.n_theta, grid.n_phi))
    sol = StraightOutSolution(d=d, converged=False, compatibility_failed=False,
                              iterations=0)
    prev_update = np.inf
    damping = 1.0
    for k in range(max_iter):
        big_g = big_g_of(_grid_d_data(grid, f, d))
        compat = grid.integrate_area(big_g, sqrt_gs)
        if not math.isfinite(compat):
            raise ValueError(f"the solvability integral at r = {grid.r!r} is not finite")
        sol.compat_integrals.append(float(compat))
        if abs(compat) > compat_tol * (1.0 + float(np.max(np.abs(big_g)))):
            sol.compatibility_failed = True
            sol.iterations = k
            return sol
        rhs = -(big_g - compat / area)
        # accept the coarse-grid truncation floor up to 2e-7: still a wide
        # margin on the 1e-6 target for the assembled PDE residual
        scale = max(1.0, float(np.max(np.abs(rhs))))
        try:
            x, _, _ = _poisson_solve(grid, f, rhs, tol=1e-9 * scale,
                                     floor_tol=2e-7 * scale)
        except ConvergenceError as exc:
            sol.poisson_history = exc.history
            break
        new_d = grid.mean_zero(d + damping * (x - d), sqrt_gs)
        update = float(np.max(np.abs(new_d - d)))
        sol.update_norms.append(update)
        if update > 2.0 * prev_update:
            damping = 0.5
        prev_update = update
        d = new_d
        sol.iterations = k + 1
        if update <= 1e-8:
            fd = _grid_d_data(grid, f, d)
            big_g = big_g_of(fd)
            residual = (_laplace_full(grid, f, d, grad=(fd["d_th"], fd["d_ph"])) + big_g
                        - grid.integrate_area(big_g, sqrt_gs) / area)
            sol.d = d
            sol.converged = True
            sol.residual_inf = float(np.max(np.abs(residual)))
            return sol
    sol.d = d
    return sol
