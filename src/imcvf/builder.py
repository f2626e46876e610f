"""Construction and validation of IMCVF coordinate charts.

Given the six free metric functions (a, c, e, f, u, v) with b derived from
the area constraint ab - c^2 = r^4 sin^2(th), the remaining component d is
determined in closed form by requiring the mean curvature vector of every
coordinate sphere to be tangential to the t = const slices.  The validator
checks all four chart conditions with both the closed-form obstruction and
the trace-formula mean curvature as independent residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import BlockMetric, ChartFile, _as_expr, component_jets, cross_terms
from .curvature import spherical_oracle
from .errors import DegenerateSurfaceError
from .expr import FieldExpr, diff, evaluate, parse, var, call
from .sphere import _trace_mean_curvature, star_values, surface_fields

__all__ = ["solve_d", "complete_chart", "complete_chart_file", "ChartReport",
           "ValidationSpec", "validate_chart", "imcvf_flow_param",
           "imcvf_flow_radius", "MonotonicityReport", "monotonicity_check_spherical"]


def solve_d(a, b, c, e, f, u) -> FieldExpr:
    """Closed-form d making the coordinate-sphere mean curvature radial.

    Assumes the caller enforces ab - c^2 = r^4 sin^2(th); the result is a
    FieldExpr assembled from the six inputs and their angular derivatives.
    Constant folding collapses it to the zero literal whenever e = f = 0
    and the cross terms cf - be, ce - af vanish identically.
    """
    a, b, c, e, f, u = (_as_expr(x) for x in (a, b, c, e, f, u))
    r = var("r")
    sth = call("sin", var("th"))
    w = r**4 * sth**2

    b1 = (2.0 * b * diff(e, "th") - 2.0 * c * diff(e, "ph")
          - 2.0 * c * diff(f, "th") + 2.0 * a * diff(f, "ph"))
    b2 = (diff(a, "th") * b - 2.0 * diff(a, "ph") * c
          + 2.0 * a * diff(c, "ph") - a * diff(b, "th"))
    b3 = (2.0 * b * diff(c, "th") - diff(a, "ph") * b
          - 2.0 * diff(b, "th") * c + a * diff(b, "ph"))
    bracket = b1 + ((c * f - b * e) / w) * b2 + ((c * e - a * f) / w) * b3
    return -(u**2 / (4.0 * r**3 * sth**2)) * bracket


def complete_chart(*, a, c, e, f, u, v) -> BlockMetric:
    """Build a full chart from the six free functions: b is derived from the
    area constraint (exactly), d from solve_d."""
    a, c, e, f, u, v = (_as_expr(x) for x in (a, c, e, f, u, v))
    b = (parse("r^4*sin(th)^2") + c * c) / a
    d = solve_d(a, b, c, e, f, u)
    return BlockMetric(v=v, d=d, e=e, f=f, u=u, a=a, b=b, c=c)


def complete_chart_file(cf: ChartFile) -> BlockMetric:
    """Fill in the missing d of a chart file that sets "solve_d": true."""
    ex = cf.exprs
    d = solve_d(ex["a"], ex["b"], ex["c"], ex["e"], ex["f"], ex["u"])
    return BlockMetric(v=ex["v"], d=d, e=ex["e"], f=ex["f"], u=ex["u"],
                       a=ex["a"], b=ex["b"], c=ex["c"], theta_min=cf.theta_min)


# ---------------------------------------------------------------------------
# validation of the four chart conditions
# ---------------------------------------------------------------------------

@dataclass
class ValidationSpec:
    """Time slice, radii and tolerances for chart validation.  No radii
    means eight in geometric steps from 1 to 10; each sphere is sampled on
    16 theta by 8 phi nodes, and |H_n| is held to 1e-8."""

    t: float = 0.0
    r_values: tuple = ()
    tol_cond3: float = 1e-10
    tol_cond4: float = 1e-8


@dataclass
class ChartReport:
    """Residuals of the four IMCVF chart conditions over the sample grid.

    Conditions (1) and (2) are identically zero by the block layout and
    recorded as such; (3) is the area-form constraint, (4) the tangency
    obstruction, cross-checked by the trace-formula normal component.
    tolerances holds the bounds on cond3_max, cond4_max and h_n_max that
    passed compares them with.
    degenerate marks a chart whose sphere metric has ab - c^2 <= 0 at some
    sampled node; the residuals that need the normal frame are then NaN."""

    cond1_max: float
    cond2_max: float
    cond3_max: float
    cond4_max: float
    h_n_max: float
    h_r_err_max: float
    lorentzian_ok: bool
    tolerances: dict
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return (not self.degenerate and self.lorentzian_ok
                and self.cond3_max <= self.tolerances["cond3"]
                and self.cond4_max <= self.tolerances["cond4"]
                and self.h_n_max <= self.tolerances["h_n"])

    def as_dict(self) -> dict:
        return {"cond1_max": self.cond1_max, "cond2_max": self.cond2_max,
                "cond3_max": self.cond3_max, "cond4_max": self.cond4_max,
                "h_n_max": self.h_n_max, "h_r_err_max": self.h_r_err_max,
                "lorentzian_ok": self.lorentzian_ok, "degenerate": self.degenerate,
                "passed": self.passed, **{f"tol_{k}": v for k, v in self.tolerances.items()}}


def validate_chart(g: BlockMetric, spec: ValidationSpec | None = None) -> ChartReport:
    """Check the four chart conditions on a sample grid.

    Returns a report; nothing is raised on failure, the report carries it.
    """
    spec = spec or ValidationSpec()
    radii = np.asarray(spec.r_values or np.geomspace(1.0, 10.0, 8), dtype=float)
    theta = np.linspace(g.theta_min, math.pi - g.theta_min, 16)
    phi = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    # separable sample grid: radii x theta x phi as (R,1,1), (1,n,1), (1,1,m)
    rr = radii[:, None, None]
    env = {"t": np.full((1, 1, 1), spec.t), "r": rr, "th": theta[None, :, None],
           "ph": phi[None, None, :]}
    r4s2 = rr**4 * np.sin(env["th"]) ** 2
    tolerances = {"cond3": spec.tol_cond3, "cond4": spec.tol_cond4, "h_n": 1e-8}

    try:
        fields = surface_fields(g, env)
    except DegenerateSurfaceError:
        w = cross_terms(component_jets(g, env, ("a", "b", "c", "e", "f")))[0]
        nan = float("nan")
        return ChartReport(cond1_max=0.0, cond2_max=0.0,
                           cond3_max=float(np.max(np.abs(w - r4s2))),
                           cond4_max=nan, h_n_max=nan, h_r_err_max=nan,
                           lorentzian_ok=False, tolerances=tolerances, degenerate=True)
    cond3 = np.max(np.abs(fields["W"] - r4s2))
    star = star_values(g, env, fields=fields)
    cond4 = float(np.max(np.abs(star)))
    h_r, h_n = _trace_mean_curvature(fields)
    h_n_max = float(np.max(np.abs(h_n)))
    h_r_err = float(np.max(np.abs(h_r - (-2.0 / (rr * fields["u"])))))
    lorentzian = bool(np.all(fields["u"] > 0) and np.all(fields["v"] > 0)
                      and np.all(fields["W"] > 0) and np.all(fields["det"] < 0))
    return ChartReport(cond1_max=0.0, cond2_max=0.0, cond3_max=float(cond3),
                       cond4_max=cond4, h_n_max=h_n_max, h_r_err_max=h_r_err,
                       lorentzian_ok=lorentzian, tolerances=tolerances)


# ---------------------------------------------------------------------------
# flow parameter
# ---------------------------------------------------------------------------

def imcvf_flow_param(r: float) -> float:
    """Flow parameter s with r^2 = e^s (unit constant): s = 2 ln r."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    return 2.0 * math.log(r)


def imcvf_flow_radius(s: float) -> float:
    """Inverse of imcvf_flow_param."""
    return math.exp(0.5 * s)


# ---------------------------------------------------------------------------
# Hawking-mass monotonicity in spherical symmetry
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    r: np.ndarray
    m_h: np.ndarray
    dmh_ds: np.ndarray
    g_tt: np.ndarray
    identity_err_max: float
    monotone_ok: bool
    violations: int


def monotonicity_check_spherical(u, v, t: float, r_range=(1.5, 10.0),
                                 n: int = 64) -> MonotonicityReport:
    """Hawking mass along the radial flow of the u, v chart.

    Samples m_H = (r/2)(1 - 1/u^2), its derivative in the flow parameter
    (centered difference of step 1e-4 in s, r^2 = e^s), and G_tt; verifies
    the pointwise identity  dm_H/ds (exact) = (r/2)(r^2/(2 v^2)) G_tt  and
    flags any sample with G_tt >= 0 but decreasing mass.
    """
    u, v = _as_expr(u), _as_expr(v)
    radii = np.linspace(r_range[0], r_range[1], n)

    def m_h_at(rv):
        uu = np.asarray(evaluate(u, {"t": np.full_like(rv, t), "r": rv}), dtype=float)
        return rv / 2.0 * (1.0 - uu ** -2.0)

    m_h = m_h_at(radii)
    s = 2.0 * np.log(radii)
    fd_step = 1e-4
    r_up = np.exp((s + fd_step) / 2.0)
    r_dn = np.exp((s - fd_step) / 2.0)
    dmh_ds = (m_h_at(r_up) - m_h_at(r_dn)) / (2.0 * fd_step)

    env = {"t": np.full_like(radii, t), "r": radii, "th": np.full_like(radii, 1.0)}
    orc = spherical_oracle(u, v, env)
    g_tt = np.asarray(orc["G_tt"], dtype=float)

    uu = np.asarray(evaluate(u, env), dtype=float)
    u_r = np.asarray(evaluate(diff(u, "r"), env), dtype=float)
    vv = np.asarray(evaluate(v, env), dtype=float)
    lhs = radii / 2.0 * (0.5 * (1.0 - uu ** -2.0) + radii * u_r / uu**3)
    rhs = radii / 2.0 * (radii**2 / (2.0 * vv**2)) * g_tt
    identity_err = float(np.max(np.abs(lhs - rhs)))

    dec = g_tt >= 0.0
    bad = dec & (dmh_ds < -1e-8 * (1.0 + np.abs(m_h)))
    return MonotonicityReport(r=radii, m_h=m_h, dmh_ds=dmh_ds, g_tt=g_tt,
                              identity_err_max=identity_err,
                              monotone_ok=not bool(np.any(bad)),
                              violations=int(np.sum(bad)))
