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

from .chart import BlockMetric, ChartFile, _as_expr, component_jets, cross_terms, field_jets
from .curvature import spherical_oracle
from .errors import DegenerateSurfaceError
from .expr import FieldExpr, Plan, call, diff, parse, var
from .grid import check_radius, check_time
from .sphere import _trace_mean_curvature, star_brackets, star_values, surface_fields

__all__ = ["solve_d", "complete_chart", "complete_chart_file", "ChartReport",
           "ValidationSpec", "validate_chart", "imcvf_flow_param", "MonotonicityReport",
           "monotonicity_check_spherical"]


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

    jets = {"a": a, "b": b, "c": c, "e": e, "f": f}
    jets.update([(f"{n}_{m}", diff(x, m)) for n, x in jets.items() for m in ("th", "ph")])
    b1, b2, b3 = star_brackets(jets)
    _, cf_be, ce_af = cross_terms(jets)
    bracket = b1 + (cf_be / w) * b2 + (ce_af / w) * b3
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
    16 theta by 8 phi nodes, and |H_n| is held to 1e-8.  t is held to
    grid.check_time, each radius to grid.check_radius, and each tolerance
    must be a number >= 0 (not nan)."""

    t: float = 0.0
    r_values: tuple = ()
    tol_cond3: float = 1e-10
    tol_cond4: float = 1e-8

    def __post_init__(self):
        check_time(self.t)
        for r in self.r_values:
            check_radius(r)
        for name, tol in (("tol_cond3", self.tol_cond3), ("tol_cond4", self.tol_cond4)):
            if not tol >= 0:
                raise ValueError(f"{name} must be a number >= 0, got {tol}")


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
    check_radius(r)
    return 2.0 * math.log(r)


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
    flags any sample with G_tt >= 0 but decreasing mass.  A u or v that
    reads th or ph is a ValueError that names the coordinate, and so is a
    t that is not finite.
    """
    u, v = _as_expr(u), _as_expr(v)
    for name, e in (("u", u), ("v", v)):
        angular = [x for x in Plan([e]).coords if x in ("th", "ph")]
        if angular:
            raise ValueError(f"{name} reads {angular[0]}: the radial flow needs "
                             "u and v of t and r alone")
    check_time(t)
    for r in r_range:
        check_radius(r)
    if n < 1:
        raise ValueError(f"the radial flow needs at least one radius, got n = {n}")
    radii = np.linspace(r_range[0], r_range[1], n)
    s = 2.0 * np.log(radii)
    fd_step = 1e-4
    r_up = np.exp((s + fd_step) / 2.0)
    r_dn = np.exp((s - fd_step) / 2.0)

    def radial_env(rv):
        return {"t": np.full_like(rv, t), "r": rv, "th": np.full_like(rv, 1.0)}

    # u, u_r and v on the sample radii and the two shifted copies, in one
    # pass; the oracle below keeps a pass of its own
    stacked = np.concatenate([radii, r_up, r_dn])
    jets = field_jets({"u": u, "u_r": diff(u, "r"), "v": v}, radial_env(stacked))
    uu, u_up, u_dn = np.split(np.broadcast_to(jets["u"], stacked.shape), 3)
    u_r, vv = (np.broadcast_to(jets[k], stacked.shape)[:n] for k in ("u_r", "v"))
    m_h = radii / 2.0 * (1.0 - uu ** -2.0)
    dmh_ds = (r_up / 2.0 * (1.0 - u_up ** -2.0)
              - r_dn / 2.0 * (1.0 - u_dn ** -2.0)) / (2.0 * fd_step)

    g_tt = np.asarray(spherical_oracle(u, v, radial_env(radii))["G_tt"], dtype=float)

    lhs = radii / 2.0 * (0.5 * (1.0 - uu ** -2.0) + radii * u_r / uu**3)
    rhs = radii / 2.0 * (radii**2 / (2.0 * vv**2)) * g_tt
    identity_err = float(np.max(np.abs(lhs - rhs)))

    dec = g_tt >= 0.0
    bad = dec & (dmh_ds < -1e-8 * (1.0 + np.abs(m_h)))
    return MonotonicityReport(r=radii, m_h=m_h, dmh_ds=dmh_ds, g_tt=g_tt,
                              identity_err_max=identity_err,
                              monotone_ok=not bool(np.any(bad)),
                              violations=int(np.sum(bad)))
