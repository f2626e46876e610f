"""Block Lorentzian metrics on the chart (t, r, theta, phi).

The metric layout is fixed:

    g_tt = -v^2   g_tr = d    g_tth = e    g_tph = f
    g_rr = u^2    g_rth = 0   g_rph = 0
    g_thth = a    g_thph = c
    g_phph = b

with the eight components arbitrary field expressions.  The determinant
and inverse are evaluated from closed forms (cross-checked against brute
force in the tests).  Coordinate order is (t, r, th, ph) everywhere; use
the index constants T, R, TH, PH rather than raw integers.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import SingularMetricError
from .expr import COORDS, FieldExpr, Plan, diff, evaluate, parse, to_source
from .grid import check_radius, check_time
from .tape import Operand, check_step

T, R, TH, PH = 0, 1, 2, 3
COMPONENTS = ("v", "d", "e", "f", "u", "a", "b", "c")

# Jet keys name a component value ('a'), a first partial ('a_th') or a
# second partial ('a_r_th', d_th d_r a), coordinates in COORDS order.
FIRST_JETS = COMPONENTS + tuple(f"{n}_{m}" for n in COMPONENTS for m in COORDS)
SECOND_JETS = tuple(f"{n}_{m}_{k}" for n in COMPONENTS
                    for i, m in enumerate(COORDS) for k in COORDS[i:])

DEFAULT_THETA_MIN = 1e-3

__all__ = ["T", "R", "TH", "PH", "COMPONENTS", "FIRST_JETS", "SECOND_JETS",
           "CoordinatePoint", "BlockMetric", "field_jets",
           "component_jets", "metric_values", "det_values", "inverse_values",
           "load_chart", "save_chart", "ChartFile", "DEFAULT_THETA_MIN"]


@dataclass(frozen=True)
class CoordinatePoint:
    """A chart point with a finite t, an r that passes grid.check_radius
    (r > 0, r^2 finite) and theta in the open interval (0, pi); the poles
    are coordinate singularities and are excluded.  phi is normalized into
    [0, 2 pi) by periodicity."""

    t: float
    r: float
    th: float
    ph: float

    def __post_init__(self):
        check_time(self.t)
        check_radius(self.r)
        if not 0.0 < self.th < np.pi:
            raise ValueError(f"th must lie in (0, pi), got {self.th}")
        object.__setattr__(self, "ph", float(self.ph) % (2.0 * np.pi))

    def env(self) -> dict:
        """The point as an env of scalars: every function of an env
        (metric_values, christoffel_values, star_values, ...) evaluates it
        as a one-node grid, with broadcast shape ()."""
        return {"t": self.t, "r": self.r, "th": self.th, "ph": self.ph}


class BlockMetric:
    """The eight-component block metric.  Immutable; derivative expressions
    are cached on their nodes, and what is compiled or recorded from them
    is kept in one store (cached), so instances are cheap to evaluate
    repeatedly."""

    def __init__(self, *, v, d, e, f, u, a, b, c,
                 theta_min: float = DEFAULT_THETA_MIN):
        comps = {"v": v, "d": d, "e": e, "f": f, "u": u, "a": a, "b": b, "c": c}
        self.comps = {k: _as_expr(x) for k, x in comps.items()}
        self.theta_min = _check_theta_min(theta_min)
        self._store = {}

    # individual components as attributes (read-only by convention)
    def __getattr__(self, name):
        comps = self.__dict__.get("comps")
        if comps is not None and name in comps:
            return comps[name]
        raise AttributeError(name)

    def deriv(self, name: str, *vars_: str) -> FieldExpr:
        """Partial derivative of a component, e.g. deriv('a','th','r'); diff
        caches each derivative on its node, so repeated calls are cheap."""
        expr = self.comps[name]
        for v in vars_:
            expr = diff(expr, v)
        return expr

    def cached(self, key, make):
        """make(), kept under key: the Plan of some jet keys (component_jets),
        the "frame" Plan (steering) or a ("hawking_mass", signature) tape.
        A hit takes no lock; a miss builds under the re-entrant _STORE_LOCK,
        which a recording holds while it compiles the jet plan it reads.
        Jets stay Plans, which serve every env: a tape serves one env
        signature and takes three to five times a Plan compile to record."""
        if key not in self._store:
            with _STORE_LOCK:
                if key not in self._store:
                    self._store[key] = make()
        return self._store[key]


_STORE_LOCK = threading.RLock()


def _check_theta_min(x) -> float:
    """x as a float: a ValueError naming theta_min unless x is a real
    number, not a bool, with 0 < x < pi/2, so that the sampled theta range
    [x, pi - x] lies inside (0, pi) and runs forwards."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0.0 < x < math.pi / 2:
        raise ValueError(f"theta_min must be a real number in (0, pi/2), got {x!r}")
    return float(x)


def _as_expr(x) -> FieldExpr:
    if isinstance(x, FieldExpr):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, float)):
        from .expr import lit
        return lit(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a field expression")


# ---------------------------------------------------------------------------
# pointwise / vectorized evaluation
# ---------------------------------------------------------------------------

def env_shape(env: Mapping) -> tuple:
    """Broadcast shape of the coordinate values in env."""
    return np.broadcast_shapes(*(np.shape(v) for v in env.values()))


def field_jets(exprs: Mapping[str, FieldExpr], env: Mapping) -> dict:
    """The named expressions evaluated on env in one evaluate pass over one
    plan.  Each value comes back as a read-only float array of the
    broadcast shape of the coordinates it reads, which broadcasts to the
    env's shape: on a separable env (SphereGrid.env) a field of r alone is
    (1, 1), one of th a column, and a constant 0-d."""
    return plan_jets(Plan(exprs.values()), exprs, env)


def plan_jets(plan: Plan, names, env: Mapping) -> dict:
    """The roots of a compiled plan evaluated on env in one evaluate pass,
    named in root order by names, as field_jets gives them."""
    return _named(names, evaluate(plan, env))


def component_jets(g: BlockMetric, env: Mapping, keys) -> dict:
    """Values and exact partials of the metric components named by the jet
    keys (e.g. 'a', 'a_th', 'a_r_th'), and only those, as field_jets gives
    them, from one evaluate pass over the metric's plan of those keys."""
    keys = tuple(keys)
    plan = g.cached(keys, lambda: Plan([g.deriv(*k.split("_")) for k in keys]))
    return plan_jets(plan, keys, env)


def _named(names, values) -> dict:
    """names -> values as read-only float arrays.  Each is a view, so a
    root that is an env coordinate leaves the caller's array writable; a
    value a tape records stays as it is."""
    out = {}
    for k, v in zip(names, values):
        if type(v) is not Operand:
            v = np.asarray(v, dtype=float).view()
            v.flags.writeable = False
        out[k] = v
    return out


def metric_values(g: BlockMetric, env: Mapping) -> np.ndarray:
    """Metric matrix with shape env_broadcast + (4, 4)."""
    return metric_from_components(component_jets(g, env, COMPONENTS), env_shape(env))


def metric_from_components(c: Mapping, shape) -> np.ndarray:
    """Metric matrix from component values c (keys as COMPONENTS),
    broadcast to shape + (4, 4)."""
    m = np.zeros(shape + (4, 4))
    m[..., T, T] = -np.asarray(c["v"]) ** 2
    m[..., T, R] = m[..., R, T] = c["d"]
    m[..., T, TH] = m[..., TH, T] = c["e"]
    m[..., T, PH] = m[..., PH, T] = c["f"]
    m[..., R, R] = np.asarray(c["u"]) ** 2
    m[..., TH, TH] = c["a"]
    m[..., TH, PH] = m[..., PH, TH] = c["c"]
    m[..., PH, PH] = c["b"]
    return m


def det_values(g: BlockMetric, env: Mapping) -> np.ndarray:
    """Closed-form determinant, broadcastable to env_broadcast: as large as
    the coordinates the components read make it."""
    c = component_jets(g, env, COMPONENTS)
    return det_from_components(c, cross_terms(c)[0])


def cross_terms(c: Mapping) -> tuple:
    """(W, cf - be, ce - af) with W = ab - c^2, from component values c
    (keys as COMPONENTS): arrays, floats or FieldExprs alike."""
    a, b, cc, e, f = (c[k] for k in ("a", "b", "c", "e", "f"))
    return a * b - cc * cc, cc * f - b * e, cc * e - a * f


def det_from_components(c: Mapping, w):
    """|g| = (-u^2 v^2 - d^2) w + u^2 (2cef - be^2 - af^2) from component
    values c and w = ab - c^2 as cross_terms(c) gives it: arrays, floats or
    FieldExprs alike."""
    u2, v2 = c["u"] * c["u"], c["v"] * c["v"]
    a, b, cc, d, e, f = (c[k] for k in ("a", "b", "c", "d", "e", "f"))
    return (-u2 * v2 - d * d) * w + u2 * (2.0 * cc * e * f - b * e * e - a * f * f)


def inverse_values(g: BlockMetric, env: Mapping) -> np.ndarray:
    """Closed-form inverse metric, shape env_broadcast + (4, 4); raises
    SingularMetricError where |det| < 1e-14."""
    return inverse_from_components(component_jets(g, env, COMPONENTS), env_shape(env))


@check_step
def check_det(det) -> None:
    """Raise SingularMetricError where |det| < 1e-14."""
    if np.any(np.abs(det) < 1e-14):
        raise SingularMetricError("metric determinant vanishes at a sampled point")


def cofactors(c: Mapping, cross):
    """cof(i, j) = det(g) g^{ij} in closed form, from component values c
    (keys as COMPONENTS) and cross = cross_terms(c).  Each call forms one
    entry, so a caller forms only the entries it reads."""
    u2, v2 = c["u"] * c["u"], c["v"] * c["v"]
    a, b, cc, d, e, f = (c[k] for k in ("a", "b", "c", "d", "e", "f"))
    w, cf_be, ce_af = cross
    upper = {(T, T): lambda: u2 * w,
             (T, R): lambda: -d * w,
             (T, TH): lambda: u2 * cf_be,
             (T, PH): lambda: u2 * ce_af,
             (R, R): lambda: -v2 * w + f * ce_af + e * cf_be,
             (R, TH): lambda: -d * cf_be,
             (R, PH): lambda: -d * ce_af,
             (TH, TH): lambda: -u2 * v2 * b - u2 * f * f - b * d * d,
             (TH, PH): lambda: u2 * v2 * cc + u2 * e * f + cc * d * d,
             (PH, PH): lambda: -u2 * v2 * a - u2 * e * e - a * d * d}
    return lambda i, j: upper[min(i, j), max(i, j)]()


def inverse_from_components(c: Mapping, shape) -> np.ndarray:
    """Closed-form inverse from component values c (keys as COMPONENTS),
    broadcast to shape + (4, 4): each entry its cofactor divided by det.
    Raises SingularMetricError where |det| < 1e-14."""
    cross = cross_terms(c)
    det = det_from_components(c, cross[0])
    check_det(det)
    cof = cofactors(c, cross)
    inv = np.empty(shape + (4, 4))
    for i in range(4):
        for j in range(4):
            inv[..., i, j] = cof(i, j)
    inv /= det[..., None, None]
    return inv


# ---------------------------------------------------------------------------
# chart files
# ---------------------------------------------------------------------------

@dataclass
class ChartFile:
    """Parsed chart definition.  ``d`` may be None when the file asks the
    builder to solve for it (key "solve_d": true)."""

    exprs: dict
    params: dict = field(default_factory=dict)
    theta_min: float = DEFAULT_THETA_MIN
    solve_d: bool = False

    def metric(self) -> BlockMetric:
        if self.exprs.get("d") is None:
            raise ValueError("chart has no 'd' component; run the builder first")
        return BlockMetric(**self.exprs, theta_min=self.theta_min)


def load_chart(source) -> ChartFile:
    """Load a chart definition from a path, file object or dict.

    Expression strings are parsed with the file's "params" substituted.
    "d" may be omitted only when "solve_d" is true.  A document that is not
    an object, a "params" that is not one, a "solve_d" that is not a
    boolean and a component that is neither a string nor a number (null,
    a boolean, a list or an object) are each a ValueError naming it, as is
    a theta_min that BlockMetric would refuse.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    elif isinstance(source, dict):
        raw = source
    else:
        raw = json.load(source)
    if not isinstance(raw, dict):
        raise ValueError(f"a chart must be a JSON object, got {type(raw).__name__}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"chart key 'params' must be an object, got {type(params).__name__}")
    params = dict(params)
    solve_d = raw.get("solve_d", False)
    if not isinstance(solve_d, bool):
        raise ValueError(f"chart key 'solve_d' must be true or false, got {solve_d!r}")
    exprs = {}
    for key in COMPONENTS:
        if key not in raw:
            if key == "d" and solve_d:
                exprs["d"] = None
                continue
            raise KeyError(f"chart file is missing component {key!r}")
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
            raise ValueError(f"chart component {key!r} must be an expression string or a "
                             f"number, got {value!r}")
        exprs[key] = parse(str(value), params=params)
    return ChartFile(exprs=exprs, params=params,
                     theta_min=_check_theta_min(raw.get("theta_min", DEFAULT_THETA_MIN)),
                     solve_d=solve_d)


def save_chart(g: BlockMetric, path, params=None) -> None:
    """Serialize a metric back to the JSON chart format."""
    doc = {k: to_source(x) for k, x in g.comps.items()}
    doc["theta_min"] = g.theta_min
    if params:
        doc["params"] = dict(params)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
