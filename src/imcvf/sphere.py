"""Geometry of the coordinate sphere S_{t,r} and its rank-two normal bundle.

Provides the induced metric, the orthonormal normal frame {e_r, e_n}, the
timelike-tangency obstruction (the bracketed "star" invariant), the mean
curvature vector in closed form and by the generic trace formula, the
Hawking mass quadrature, the surface Laplacian, and the first-variation
identity 2 H_{e_r} (ab - c^2) = e_r(ab - c^2).
"""

from __future__ import annotations

import functools

import numpy as np

from .chart import COMPONENTS, PH, R, T, TH, BlockMetric, check_det, cofactors, \
    component_jets, cross_terms, det_from_components, env_shape
from .curvature import metric_partial, raise_sum
from .errors import DegenerateSurfaceError, GridTooCoarseError, NullMeanCurvatureError
from .expr import COORDS
from .grid import SphereGrid, area_sum
from .tape import check_step, record, signature

__all__ = ["SURFACE_JETS", "surface_fields", "frame_values", "star_values",
           "mean_curvature_values", "inverse_mean_curvature_vector",
           "generalized_flow_radial_residual", "hawking_mass", "sphere_laplacian",
           "first_variation_area_check"]


# the jets surface_fields evaluates: all that its frame scalars, star_values
# and _trace_mean_curvature read.  That is the components, every partial of
# a, b and c, and the tangential partials of e and f; no partial of d, u or v.
SURFACE_JETS = (COMPONENTS + ("e_th", "e_ph", "f_th", "f_ph")
                + tuple(f"{n}_{m}" for n in "abc" for m in COORDS))


def surface_fields(g: BlockMetric, env, extra=()) -> dict:
    """The SURFACE_JETS, the jets named in extra and the frame scalars on an
    env grid.

    Keys: each jet by its key (e.g. 'a', 'a_th'), and the derived fields
    W = ab - c^2, W_r, W_th, W_ph, cf_be, ce_af, det, nn, norm_n.  The
    SURFACE_JETS are what the frame scalars, star_values and the trace
    formula read; a caller that reads another jet (e.g. 'e_r' or
    'u_th_th') names it in extra, and it is evaluated in the same pass.
    Every array broadcasts to the env's shape and is no larger than the
    coordinates it depends on make it: on SphereGrid.env a component of r
    alone, and W = ab - c^2 of a chart with a = r^2, stay a (1, 1) scalar
    or a column.
    """
    out = component_jets(g, env, SURFACE_JETS + tuple(extra))
    a, b, c = out["a"], out["b"], out["c"]
    out["W"], out["cf_be"], out["ce_af"] = cross_terms(out)
    _nondegenerate(out["W"])
    out["W_r"] = out["a_r"] * b + a * out["b_r"] - 2.0 * c * out["c_r"]
    out["W_th"] = out["a_th"] * b + a * out["b_th"] - 2.0 * c * out["c_th"]
    out["W_ph"] = out["a_ph"] * b + a * out["b_ph"] - 2.0 * c * out["c_ph"]
    out["det"] = det_from_components(out, out["W"])
    out["nn"] = out["det"] / (out["u"] ** 2 * out["W"])
    out["norm_n"] = np.sqrt(-out["nn"])
    return out


@check_step
def _nondegenerate(w) -> None:
    if np.any(w <= 0.0):
        raise DegenerateSurfaceError("ab - c^2 <= 0 at a sampled node")


def gs_trace(f, x_thth, x_thph, x_phph):
    """b x_thth - 2c x_thph + a x_phph: |g_S| times the g_S-trace of a
    symmetric tangent 2-tensor, with a, b, c read from the mapping f."""
    return f["b"] * x_thth - 2.0 * f["c"] * x_thph + f["a"] * x_phph


def gs_laplacian_coefficients(f, cot):
    """(b_th - b cot - c_ph, -c_th + c cot + a_ph): the coefficients of
    psi_th and psi_ph in |g_S| Lap_{g_S}(psi) besides its g_S-trace of the
    second partials; f holds the surface_fields jets."""
    return (f["b_th"] - f["b"] * cot - f["c_ph"], -f["c_th"] + f["c"] * cot + f["a_ph"])


def frame_values(g: BlockMetric, env) -> dict:
    """The normal frame on an env grid: n = d_t - (d/u^2) d_r + ((cf - be)/W) d_th
    + ((ce - af)/W) d_ph, the timelike normal (<n, n> is surface_fields' 'nn'),
    e_r = (1/u) d_r and e_n = n / ||n||, each of shape env_shape(env) + (4,)."""
    f, shape = surface_fields(g, env), env_shape(env)

    def vector(*parts):
        return np.stack([np.broadcast_to(x, shape) for x in parts], axis=-1)

    n = vector(1.0, -f["d"] / f["u"] ** 2, f["cf_be"] / f["W"], f["ce_af"] / f["W"])
    return {"n": n, "e_r": vector(0.0, 1.0 / f["u"], 0.0, 0.0),
            "e_n": n / np.broadcast_to(f["norm_n"], shape)[..., None]}


# ---------------------------------------------------------------------------
# the timelike-tangency obstruction
# ---------------------------------------------------------------------------

def star_values(g: BlockMetric, env, fields=None) -> np.ndarray:
    """Closed-form obstruction to the mean curvature vector being radial.

    Vanishes exactly when H is tangential to the t = const slice; equals
    b Gamma^t_thth - 2c Gamma^t_thph + a Gamma^t_phph for charts with
    ab - c^2 = r^4 sin^2(th).
    """
    f = fields if fields is not None else surface_fields(g, env)
    b1, b2, b3 = star_brackets(f)
    u2 = f["u"] ** 2
    num = (u2 * f["W"] * b1 + f["d"] * f["W"] * f["W_r"]
           + u2 * f["cf_be"] * b2 + u2 * f["ce_af"] * b3)
    return num / (2.0 * f["det"])


def star_brackets(j) -> tuple:
    """The brackets (b1, b2, b3) of the star obstruction from the jets j,
    keyed as surface_fields keys them: arrays, floats or FieldExprs alike."""
    a, b, c = j["a"], j["b"], j["c"]
    return (2.0 * b * j["e_th"] - 2.0 * c * j["e_ph"] - 2.0 * c * j["f_th"] + 2.0 * a * j["f_ph"],
            j["a_th"] * b - 2.0 * j["a_ph"] * c + 2.0 * a * j["c_ph"] - a * j["b_th"],
            2.0 * b * j["c_th"] - j["a_ph"] * b - 2.0 * j["b_th"] * c + a * j["b_ph"])

# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def mean_curvature_values(g: BlockMetric, env, method: str) -> tuple:
    """(H_r, H_n, star) arrays on an env grid, with H = H_r e_r + H_n e_n.

    method 'closed' uses the radial closed form H_r = -2/(r u) < 0 (valid
    when ab - c^2 = r^4 sin^2 th) and the star formula for H_n; method
    'trace' contracts the second fundamental form with generic Christoffels
    and is the independent oracle.
    """
    f = surface_fields(g, env)
    star = star_values(g, env, fields=f)
    if method == "trace":
        return (*_trace_mean_curvature(f), star)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    h_r = -2.0 / (np.asarray(env["r"], dtype=float) * f["u"])
    h_n = (1.0 / f["u"]) * np.sqrt(-f["det"]) / f["W"] ** 1.5 * star
    return h_r, h_n, star


def _trace_mean_curvature(f) -> tuple:
    """(H_r, H_n) by the generic trace formula from the surface_fields dict
    f; it forms no star, so the closed form it checks stays out of it.

    Both g_S-traces take one tangent pair at a time, in gs_trace's order
    b x_thth - 2c x_thph + a x_phph, so only one pair's Christoffels are
    alive at once."""
    d, u2 = f["d"], f["u"] ** 2
    pairs = _tangent_christoffel(f)
    # <nabla_i d_j, e_r> u = Gamma^t_ij d + Gamma^r_ij u^2, and
    # <nabla_i d_j, e_n> = Gamma^t_ij <d_t, n>/||n|| = -Gamma^t_ij ||n||
    gt, gr = next(pairs)
    tr_r, tr_t = f["b"] * (gt * d + gr * u2), f["b"] * gt
    gt, gr = next(pairs)
    two_c = 2.0 * f["c"]
    tr_r, tr_t = tr_r - two_c * (gt * d + gr * u2), tr_t - two_c * gt
    gt, gr = next(pairs)
    tr_r, tr_t = tr_r + f["a"] * (gt * d + gr * u2), tr_t + f["a"] * gt
    s_r = tr_r / f["W"] / f["u"]
    s_n = tr_t / f["W"] * (-f["norm_n"])
    return s_r, -s_n


def _tangent_christoffel(f):
    """Yields (Gamma^t_ij, Gamma^r_ij) for the tangent pairs (ij) = thth,
    thph, phph in turn, the only entries the normal projections of the
    second fundamental form read.  Generic formula: P_l = d_i g_jl + d_j g_il
    - d_l g_ij from the first partials, raised with the (T, R) rows of the
    cofactor inverse, all at the size of the surface_fields arrays f."""
    check_det(f["det"])
    cof = cofactors(f, (f["W"], f["cf_be"], f["ce_af"]))
    ginv = [[cof(k, l) / f["det"] for l in range(4)] for k in (T, R)]
    for i, j in ((TH, TH), (TH, PH), (PH, PH)):
        lowered = [(metric_partial(f, i, j, l) + metric_partial(f, j, i, l))
                   - metric_partial(f, l, i, j) for l in range(4)]
        yield raise_sum(ginv[0], lowered), raise_sum(ginv[1], lowered)


def inverse_mean_curvature_vector(h_r, h_n) -> tuple:
    """I = -H / <H, H> in the {e_r, e_n} frame, from the H_r and H_n arrays
    of mean_curvature_values; outward (I_r > 0 for round spheres).  Raises
    NullMeanCurvatureError when H is null at any node."""
    hh = h_r**2 - h_n**2
    if np.any(np.abs(hh) < 1e-300) or not np.all(np.isfinite(hh)):
        raise NullMeanCurvatureError("mean curvature vector is null at a node")
    return -h_r / hh, -h_n / hh


def generalized_flow_radial_residual(h_r, h_n, beta: float):
    """Defect of the direction I + beta I^perp being parallel to d_r, per
    node.

    The perp rotation swaps the frame legs (e_r <-> e_n), so the timelike
    component of the flow direction is I_n + beta I_r; its magnitude is the
    predicate residual.  Zero for beta = 0 exactly when the chart already
    steers the mean curvature into the slice."""
    i_r, i_n = inverse_mean_curvature_vector(h_r, h_n)
    return np.abs(i_n + beta * i_r)


# ---------------------------------------------------------------------------
# Hawking mass and surface integrals
# ---------------------------------------------------------------------------

def hawking_mass(g: BlockMetric, grid: SphereGrid) -> float:
    """sqrt(|S|/16 pi) (1 - (1/16 pi) integral of <H,H> dA) by quadrature,
    with H from the trace formula.  A mass that is not finite (the chart's
    arithmetic overflows on the sphere) is a ValueError naming r.

    The arithmetic (_sphere_mass) is recorded once per metric and grid
    signature, kept on the metric, and replayed on the calling thread's
    buffers (imcvf.tape), with the bits of the plain arithmetic."""
    inputs = (grid.env(), grid.weights, grid.sin_theta[:, None], grid.r)
    with np.errstate(all="ignore"):     # an overflow shows in the mass, checked last
        tape = g.cached(("hawking_mass", signature(inputs)),
                        lambda: record(functools.partial(_sphere_mass, g), inputs))
        return float(tape.run(*inputs))


def _sphere_mass(g: BlockMetric, env, weights, sin_column, r):
    """hawking_mass's arithmetic on a sphere's env, quadrature weights and
    sin(th) column; r names the sphere whose mass is not finite.  The area
    integrand is 1.0, whose products have the bits of ones'."""
    fields = surface_fields(g, env)
    h_r, h_n = _trace_mean_curvature(fields)
    hh = h_r**2 - h_n**2
    sqrt_gs = np.sqrt(fields["W"])
    area = area_sum(weights, sin_column, 1.0, sqrt_gs)
    integral = area_sum(weights, sin_column, hh, sqrt_gs)
    mass = np.sqrt(area / (16.0 * np.pi)) * (1.0 - integral / (16.0 * np.pi))
    _finite_mass(mass, r)
    return mass


@check_step
def _finite_mass(mass, r) -> None:
    if not np.isfinite(mass):
        raise ValueError(f"the Hawking mass at r = {r!r} is not finite")


def sphere_laplacian(g: BlockMetric, grid: SphereGrid, psi: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of the induced sphere metric applied to
    samples of a scalar, with spectral tangential derivatives."""
    if grid.n_theta < 8 or grid.n_phi < 8:
        raise GridTooCoarseError("sphere_laplacian needs at least 8x8 nodes")
    env = grid.env()
    f = surface_fields(g, env)
    psi = np.asarray(psi, dtype=float)
    p_th, p_ph = grid.gradient(psi)
    p_thth = grid.d2_theta(psi)
    p_thph = grid.d_phi(p_th)
    p_phph = grid.d_phi(p_ph)
    coef_th, coef_ph = gs_laplacian_coefficients(f, grid.cot_theta[:, None])
    return (gs_trace(f, p_thth, p_thph, p_phph) + (coef_th * p_th + coef_ph * p_ph)) / f["W"]


def first_variation_area_check(g: BlockMetric, grid: SphereGrid) -> float:
    """Max residual of 2 H_{e_r} (ab - c^2) - e_r(ab - c^2) over the grid,
    where H_{e_r} = -<H, e_r> from the trace formula."""
    f = surface_fields(g, grid.env())
    h_er = -_trace_mean_curvature(f)[0]
    e_r_w = f["W_r"] / f["u"]
    return float(np.max(np.abs(2.0 * h_er * f["W"] - e_r_w)))
