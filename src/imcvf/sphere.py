"""Geometry of the coordinate sphere S_{t,r} and its rank-two normal bundle.

Provides the induced metric, the orthonormal normal frame {e_r, e_n}, the
timelike-tangency obstruction (the bracketed "star" invariant), the mean
curvature vector in closed form and by the generic trace formula, the
Hawking mass quadrature, the surface Laplacian, and the first-variation
identity 2 H_{e_r} (ab - c^2) = e_r(ab - c^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import FIRST_JETS, PH, R, T, TH, BlockMetric, CoordinatePoint, check_det, \
    cofactors, compact_base, component_jets, cross_terms, det_from_components, metric_values
from .curvature import christoffel_values, metric_partial, raise_sum
from .errors import DegenerateSurfaceError, GridTooCoarseError, NullMeanCurvatureError
from .grid import SphereGrid

__all__ = ["SphereFrame", "MeanCurvatureDecomp", "surface_fields", "sphere_frame",
           "star_values", "mean_curvature_vector",
           "mean_curvature_values", "inverse_mean_curvature_vector",
           "hawking_mass", "sphere_laplacian", "first_variation_area_check"]


def surface_fields(g: BlockMetric, env, extra=()) -> dict:
    """Component values, first partials and frame scalars on an env grid.

    Keys: the components by name, first partials as e.g. 'a_th', and the
    derived fields W = ab - c^2, W_r, cf_be, ce_af, det, nn, norm_n.
    extra names further component jets (e.g. 'u_th_th') to evaluate in the
    same pass.  Every array spans the env's broadcast shape.
    """
    out = component_jets(g, env, FIRST_JETS + tuple(extra))
    a, b, c = out["a"], out["b"], out["c"]
    out["W"], out["cf_be"], out["ce_af"] = cross_terms(out)
    if np.any(out["W"] <= 0.0):
        raise DegenerateSurfaceError("ab - c^2 <= 0 at a sampled node")
    out["W_r"] = out["a_r"] * b + a * out["b_r"] - 2.0 * c * out["c_r"]
    out["W_th"] = out["a_th"] * b + a * out["b_th"] - 2.0 * c * out["c_th"]
    out["W_ph"] = out["a_ph"] * b + a * out["b_ph"] - 2.0 * c * out["c_ph"]
    out["det"] = det_from_components(out, out["W"])
    out["nn"] = out["det"] / (out["u"] ** 2 * out["W"])
    out["norm_n"] = np.sqrt(-out["nn"])
    return out


def gs_trace(f, x_thth, x_thph, x_phph):
    """b x_thth - 2c x_thph + a x_phph: |g_S| times the g_S-trace of a
    symmetric tangent 2-tensor, with a, b, c read from the mapping f."""
    return f["b"] * x_thth - 2.0 * f["c"] * x_thph + f["a"] * x_phph


def gs_laplacian_coefficients(f, cot):
    """(b_th - b cot - c_ph, -c_th + c cot + a_ph): the coefficients of
    psi_th and psi_ph in |g_S| Lap_{g_S}(psi) besides its g_S-trace of the
    second partials; f holds the surface_fields jets."""
    return (f["b_th"] - f["b"] * cot - f["c_ph"], -f["c_th"] + f["c"] * cot + f["a_ph"])


@dataclass(frozen=True)
class SphereFrame:
    """Normal-bundle data at one node of a coordinate sphere."""

    g_s: np.ndarray          # 2x2 induced metric [[a, c], [c, b]]
    g_s_inv: np.ndarray
    n: np.ndarray            # un-normalized timelike normal, components (t,r,th,ph)
    nn: float                # <n, n> < 0
    e_r: np.ndarray          # (1/u) d_r
    e_n: np.ndarray          # n / ||n||


def sphere_frame(g: BlockMetric, node: CoordinatePoint) -> SphereFrame:
    """Orthonormal frame of the normal bundle at a node."""
    env = node.env()
    f = surface_fields(g, env)
    a, b, c, w = (float(f[k]) for k in ("a", "b", "c", "W"))
    g_s = np.array([[a, c], [c, b]])
    g_s_inv = np.array([[b, -c], [-c, a]]) / w
    n = np.array([1.0, -float(f["d"]) / float(f["u"]) ** 2,
                  float(f["cf_be"]) / w, float(f["ce_af"]) / w])
    nn = float(f["nn"])
    e_r = np.array([0.0, 1.0 / float(f["u"]), 0.0, 0.0])
    e_n = n / np.sqrt(-nn)
    return SphereFrame(g_s=g_s, g_s_inv=g_s_inv, n=n, nn=nn,
                       e_r=e_r, e_n=e_n)


def normal_inner_products(g: BlockMetric, node: CoordinatePoint) -> dict:
    """<n, d_i> under the full metric plus the closed-form and direct <n, n>;
    used to verify the frame construction."""
    fr = sphere_frame(g, node)
    m = metric_values(g, node.env())
    direct = float(fr.n @ m @ fr.n)
    return {"n_dr": float(fr.n @ m[:, R]), "n_dth": float(fr.n @ m[:, TH]),
            "n_dph": float(fr.n @ m[:, PH]), "nn_closed": fr.nn,
            "nn_direct": direct}


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
    b1 = (2.0 * f["b"] * f["e_th"] - 2.0 * f["c"] * f["e_ph"]
          - 2.0 * f["c"] * f["f_th"] + 2.0 * f["a"] * f["f_ph"])
    b2 = (f["a_th"] * f["b"] - 2.0 * f["a_ph"] * f["c"]
          + 2.0 * f["a"] * f["c_ph"] - f["a"] * f["b_th"])
    b3 = (2.0 * f["b"] * f["c_th"] - f["a_ph"] * f["b"]
          - 2.0 * f["b_th"] * f["c"] + f["a"] * f["b_ph"])
    u2 = f["u"] ** 2
    num = (u2 * f["W"] * b1 + f["d"] * f["W"] * f["W_r"]
           + u2 * f["cf_be"] * b2 + u2 * f["ce_af"] * b3)
    return num / (2.0 * f["det"])


def star_from_christoffel(g: BlockMetric, env) -> np.ndarray:
    """Independent evaluation b G^t_thth - 2c G^t_thph + a G^t_phph."""
    gam = christoffel_values(g, env)
    return gs_trace(component_jets(g, env, ("a", "b", "c")), gam[..., T, TH, TH],
                    gam[..., T, TH, PH], gam[..., T, PH, PH])


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanCurvatureDecomp:
    """H = H_r e_r + H_n e_n with <e_r,e_r> = 1, <e_n,e_n> = -1.

    The inward convention makes H_r < 0 for round spheres; star carries the
    tangency obstruction evaluated at the same node.
    """

    H_r: float
    H_n: float
    star: float

    def norm_squared(self) -> float:
        return self.H_r**2 - self.H_n**2


def mean_curvature_values(g: BlockMetric, env, method: str = "closed",
                          fields=None) -> tuple:
    """(H_r, H_n, star) arrays on an env grid.

    method 'closed' uses the radial closed form -2/(r u) (valid when
    ab - c^2 = r^4 sin^2 th) and the star formula for H_n; method 'trace'
    contracts the second fundamental form with generic Christoffels and is
    the independent oracle.
    """
    f = fields if fields is not None else surface_fields(g, env)
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
    f; it forms no star, so the closed form it checks stays out of it."""
    gt, gr = _tangent_christoffel(f)
    # <nabla_i d_j, e_r> = (1/u)(Gamma^t_ij d + Gamma^r_ij u^2)
    s_r = gs_trace(f, *(t * f["d"] + r * f["u"] ** 2
                        for t, r in zip(gt, gr))) / f["W"] / f["u"]
    # <nabla_i d_j, e_n> = Gamma^t_ij <d_t, n>/||n|| = -Gamma^t_ij ||n||
    s_n = gs_trace(f, *gt) / f["W"] * (-f["norm_n"])
    return s_r, -s_n


def _tangent_christoffel(f) -> tuple:
    """(Gamma^t_ij, Gamma^r_ij) for the tangent pairs (ij) = thth, thph, phph:
    two triples of arrays that broadcast to the grid, the only entries the
    normal projections of the second fundamental form read.  Generic
    formula: P_l = d_i g_jl + d_j g_il - d_l g_ij from the first partials,
    raised with the (T, R) rows of the cofactor inverse, all on the compact
    base of each array in the surface_fields dict f."""
    c = {k: compact_base(f[k]) for k in FIRST_JETS + ("W", "cf_be", "ce_af", "det")}
    check_det(c["det"])
    cof = cofactors(c, (c["W"], c["cf_be"], c["ce_af"]))
    ginv = [[cof(k, l) / c["det"] for l in range(4)] for k in (T, R)]
    lowered = [[(metric_partial(c, i, j, l) + metric_partial(c, j, i, l))
                - metric_partial(c, l, i, j) for l in range(4)]
               for i, j in ((TH, TH), (TH, PH), (PH, PH))]
    return tuple(tuple(raise_sum(row, p) for p in lowered) for row in ginv)


def mean_curvature_vector(g: BlockMetric, node: CoordinatePoint) -> MeanCurvatureDecomp:
    """H at a node: the closed form where the area constraint
    ab - c^2 = r^4 sin^2 th holds there (to 1e-10 relative), the trace
    formula otherwise."""
    env = node.env()
    f = surface_fields(g, env)
    r4s2 = node.r ** 4 * np.sin(node.th) ** 2
    closed = abs(f["W"] - r4s2) / r4s2 <= 1e-10
    h_r, h_n, star = mean_curvature_values(g, env, "closed" if closed else "trace", fields=f)
    return MeanCurvatureDecomp(H_r=float(h_r), H_n=float(h_n), star=float(star))


def inverse_mean_curvature_vector(m: MeanCurvatureDecomp) -> tuple:
    """I = -H / <H, H> in the {e_r, e_n} frame; outward (I_r > 0 for round
    spheres).  Raises NullMeanCurvatureError when H is null."""
    hh = m.norm_squared()
    if abs(hh) < 1e-300 or not np.isfinite(hh):
        raise NullMeanCurvatureError("mean curvature vector is null")
    return (-m.H_r / hh, -m.H_n / hh)


def generalized_flow_radial_residual(m: MeanCurvatureDecomp, beta: float) -> float:
    """Defect of the direction I + beta I^perp being parallel to d_r.

    The perp rotation swaps the frame legs (e_r <-> e_n), so the timelike
    component of the flow direction is I_n + beta I_r; its magnitude is the
    predicate residual.  Zero for beta = 0 exactly when the chart already
    steers the mean curvature into the slice."""
    i_r, i_n = inverse_mean_curvature_vector(m)
    return float(abs(i_n + beta * i_r))


# ---------------------------------------------------------------------------
# Hawking mass and surface integrals
# ---------------------------------------------------------------------------

def hawking_mass(g: BlockMetric, grid: SphereGrid) -> float:
    """sqrt(|S|/16 pi) (1 - (1/16 pi) integral of <H,H> dA) by quadrature,
    with H from the trace formula."""
    fields = surface_fields(g, grid.env())
    h_r, h_n = _trace_mean_curvature(fields)
    hh = h_r**2 - h_n**2
    sqrt_gs = np.sqrt(fields["W"])
    area = grid.integrate_area(np.ones_like(hh), sqrt_gs)
    integral = grid.integrate_area(hh, sqrt_gs)
    return float(np.sqrt(area / (16.0 * np.pi)) * (1.0 - integral / (16.0 * np.pi)))


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
