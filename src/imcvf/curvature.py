"""Curvature of a block metric from exact symbolic derivatives.

The generic engine assembles Christoffel symbols and their coordinate
derivatives from the symbolic first and second partials of the eight
metric components (no finite differencing), then contracts

    Ric_ij = dGamma^k_ij/dx^k - dGamma^k_ik/dx^j
             + Gamma^k_km Gamma^m_ij - Gamma^k_jm Gamma^m_ik
    R      = g^ij Ric_ij
    G      = Ric - (1/2) R g

The spherically symmetric closed forms (diagonal u, v chart with
a = r^2, b = r^2 sin^2 th) are provided alongside as independent oracles.
"""

from __future__ import annotations

import numpy as np

from .chart import FIRST_JETS, PH, R, SECOND_JETS, T, TH, BlockMetric, component_jets, \
    env_shape, field_jets, inverse_from_components, metric_from_components
from .expr import COORDS, FieldExpr, diff

__all__ = ["christoffel_values", "curvature_values", "spherical_oracle"]


# ---------------------------------------------------------------------------
# generic engine
# ---------------------------------------------------------------------------

_SLOTS = (("d", T, R), ("e", T, TH), ("f", T, PH),
          ("a", TH, TH), ("c", TH, PH), ("b", PH, PH))
_SLOT_NAME = {**{(i, j): n for n, i, j in _SLOTS}, **{(j, i): n for n, i, j in _SLOTS}}


def metric_partial(jets, m, i, j):
    """d_m g_ij from component values and first partials keyed as in
    chart.component_jets, m an index into COORDS: -2 v v_m, 2 u u_m, the
    slot component's partial, or 0.0 for g_r,th and g_r,ph."""
    x = COORDS[m]
    if i == j == T:
        return -2.0 * jets["v"] * jets[f"v_{x}"]
    if i == j == R:
        return 2.0 * jets["u"] * jets[f"u_{x}"]
    name = _SLOT_NAME.get((i, j))
    return 0.0 if name is None else jets[f"{name}_{x}"]


def _metric_first_partials(jets, shape) -> np.ndarray:
    """dg[m, i, j, ...] = d_m g_ij from component values and first partials
    keyed as in chart.component_jets.  Entry-major: each entry is one contiguous
    array over the points, so filling it costs one contiguous write each."""
    dg = np.empty((4, 4, 4) + shape)
    for m in range(4):
        for i in range(4):
            for j in range(i, 4):
                dg[m, i, j] = dg[m, j, i] = metric_partial(jets, m, i, j)
    return dg


def _metric_second_partials(jets, shape) -> np.ndarray:
    """Entry-major d2g[m, n, i, j, ...] = d_m d_n g_ij from the component
    jets up to second order."""
    d2g = np.zeros((4, 4, 4, 4) + shape)
    for mi, m in enumerate(COORDS):
        for ni in range(mi, 4):
            n = COORDS[ni]
            d2g[mi, ni, T, T] = -2.0 * (jets[f"v_{m}"] * jets[f"v_{n}"]
                                        + jets["v"] * jets[f"v_{m}_{n}"])
            d2g[mi, ni, R, R] = 2.0 * (jets[f"u_{m}"] * jets[f"u_{n}"]
                                       + jets["u"] * jets[f"u_{m}_{n}"])
            for name, i, j in _SLOTS:
                d2g[mi, ni, i, j] = d2g[mi, ni, j, i] = jets[f"{name}_{m}_{n}"]
            d2g[ni, mi] = d2g[mi, ni]
    return d2g


def _point_major(a, k) -> np.ndarray:
    """C-contiguous copy of a with its first k axes moved to the end."""
    return np.ascontiguousarray(np.moveaxis(a, range(k), range(-k, 0)))


def _lowered_christoffel(dg) -> np.ndarray:
    """Point-major P[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij (twice
    Gamma_lij) from entry-major dg[m, i, j, ...] = d_m g_ij."""
    return _point_major(dg + dg.swapaxes(0, 1) - np.moveaxis(dg, 0, 2), 3)


def raise_sum(g, p):
    """(1/2) sum over l = 0..3 of g[l] p[l], added in the fixed order
    (1/2) ((t_0 + t_2) + (t_1 + t_3)) with t_l = g[l] p[l], so the bits do
    not depend on how a library kernel orders the sum."""
    return 0.5 * ((g[0] * p[0] + g[2] * p[2]) + (g[1] * p[1] + g[3] * p[3]))


def _raise_first(ginv, p) -> np.ndarray:
    """(1/2) ginv[..., k, l] P[..., p, l] -> Gamma[..., k, p] for the rows k
    ginv holds; the pair axes p of P are kept."""
    lead = ginv.ndim - 2
    pair_shape = p.shape[lead:-1]
    flat = p.reshape(p.shape[:lead] + (-1, 4))
    gamma = raise_sum([ginv[..., :, None, l] for l in range(4)],
                      [flat[..., None, :, l] for l in range(4)])
    return gamma.reshape(gamma.shape[:-1] + pair_shape)


def christoffel_values(g: BlockMetric, env) -> np.ndarray:
    """Gamma[..., k, i, j] on an env grid."""
    jets = component_jets(g, env, FIRST_JETS)
    shape = env_shape(env)
    return _raise_first(inverse_from_components(jets, shape),
                        _lowered_christoffel(_metric_first_partials(jets, shape)))


def curvature_values(g: BlockMetric, env) -> dict:
    """Ricci, scalar and Einstein curvature on an env grid."""
    jets = component_jets(g, env, FIRST_JETS + SECOND_JETS)
    shape = env_shape(env)
    dg = _metric_first_partials(jets, shape)
    d2g = _metric_second_partials(jets, shape)
    gmat = metric_from_components(jets, shape)
    ginv = inverse_from_components(jets, shape)

    pijl = _lowered_christoffel(dg)
    gamma = _raise_first(ginv, pijl)

    # dGamma[..., m, k, i, j] = partial_m Gamma^k_ij, all derivatives exact
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, _point_major(dg, 3), ginv)
    dpijl = np.stack([_lowered_christoffel(d2g[m]) for m in range(4)], axis=-4)
    dgamma = (_raise_first(dginv, pijl[..., None, :, :, :])
              + _raise_first(ginv[..., None, :, :], dpijl))

    ric = (np.einsum("...kkij->...ij", dgamma)
           - np.einsum("...jkik->...ij", dgamma)
           + np.einsum("...kkm,...mij->...ij", gamma, gamma)
           - np.einsum("...kjm,...mik->...ij", gamma, gamma))
    scal = np.einsum("...ij,...ij->...", ginv, ric)
    einstein = ric - 0.5 * scal[..., None, None] * gmat
    return {"ricci": ric, "scalar": scal, "einstein": einstein, "gamma": gamma}


# ---------------------------------------------------------------------------
# spherically symmetric closed forms (independent oracles)
# ---------------------------------------------------------------------------

def spherical_oracle(u: FieldExpr, v: FieldExpr, env) -> dict:
    """Closed-form curvature of the diagonal chart diag(-v^2, u^2, r^2,
    r^2 sin^2 th) with u, v functions of (t, r).

    Returns every nonzero Ricci and Einstein component, the scalar
    curvature, and the Christoffel matrix entries used elsewhere.
    """
    r = np.asarray(env["r"], dtype=float)
    th = np.asarray(env.get("th", np.pi / 2), dtype=float)
    jets = field_jets({"U": u, "V": v, "u_t": diff(u, "t"), "u_r": diff(u, "r"),
                       "u_tt": diff(diff(u, "t"), "t"), "v_t": diff(v, "t"),
                       "v_r": diff(v, "r"), "v_rr": diff(diff(v, "r"), "r")}, env)
    U, V, u_t, u_r, u_tt, v_t, v_r, v_rr = jets.values()
    sth, cth = np.sin(th), np.cos(th)

    ric_tt = ((V * v_rr + 2.0 / r * V * v_r) / U**2
              - (u_r / U**3) * V * v_r + (u_t * v_t / V - u_tt) / U)
    ric_tr = 2.0 / r * u_t / U
    ric_rr = (-v_rr / V + 2.0 / r * u_r / U - (v_t / V**3) * U * u_t
              + (U * u_tt / V + v_r * u_r / U) / V)
    ric_hh = (1.0 - 1.0 / U**2) + r * u_r / U**3 - r * (v_r / V) / U**2
    ric_pp = sth**2 * ric_hh

    scal = (-2.0 / U**2 * v_rr / V + 2.0 * (u_r / U**3) * (v_r / V)
            - 2.0 * (u_t / U) * (v_t / V**3) + 2.0 * (u_tt / U) / V**2
            + 4.0 / r * u_r / U**3 - 4.0 / r * (v_r / V) / U**2
            + 2.0 / r**2 * (1.0 - 1.0 / U**2))

    g_tt = 2.0 / r * (u_r / U**3) * V**2 + V**2 / r**2 * (1.0 - 1.0 / U**2)
    g_tr = 2.0 / r * u_t / U
    g_rr = 2.0 / r * v_r / V - U**2 / r**2 + 1.0 / r**2
    g_hh = (r**2 / U**2 * v_rr / V - r**2 * (u_r / U**3) * (v_r / V)
            + r**2 * (u_t / U) * (v_t / V**3) - r**2 * (u_tt / U) / V**2
            - r * u_r / U**3 + r * (v_r / V) / U**2)
    g_pp = sth**2 * g_hh

    return {
        "Ric_tt": ric_tt, "Ric_tr": ric_tr, "Ric_rr": ric_rr,
        "Ric_thth": ric_hh, "Ric_phph": ric_pp, "R": scal,
        "G_tt": g_tt, "G_tr": g_tr, "G_rr": g_rr,
        "G_thth": g_hh, "G_phph": g_pp,
        "Gamma_t_tt": v_t / V, "Gamma_t_tr": v_r / V,
        "Gamma_t_rr": U * u_t / V**2,
        "Gamma_r_tt": V * v_r / U**2, "Gamma_r_tr": u_t / U,
        "Gamma_r_rr": u_r / U,
        "Gamma_r_thth": -r / U**2, "Gamma_r_phph": -r * sth**2 / U**2,
        "Gamma_th_rth": 1.0 / r, "Gamma_th_phph": -sth * cth,
        "Gamma_ph_rph": 1.0 / r, "Gamma_ph_thph": cth / sth,
    }
