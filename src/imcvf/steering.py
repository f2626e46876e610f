"""Coordinate-free steering of the spacetime metric.

Works in the frame {e_t, e_r, d_th, d_ph} where e_r = (1/u) d_r is the unit
outward normal of the sphere inside the slice and e_t is the unit future
normal orthogonal to it.  Adding Q on the (e_t, e_r) off-diagonal of the
frame metric steers the mean curvature vector into the slice; the unique Q
solves a zeroth-order equation built from two directional derivatives of
the sphere area density ab - c^2 and two frame commutator coefficients.

The frame is realized concretely from a block chart: e_t is the normalized
n of the normal bundle and commutators come from exact derivatives of its
coefficient fields, so every FrameData entry is spectrally clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import BlockMetric, cross_terms, det_from_components, field_jets
from .errors import NotAreaExpandingError
from .expr import COORDS, call, diff
from .sphere import _trace_mean_curvature, gs_trace, surface_fields

__all__ = ["FrameData", "frame_data", "steering_parameter", "steer_metric",
           "tangentiality_residual", "minimal_surface_lemma_check",
           "steered_normal_component"]


@dataclass(frozen=True)
class FrameData:
    """Per-node frame ingredients; every field is a scalar or grid array.

    The commutator coefficients are named C_<out>_<i><j> for [alpha_i,
    alpha_j] = C^out_ij alpha_out; the radial ones C^th_rth and C^ph_rph
    vanish identically in this realization and are not stored.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    W: np.ndarray
    et_W: np.ndarray
    er_W: np.ndarray
    C_th_tth: np.ndarray
    C_ph_tph: np.ndarray
    C_th_tph: np.ndarray
    C_ph_tth: np.ndarray
    et_a: np.ndarray
    et_b: np.ndarray
    et_c: np.ndarray
    er_a: np.ndarray
    er_b: np.ndarray
    er_c: np.ndarray

    @property
    def area_expanding(self) -> bool:
        return bool(np.all(np.asarray(self.er_W) > 0.0))


def _frame_exprs(g: BlockMetric) -> dict:
    """Symbolic frame coefficient fields of the chart realization."""
    comps = g.comps
    u = comps["u"]
    w, cf_be, ce_af = cross_terms(comps)
    lam = call("sqrt", -(u * u) * w / det_from_components(comps, w))   # 1/||n||, det < 0
    return {"a": comps["a"], "b": comps["b"], "c": comps["c"], "w": w, "lam": lam,
            "p": cf_be / w, "q": ce_af / w, "x": -comps["d"] / (u * u), "u": u}


def frame_data(g: BlockMetric, env) -> FrameData:
    """Evaluate the frame ingredients of a chart on an env grid, in one
    field_jets pass; every array spans the env's broadcast shape."""
    ex = _frame_exprs(g)
    exprs = {k: ex[k] for k in ("lam", "p", "q", "x", "u", "a", "b", "c", "w")}
    for k in ("w", "a", "b", "c"):
        exprs.update((f"{k}_{m}", diff(ex[k], m)) for m in COORDS)
    for k, m in (("p", "th"), ("p", "ph"), ("q", "th"), ("q", "ph")):
        exprs[f"{k}_{m}"] = diff(ex[k], m)
    j = field_jets(exprs, env)
    lam = j["lam"]

    def e_t(k):
        return lam * (j[f"{k}_t"] + j["x"] * j[f"{k}_r"]
                      + j["p"] * j[f"{k}_th"] + j["q"] * j[f"{k}_ph"])

    def e_r(k):
        return j[f"{k}_r"] / j["u"]

    return FrameData(
        a=j["a"], b=j["b"], c=j["c"], W=j["w"],
        et_W=e_t("w"), er_W=e_r("w"),
        C_th_tth=-lam * j["p_th"],
        C_ph_tph=-lam * j["q_ph"],
        C_th_tph=-lam * j["p_ph"],
        C_ph_tth=-lam * j["q_th"],
        et_a=e_t("a"), et_b=e_t("b"), et_c=e_t("c"),
        er_a=e_r("a"), er_b=e_r("b"), er_c=e_r("c"))


def steering_parameter(fd: FrameData):
    """The unique Q making the mean curvature vector tangential.

    Raises NotAreaExpandingError when e_r(ab - c^2) <= 0 anywhere: by the
    first-variation identity that marks a minimal surface in the slice.
    """
    if not fd.area_expanding:
        raise NotAreaExpandingError("e_r(ab - c^2) <= 0: surface is minimal, "
                                    "no steering parameter exists")
    return (fd.et_W - 2.0 * fd.W * (fd.C_th_tth + fd.C_ph_tph)) / fd.er_W


def tangentiality_residual(fd: FrameData, q):
    """Left side of the steering condition; zero exactly at the solution."""
    return fd.er_W * q - fd.et_W + 2.0 * fd.W * (fd.C_th_tth + fd.C_ph_tph)


def steer_metric(a, b, c, q) -> np.ndarray:
    """Frame-dual matrix of the steered metric: diag(-1, 1, g_S) plus Q on
    the (e_t, e_r) off-diagonal.  Scalar inputs give a single 4x4."""
    a, b, c, q = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                       for x in (a, b, c, q)))
    m = np.zeros(a.shape + (4, 4))
    m[..., 0, 0] = -1.0
    m[..., 0, 1] = m[..., 1, 0] = q
    m[..., 1, 1] = 1.0
    m[..., 2, 2] = a
    m[..., 2, 3] = m[..., 3, 2] = c
    m[..., 3, 3] = b
    return m


def minimal_surface_lemma_check(fd: FrameData, h_er):
    """|2 H_{e_r} (ab - c^2) - e_r(ab - c^2)| per node."""
    return np.abs(2.0 * np.asarray(h_er) * fd.W - fd.er_W)


def steered_normal_component(fd: FrameData, q):
    """<H, e_n> of the sphere in the steered metric, assembled from the
    frame connection coefficients (not from the simplified Q equation):

        omega^t_ij = (W / 2|g_Q|) [ (-e_t(g_ij) + commutator terms)
                                    - Q (-e_r(g_ij) + radial commutators) ]
        <H, e_n>   = -(1 + Q^2)^(1/2) (b w_thth - 2c w_thph + a w_phph) / W

    with |g_Q| = -(1 + Q^2) W.  Zero at the steering solution."""
    q = np.asarray(q, dtype=float)
    det_q = -(1.0 + q * q) * fd.W
    pref = fd.W / (2.0 * det_q)
    w_hh = pref * ((-fd.et_a + 2.0 * fd.a * fd.C_th_tth + 2.0 * fd.c * fd.C_ph_tth)
                   - q * (-fd.er_a))
    w_hp = pref * ((-fd.et_c + fd.c * fd.C_th_tth + fd.b * fd.C_ph_tth
                    + fd.a * fd.C_th_tph + fd.c * fd.C_ph_tph)
                   - q * (-fd.er_c))
    w_pp = pref * ((-fd.et_b + 2.0 * fd.c * fd.C_th_tph + 2.0 * fd.b * fd.C_ph_tph)
                   - q * (-fd.er_b))
    return -np.sqrt(1.0 + q * q) * (gs_trace(vars(fd), w_hh, w_hp, w_pp) / fd.W)


def trace_h_er(g: BlockMetric, env, fields=None):
    """H_{e_r} = -<H, e_r> from the generic trace formula (for the lemma
    check against frame data)."""
    f = fields if fields is not None else surface_fields(g, env)
    return -_trace_mean_curvature(f)[0]
