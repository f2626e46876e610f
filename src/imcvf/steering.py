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

from .chart import BlockMetric, cross_terms, det_from_components, plan_jets
from .errors import NotAreaExpandingError
from .expr import COORDS, Plan, call, diff

__all__ = ["FrameData", "frame_data", "steering_parameter"]


@dataclass(frozen=True)
class FrameData:
    """Per-node frame ingredients; every field is an array that broadcasts to the grid.

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


# the frame fields frame_data reads, and the partials of them it reads
_FRAME_FIELDS = ("lam", "p", "q", "x", "u", "a", "b", "c", "w")
_FRAME_PARTIALS = (tuple((k, m) for k in "wabc" for m in COORDS)
                   + (("p", "th"), ("p", "ph"), ("q", "th"), ("q", "ph")))
_FRAME_KEYS = _FRAME_FIELDS + tuple(f"{k}_{m}" for k, m in _FRAME_PARTIALS)


def _frame_roots(g: BlockMetric) -> list:
    """The expressions of _FRAME_KEYS, in that order."""
    ex = _frame_exprs(g)
    return [ex[k] for k in _FRAME_FIELDS] + [diff(ex[k], m) for k, m in _FRAME_PARTIALS]


def frame_data(g: BlockMetric, env) -> FrameData:
    """Evaluate the frame ingredients of a chart on an env grid, in one
    evaluate pass over a plan the metric compiles on the first call and
    keeps; every array broadcasts to the env's shape, at the size of the
    coordinates it depends on."""
    j = plan_jets(g.cached("frame", lambda: Plan(_frame_roots(g))), _FRAME_KEYS, env)
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
    first-variation identity that marks a minimal surface in the slice.  An
    e_r(ab - c^2) that is not finite (the chart's arithmetic overflows on
    the sphere) is a ValueError.
    """
    if not np.all(np.isfinite(fd.er_W)):
        raise ValueError("e_r(ab - c^2) is not finite on the sphere")
    if not fd.area_expanding:
        raise NotAreaExpandingError("e_r(ab - c^2) <= 0: surface is minimal, "
                                    "no steering parameter exists")
    return (fd.et_W - 2.0 * fd.W * (fd.C_th_tth + fd.C_ph_tph)) / fd.er_W
