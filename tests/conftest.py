"""Shared chart factories for the test suite."""

import numpy as np
import pytest

from imcvf.builder import complete_chart
from imcvf.chart import SphericalMetric
from imcvf.expr import parse
from imcvf.sphere import _trace_mean_curvature, surface_fields

# pole window: a high odd sin power keeps the perturbations themselves in
# the smooth class (odd parity against the m = 1 harmonics) and pushes the
# residual pole defect of the solved d far below every tolerance in use
WINDOW = "sin(th)^9"

# non-static, non-spherically-symmetric backgrounds
U_BUMP = "1+0.2*exp(-((r-3)/2)^2)*(1+0.1*sin(t))"
V_BUMP = "1+0.15*exp(-((r-4)/2)^2)"


def seed_inputs(kind: str, eps: float) -> dict:
    """Free functions (a, c, e, f, u, v) for a windowed perturbation seed."""
    zero = "0"
    a, c, e, f = "r^2", zero, zero, zero
    if "e" in kind:
        e = f"{eps}*{WINDOW}*cos(ph)"
    if "f" in kind:
        f = f"{eps}*{WINDOW}*sin(ph)"
    if "a" in kind:
        a = f"r^2*(1+{eps}*{WINDOW}*cos(ph))"
    if "c" in kind:
        c = f"{eps}*r^2*{WINDOW}*sin(ph)"
    return {"a": a, "c": c, "e": e, "f": f, "u": U_BUMP, "v": V_BUMP}


SEED_KINDS = ("e", "f", "a", "ef", "ea", "c")
SEED_EPSILONS = (1e-3, 1e-2, 1e-1)


def seed_specs():
    """(kind, eps) for the twelve standard non-spherical seeds."""
    specs = [(k, e) for k in ("e", "f", "ef", "ea") for e in SEED_EPSILONS]
    return specs


def trace_h_er(g, env, fields=None):
    """H_{e_r} = -<H, e_r> from the generic trace formula: the oracle the
    minimal-surface lemma is checked against, independent of the frame data
    and of the closed-form H."""
    f = fields if fields is not None else surface_fields(g, env)
    return -_trace_mean_curvature(f)[0]


def build_seed(kind: str, eps: float):
    return complete_chart(**seed_inputs(kind, eps))


@pytest.fixture(scope="session")
def seed_charts():
    return [(k, e, build_seed(k, e)) for k, e in seed_specs()]


@pytest.fixture(scope="session")
def schwarzschild_block():
    u = parse("(1-2/r)^(-0.5)")
    v = parse("(1-2/r)^0.5")
    return SphericalMetric(u, v).block()
