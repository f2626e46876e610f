"""Shared chart factories and oracles for the test suite."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from imcvf.asymptotics import ConformalMetric3, adm_mass
from imcvf.builder import complete_chart
from imcvf.chart import BlockMetric, env_shape
from imcvf.errors import GridTooCoarseError
from imcvf.expr import parse
from imcvf.grid import SphereGrid
from imcvf.sphere import _trace_mean_curvature, gs_laplacian_coefficients, gs_trace, \
    surface_fields

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


# the chart that build --solve-d writes for the golden ef seed (a golden)
EF_BUILD = os.path.join(os.path.dirname(__file__), "data", "ef_16x32_build.json")

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
    return spherical_block(u, v)


def spherical_block(u, v) -> BlockMetric:
    """The spherically symmetric block metric: u, v functions of (t, r)
    only, a = r^2, b = r^2 sin^2(th), all off-block terms zero."""
    return BlockMetric(v=v, d=0.0, e=0.0, f=0.0, u=u,
                       a=parse("r^2"), b=parse("r^2*sin(th)^2"), c=0.0)


# ---------------------------------------------------------------------------
# the sphere's normal frame, surface Laplacian and steered normal component:
# independent oracles of surface_fields, straightout._laplace_full and
# steering_parameter
# ---------------------------------------------------------------------------

def frame_values(g, env) -> dict:
    """The normal frame on an env grid: n = d_t - (d/u^2) d_r + ((cf - be)/W) d_th
    + ((ce - af)/W) d_ph, the timelike normal (<n, n> is surface_fields' 'nn'),
    e_r = (1/u) d_r and e_n = n / ||n||, each of shape env_shape(env) + (4,)."""
    f, shape = surface_fields(g, env), env_shape(env)

    def vector(*parts):
        return np.stack([np.broadcast_to(x, shape) for x in parts], axis=-1)

    n = vector(1.0, -f["d"] / f["u"] ** 2, f["cf_be"] / f["W"], f["ce_af"] / f["W"])
    return {"n": n, "e_r": vector(0.0, 1.0 / f["u"], 0.0, 0.0),
            "e_n": n / np.broadcast_to(f["norm_n"], shape)[..., None]}


def sphere_laplacian(g, grid: SphereGrid, psi: np.ndarray) -> np.ndarray:
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


def steered_normal_component(fd, q):
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


# ---------------------------------------------------------------------------
# the closed forms of a radial conformal factor g = u^4 delta: oracles of
# adm_mass
# ---------------------------------------------------------------------------

def conformal_sphere_mean_curvature(u3, r: float) -> float:
    """Mean curvature of the coordinate r-sphere in g = u^4 delta:
    H = (1/u^2)(2/r + (4/u) du/dr)."""
    u, du = ConformalMetric3(u3).jets([r])
    return _mean_curvature(r, float(u[0]), float(du[0]))


def _mean_curvature(r: float, u: float, du: float) -> float:
    """H = (1/u^2)(2/r + (4/u) du/dr) from u and du/dr at r."""
    return (2.0 / r + 4.0 * du / u) / u**2


@dataclass(frozen=True)
class ConvergenceTable:
    radii: np.ndarray
    hawking: np.ndarray
    adm: float
    gaps: np.ndarray

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.gaps) <= 1e-12))


def hawking_to_adm_convergence(g3: ConformalMetric3, radii, adm_radii) -> ConvergenceTable:
    """Hawking mass of the coordinate spheres against the ADM limit that
    adm_mass extrapolates from adm_radii.

    A radial factor makes S_r round with areal radius r u^2, so the mass is
    sqrt(|S_r|/16 pi)(1 - |S_r| H^2 / 16 pi) evaluated in closed form.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    adm = adm_mass(g3, adm_radii).mass
    masses = []
    u_values, du_values = g3.jets(radii)
    for r, u, du in zip(radii, u_values.tolist(), du_values.tolist()):
        h = _mean_curvature(float(r), u, du)
        rho = r * u**2
        masses.append(rho / 2.0 * (1.0 - (rho * h / 2.0) ** 2))
    masses = np.asarray(masses)
    return ConvergenceTable(radii=radii, hawking=masses, adm=adm,
                            gaps=np.abs(masses - adm))
