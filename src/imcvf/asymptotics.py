"""Asymptotically flat Riemannian 3-metrics g = u^4 delta with radial u.

ADM mass by the surface integral of metric derivatives, the conformal
change formula for the mass, the mean curvature of coordinate spheres
under the conformal factor, and the convergence of the Hawking mass of
large spheres to the ADM mass.  Restricting to radial factors keeps every
angular integral exact, which is what makes this module usable as an
oracle for golden values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import field_jets
from .expr import FieldExpr, diff
from .grid import SphereGrid

__all__ = ["ConformalMetric3", "adm_mass", "adm_conformal_delta",
           "conformal_sphere_mean_curvature", "hawking_to_adm_convergence",
           "AdmResult", "ConvergenceTable"]


@dataclass(frozen=True)
class ConformalMetric3:
    """Flat 3-metric in spherical coordinates scaled by u(r)^4."""

    u3: FieldExpr

    def jets(self, radii) -> tuple:
        """u and du/dr at every radius, as arrays of the radii's shape from
        one evaluate pass; a factor that is not positive at any of them is a
        ValueError."""
        radii = np.asarray(radii, dtype=float)
        jets = field_jets({"u": self.u3, "u_r": diff(self.u3, "r")}, {"r": radii})
        if np.any(jets["u"] <= 0):
            raise ValueError("conformal factor must be positive")
        return np.broadcast_to(jets["u"], radii.shape), np.broadcast_to(jets["u_r"], radii.shape)

    def asymptotically_flat(self) -> bool:
        """Whether u(1e6) is within 1e-3 of 1."""
        return abs(float(self.jets([1e6])[0][0]) - 1.0) <= 1e-3


@dataclass(frozen=True)
class AdmResult:
    radii: np.ndarray
    values: np.ndarray
    mass: float          # extrapolated r -> infinity
    diverging: bool


def _extrapolate(radii, values):
    """Richardson step in 1/r: m(r) = m_inf + c/r + d/r^2 through the three
    largest distinct radii.  Eliminating both orders is needed for factors
    carrying genuine 1/r^2 terms, whose two-term fit bias would approach
    1e-2.  With fewer distinct radii the fit keeps as many terms as there
    are radii: two give m_inf + c/r, one its own value.  No radius at all,
    or a value that is not finite, is a ValueError; the message names the
    smallest radius whose value is not finite."""
    radii, values = np.asarray(radii, dtype=float), np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"the surface integral at r = {float(radii[bad].min())!r} "
                         "is not finite")
    r, first = np.unique(radii, return_index=True)
    if not r.size:
        raise ValueError("no radius to extrapolate the mass from")
    r, v = r[-3:], values[first][-3:]
    design = np.stack([np.ones_like(r), 1.0 / r, 1.0 / r**2][:r.size], axis=1)
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coef[0])


def _sphere_flux(r, value):
    """Quadrature over the Euclidean r-sphere (16 x 32 nodes) of a value
    constant on it."""
    return SphereGrid(0.0, float(r), 16, 32).integrate(np.full((16, 32), value) * r**2)


def adm_mass(g3: ConformalMetric3, radii) -> AdmResult:
    """ADM surface integral at each radius plus the extrapolated limit.

    For g_ij = u^4 delta_ij the Cartesian derivatives reduce by the chain
    rule to sum_ij (g_ij,i - g_ii,j) nu^j = -8 u^3 u'(r), constant on each
    coordinate sphere; the integral is evaluated by quadrature against the
    Euclidean area element and divided by 16 pi.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    with np.errstate(all="ignore"):     # _extrapolate names a radius whose value is not finite
        u, u_r = g3.jets(radii)
        values = np.asarray([_sphere_flux(r, flux) / (16.0 * np.pi)
                             for r, flux in zip(radii, -8.0 * u**3 * u_r)])
    mass = _extrapolate(radii, values)
    growth = np.abs(values[1:]) - np.abs(values[:-1])
    diverging = bool(values.size >= 3 and np.all(growth > 0)
                     and np.abs(values[-1]) > 2.0 * np.abs(values[0]))
    return AdmResult(radii=radii, values=values, mass=mass, diverging=diverging)


def adm_conformal_delta(u3: FieldExpr, radii) -> float:
    """Mass shift of the conformal transformation: the limit of
    -(1/2 pi) times the flux of du/dr through large coordinate spheres."""
    radii = np.sort(np.asarray(radii, dtype=float))
    u_r = ConformalMetric3(u3).jets(radii)[1]
    return _extrapolate(radii, [-_sphere_flux(r, du) / (2.0 * np.pi)
                                for r, du in zip(radii, u_r)])


def conformal_sphere_mean_curvature(u3: FieldExpr, r: float) -> float:
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


def hawking_to_adm_convergence(g3: ConformalMetric3, radii,
                               adm_radii=None) -> ConvergenceTable:
    """Hawking mass of the coordinate spheres against the ADM limit.

    A radial factor makes S_r round with areal radius r u^2, so the mass is
    sqrt(|S_r|/16 pi)(1 - |S_r| H^2 / 16 pi) evaluated in closed form.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if adm_radii is None:
        top = float(radii[-1])
        adm_radii = [top, 2 * top, 4 * top, 8 * top]
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
