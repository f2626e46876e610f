"""Asymptotically flat Riemannian 3-metrics g = u^4 delta with radial u.

ADM mass by the surface integral of metric derivatives at each radius,
extrapolated in 1/r.  Restricting to radial factors keeps every angular
integral exact, which is what makes this module usable as an oracle for
golden values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import field_jets
from .expr import FieldExpr, diff
from .grid import SphereGrid

__all__ = ["ConformalMetric3", "adm_mass", "AdmResult"]


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
    smallest radius whose value is not finite.

    m_inf is the value at 1/r = 0 of the polynomial in 1/r through the
    points, by Neville's scheme in plain float arithmetic of a fixed
    order, so it does not depend on how a BLAS kernel orders a solve."""
    radii, values = np.asarray(radii, dtype=float), np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"the surface integral at r = {float(radii[bad].min())!r} "
                         "is not finite")
    r, first = np.unique(radii, return_index=True)
    if not r.size:
        raise ValueError("no radius to extrapolate the mass from")
    x = [1.0 / ri for ri in r[-3:].tolist()]
    p = values[first][-3:].tolist()
    # p[i] holds the value at 0 of the polynomial through points i..i+k
    for k in range(1, len(x)):
        for i in range(len(x) - k):
            p[i] = (x[i] * p[i + 1] - x[i + k] * p[i]) / (x[i] - x[i + k])
    return p[0]


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
