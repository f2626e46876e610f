"""Quadrature grid and spectral calculus on the coordinate sphere.

Nodes are Gauss-Legendre in cos(theta) crossed with uniform phi, so that

    sum_ij w_ij f(theta_i, phi_j)  ~  integral of f sin(theta) dtheta dphi

is exact for integrands polynomial in cos(theta) and band-limited in phi.
Tangential derivatives are evaluated through a small spherical-harmonic
transform (FFT in phi, associated-Legendre analysis in theta), which keeps
smooth fields accurate to near machine precision; centered differences on
this grid could not meet the tolerances the validation suite demands.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridTooCoarseError

__all__ = ["SphereGrid", "area_sum", "check_radius", "check_time"]


def check_radius(r) -> None:
    """The radius rule of every sphere and point: a ValueError naming r
    unless r > 0 and r^2 is finite."""
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    if not math.isfinite(float(r) * float(r)):
        raise ValueError(f"r^2 must be finite, got r = {r}")


def check_time(t) -> None:
    """The time rule of every sphere and point: a ValueError naming t
    unless t is finite."""
    if not math.isfinite(float(t)):
        raise ValueError(f"t must be finite, got t = {t}")


def _legendre_tables(lmax: int, x: np.ndarray):
    """Orthonormal associated Legendre values and theta-derivatives.

    tables[m][l-m, i] = P_l^m(x_i) with int_{-1}^{1} (P_l^m)^2 dx = 1;
    dtables[m] holds d/dtheta of the same rows.  The three-term recurrence
    in l runs along the diagonals k = l - m, one array step per k across
    every m at once (Schaeffer, arXiv:1202.6522); the per-m tables are
    consecutive row blocks of one buffer.
    """
    sth = np.sqrt(1.0 - x * x)
    size = lmax + 1
    ms = np.arange(size)
    start = np.concatenate(([0], np.cumsum(size - ms)))   # row of (m, l = m)
    buf = np.empty((start[-1], x.size))

    pmm = np.full_like(x, np.sqrt(0.5))
    for m in range(size):                                  # k = 0: P_m^m
        buf[start[m]] = pmm
        if m + 1 <= lmax:
            pmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * sth * pmm
    m = ms[:-1]                                            # k = 1
    buf[start[m] + 1] = np.sqrt(2.0 * m + 3.0)[:, None] * x * buf[start[m]]
    for k in range(2, size):
        m = ms[:size - k]
        l = m + k
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        buf[start[m] + k] = a[:, None] * (x * buf[start[m] + k - 1]
                                          - b[:, None] * buf[start[m] + k - 2])

    dbuf = np.empty_like(buf)
    for m in range(size):
        rows, drows = buf[start[m]:start[m + 1]], dbuf[start[m]:start[m + 1]]
        l = np.arange(m, size)
        drows[:] = l[:, None] * x * rows
        dlm = np.sqrt((2.0 * l[1:] + 1.0) * (l[1:] * l[1:] - m * m) / (2.0 * l[1:] - 1.0))
        drows[1:] -= dlm[:, None] * rows[:-1]
        drows /= sth
    return ([buf[start[m]:start[m + 1]] for m in range(size)],
            [dbuf[start[m]:start[m + 1]] for m in range(size)])


# Nodes and tables depend only on n_theta, and a grid's node arrays on
# (n_theta, n_phi): built once per size, shared by every grid of that
# size, and read-only so sharing cannot leak writes.
_MEMO_LOCK = threading.RLock()
_NODES: dict = {}
_NODE_ARRAYS: dict = {}
_TABLES: dict = {}


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


def _gauss_nodes(n_theta: int):
    """Gauss-Legendre nodes x = cos(theta) and weights, theta increasing."""
    with _MEMO_LOCK:
        if n_theta not in _NODES:
            x, w = leggauss(n_theta)
            order = np.argsort(-x)
            _NODES[n_theta] = _read_only([x[order], w[order]])
        return _NODES[n_theta]


def _node_arrays(n_theta: int, n_phi: int):
    """(theta, phi, weights, sin_theta, cos_theta, cot_theta) of a grid
    of this size: the full weights array too is built once per size, not
    once per sphere."""
    with _MEMO_LOCK:
        if (n_theta, n_phi) not in _NODE_ARRAYS:
            x, w_theta = _gauss_nodes(n_theta)
            theta = np.arccos(x)
            phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
            weights = w_theta[:, None] * np.full(n_phi, 2.0 * np.pi / n_phi)
            sin_theta, cos_theta = np.sin(theta), np.cos(theta)
            _NODE_ARRAYS[n_theta, n_phi] = _read_only([theta, phi, weights, sin_theta,
                                                       cos_theta, cos_theta / sin_theta])
        return _NODE_ARRAYS[n_theta, n_phi]


def _tables(n_theta: int):
    """(plm, dplm) Legendre tables of this size, built on first use."""
    with _MEMO_LOCK:
        if n_theta not in _TABLES:
            x, _ = _gauss_nodes(n_theta)
            plm, dplm = _legendre_tables(n_theta - 1, x)
            _TABLES[n_theta] = _read_only(plm), _read_only(dplm)
        return _TABLES[n_theta]


@functools.lru_cache(maxsize=None)
def _packing(n_theta: int, mmax: int):
    """(start, ell) of the packed coefficients of orders m = 0..mmax: the
    rows of order m are start[m]:start[m + 1], and ell is the degree of
    each row (as a float)."""
    ms = np.arange(mmax + 1)
    start = np.concatenate(([0], np.cumsum(n_theta - ms)))
    em = np.repeat(ms, n_theta - ms)
    return _read_only([start, (np.arange(start[-1]) - start[em] + em).astype(float)])


def area_sum(weights, sin_column, values, sqrt_gs):
    """sum w f sqrt|g_S| / sin(theta) over the nodes, from the quadrature
    weights and the sin(theta) column: SphereGrid.integrate_area, as a
    numpy scalar."""
    return np.sum(weights * values * sqrt_gs / sin_column)


class SphereGrid:
    """Sphere S_{t,r} sampled on n_theta x n_phi nodes.

    Carries the quadrature weights; all arrays indexed [i_theta, j_phi].
    Every transform takes a field that broadcasts to the grid, such as a
    column of a separable env.  The Legendre transform tables are shared per
    n_theta and built on the first transform call; the node arrays (theta,
    phi, weights, sin/cos/cot theta) are shared, read-only, by every grid of
    one size, so a sphere allocates none of them.  Instances are immutable.
    """

    def __init__(self, t: float, r: float, n_theta: int = 64, n_phi: int = 128):
        if n_theta < 4 or n_phi < 4:
            raise GridTooCoarseError("need at least 4x4 nodes")
        check_time(t)
        check_radius(r)
        self.t = float(t)
        self.r = float(r)
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)

        self.x, self.w_theta = _gauss_nodes(self.n_theta)
        (self.theta, self.phi, self.weights, self.sin_theta, self.cos_theta,
         self.cot_theta) = _node_arrays(self.n_theta, self.n_phi)

        self.lmax = self.n_theta - 1
        self.mmax = min(self.n_phi // 2, self.lmax)

    # -- coordinate helpers ------------------------------------------------

    def env(self) -> dict:
        """Separable coordinate arrays for FieldExpr evaluation: t and r of
        shape (1, 1), th the (n_theta, 1) column, ph the (1, n_phi) row.
        They broadcast to the grid shape (n_theta, n_phi), and a factor that
        depends on fewer coordinates is evaluated at its own, smaller size.
        t and r stay arrays so that evaluation takes the same numpy path as
        on the full grid."""
        return {"t": np.full((1, 1), self.t), "r": np.full((1, 1), self.r),
                "th": self.theta[:, None], "ph": self.phi[None, :]}

    # -- quadrature ----------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """sum w f, approximating the integral of f sin(theta) dtheta dphi."""
        return float(np.sum(self.weights * values))

    def integrate_area(self, values, sqrt_gs) -> float:
        """Integral of f against the area form sqrt|g_S| dtheta dphi."""
        return float(area_sum(self.weights, self.sin_theta[:, None], values, sqrt_gs))

    # -- spherical-harmonic transform ---------------------------------------
    # A stack of k fields (k, n_theta, n_phi) has Fourier rows (k, n_theta,
    # n_phi // 2 + 1) and packed coefficients (rows, k), m-major as in
    # _packing.  Each Legendre stage runs one real GEMM per m on the float
    # view of the complex columns (2k real columns), as SHTns and libsharp
    # batch their transforms.

    def _analysis(self, fm: np.ndarray) -> np.ndarray:
        """Legendre analysis of the Fourier rows fm of k fields: packed
        coefficients (rows, k), m = 0..mmax."""
        plm, _ = _tables(self.n_theta)
        start = _packing(self.n_theta, self.mmax)[0]
        cols = np.ascontiguousarray(
            (fm[..., :self.mmax + 1] * self.w_theta[:, None]).transpose(2, 1, 0))
        coef = np.empty((start[-1], 2 * fm.shape[0]))
        for m in range(self.mmax + 1):
            np.matmul(plm[m], cols[m].view(float), out=coef[start[m]:start[m + 1]])
        return coef.view(complex)

    def _synthesis(self, coef: np.ndarray, derivative=False) -> np.ndarray:
        """Fourier rows of the values (or theta-derivatives) of the k fields
        whose packed coefficients are coef (rows, k)."""
        tables = _tables(self.n_theta)[1 if derivative else 0]
        start = _packing(self.n_theta, self.mmax)[0]
        c = np.ascontiguousarray(coef).view(float)
        out = np.zeros((self.n_phi // 2 + 1, self.n_theta, c.shape[1]))
        for m in range(self.mmax + 1):
            np.matmul(tables[m].T, c[start[m]:start[m + 1]], out=out[m])
        return out.view(complex).transpose(2, 1, 0)

    def _on_grid(self, f) -> np.ndarray:
        """f (one field or a stack) broadcast to the grid: a field may come
        at the size of the coordinates it depends on, as the jets do."""
        f = np.asarray(f, dtype=float)
        return np.broadcast_to(f, f.shape[:-2] + (self.n_theta, self.n_phi))

    def _grid(self, fm: np.ndarray) -> np.ndarray:
        """The stack of fields whose Fourier rows are fm."""
        return np.fft.irfft(fm, n=self.n_phi, axis=-1)

    def _rows_without_constant(self, f) -> np.ndarray:
        """Fourier rows of each field of f (one field or a stack) minus one
        of its own samples, for derivative operators: a constant becomes
        exact zeros, so its l >= 1 coefficients carry no quadrature roundoff
        (whose size would depend on the BLAS summation order) for l(l+1)
        and cot/sin^2 to amplify."""
        f = self._on_grid(f).reshape(-1, self.n_theta, self.n_phi)
        return np.fft.rfft(f - f[:, :1, :1], axis=-1)

    def _analysis_without_constant(self, f) -> np.ndarray:
        return self._analysis(self._rows_without_constant(f))

    def _phi_factor(self) -> np.ndarray:
        """i m of each Fourier row; the Nyquist mode has no well-defined
        derivative and gets 0."""
        m = np.arange(self.n_phi // 2 + 1.0)
        if self.n_phi % 2 == 0:
            m[-1] = 0.0
        return 1j * m

    def d_theta(self, f: np.ndarray) -> np.ndarray:
        """Spectral d/dtheta of a smooth field sampled on the grid.

        The constant part is removed before analysis, so constants map to
        exactly zero independent of BLAS summation order.
        """
        coef = self._analysis_without_constant(f)
        return self._grid(self._synthesis(coef, derivative=True))[0]

    def d_phi(self, f: np.ndarray) -> np.ndarray:
        """Spectral d/dphi (FFT factor im)."""
        fm = np.fft.rfft(self._on_grid(f), axis=-1)
        return np.fft.irfft(fm * self._phi_factor(), n=self.n_phi, axis=-1)

    def gradient(self, f: np.ndarray):
        """(d_theta(f), d_phi(f)) from one FFT of f, transformed back
        together."""
        fm = self._rows_without_constant(f)
        f_th = self._synthesis(self._analysis(fm), derivative=True)
        return tuple(self._grid(np.concatenate([f_th, fm * self._phi_factor()])))

    def d2_theta(self, f: np.ndarray) -> np.ndarray:
        """Spectral d^2/dtheta^2 from a single analysis.

        Uses the associated-Legendre ODE, P'' = -cot P' + (m^2/sin^2 - l(l+1))P,
        instead of differentiating twice: the theta-derivative of a scalar
        leaves the scalar parity class, and re-analysing it would lose
        spectral accuracy.  The l(l+1) term, the values and d/dtheta come
        from one coefficient set, and d^2/dphi^2 is the values' Fourier rows
        times (im)^2 (Nyquist zeroed as in d_phi).  The constant part is
        removed before analysis, so constants map to exactly zero
        independent of BLAS summation order.
        """
        ell = _packing(self.n_theta, self.mmax)[1]
        coef = self._analysis_without_constant(f)
        lap1, values = self._synthesis(np.hstack([coef * -(ell * (ell + 1.0))[:, None], coef]))
        f_phph = values * self._phi_factor() ** 2
        f_th = self._synthesis(coef, derivative=True)[0]
        cot = self.cot_theta[:, None]
        s2 = self.sin_theta[:, None] ** 2
        return self._grid(lap1 - cot * f_th - f_phph / s2)

    def div_tangent(self, beta_th: np.ndarray, beta_ph: np.ndarray) -> np.ndarray:
        """Divergence of a tangent vector on a chart with area form
        r^2 sin(theta): (1/sin) d_theta(sin beta^th) + d_phi(beta^ph).

        The sin-weighted theta component lies in the scalar parity class,
        which keeps the transform spectrally accurate for smooth fields.
        Both components are transformed together and the divergence is
        formed on their Fourier rows.
        """
        sth = self.sin_theta[:, None]
        fm = self._rows_without_constant(np.stack([self._on_grid(sth * beta_th),
                                                   self._on_grid(beta_ph)]))
        div_th = self._synthesis(self._analysis(fm[:1]), derivative=True)[0] / sth
        return self._grid(div_th + fm[1] * self._phi_factor())

    def laplacian_round(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami operator of the round sphere of radius r.

        The constant part is removed before analysis, so constants map to
        exactly zero independent of BLAS summation order.
        """
        ell = _packing(self.n_theta, self.mmax)[1]
        coef = self._analysis_without_constant(f)
        eig = -(ell * (ell + 1.0)) / self.r**2
        return self._grid(self._synthesis(coef * eig[:, None]))[0]

    def solve_poisson_round(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of the Poisson equation on the round sphere
        of radius r."""
        ell = _packing(self.n_theta, self.mmax)[1]
        coef = self._analysis(np.fft.rfft(self._on_grid(rhs)[None], axis=-1))
        eig = -(ell * (ell + 1.0)) / self.r**2
        coef[0] = 0.0                  # (l, m) = (0, 0): the mean
        eig[0] = 1.0
        return self._grid(self._synthesis(coef / eig[:, None]))[0]

    def mean_zero(self, f: np.ndarray, sqrt_gs=None) -> np.ndarray:
        """Subtract the area-weighted mean."""
        if sqrt_gs is None:
            area = 4.0 * np.pi * self.r**2
            mean = self.integrate(f * self.r**2) / area
        else:
            area = self.integrate_area(np.ones_like(f), sqrt_gs)
            mean = self.integrate_area(f, sqrt_gs) / area
        return f - mean
