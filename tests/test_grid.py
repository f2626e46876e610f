"""Legendre tables of the sphere grid: values, laziness, sharing."""

import numpy as np
import pytest

from imcvf import grid as grid_mod
from imcvf.builder import ValidationSpec, monotonicity_check_spherical
from imcvf.chart import CoordinatePoint
from imcvf.grid import SphereGrid


def scalar_loop_tables(lmax, x):
    """Reference: the l-recurrence one row at a time for each m."""
    sth = np.sqrt(1.0 - x * x)
    tables, dtables = [], []
    pmm = np.full_like(x, np.sqrt(0.5))
    for m in range(lmax + 1):
        rows = np.zeros((lmax + 1 - m, x.size))
        rows[0] = pmm
        if m + 1 <= lmax:
            rows[1] = np.sqrt(2.0 * m + 3.0) * x * pmm
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            rows[l - m] = a * (x * rows[l - m - 1] - b * rows[l - m - 2])
        drows = np.empty_like(rows)
        for l in range(m, lmax + 1):
            tmp = l * x * rows[l - m]
            if l > m:
                dlm = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
                tmp = tmp - dlm * rows[l - m - 1]
            drows[l - m] = tmp / sth
        tables.append(rows)
        dtables.append(drows)
        if m + 1 <= lmax:
            pmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * sth * pmm
    return tables, dtables


@pytest.mark.parametrize("r", [0.0, -3.0, float("nan")])
def test_grid_rejects_a_radius_that_is_not_positive(r):
    with pytest.raises(ValueError, match="r must be positive"):
        SphereGrid(0.0, r)


@pytest.mark.parametrize("r", [float("inf"), 1e300, 1.4e154])
def test_grid_rejects_a_radius_whose_square_overflows(r):
    """r^2 enters the quadrature and the round Laplacian, so a radius
    whose square is not finite is refused where the grid is made."""
    with pytest.raises(ValueError, match=r"r\^2 must be finite"):
        SphereGrid(0.0, r)
    assert SphereGrid(0.0, 1e154).r == 1e154


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("make", [
    lambda t: SphereGrid(t, 2.0),
    lambda t: ValidationSpec(t=t),
    lambda t: monotonicity_check_spherical("1", "1", t, (1.5, 3.0), 2),
    lambda t: CoordinatePoint(t, 2.0, 1.0, 0.0),
])
def test_every_sphere_and_point_refuses_a_non_finite_t(make, t):
    """One time rule, grid.check_time, wherever a t is taken."""
    with pytest.raises(ValueError, match=f"t must be finite, got t = {t}"):
        make(t)
    make(0.0)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_vectorised_tables_equal_scalar_loop(n):
    x, _ = grid_mod._gauss_nodes(n)
    plm, dplm = grid_mod._legendre_tables(n - 1, x)
    ref, dref = scalar_loop_tables(n - 1, np.array(x))
    assert len(plm) == len(ref) == n and len(dplm) == len(dref) == n
    for m in range(n):
        assert np.array_equal(plm[m], ref[m]), m
        assert np.array_equal(dplm[m], dref[m]), m


@pytest.fixture
def counted_builds(monkeypatch):
    """Empty table memo and a counter of table builds."""
    calls = []
    build = grid_mod._legendre_tables

    def counting(lmax, x):
        calls.append(lmax)
        return build(lmax, x)

    monkeypatch.setattr(grid_mod, "_TABLES", {})
    monkeypatch.setattr(grid_mod, "_legendre_tables", counting)
    return calls


def test_construction_and_quadrature_build_no_tables(counted_builds):
    g = SphereGrid(0.0, 2.0, 24, 48)
    assert g.integrate(np.ones((24, 48))) == pytest.approx(4 * np.pi, rel=1e-13)
    g.integrate_area(np.ones((24, 48)), np.full((24, 48), 4.0) * np.sin(g.theta)[:, None])
    g.env()
    assert counted_builds == []
    g.d_theta(np.cos(g.theta)[:, None] * np.ones((1, 48)))
    assert counted_builds == [23]
    SphereGrid(0.0, 3.0, 24, 48).laplacian_round(np.ones((24, 48)))
    SphereGrid(0.0, 3.0, 24, 48).solve_poisson_round(np.zeros((24, 48)))
    assert counted_builds == [23]


def test_grids_of_one_size_share_read_only_arrays(counted_builds):
    a, b = SphereGrid(0.0, 2.0, 32, 64), SphereGrid(0.5, 7.0, 32, 16)
    assert a.x is b.x and a.w_theta is b.w_theta
    plm_a, dplm_a = grid_mod._tables(a.n_theta)
    plm_b, dplm_b = grid_mod._tables(b.n_theta)
    assert plm_a is plm_b and dplm_a is dplm_b
    assert counted_builds == [31]
    for arr in (a.x, a.w_theta, *plm_a, *dplm_a):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        plm_a[3][0, 0] = 1.0
    with pytest.raises(ValueError):
        a.x[0] = 0.0
    assert grid_mod._tables(16)[0] is not plm_a


def test_concurrent_first_use_builds_once(counted_builds):
    """Grids of one size used from many threads at once (as the hawking
    pool does) build the tables once and all read the same arrays."""
    import sys
    import threading

    seen, errors = [], []
    start = threading.Barrier(8)

    def work():
        try:
            start.wait(timeout=30)
            g = SphereGrid(0.0, 2.0, 20, 40)
            g.d_theta(np.sin(g.theta)[:, None] * np.ones((1, 40)))
            seen.append(grid_mod._tables(20))
        except Exception as exc:        # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert counted_builds == [19]
    assert len(seen) == 8 and all(s is seen[0] for s in seen)


# ---------------------------------------------------------------------------
# the real-arithmetic, batched transform
# ---------------------------------------------------------------------------

def complex_roundtrip(g, f, derivative):
    """Reference: per-m complex matmuls on one field, analysis then
    synthesis of values or theta-derivatives."""
    plm, dplm = grid_mod._tables(g.n_theta)
    out_tables = dplm if derivative else plm
    fm = np.fft.rfft(f, axis=1)
    back = np.zeros_like(fm)
    for m in range(g.mmax + 1):
        coef = plm[m].astype(complex) @ (g.w_theta * fm[:, m])
        back[:, m] = out_tables[m].T.astype(complex) @ coef
    return np.fft.irfft(back, n=g.n_phi, axis=1)


def roundtrip(g, stack, derivative):
    coef = g._analysis(np.fft.rfft(stack, axis=-1))
    return g._grid(g._synthesis(coef, derivative=derivative))


def rounding_scale(g, f, derivative):
    """Unit roundoff times the sum of the magnitudes of every term that
    enters the Legendre analysis and synthesis of f, per theta row: two
    summation orders of the same sums may differ by a fraction of it."""
    plm, dplm = grid_mod._tables(g.n_theta)
    out_tables = dplm if derivative else plm
    fm = np.abs(np.fft.rfft(f, axis=1))
    total = np.zeros(g.n_theta)
    for m in range(g.mmax + 1):
        terms = np.abs(out_tables[m]).T @ (np.abs(plm[m]) @ (g.w_theta * fm[:, m]))
        total += terms if m == 0 else 2.0 * terms
    return np.finfo(float).eps * total[:, None] / g.n_phi


def sample_fields(g, seed):
    """A smooth field and white noise."""
    rng = np.random.default_rng(seed)
    th, ph = g.theta[:, None], g.phi[None, :]
    smooth = (np.exp(np.sin(th) * np.cos(ph - rng.uniform(0.0, 6.0))) * (1.0 + 0.3 * np.cos(th))
              + np.sin(th) ** 2 * np.sin(2.0 * ph))
    return [smooth, rng.normal(size=smooth.shape)]


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("derivative", [False, True])
def test_real_transform_matches_complex_reference(n, derivative):
    """One real GEMM per m gives the per-m complex matmul's values, and
    theta-derivatives, to rounding."""
    g = SphereGrid(0.0, 2.0, n, 2 * n)
    for f in sample_fields(g, n):
        ref = complex_roundtrip(g, f, derivative)
        got = roundtrip(g, f[None], derivative)[0]
        assert np.all(np.abs(got - ref) <= rounding_scale(g, f, derivative))


@pytest.mark.parametrize("n", [16, 64, 128])
def test_stack_equals_single_transforms(n):
    """Equal to rounding: BLAS may order a GEMM's sums differently for
    2k columns than for 2."""
    g = SphereGrid(0.0, 2.0, n, 2 * n)
    stack = np.stack(sample_fields(g, n) + sample_fields(g, n + 1))
    for derivative in (False, True):
        together = roundtrip(g, stack, derivative)
        for k, f in enumerate(stack):
            alone = roundtrip(g, stack[k:k + 1], derivative)[0]
            assert np.all(np.abs(together[k] - alone) <= rounding_scale(g, f, derivative))


@pytest.mark.parametrize("n_theta,n_phi", [(24, 48), (16, 16)])
def test_d2_theta_phi_term_matches_d_phi_twice(n_theta, n_phi):
    """d2_theta takes d^2/dphi^2 from Fourier rows times (im)^2; the
    associated-Legendre ODE with d_phi(d_phi(f)) in its place agrees to
    spectral accuracy, with the Nyquist mode present (16x16) or not."""
    g = SphereGrid(0.0, 1.0, n_theta, n_phi)
    th, ph = g.theta[:, None], g.phi[None, :]
    f = (np.sin(th) ** 3 * np.cos(3 * ph) + 0.3 * np.sin(th) ** 5 * np.sin(5 * ph)
         + np.cos(th) * np.sin(th) * np.cos(ph) + 0.2 * np.sin(th) ** 8 * np.cos(8 * ph))
    s2 = np.sin(th) ** 2
    via_fft = (g.laplacian_round(f) - g.cot_theta[:, None] * g.d_theta(f)
               - g.d_phi(g.d_phi(f)) / s2)
    assert np.max(np.abs(g.d2_theta(f) - via_fft)) <= 1e-10
    f_th, f_ph = g.gradient(f)
    np.testing.assert_allclose(f_th, g.d_theta(f), rtol=0, atol=1e-12)
    np.testing.assert_allclose(f_ph, g.d_phi(f), rtol=0, atol=1e-12)
