"""Legendre tables of the sphere grid: values, laziness, sharing."""

import numpy as np
import pytest

from imcvf import grid as grid_mod
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
