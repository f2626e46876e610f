"""Per-thread grid workspaces: PooledArray arithmetic reuses its thread's
buffers, never one a caller still refers to, and keeps every bit."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import imcvf
from imcvf.chart import save_chart
from imcvf.grid import SphereGrid
from imcvf.sphere import _trace_mean_curvature, hawking_mass, surface_fields
from imcvf import workspace as workspace_module
from imcvf.workspace import PooledArray, pooled_env, workspace

from conftest import build_seed


def on_new_thread(fn, *args):
    """fn(*args) on a thread of its own, which starts with an empty
    workspace."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def test_a_held_result_or_a_view_of_one_is_never_handed_out_again():
    def run():
        env = pooled_env({"th": np.linspace(0.1, 3.0, 8)[:, None],
                          "ph": np.linspace(0.0, 6.0, 16)[None, :]})
        th, ph = env["th"], env["ph"]
        held = th * ph
        view = (th + ph)[2:, ::3]
        want_held, want_view = np.array(held), np.array(view)
        for k in range(20):
            temporary = th * (ph + k)
            assert not np.shares_memory(temporary, held), k
            assert not np.shares_memory(temporary, view), k
        assert np.array_equal(held, want_held) and np.array_equal(view, want_view)
        assert isinstance(held, PooledArray) and workspace().shape == (8, 16)
        return len(workspace().buffers)

    # held, the base of view, the product one step keeps and the one the
    # next step writes meanwhile; every later step reuses these
    assert on_new_thread(run) == 4


def test_only_coordinates_that_span_the_last_axis_are_pooled():
    """t, r and th of a SphereGrid env stay plain ndarrays, so arithmetic
    on them pays no PooledArray operator; ph is pooled, and a th column
    times a ph row, the only way to the grid's shape, takes a buffer."""
    def run():
        env = pooled_env(SphereGrid(0.0, 2.0, 8, 16).env())
        kinds = {k: type(v) for k, v in env.items()}
        product = env["th"] * env["ph"]
        return kinds, type(product), len(workspace().buffers)

    kinds, product, buffers = on_new_thread(run)
    assert kinds == {"t": np.ndarray, "r": np.ndarray, "th": np.ndarray, "ph": PooledArray}
    assert product is PooledArray and buffers == 1


def test_the_quadrature_products_of_a_column_w_are_pooled(monkeypatch):
    """On an ef chart W = ab - c^2 is a th column, which pooled_env leaves
    plain, and the area integral multiplies ones of its shape into the
    grid's full weights: hawking_mass hands integrate_area PooledArrays,
    so both quadratures' products are PooledArrays of the grid's shape."""
    g = build_seed("ef", 0.1)
    seen = []
    integrate_area = SphereGrid.integrate_area

    def spy(grid, values, sqrt_gs):
        product = grid.weights * values * sqrt_gs
        seen.append((np.shape(sqrt_gs), type(product), product.shape))
        return integrate_area(grid, values, sqrt_gs)

    monkeypatch.setattr(SphereGrid, "integrate_area", spy)
    on_new_thread(hawking_mass, g, SphereGrid(0.0, 2.0, 16, 32))
    assert seen == [((16, 1), PooledArray, (16, 32))] * 2


def test_a_miscounted_reference_fails_the_import_check(monkeypatch):
    """The check run at import passes on this interpreter, and fails when
    one outside reference would count as free."""
    workspace_module._check_reuse()
    monkeypatch.setattr(workspace_module, "_IDLE", workspace_module._IDLE + 1)
    with pytest.raises(RuntimeError, match="GIL"):
        workspace_module._check_reuse()


def test_a_result_larger_than_the_workspace_shape_is_allocated():
    """Only a result of exactly the workspace's shape is pooled: one that
    broadcasts past it, in size or in rank, is a new array with the bits
    ndarray gives."""
    def run():
        env = pooled_env({"r": np.full((1, 1, 1), 2.0),
                          "th": np.linspace(0.1, 3.0, 8)[None, :, None],
                          "ph": np.linspace(0.0, 6.0, 16)[None, None, :]})
        x = env["th"] * env["ph"]
        assert x.shape == workspace().shape == (1, 8, 16)
        return x, x * np.full((5, 8, 16), 3.0), np.full((2, 1, 8, 16), 3.0) - x

    x, wide, deeper = on_new_thread(run)
    plain = np.asarray(x)
    assert np.array_equal(wide, plain * np.full((5, 8, 16), 3.0))
    assert np.array_equal(deeper, np.full((2, 1, 8, 16), 3.0) - plain)


def test_two_threads_get_disjoint_buffers():
    g = build_seed("ef", 0.1)
    both_done = threading.Barrier(2, timeout=60)

    def run(r):
        hawking_mass(g, SphereGrid(0.0, r, 16, 32))
        both_done.wait()        # both threads, with their buffers, are alive
        buffers = {buf.ctypes.data for buf in workspace().buffers}
        both_done.wait()
        return buffers

    with ThreadPoolExecutor(2) as pool:
        first, second = (job.result(timeout=120)
                         for job in [pool.submit(run, 2.0), pool.submit(run, 3.0)])
    assert first and second and not first & second


def test_after_one_sphere_further_spheres_of_its_grid_add_no_buffer():
    g = build_seed("ea", 0.1)

    def run():
        hawking_mass(g, SphereGrid(0.0, 2.0, 32, 64))
        warm = sorted(map(id, workspace().buffers))
        for r in (2.5, 4.7, 9.0):
            hawking_mass(g, SphereGrid(0.3, r, 32, 64))
        return warm, sorted(map(id, workspace().buffers))

    warm, after = on_new_thread(run)
    assert warm and after == warm


def test_a_new_grid_shape_empties_the_workspace():
    g = build_seed("ef", 0.1)

    def run():
        hawking_mass(g, SphereGrid(0.0, 2.0, 16, 32))
        old = list(workspace().buffers)
        hawking_mass(g, SphereGrid(0.0, 2.0, 8, 16))
        return old, list(workspace().buffers), workspace().shape

    old, new, shape = on_new_thread(run)
    assert old and {b.shape for b in old} == {(16, 32)}
    assert new and {b.shape for b in new} == {(8, 16)} and shape == (8, 16)
    assert not {id(b) for b in old} & {id(b) for b in new}


def _unpooled_hawking_mass(g, grid):
    """hawking_mass's arithmetic, line for line, on the plain env: nothing
    of it is pooled.  The reference the pooled masses are held to."""
    with np.errstate(all="ignore"):
        fields = surface_fields(g, grid.env())
        h_r, h_n = _trace_mean_curvature(fields)
        hh = h_r**2 - h_n**2
        sqrt_gs = np.sqrt(fields["W"])
        area = grid.integrate_area(np.ones_like(sqrt_gs), sqrt_gs)
        integral = grid.integrate_area(hh, sqrt_gs)
        return float(np.sqrt(area / (16.0 * np.pi)) * (1.0 - integral / (16.0 * np.pi)))


def test_hawking_mass_keeps_its_bits_on_one_worker_and_on_two(seed_charts):
    """The twelve seeds at two radii, on pools of one, two and four
    workers (more than the cores, with a short switch interval): every
    mass equals, bit for bit, the unpooled arithmetic."""
    spheres = [(g, SphereGrid(0.3, r, 32, 64)) for _, _, g in seed_charts for r in (2.0, 4.7)]
    expected = [_unpooled_hawking_mass(g, grid).hex() for g, grid in spheres]

    def masses(workers):
        with ThreadPoolExecutor(workers) as pool:
            jobs = [pool.submit(hawking_mass, g, grid) for g, grid in spheres]
            return [job.result(timeout=120).hex() for job in jobs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = {workers: masses(workers) for workers in (1, 2, 4)}
    finally:
        sys.setswitchinterval(interval)
    assert got == {1: expected, 2: expected, 4: expected}


@pytest.fixture
def ef_chart_file(tmp_path):
    path = tmp_path / "ef.json"
    save_chart(build_seed("ef", 0.1), str(path))
    return str(path)


def test_hawking_csv_bytes_do_not_depend_on_the_worker_count(ef_chart_file):
    """IMCVF_THREADS=1 and =2, each in a fresh process (the pool is sized
    once per process), write the same bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(imcvf.__file__)))
    argv = [sys.executable, "-m", "imcvf.cli", "hawking", "--chart", ef_chart_file,
            "--grid", "32,64", "--r", "1.5,2,3.5,4.7,8,9.5"]

    def csv(threads):
        env = dict(os.environ, IMCVF_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        return proc.stdout

    one = csv(1)
    assert len(one.splitlines()) == 7 and csv(2) == one
