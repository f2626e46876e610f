"""The Hawking sphere's tape: recorded once per metric and grid signature,
replayed on static per-thread buffers with the bits, the checks and the
errors of the plain arithmetic."""

import functools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import imcvf
from imcvf import sphere, tape
from imcvf.chart import BlockMetric, save_chart
from imcvf.errors import DegenerateSurfaceError, EvalDomainError, SingularMetricError
from imcvf.grid import SphereGrid
from imcvf.sphere import _sphere_mass, _trace_mean_curvature, hawking_mass, surface_fields
from imcvf.tape import RecordingError, record

from conftest import U_BUMP, V_BUMP, build_seed
from test_jets import MeshGrid


def on_new_thread(fn, *args):
    """fn(*args) on a thread of its own, which starts with no buffers."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def _plain_hawking_mass(g, grid):
    """hawking_mass's arithmetic, line for line, on plain arrays: nothing
    of it is recorded.  The reference the replayed masses are held to."""
    with np.errstate(all="ignore"):
        fields = surface_fields(g, grid.env())
        h_r, h_n = _trace_mean_curvature(fields)
        hh = h_r**2 - h_n**2
        sqrt_gs = np.sqrt(fields["W"])
        area = grid.integrate_area(np.ones_like(sqrt_gs), sqrt_gs)
        integral = grid.integrate_area(hh, sqrt_gs)
        mass = float(np.sqrt(area / (16.0 * np.pi)) * (1.0 - integral / (16.0 * np.pi)))
    if not np.isfinite(mass):
        raise ValueError(f"the Hawking mass at r = {grid.r!r} is not finite")
    return mass


def _inputs(grid):
    """The inputs hawking_mass records and replays its tape on."""
    return grid.env(), grid.weights, grid.sin_theta[:, None], grid.r


def _sphere_tape(g, grid):
    """A tape of g's sphere arithmetic, recorded afresh on grid's signature."""
    with np.errstate(all="ignore"):
        return record(functools.partial(_sphere_mass, g), _inputs(grid))


def _replay(t, grid):
    with np.errstate(all="ignore"):
        return float(t.run(*_inputs(grid)))


def _outcome(fn, *args):
    """fn's mass to the last bit, or the type and message of its error."""
    try:
        return fn(*args).hex()
    except Exception as exc:   # the outcome compared is the error itself
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

def test_hawking_mass_keeps_its_bits_on_one_worker_and_on_two(seed_charts):
    """The twelve seeds at two radii, on pools of one, two and four
    workers (more than the cores, with a short switch interval): every
    mass equals, bit for bit, the plain arithmetic."""
    spheres = [(g, SphereGrid(0.3, r, 32, 64)) for _, _, g in seed_charts for r in (2.0, 4.7)]
    expected = [_plain_hawking_mass(g, grid).hex() for g, grid in spheres]

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


@pytest.mark.parametrize("grid_type", [SphereGrid, MeshGrid])
@pytest.mark.parametrize("kind", ["ef", "ea", "c"])
def test_a_tape_recorded_at_one_radius_replays_another(kind, grid_type):
    """A tape recorded on a sphere of one radius and size replays, on the
    separable env and on the meshgrid env, spheres of other radii and of
    another size with the same signature, each mass bit for bit the plain
    arithmetic's."""
    g = build_seed(kind, 0.1)
    t = _sphere_tape(g, grid_type(0.0, 2.0, 16, 32))
    for grid in (grid_type(0.3, 4.7, 16, 32), grid_type(0.0, 9.5, 32, 64),
                 grid_type(0.1, 2.0, 16, 32)):
        assert _replay(t, grid).hex() == _plain_hawking_mass(g, grid).hex(), grid.r


def test_the_tapes_of_two_signatures_are_kept_apart():
    """The separable and the meshgrid env of one sphere have two
    signatures: the metric keeps a tape for each, and both give the bits
    of the plain arithmetic."""
    g = build_seed("ef", 0.1)
    sep, mesh = SphereGrid(0.0, 3.0, 16, 32), MeshGrid(0.0, 3.0, 16, 32)
    assert hawking_mass(g, sep) == hawking_mass(g, mesh) == _plain_hawking_mass(g, sep)
    assert len(g._tapes) == 2


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _chart(**comps):
    """The seed background (u and v bumps, a = r^2) with comps replaced."""
    base = dict(v=V_BUMP, d="0", e="0", f="0", u=U_BUMP, a="r^2", b="r^2*sin(th)^2", c="0")
    return BlockMetric(**{**base, **comps})


@pytest.mark.parametrize("comps, radii, error", [
    (dict(a="r^2*(r-2.5)"), (3.0, 2.0), DegenerateSurfaceError),
    (dict(v="r-3"), (4.0, 3.0), SingularMetricError),
    (dict(u="1+1/(r-3)"), (4.0, 3.0), EvalDomainError),
    (dict(u="1+log(r-3)"), (4.0, 2.0), EvalDomainError),
    (dict(u="1+sqrt(r-3)"), (4.0, 2.0), EvalDomainError),
    (dict(u="1+(r-3)^0.5"), (4.0, 2.0), EvalDomainError),
    (dict(u="1+(r-3)^(-1)"), (4.0, 3.0), EvalDomainError),
    (dict(u="1/(r-3)", v="r-3"), (4.0, 3.0), EvalDomainError),
    (dict(u="1+log(r-3)+1/0"), (4.0, 2.0), EvalDomainError),
    (dict(u="1+exp(r)"), (4.0, 800.0), ValueError),
], ids=["degenerate", "singular", "division", "log", "sqrt", "negative-base", "zero-base",
        "plan-before-det", "constant-after-log", "not-finite"])
def test_each_check_raises_the_error_of_the_plain_arithmetic(comps, radii, error):
    """Each check of the sphere (W <= 0, check_det, the plan's domain
    guards, the finite mass) is a step of the tape: one recorded at the
    first radius gives, at each radius, the plain arithmetic's mass to the
    last bit or its error's type and message, the first check that fails
    in the plain order.  A guard on constants (1/0) is resolved while
    recording and ends the tape."""
    g = _chart(**comps)
    grids = [SphereGrid(0.2, r, 16, 32) for r in radii]
    t = _sphere_tape(g, grids[0])
    outcomes = [_outcome(_replay, t, grid) for grid in grids]
    assert outcomes == [_outcome(_plain_hawking_mass, g, grid) for grid in grids]
    assert outcomes == [_outcome(hawking_mass, g, grid) for grid in grids]
    assert outcomes[-1][0] == error.__name__


# ---------------------------------------------------------------------------
# what recording refuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("program", [
    lambda x: x * np.ones((3, 4)),                          # a grid-sized constant
    lambda x: x + 1.0 if np.any(x > 0.0) else x,            # a comparison
    lambda x: x + 1.0 if x else x,                          # a branch on the value
    lambda x: x * float(x),                                 # a conversion
    lambda x: np.maximum(x, 0.0),                           # a ufunc not recorded
    lambda x: x ** 3,                                       # a power ndarray makes no square
], ids=["constant", "comparison", "branch", "float", "ufunc", "cube"])
def test_recording_refuses_what_a_replay_cannot_repeat(program):
    with pytest.raises(RecordingError):
        record(program, (np.zeros((3, 4)),))


def _fns(t):
    return [fn for fn, *_ in t.steps]


def test_a_repeated_step_or_check_is_logged_once():
    """The same function of the same operands, and the same check of the
    same value, are logged once; the value is read again."""
    checked = []
    check = tape.check_step(lambda x: checked.append(x))

    def program(x, y):
        check(x * y)
        check(x * y)
        return x * y + x * y

    t = record(program, (np.zeros((3, 1)), np.zeros((1, 4))))
    assert [getattr(fn, "__name__", "check") for fn in _fns(t)] == ["multiply", "<lambda>", "add"]
    x, y = np.linspace(0.5, 2.0, 3)[:, None], np.linspace(-1.0, 3.0, 4)[None, :]
    assert np.array_equal(t.run(x, y), x * y + x * y) and len(checked) == 1


def test_a_number_is_one_operand_per_type_and_value():
    """2 and 2.0, 0.0 and -0.0, and two nans are kept apart: x + 0.0 and
    x + -0.0 differ at x = -0.0."""
    t = record(lambda x: (x * 2 + x * 2.0) + (x + 0.0) * (x + -0.0) + x * 2.0,
               (np.zeros(3),))
    assert _fns(t).count(np.multiply) == 3 and _fns(t).count(np.add) == 5
    x = np.array([-0.0, 1.5, -3.0])
    plain = (x * 2 + x * 2.0) + (x + 0.0) * (x + -0.0) + x * 2.0
    assert t.run(x).tobytes() == plain.tobytes()
    nans = record(lambda x: (x + np.nan) * (x + np.nan), (np.zeros(3),))
    assert _fns(nans) == [np.add, np.add, np.multiply]


def test_each_operator_logs_the_ufunc_numpy_applies():
    """The operators an Operand takes directly log the ufunc numpy would
    call for them, in the operands' order (x - y and y - x are two steps),
    and replay its bits."""
    def program(x, y):
        return ((-x + 2.0 - x * y / 3.0 + (1.5 - y) * (2.0 / x)) * (y + 0.5) - y
                + (x - y) * (y - x) + (x / y) / (y / x))

    t = record(program, (np.zeros((2, 1)), np.zeros((1, 3))))
    assert set(_fns(t)) == {np.negative, np.add, np.subtract, np.multiply, np.true_divide}
    x, y = np.array([[0.3], [-1.7]]), np.array([[1e-3, 2.5, -4.0]])
    assert t.run(x, y).tobytes() == program(x, y).tobytes()


@pytest.mark.parametrize("shapes", [((2, 3), (2, 1)), ((1, 3), (2, 1)), ((3,), (2, 3)),
                                    ((), (1, 3)), ((2, 1), (1, 1)), ((2, 3), (2, 3))])
def test_recorded_shapes_broadcast_as_numpy_broadcasts_them(shapes):
    assert tape._broadcast(*shapes) == np.broadcast_shapes(*shapes)


def test_a_planted_grid_constant_in_the_sphere_fails_to_record(monkeypatch):
    """The quadrature reads the grid's weights from its inputs: one that
    reads a grid's own array instead cannot be recorded."""
    grid = SphereGrid(0.0, 2.0, 16, 32)
    monkeypatch.setattr(sphere, "area_sum",
                        lambda w, s, values, sqrt_gs: np.sum(grid.weights * values * sqrt_gs / s))
    with pytest.raises(RecordingError, match="must be an input"):
        hawking_mass(build_seed("ef", 0.1), grid)


def test_a_planted_branch_on_the_data_fails_to_record(monkeypatch):
    """The W > 0 test, run as a plain if and not as a check step, cannot be
    recorded."""
    monkeypatch.setattr(sphere, "_nondegenerate", sphere._nondegenerate.__wrapped__)
    with pytest.raises(RecordingError, match="check_step"):
        hawking_mass(build_seed("ef", 0.1), SphereGrid(0.0, 2.0, 16, 32))


def test_the_tape_reads_the_inputs_it_was_recorded_on():
    """The quadrature weights and sin(th) column are inputs, not constants:
    a replay on other weights gives the mass of those weights."""
    g = build_seed("ef", 0.1)
    grid = SphereGrid(0.0, 3.0, 16, 32)
    t = _sphere_tape(g, grid)
    env, weights, sin_column, r = _inputs(grid)
    with np.errstate(all="ignore"):
        doubled = float(t.run(env, 2.0 * weights, sin_column, r))
        plain = float(_sphere_mass(g, env, 2.0 * weights, sin_column, r))
    assert doubled.hex() == plain.hex() and doubled != hawking_mass(g, grid)


# ---------------------------------------------------------------------------
# buffers
# ---------------------------------------------------------------------------

def _thread_buffers():
    return [a for pool in tape._BUFFERS.arrays.values() for a in pool]


@pytest.mark.parametrize("kind", ["ef", "ea"])
def test_no_buffer_is_overwritten_while_its_value_is_still_read(kind):
    """Walking the tape's steps in order, every buffered operand a step
    reads is still the value its buffer holds: linear scan frees a buffer
    only after its value's last reader.  The ef seed needs a full-grid
    buffer only for each value alive at once, fewer than its full-grid
    values, and a thread that ran it keeps just those."""
    g = build_seed(kind, 0.1)
    grid = SphereGrid(0.0, 2.0, 16, 32)
    t = _sphere_tape(g, grid)
    buffer_of, holds = dict(t.buffer_slots), {}
    for _, out, a, b, into in t.steps:
        for x in (a, b):
            if x in buffer_of:
                assert holds[buffer_of[x]] == x
        if into:
            holds[buffer_of[out]] = out
    full = sum(axes == (True, True) for axes in t.buffers)
    assert full < sum(t.buffers[b] == (True, True) for b in buffer_of.values())

    def run():
        hawking_mass(g, grid)
        return sum(b.shape == (16, 32) for b in _thread_buffers())

    assert on_new_thread(run) == full


def test_two_threads_get_disjoint_buffers():
    g = build_seed("ef", 0.1)
    both_done = threading.Barrier(2, timeout=60)

    def run(r):
        hawking_mass(g, SphereGrid(0.0, r, 16, 32))
        both_done.wait()        # both threads, with their buffers, are alive
        buffers = {buf.ctypes.data for buf in _thread_buffers()}
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
        warm = sorted(map(id, _thread_buffers()))
        for r in (2.5, 4.7, 9.0):
            hawking_mass(g, SphereGrid(0.3, r, 32, 64))
        return warm, sorted(map(id, _thread_buffers()))

    warm, after = on_new_thread(run)
    assert warm and after == warm


def test_a_new_grid_shape_drops_the_buffers():
    g = build_seed("ef", 0.1)

    def run():
        hawking_mass(g, SphereGrid(0.0, 2.0, 16, 32))
        old = _thread_buffers()
        hawking_mass(g, SphereGrid(0.0, 2.0, 8, 16))
        return old, _thread_buffers()

    old, new = on_new_thread(run)
    assert old and (16, 32) in {b.shape for b in old}
    assert new and {b.shape for b in new} <= {(8, 16), (8, 1), (1, 16), (1, 1)}
    assert not {id(b) for b in old} & {id(b) for b in new}


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

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
