"""Per-thread workspaces of reusable grid arrays.

The arithmetic of one sphere makes a few hundred temporary arrays of the
grid's shape.  At 128x256 each is 256 KB, above glibc's mmap threshold, so
a fresh array costs a page fault per 4 KB page when it is first written,
and freeing it hands the pages back.  A workspace keeps such arrays for its
thread and hands one out again once nothing else refers to it.  Those
faults are what it saves, and each pooled operator costs a Python call
for them; on smaller grids, whose arrays come from the heap and fault
less, the call costs more than it saves.

Arithmetic reaches a workspace through PooledArray: an operator on a
PooledArray whose result is a float64 array of the workspace's shape
applies the same ufunc, on the same operands in the same order, with
``out=`` a free buffer, so every result keeps its bits.  ``pooled_env``
starts a sphere: it sets the calling thread's workspace to the env's shape
and views the coordinates that span its last axis as PooledArrays, so
every array of the full shape computed from them, the jet plan run
included, takes its buffer from there.

Reuse is safe only where sys.getrefcount counts every reference to a
buffer exactly, as a CPython build with the GIL does.  Importing this
module checks that Workspace.take, run often enough for the interpreter
to specialise it, never hands out a buffer a local or a view still holds,
and raises RuntimeError where it does.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

__all__ = ["PooledArray", "pooled", "pooled_env"]

_FLOAT = np.dtype(float)


class Workspace:
    """The reusable float64 arrays of one shape that one thread's
    PooledArray arithmetic writes into.

    A buffer is handed out only when the workspace's own list is all that
    refers to it (sys.getrefcount), so a caller that keeps a result, or a
    view of it, keeps its buffer out of use: nothing is released by hand
    and no lifetime can be got wrong.  Another shape empties the workspace,
    so a thread keeps at most one sphere's peak of live arrays."""

    __slots__ = ("shape", "buffers")

    def __init__(self):
        self.shape = None
        self.buffers = []

    def use(self, shape: tuple) -> None:
        """Hand out arrays of shape from now on; a new shape empties the
        workspace."""
        if shape != self.shape:
            self.shape, self.buffers = shape, []

    def take(self) -> PooledArray:
        """A buffer that nothing outside the workspace refers to, the most
        recently taken first (it is the likeliest still to sit in cache),
        or a new one when every buffer is in use."""
        buffers = self.buffers
        for i in range(len(buffers) - 1, -1, -1):
            if sys.getrefcount(buffers[i]) == _IDLE:
                buf = buffers.pop(i)
                buffers.append(buf)
                return buf
        buf = PooledArray(self.shape)
        buffers.append(buf)
        return buf


class _Local(threading.local):
    def __init__(self):
        self.workspace = Workspace()


_LOCAL = _Local()


def workspace() -> Workspace:
    """The calling thread's workspace."""
    return _LOCAL.workspace


def _out(x, y=0.0):
    """A free buffer of the calling thread's workspace for a ufunc of the
    PooledArray x and the operand y when its result is a float64 array of
    the workspace's shape, else None.  The result takes x's shape when y
    has the same one or is a scalar; two operands of one rank broadcast to
    the larger size in each dimension (each is 1 or the result's); operands
    of different ranks are left to ndarray."""
    ws = _LOCAL.workspace
    sx, sy = x.shape, getattr(y, "shape", ())
    if sx == sy or not sy:
        result = sx
    elif len(sx) == len(sy):
        result = tuple(map(max, sx, sy))
    else:
        return None
    if result != ws.shape or x.dtype is not _FLOAT or getattr(y, "dtype", _FLOAT) is not _FLOAT:
        return None
    return ws.take()


def _binary(ufunc):
    def op(self, other):
        buf = _out(self, other)
        return ufunc(self, other) if buf is None else ufunc(self, other, out=buf)
    return op


def _reflected(ufunc):
    def op(self, other):
        buf = _out(self, other)
        return ufunc(other, self) if buf is None else ufunc(other, self, out=buf)
    return op


class PooledArray(np.ndarray):
    """A float64 array whose +, -, *, /, unary - and ** 2 write a result of
    the calling thread's workspace shape into that workspace.  Each operator
    applies the ufunc that ndarray's applies (x ** 2 is np.square, as numpy
    makes it), so the bits are those of a plain array; any other operation
    is ndarray's, and its result a new PooledArray."""

    __add__, __radd__ = _binary(np.add), _reflected(np.add)
    __sub__, __rsub__ = _binary(np.subtract), _reflected(np.subtract)
    __mul__, __rmul__ = _binary(np.multiply), _reflected(np.multiply)
    __truediv__, __rtruediv__ = _binary(np.divide), _reflected(np.divide)

    def __neg__(self):
        return pooled(np.negative, self)

    def __pow__(self, other):
        if type(other) is int and other == 2:
            return pooled(np.square, self)
        return np.ndarray.__pow__(self, other)


def pooled(ufunc, x):
    """ufunc(x), written into the calling thread's workspace when x is a
    PooledArray and the result has the workspace's shape."""
    buf = _out(x) if isinstance(x, PooledArray) else None
    return ufunc(x) if buf is None else ufunc(x, out=buf)


def pooled_env(env) -> dict:
    """Start a sphere: the calling thread's workspace set to the env's
    broadcast shape, and the env with each coordinate array that spans the
    shape's last axis viewed as a PooledArray.  Arithmetic of the other
    coordinates alone cannot make an array of the full shape, so it (on a
    SphereGrid env, everything of t, r and th alone) stays plain ndarray
    arithmetic and pays no PooledArray operator."""
    env = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    shape = np.broadcast_shapes(*(v.shape for v in env.values()))
    _LOCAL.workspace.use(shape)
    return {k: v.view(PooledArray) if v.shape[-1:] == shape[-1:] else v
            for k, v in env.items()}


def _idle_refs() -> int:
    """sys.getrefcount of an array that only a list refers to, read as
    Workspace.take reads it."""
    buffers = [PooledArray(0)]
    return sys.getrefcount(buffers[0])


def _check_reuse() -> None:
    """Raise RuntimeError unless take hands out a buffer again once it is
    dropped, and never while a local or a view refers to it."""
    ws = Workspace()
    ws.use((2,))
    for _ in range(64):
        held = ws.take()
        view = ws.take()[:1]
        reused = ws.take()
        if reused is held or reused is view.base or len(ws.buffers) != 3:
            raise RuntimeError("imcvf.workspace needs sys.getrefcount to count every "
                               "reference, as a CPython build with the GIL does")
        del held, view, reused


_IDLE = _idle_refs()
_check_reuse()
