"""Tapes: a program of numpy arithmetic recorded once as a flat step list
and replayed on static per-thread buffers (a tape in the sense of AD
tools, replayed forward: Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008, ch. 6).

``record`` runs the program on Operands, which stand for arrays of a
shape and hold no data: each ufunc of _UFUNCS and each np.sum applied to
one is logged with the slots of its operands, a number in one slot per
type and value, and a ``check_step`` in its place in the order.  A step
the program repeats, the same function of the same operands, is logged
once and its value read again (value numbering), and so is a repeated
check.  A branch on a recorded value, a constant array (an array the
program reads must be an input) or any other operation raises
RecordingError.  Compiling keeps the steps the result or a check reads
and gives each array value a buffer by linear scan over last readers
(Poletto & Sarkar, ACM TOPLAS 21(5), 1999): a buffer is free once its
value's last reader has read it, and that step may write into it.  A
buffer is known by the axes of the inputs' broadcast shape it spans, so a
tape replays any inputs of the signature it was recorded on; recording
runs on a few nodes an axis.

``Tape.run`` applies each step's function to the same operands in the
same order as the program, with ``out`` its buffer, so every value has
the bits of the plain arithmetic.  A thread keeps buffers for one
broadcast shape, as many of each shape as the largest tape it ran needs.
"""

from __future__ import annotations

import functools
import numbers
import threading

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

__all__ = ["RecordingError", "Tape", "check_step", "record", "signature"]

_UFUNCS = frozenset({np.add, np.subtract, np.multiply, np.true_divide, np.negative,
                     np.square, np.sqrt, np.power, np.sin, np.cos, np.tan, np.exp, np.log})


class RecordingError(RuntimeError):
    """The program does what a replay of its steps could not repeat."""


class _Unreachable(Exception):
    """A check of constants failed: no replay gets past it."""


_RECORDING = threading.local()


def check_step(check):
    """Mark check(*args), which raises on bad data, as a step of a tape
    recording on the calling thread; otherwise it runs at once."""
    @functools.wraps(check)
    def step(*args):
        recorder = getattr(_RECORDING, "recorder", None)
        if recorder is None:
            return check(*args)
        recorder.check(check, args)
    return step


def _operator(ufunc, reflected=False):
    if reflected:
        return lambda self, other: self.recorder.step(ufunc, (other, self))
    return lambda self, other: self.recorder.step(ufunc, (self, other))


class Operand(NDArrayOperatorsMixin):
    """A recorded value: the shape of an array and its slot on the tape."""

    __slots__ = ("recorder", "slot", "shape")

    def __init__(self, recorder, slot: int, shape: tuple):
        self.recorder, self.slot, self.shape = recorder, slot, shape

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _UFUNCS:
            raise RecordingError(f"np.{ufunc.__name__}.{method} of a recorded value is not "
                                 "a step; a test of the data must be a check_step")
        return self.recorder.step(ufunc, args)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.shape or func is np.ndim:
            return self.shape if func is np.shape else len(self.shape)
        if func is not np.sum or len(args) != 1 or kwargs:
            raise RecordingError(f"np.{func.__name__} of a recorded value is not a step; "
                                 "a test of the data must be a check_step")
        return self.recorder.step(np.sum, args, ())

    def __pow__(self, k):
        if type(k) in (int, float) and k == 2 and self.shape:   # ndarray's ** 2
            return self.recorder.step(np.square, (self,))
        raise RecordingError(f"** {k!r} of a recorded value is not a step")

    # the operators a program spends its steps on log the ufunc the mixin
    # would call, without numpy's dispatch to __array_ufunc__
    __add__, __radd__ = _operator(np.add), _operator(np.add, reflected=True)
    __sub__, __rsub__ = _operator(np.subtract), _operator(np.subtract, reflected=True)
    __mul__, __rmul__ = _operator(np.multiply), _operator(np.multiply, reflected=True)
    __truediv__ = _operator(np.true_divide)
    __rtruediv__ = _operator(np.true_divide, reflected=True)

    def __neg__(self):
        return self.recorder.step(np.negative, (self,))

    def _needs_data(self, *args, **kwargs):
        raise RecordingError("a recorded value holds no data: a test of it must be a "
                             "check_step")

    __bool__ = __float__ = __int__ = __index__ = __array__ = __len__ = __iter__ = \
        __getitem__ = _needs_data


class _Recorder:
    """Logs a program's steps; a number is one operand per type and value,
    so that a repeated step is known by its function and operand slots,
    and a repeated check, which passes where its first run passed, too."""

    def __init__(self):
        self.consts, self.shapes = [], []   # per slot: constant or None, and shape
        self.steps, self.inputs = [], []    # steps (fn, out slot or None for a check, args)
        self.numbers, self.values = {}, {}  # a number's slot; (fn, slots) -> out slot or None

    def slot(self, const, shape) -> int:
        self.consts.append(const)
        self.shapes.append(shape)
        return len(self.consts) - 1

    def operands(self, args) -> tuple:
        slots = []
        for x in args:
            if type(x) is Operand and x.recorder is self:
                slots.append(x.slot)
            elif isinstance(x, (numbers.Number, np.generic)) and x == x:   # not nan
                key = (type(x), repr(x))
                if key not in self.numbers:
                    self.numbers[key] = self.slot(x, ())
                slots.append(self.numbers[key])
            elif isinstance(x, (numbers.Number, np.generic, np.ndarray)) and not np.ndim(x):
                slots.append(self.slot(x, ()))
            else:
                raise RecordingError(f"a constant of shape {np.shape(x)} in a step: an "
                                     "array the program reads must be an input")
        return tuple(slots)

    def step(self, fn, args, shape=None) -> Operand:
        """fn(*args) logged; its value of shape, by default the operands'."""
        slots = self.operands(args)
        out = self.values.get((fn, slots))
        if out is None:
            if shape is None:
                shape = _broadcast(*(self.shapes[s] for s in slots))
            out = self.values[fn, slots] = self.slot(None, shape)
            self.steps.append((fn, out, slots))
        return Operand(self, out, self.shapes[out])

    def check(self, fn, args) -> None:
        """fn(*args) logged; a check of constants, alike on every replay,
        runs now, and one that fails is the tape's last step."""
        slots = self.operands(args)
        if any(type(a) is Operand for a in args):
            if (fn, slots) not in self.values:
                self.values[fn, slots] = None
                self.steps.append((fn, None, slots))
            return
        try:
            fn(*args)
        except Exception:
            self.steps.append((fn, None, slots))
            raise _Unreachable from None

    def compile(self, result) -> Tape:
        sink = len(self.consts)             # where checks write their None
        result = sink if result is None else result.slot
        live, kept = {result}, []
        for fn, out, args in reversed(self.steps):
            if out is None or out in live:
                kept.append((fn, out, args))
                live.update(args)
        kept.reverse()
        last = {a: i for i, (_, _, args) in enumerate(kept) for a in args}
        shapes, steps, buffer_slots, axes_of, free, held = self.shapes, [], [], [], {}, {}
        for i, (fn, out, args) in enumerate(kept):
            for a in args:                  # free what this step reads last
                if last[a] == i and a in held:
                    b = held.pop(a)
                    free[shapes[a]].append(b)
            a, b = args if len(args) == 2 else (args[0], None)
            if out is None:
                steps.append((fn, sink, a, b, False))
                continue
            shape = shapes[out]
            into = out != result and shape != ()
            if into:                        # the most recently freed buffer first;
                pool = free.get(shape)      # a recorded shape stands for its axes
                if pool is None:
                    pool = free[shape] = []
                if not pool:
                    pool.append(len(axes_of))
                    axes_of.append(tuple(n != 1 for n in shape))
                held[out] = k = pool.pop()
                buffer_slots.append((out, k))
            steps.append((fn, out, a, b, into))
        return Tape(tuple(steps), [*self.consts, None], tuple(self.inputs), result,
                    tuple(axes_of), tuple(buffer_slots))


def _broadcast(shape, other=()):
    """The broadcast shape of two recorded shapes.  An axis a recorded
    value spans has the same number of nodes in every value (record), so
    the broadcast takes the larger count axis by axis."""
    if len(shape) < len(other):
        shape, other = other, shape
    if shape == other or not other:
        return shape
    n = len(shape) - len(other)
    return shape[:n] + tuple(map(max, shape[n:], other))


def _leaves(inputs):
    for x in inputs:
        yield from x.values() if isinstance(x, dict) else (x,)


def _axes(x) -> tuple:
    return tuple(n != 1 for n in np.shape(x))


def signature(inputs) -> tuple:
    """The key of a tape of inputs: their structure, a dict input by its
    keys, and the axes each array spans."""
    return tuple(tuple((k, _axes(v)) for k, v in x.items()) if isinstance(x, dict)
                 else _axes(x) for x in inputs)


def record(program, inputs) -> Tape:
    """The tape of program(*inputs), for inputs (arrays, numbers and dicts
    of them) of their signature; the program never sees their data."""
    recorder = _Recorder()
    rank = max(map(np.ndim, _leaves(inputs)), default=0)

    def operand(x):   # axis k of the broadcast shape gets 2 + k nodes where x spans it
        axes = _axes(x)
        shape = tuple(2 + rank - len(axes) + i if spans else 1 for i, spans in enumerate(axes))
        recorder.inputs.append(recorder.slot(None, shape))
        return Operand(recorder, recorder.inputs[-1], shape)

    operands = [{k: operand(v) for k, v in x.items()} if isinstance(x, dict) else operand(x)
                for x in inputs]
    _RECORDING.recorder = recorder
    try:
        result = program(*operands)
        if type(result) is not Operand:
            raise RecordingError("the program's result is not a value it recorded")
    except _Unreachable:
        result = None
    finally:
        _RECORDING.recorder = None
    return recorder.compile(result)


class Tape:
    """Steps (fn, out, a, b, into): slot out gets fn(slot a[, slot b]), or,
    into, fn writes it into the buffer slot out holds.  Immutable; each
    thread runs it on its own buffers."""

    __slots__ = ("steps", "consts", "inputs", "result", "buffers", "buffer_slots")

    def __init__(self, steps, consts, inputs, result, buffers, buffer_slots):
        self.steps, self.consts, self.inputs, self.result = steps, consts, inputs, result
        self.buffers = buffers              # per buffer, the axes it spans
        self.buffer_slots = buffer_slots    # (slot, buffer) of each buffered value

    def run(self, *inputs):
        """The program's result on inputs of the tape's signature."""
        leaves = list(_leaves(inputs))
        v = _frame(self, np.broadcast_shapes(*map(np.shape, leaves)))
        for slot, x in zip(self.inputs, leaves):
            v[slot] = x
        for fn, out, a, b, into in self.steps:
            if into:
                fn(v[a], v[out]) if b is None else fn(v[a], v[b], v[out])
            else:
                v[out] = fn(v[a]) if b is None else fn(v[a], v[b])
        return v[self.result]


_BUFFERS = threading.local()


def _frame(tape: Tape, shape) -> list:
    """The slots of a run of tape on the calling thread, each buffered one
    holding its buffer for inputs of broadcast shape; the thread's arrays
    of another shape are dropped."""
    local = _BUFFERS
    if getattr(local, "key", None) == (tape, shape):
        return local.frame
    if getattr(local, "shape", None) != shape:
        local.shape, local.arrays = shape, {}
    arrays, taken = [], {}
    for axes in tape.buffers:
        size = tuple(n if spans else 1 for n, spans in zip(shape[len(shape) - len(axes):], axes))
        pool = local.arrays.setdefault(size, [])
        taken[size] = k = taken.get(size, -1) + 1
        if k == len(pool):
            pool.append(np.empty(size))
        arrays.append(pool[k])
    local.frame = list(tape.consts)
    for slot, b in tape.buffer_slots:
        local.frame[slot] = arrays[b]
    local.key = (tape, shape)
    return local.frame
