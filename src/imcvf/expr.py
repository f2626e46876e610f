"""Closed expression language over the chart coordinates (t, r, th, ph).

Every metric component is a ``FieldExpr``: an immutable AST that can be
evaluated at points (scalars or numpy arrays) and differentiated exactly.
Exact second derivatives are what the curvature formulas need, so there is
no finite differencing anywhere in this module.

Grammar (``^`` binds tighter than unary minus, and is right-associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    IDENT  := t | r | th | ph | pi | sin | cos | tan | exp | log | sqrt

Exponents must reduce to numeric constants at parse time.  Chart files may
supply named parameters; these are substituted as literals while parsing.
Derivative ASTs are built with constant folding but no other rewriting, so
they may grow.  A root list is compiled once into a flat ``Plan``, in which
structurally equal subtrees are one slot, and ``evaluate`` runs a plan in
one loop; a caller that evaluates the same roots again keeps the plan.

Expressions and plans are immutable and safe to evaluate from concurrent
threads; the per-node derivative cache is idempotent, so a rare duplicate
computation is the worst a race can produce.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from .tape import check_step

COORDS = ("t", "r", "th", "ph")
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

__all__ = ["FieldExpr", "COORDS", "FUNCTIONS", "Plan", "parse", "evaluate", "diff",
           "to_source", "lit", "var", "ZERO", "ONE"]


class FieldExpr:
    """Base class of all expression nodes. Immutable after construction."""

    __slots__ = ("_dcache",)
    prec = 5

    # -- construction sugar, used heavily when assembling metric formulas --
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, expo):
        return pow_(self, expo)

    def __repr__(self):
        return f"FieldExpr({_src(self, repr)!r})"

    def __str__(self):
        return _src(self, repr)


class Lit(FieldExpr):
    __slots__ = ("value",)
    prec = 5

    def __init__(self, value: float):
        self.value = float(value)


class Var(FieldExpr):
    __slots__ = ("name",)
    prec = 5

    def __init__(self, name: str):
        self.name = name


class Neg(FieldExpr):
    __slots__ = ("arg",)
    prec = 3

    def __init__(self, arg: FieldExpr):
        self.arg = arg


class Add(FieldExpr):
    __slots__ = ("left", "right")
    prec = 1

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Sub(FieldExpr):
    __slots__ = ("left", "right")
    prec = 1

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Mul(FieldExpr):
    __slots__ = ("left", "right")
    prec = 2

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Div(FieldExpr):
    __slots__ = ("left", "right")
    prec = 2

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Pow(FieldExpr):
    """base ^ expo with a constant float exponent."""

    __slots__ = ("base", "expo")
    prec = 4

    def __init__(self, base, expo: float):
        self.base = base
        self.expo = float(expo)


class Call(FieldExpr):
    __slots__ = ("fn", "arg")
    prec = 5

    def __init__(self, fn: str, arg: FieldExpr):
        self.fn = fn
        self.arg = arg


ZERO = Lit(0.0)
ONE = Lit(1.0)


def _coerce(x) -> FieldExpr:
    if isinstance(x, FieldExpr):
        return x
    if isinstance(x, (int, float)):
        return Lit(x)
    raise TypeError(f"cannot use {type(x).__name__} in a FieldExpr")


def lit(value: float) -> FieldExpr:
    return Lit(value)


def var(name: str) -> FieldExpr:
    if name not in COORDS:
        raise ValueError(f"unknown coordinate {name!r}")
    return Var(name)


# ---------------------------------------------------------------------------
# smart constructors: constant folding only, no algebraic rewriting
# ---------------------------------------------------------------------------

def _is(e, v):
    return isinstance(e, Lit) and e.value == v


def add(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value - b.value)
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    if _is(a, 0.0) or _is(b, 0.0):
        return ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if _is(a, -1.0):
        return neg(b)
    if _is(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a, b):
    # a zero denominator is an evaluation error, never a parse-time one,
    # so literal division by zero must survive folding as a Div node
    if isinstance(b, Lit) and b.value != 0.0:
        if isinstance(a, Lit):
            return Lit(a.value / b.value)
        if b.value == 1.0:
            return a
        if _is(a, 0.0):
            return ZERO
    elif _is(a, 0.0) and not isinstance(b, Lit):
        return ZERO
    return Div(a, b)


def neg(a):
    if isinstance(a, Lit):
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base, expo):
    if isinstance(expo, Lit):
        expo = expo.value
    if isinstance(expo, FieldExpr) or not math.isfinite(expo):
        raise ValueError("exponent must be a finite numeric constant")
    expo = float(expo)
    if expo == 0.0:
        return ONE
    if expo == 1.0:
        return base
    if isinstance(base, Lit):
        v = base.value
        if v > 0 or (expo == round(expo) and (v != 0.0 or expo > 0)):
            with np.errstate(all="ignore"):     # a result too large is +-inf
                return Lit(np.power(v, expo))
    return Pow(base, expo)


def call(fn, arg):
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Lit):
        with np.errstate(all="ignore"):         # inf or nan; the parser rejects both
            return Lit(_NUMPY_FN[fn](arg.value))
    return Call(fn, arg)


_NUMPY_FN = {"sin": np.sin, "cos": np.cos, "tan": np.tan,
             "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos,
                                  expected={"number", "identifier", "operator"})
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.i = 0
        self.params = params or {}
        self.huge = []      # offsets of number tokens beyond floating-point range

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind == "op" and value == op:
            return self.take()
        raise ExprSyntaxError(f"expected {op!r}, found {value or 'end of input'!r}",
                              pos, expected={op})

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = _fold(value, node, self.parse_term(), pos)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = _fold(value, node, self.parse_factor(), pos)
            else:
                return node

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return neg(self.parse_factor())
        node = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            expo = self.parse_factor()
            if not isinstance(expo, Lit):
                raise ExprSyntaxError("exponent must be a numeric constant", pos,
                                      expected={"constant exponent"})
            expo = _finite(expo, pos, "exponent", "finite constant")
            return _finite(pow_(node, expo.value), pos, "constant power", "finite constant")
        return node

    def parse_base(self):
        kind, value, pos = self.take()
        if kind == "num":
            if not math.isfinite(float(value)):
                self.huge.append((pos, value))
            return Lit(float(value))
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _finite(call(value, arg), pos, f"{value} of this constant",
                               f"argument of {value}")
            if value in COORDS:
                return Var(value)
            if value == "pi":
                return Lit(math.pi)
            if value in self.params:
                if isinstance(self.params[value], bool):
                    raise ExprSyntaxError(f"parameter {value!r} is a boolean, not a number",
                                          pos, expected={"finite parameter"})
                try:
                    number = float(self.params[value])
                except (TypeError, ValueError):
                    raise ExprSyntaxError(f"parameter {value!r} is not a number", pos,
                                          expected={"finite parameter"}) from None
                return _finite(Lit(number), pos, f"parameter {value!r}", "finite parameter")
            raise UnknownIdentifierError(
                f"unknown identifier {value!r}", pos,
                expected=set(COORDS) | set(FUNCTIONS) | {"pi"} | set(self.params))
        raise ExprSyntaxError(f"expected a value, found {value or 'end of input'!r}",
                              pos, expected={"number", "identifier", "'('", "'-'"})


def _finite(node, pos, what, expected):
    """node, unless it is a constant folded to inf or nan: then an
    ExprSyntaxError at pos, the offset of the operator, function name or
    parameter name."""
    if isinstance(node, Lit) and not math.isfinite(node.value):
        raise ExprSyntaxError(f"{what} is not a finite number", pos, expected={expected})
    return node


_BINARY = {"+": add, "-": sub, "*": mul, "/": div}


def _fold(op, a, b, pos):
    """a op b.  Two finite constants that fold to inf or nan are an
    ExprSyntaxError at pos, the operator's offset; an operand that is
    already inf is a number beyond range, reported where it stands."""
    node = _BINARY[op](a, b)
    if all(isinstance(x, Lit) and math.isfinite(x.value) for x in (a, b)):
        return _finite(node, pos, f"constant {a.value!r} {op} {b.value!r}",
                       "finite constant")
    return node


def parse(source: str, params=None) -> FieldExpr:
    """Parse expression text into a FieldExpr.

    ``params`` maps parameter names to numbers substituted at parse time.
    Raises ExprSyntaxError (with byte offset and the expected-token set) on
    malformed input, on a parameter used with an inf or nan value (the
    offset is the name's), on constant subexpressions that cannot be
    folded to a finite number (``4^512``, ``1e308*10``, ``log(0)``; the
    offset is that of the operator or function name) and on a number beyond
    floating-point range that no such operator reports (``1e400*r``; the
    offset is the number's), UnknownIdentifierError on unresolved names.
    """
    parser = _Parser(_tokenize(source), params)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", pos, expected={"end of input"})
    if parser.huge:
        pos, value = parser.huge[0]
        raise ExprSyntaxError(f"number {value!r} is beyond floating-point range", pos,
                              expected={"finite number"})
    return node


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(expr, env):
    """Evaluate at a point.  ``env`` maps coordinate names to scalars or
    numpy arrays (broadcast together).  Returns float for scalar input.

    ``expr`` may also be a sequence of expressions, or a Plan compiled from
    one: the roots are evaluated in one pass over the plan, so a subtree
    they have in common is computed once, and the results come back as a
    list.  Each result has the broadcast shape of the coordinates it reads,
    so on a separable env it is at most the env's broadcast shape; a
    constant is a float.

    Domain violations (division by zero, log of non-positive, sqrt of
    negative, zero to a negative power) raise EvalDomainError.
    """
    if isinstance(expr, FieldExpr):
        return evaluate([expr], env)[0]
    plan = expr if isinstance(expr, Plan) else Plan(expr)
    vals, point = _run(plan, env)
    values = [vals[s] for s in plan.roots]
    return [float(v) for v in values] if point else values


# slot 0 holds the env of a run; a check step writes its None to slot 1
_ENV, _SINK = 0, 1


class Plan:
    """A root list compiled once into one flat sequence of steps.

    The nodes are visited in the order a recursive evaluation takes (left
    operand first, a denominator before its numerator), so domain errors,
    each a check step of its own, are raised in that order, and
    structurally equal subtrees share one slot.  A literal is keyed on its
    value and its sign bit, so -0.0 and 0.0 keep their own slots.  Each
    step is (fn, out, a, b, free): slot out gets fn(slot a), or fn(slot a,
    slot b), and then the slots it is the last to read are released,
    unless the env is a point.  Each node applies the numpy function it
    would apply alone to the same operands, so its value holds the same
    bits.  A plan is immutable and may be run from concurrent threads.

    ``roots`` are the result slots, in the order of the roots given, and
    ``coords`` the coordinates the roots read, in the order first read."""

    __slots__ = ("steps", "consts", "roots", "coords")

    def __init__(self, exprs):
        exprs = list(exprs)         # alive while seen is keyed on their ids
        consts = [None, None]
        steps = []                  # (fn, out, a, b), in evaluation order
        slots = {}                  # structural key -> slot
        seen = {}                   # id(node) -> slot
        coords = []
        seen_get, slots_get = seen.get, slots.get

        def slot(key, fn, a, b, guard=None):
            s = slots_get(key)
            if s is None:
                s = slots[key] = len(consts)
                consts.append(None)
                if guard is not None:       # a domain check before the step
                    steps.append((guard, _SINK, a, b))
                steps.append((fn, s, a, b))
            return s

        def const(value):
            key = (value, math.copysign(1.0, value))
            s = slots_get(key)
            if s is None:
                s = slots[key] = len(consts)
                consts.append(value)
            return s

        def visit(e):
            # one frame per level of the tree, as a recursive evaluation takes
            s = seen_get(id(e))
            if s is not None:
                return s
            t = type(e)
            fn = _BINARY_FN.get(t)
            if fn is not None:
                a = visit(e.left)
                b = visit(e.right)
                s = slot((fn, a, b), fn, a, b)
            elif t is Lit:
                s = const(e.value)
            elif t is Var:
                s = slots_get(e.name)
                if s is None:
                    coords.append(e.name)
                    s = slot(e.name, _loader(e.name), _ENV, None)
            elif t is Div:
                b = visit(e.right)
                steps.append((_nonzero, _SINK, b, None))    # before the numerator
                a = visit(e.left)
                if (operator.truediv, a, b) in slots:
                    steps.pop()     # an equal quotient: its numerator took no steps
                s = slot((operator.truediv, a, b), operator.truediv, a, b)
            elif t is Neg:
                a = visit(e.arg)
                s = slot((operator.neg, a), operator.neg, a, None)
            elif t is Pow:
                a = visit(e.base)
                k = const(e.expo)
                s = slot((np.power, a, k), np.power, a, k, _pow_domain)
            elif t is Call:
                fn = _NUMPY_FN[e.fn]
                a = visit(e.arg)
                s = slot((fn, a), fn, a, None, _DOMAIN.get(e.fn))
            else:  # pragma: no cover
                raise TypeError(f"not a FieldExpr node: {e!r}")
            seen[id(e)] = s
            return s

        self.roots = tuple(visit(e) for e in exprs)
        self.consts = consts
        self.coords = tuple(coords)
        # free: the computed slots outside the roots this step reads last
        last, keep = {}, {*self.roots, _SINK}
        for i, (_, _, a, b) in enumerate(steps):
            last[a] = last[b] = i
        free = [()] * len(steps)
        for _, out, _, _ in steps:
            if out not in keep:
                free[last[out]] += (out,)
        self.steps = tuple((*step, f) for step, f in zip(steps, free))


def _run(plan: Plan, env) -> tuple:
    """(every slot of plan after one pass over env, whether env is a
    point).  At a point (every env value 0-d) nothing is worth releasing,
    so every slot keeps its value."""
    point = all(np.ndim(v) == 0 for v in env.values())
    vals = plan.consts.copy()
    vals[_ENV] = env
    for fn, out, a, b, free in plan.steps:
        vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        if free and not point:
            for x in free:
                vals[x] = None
    return vals, point


def _loader(name):
    def load(env):
        try:
            return env[name]
        except KeyError:
            raise EvalDomainError(f"no value supplied for coordinate {name!r}") from None
    return load


@check_step
def _nonzero(den):
    if np.any(den == 0.0):
        raise EvalDomainError("division by zero")


@check_step
def _pow_domain(base, k):
    if k != round(k) and np.any(base < 0.0):
        raise EvalDomainError(f"negative base for exponent {k}")
    if k < 0 and np.any(base == 0.0):
        raise EvalDomainError(f"zero base for negative exponent {k}")


@check_step
def _log_domain(arg):
    if np.any(arg <= 0.0):
        raise EvalDomainError("log of a non-positive value")


@check_step
def _sqrt_domain(arg):
    if np.any(arg < 0.0):
        raise EvalDomainError("sqrt of a negative value")


_DOMAIN = {"log": _log_domain, "sqrt": _sqrt_domain}
_BINARY_FN = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def diff(expr: FieldExpr, v: str) -> FieldExpr:
    """Exact partial derivative d(expr)/dv.  Total on every valid AST;
    mixed partials commute.  Results are cached on the nodes."""
    if v not in COORDS:
        raise ValueError(f"cannot differentiate with respect to {v!r}")
    return _d(expr, v)


def _d(e, v):
    cache = getattr(e, "_dcache", None)
    if cache is None:
        cache = {}
        e._dcache = cache
    hit = cache.get(v)
    if hit is not None:
        return hit
    t = type(e)
    if t is Lit:
        out = ZERO
    elif t is Var:
        out = ONE if e.name == v else ZERO
    elif t is Add:
        out = add(_d(e.left, v), _d(e.right, v))
    elif t is Sub:
        out = sub(_d(e.left, v), _d(e.right, v))
    elif t is Mul:
        out = add(mul(_d(e.left, v), e.right), mul(e.left, _d(e.right, v)))
    elif t is Div:
        # (a/b)' = a'/b - a b'/b^2
        out = sub(div(_d(e.left, v), e.right),
                  div(mul(e.left, _d(e.right, v)), pow_(e.right, 2.0)))
    elif t is Neg:
        out = neg(_d(e.arg, v))
    elif t is Pow:
        out = mul(mul(Lit(e.expo), pow_(e.base, e.expo - 1.0)), _d(e.base, v))
    elif t is Call:
        inner = _d(e.arg, v)
        if e.fn == "sin":
            outer = call("cos", e.arg)
        elif e.fn == "cos":
            outer = neg(call("sin", e.arg))
        elif e.fn == "tan":
            outer = div(ONE, pow_(call("cos", e.arg), 2.0))
        elif e.fn == "exp":
            outer = e
        elif e.fn == "log":
            outer = div(ONE, e.arg)
        else:  # sqrt
            outer = div(Lit(0.5), e)
        out = mul(outer, inner)
    else:  # pragma: no cover
        raise TypeError(f"not a FieldExpr node: {e!r}")
    cache[v] = out
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def to_source(expr: FieldExpr) -> str:
    """Render to text that reparses to an equivalent expression.  Raises
    ValueError on a literal that is inf or nan, which has no such text;
    str and repr print it as inf or nan."""
    return _src(expr, _source_float)


def _source_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"literal {value!r} has no text that parses")
    return repr(value)


def _paren(child, need, fmt):
    s = _src(child, fmt)
    return f"({s})" if child.prec < need else s


def _src(e, fmt):
    """The text of e, with fmt printing each float."""
    t = type(e)
    if t is Lit:
        if e.value < 0:
            return f"(-{fmt(-e.value)})"
        return fmt(e.value)
    if t is Var:
        return e.name
    if t is Add:
        return f"{_paren(e.left, 1, fmt)} + {_paren(e.right, 1, fmt)}"
    if t is Sub:
        return f"{_paren(e.left, 1, fmt)} - {_paren(e.right, 2, fmt)}"
    if t is Mul:
        return f"{_paren(e.left, 2, fmt)}*{_paren(e.right, 3, fmt)}"
    if t is Div:
        return f"{_paren(e.left, 2, fmt)}/{_paren(e.right, 3, fmt)}"
    if t is Neg:
        return f"-{_paren(e.arg, 3, fmt)}"
    if t is Pow:
        base = _src(e.base, fmt)
        if e.base.prec < 5:
            base = f"({base})"
        k = e.expo
        ks = fmt(k) if k >= 0 else f"(-{fmt(-k)})"
        return f"{base}^{ks}"
    if t is Call:
        return f"{e.fn}({_src(e.arg, fmt)})"
    raise TypeError(f"not a FieldExpr node: {e!r}")  # pragma: no cover
