"""Parser, evaluator and symbolic differentiation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcvf.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from imcvf.expr import COORDS, diff, evaluate, lit, parse, to_source, var


def ev(src, **coords):
    return evaluate(parse(src), coords)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_literal():
    assert ev("1") == 1.0


def test_parse_product_shape():
    e = parse("r^2*sin(th)")
    assert ev("r^2*sin(th)", r=3.0, th=math.pi / 2) == pytest.approx(9.0)
    assert "sin" in to_source(e)


def test_parse_nested_eval():
    val = ev("r^2*(1+0.1*sin(th)^2*cos(ph))", t=0.0, r=2.0, th=math.pi / 2, ph=0.0)
    assert val == pytest.approx(4.4, abs=1e-14)


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("-2^2") == -4.0          # ^ binds tighter than unary minus
    assert ev("(-2)^2") == 4.0
    assert ev("2^3^2") == 512.0        # right-associative
    assert ev("8/4/2") == 1.0          # / left-associative
    assert ev("1-2-3") == -4.0


def test_pi_constant():
    assert ev("cos(pi)") == pytest.approx(-1.0)


def test_params_substitution():
    e = parse("1+m/(2*r)", params={"m": 3.0})
    assert evaluate(e, {"r": 1.5}) == pytest.approx(2.0)


@pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_parameter_is_a_syntax_error(q):
    """A parameter is substituted as a literal, so an inf or nan value is
    reported at the parameter's name like any constant that is not finite,
    never parsed into an inf literal; an unused one is not read."""
    with pytest.raises(ExprSyntaxError) as info:
        parse("2*r + q*r", params={"q": q})
    assert info.value.offset == 6
    assert to_source(parse("2*r", params={"q": q})) == "2.0*r"


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("r^2*")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("sin th")
    with pytest.raises(ExprSyntaxError):
        parse("r^th")  # non-constant exponent


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("r + q")
    assert "q" in str(exc.value)
    assert "r" in exc.value.expected


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert ev("sin(th)", th=math.pi / 2) == pytest.approx(1.0)
    assert ev("r^2", r=3.0) == 9.0
    assert ev("exp(t)*r", t=1.0, r=2.0) == pytest.approx(2.0 * math.e)


def test_eval_vectorized():
    r = np.linspace(1.0, 5.0, 7)
    out = evaluate(parse("r^2+1"), {"r": r})
    np.testing.assert_allclose(out, r**2 + 1)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("1/(r-1)", r=1.0)
    with pytest.raises(EvalDomainError):
        ev("log(t)", t=0.0)
    with pytest.raises(EvalDomainError):
        ev("sqrt(t)", t=-1.0)
    with pytest.raises(EvalDomainError):
        ev("t^(-1)", t=0.0)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_diff_chain_rule():
    e = diff(parse("r^2*sin(th)"), "th")
    assert evaluate(e, {"r": 2.0, "th": 0.0}) == pytest.approx(4.0)  # r^2 cos(0)


def test_diff_constant():
    assert evaluate(diff(parse("1"), "r"), {"r": 5.0}) == 0.0


def test_diff_value_example():
    e = diff(parse("r^4*sin(th)^2"), "th")
    assert evaluate(e, {"r": 1.0, "th": math.pi / 4}) == pytest.approx(1.0)


def test_mixed_partials_commute():
    e = parse("exp(t*r)*sin(th)^3/(1+r^2)")
    env = {"t": 0.3, "r": 1.7, "th": 1.1, "ph": 0.2}
    for x in COORDS:
        for y in COORDS:
            d1 = evaluate(diff(diff(e, x), y), env)
            d2 = evaluate(diff(diff(e, y), x), env)
            assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-12)


def test_diff_linearity():
    a, b = parse("sin(th)*r"), parse("cos(th)/r")
    env = {"r": 2.0, "th": 0.7}
    lhs = evaluate(diff(a + b, "th"), env)
    rhs = evaluate(diff(a, "th"), env) + evaluate(diff(b, "th"), env)
    assert lhs == pytest.approx(rhs, rel=1e-14)


# random-expression agreement with centered finite differences
_RNG = np.random.default_rng(20240817)


def _random_expr(depth, rng):
    if depth == 0:
        return rng.choice(["t", "r", "th", f"{rng.uniform(0.2, 3.0):.3f}"])
    a = _random_expr(depth - 1, rng)
    b = _random_expr(depth - 1, rng)
    op = rng.choice(["+", "-", "*", "fn", "pow"])
    if op == "fn":
        fn = rng.choice(["sin", "cos", "exp"])
        return f"{fn}(0.3*({a}))"
    if op == "pow":
        return f"({a})^{int(rng.integers(1, 4))}"
    return f"({a}){op}({b})"


@pytest.mark.parametrize("trial", range(25))
def test_diff_matches_finite_differences(trial):
    rng = np.random.default_rng(1000 + trial)
    src = _random_expr(3, rng)
    e = parse(src)
    h = 1e-5
    for v in ("t", "r", "th"):
        env = {"t": rng.uniform(0.1, 1.0), "r": rng.uniform(1.0, 3.0),
               "th": rng.uniform(0.5, 2.5), "ph": rng.uniform(0.0, 6.0)}
        up = dict(env)
        dn = dict(env)
        up[v] += h
        dn[v] -= h
        fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        exact = evaluate(diff(e, v), env)
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("trial", range(10))
def test_evaluate_sequence_matches_one_by_one(trial):
    """One pass over many expressions (shared subtrees, repeated roots,
    values released after their last reader) gives each one's own value."""
    rng = np.random.default_rng(2000 + trial)
    e = parse(_random_expr(3, rng))
    exprs = [e, diff(e, "r"), diff(diff(e, "r"), "th"), e * e, diff(e, "r")]
    env = {"t": np.full((1, 1), 0.4), "r": np.linspace(1.0, 3.0, 5)[:, None],
           "th": np.linspace(0.5, 2.5, 7)[None, :]}
    for together, alone in zip(evaluate(exprs, env), exprs):
        np.testing.assert_array_equal(together, evaluate(alone, env))


def test_point_evaluation_skips_the_reader_walk(monkeypatch):
    """A 0-d env keeps every value, so it needs no reader counts; the
    values are those of the counted pass, bit for bit."""
    from imcvf import expr as expr_mod

    rng = np.random.default_rng(77)
    e = parse(_random_expr(3, rng))
    exprs = [e, diff(e, "r"), diff(diff(e, "r"), "th"), e * e, diff(e, "r")]
    point = {"t": 0.4, "r": np.float64(1.7), "th": np.array(0.9), "ph": 0.3}
    counted = [expr_mod._ev(x, point, {}, expr_mod._reader_counts(exprs)) for x in exprs]
    grid = {k: np.full((2, 3), float(v)) for k, v in point.items()}

    calls = []
    walk = expr_mod._reader_counts
    monkeypatch.setattr(expr_mod, "_reader_counts", lambda roots: calls.append(1) or walk(roots))
    assert evaluate(exprs, point) == [float(v) for v in counted]
    assert evaluate(e, point) == float(counted[0])
    assert calls == []
    evaluate(exprs, grid)
    assert calls == [1]


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

_SOURCES = [
    "r^2*sin(th)",
    "1+0.5*cos(ph)-t",
    "-r^2",
    "r^(-2)",
    "(1-2/r)^(-0.5)",
    "exp(t)*log(r)/sqrt(1+th^2)",
    "tan(th/4)",
    "2^3^2",
    "1.7976931348623157e308*sin(th)/r",
    "5e-324*r",
    "a" .replace("a", "t-r-th"),
]


@pytest.mark.parametrize("src", _SOURCES)
def test_roundtrip_fixed(src):
    e = parse(src)
    e2 = parse(to_source(e))
    env = {"t": 0.4, "r": 2.3, "th": 1.2, "ph": 0.8}
    v1, v2 = evaluate(e, env), evaluate(e2, env)
    assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    src = _random_expr(int(rng.integers(1, 4)), rng)
    e = parse(src)
    e2 = parse(to_source(e))
    env = {"t": rng.uniform(0.1, 1.0), "r": rng.uniform(1.0, 3.0),
           "th": rng.uniform(0.5, 2.5), "ph": rng.uniform(0.0, 6.0)}
    v1, v2 = evaluate(e, env), evaluate(e2, env)
    assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-15)


def test_roundtrip_of_derivative_trees():
    e = parse("exp(t*r)*sin(th)^3/(1+r^2)")
    d = diff(diff(e, "r"), "th")
    d2 = parse(to_source(d))
    env = {"t": 0.2, "r": 1.4, "th": 0.9}
    assert evaluate(d2, env) == pytest.approx(evaluate(d, env), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="tr hp()+-*/^.0123456789sincoexpqlg", max_size=40))
def test_parser_total_on_garbage(source):
    """Arbitrary input either parses or raises the structured syntax error,
    never anything else."""
    from imcvf.errors import ExprSyntaxError
    try:
        parse(source)
    except ExprSyntaxError:
        pass


@pytest.mark.parametrize("source, offset", [
    ("4^512", 1), ("10^400", 2), ("exp(1000)", 0), ("log(0)", 0), ("sqrt(0-1)", 0),
    ("1e400^2", 5), ("exp(1e400)", 0), ("(0-2)^1e400", 5), ("r^(1e400-1e400)", 1),
    ("1e400*r", 0), ("r + 2e999", 4), ("1/1e400", 2), ("sin(th)*1e400^0", 8),
    ("1e308*10*r", 5), ("1e308+1e308+r", 5), ("1e308/1e-10*r", 5), ("-1e308-1e308+r", 6)])
def test_unfoldable_constant_is_a_syntax_error(source, offset):
    """Constant folding that overflows, leaves the domain or starts from a
    literal that is already inf is reported at the operator or function
    name, never as OverflowError/ValueError and never folded to inf; so is
    an exponent that is not finite.  A literal beyond floating-point range
    that no such operator reports is an error at its own offset, never an
    inf that to_source would print as the unknown identifier inf."""
    with pytest.raises(ExprSyntaxError) as info:
        parse(source)
    assert info.value.offset == offset


def test_to_source_refuses_a_non_finite_literal():
    """The Python API can fold an inf literal; to_source has no text for it
    that parses, so it raises, while str and repr still show it."""
    e = lit(1e308) * 10 * var("r")
    with pytest.raises(ValueError):
        to_source(e)
    with pytest.raises(ValueError):
        to_source(lit(float("nan")))
    assert str(e) == "inf*r"


@pytest.mark.parametrize("source, derivative", [
    ("r/1e200", "1e-200"), ("exp(r)/1e160", "exp(r)/1e160")])
def test_diff_total_on_large_literals(source, derivative):
    """The quotient rule squares the literal denominator; a square that
    overflows folds to inf and is annihilated by its zero numerator, so
    diff returns the exact derivative instead of raising OverflowError."""
    d = diff(parse(source), "r")
    for r in (0.5, 2.0):
        assert evaluate(d, {"r": r}) == pytest.approx(ev(derivative, r=r), rel=1e-15)


def test_literal_zero_division_is_an_evaluation_error():
    e = parse("1/(2-2)")
    with pytest.raises(EvalDomainError):
        evaluate(e, {})
    e2 = parse("(1-1)^(-2)")
    with pytest.raises(EvalDomainError):
        evaluate(e2, {})


@pytest.mark.parametrize("build", [
    lambda: lit(-2.0) ** float("inf"),
    lambda: evaluate(var("r") ** float("inf"), {"r": 2.0}),
    lambda: var("r") ** float("nan")])
def test_pow_rejects_non_finite_exponent(build):
    with pytest.raises(ValueError, match="finite numeric constant"):
        build()
