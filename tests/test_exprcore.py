import copy
import dataclasses
import math
import pickle
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import BUILTIN_NAMES, get_builtin

from conftest import CORPUS, CORPUS_PARAMS, random_contexts
from dual_interpreter import (Dual, eval_dual, evaluate_interpreted,
                              grad_q_interpreted, grad_v_interpreted)
import parser_oracle


def ctx1(q, v, **params):
    return xc.EvalContext((q,), (v,), params)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_and_eval_basic():
    e = xc.parse("2*q1 + v1^2")
    assert xc.evaluate(e, xc.EvalContext((3.0,), (2.0,))) == 10.0


def test_parse_abs_power():
    e = xc.parse("c*abs(v1)^3")
    assert xc.evaluate(e, ctx1(0.0, -2.0, c=0.5)) == 4.0


def test_parse_error_truncated_call():
    src = "pow(q1,"
    with pytest.raises(xc.ParseError) as exc:
        xc.parse(src)
    assert exc.value.offset == len(src)
    assert "expression" in exc.value.expected


_POSITIONED_ERRORS = ["", "1 +", "sin()", "foo(1)", "1.2.3", "(q1",
                      "q1 @ v1"]


@pytest.mark.parametrize("src", _POSITIONED_ERRORS)
def test_parse_error_has_position(src):
    with pytest.raises(xc.ParseError) as exc:
        xc.parse(src)
    assert 0 <= exc.value.offset <= len(src)


@pytest.mark.parametrize("src, offset", [("1e400*v1", 0),
                                         ("2*v1 + 1.5E999", 7)])
def test_overflowing_literal_is_a_parse_error_at_its_offset(src, offset):
    with pytest.raises(xc.ParseError, match="overflows a double") as exc:
        xc.parse(src)
    assert exc.value.offset == offset


def test_unary_minus_binds_looser_than_power():
    # -x^2 reads as -(x^2)
    e = xc.parse("-v1^2")
    assert xc.evaluate(e, ctx1(0.0, 2.0)) == -4.0
    assert xc.evaluate(xc.parse("(-v1)^2"), ctx1(0.0, 2.0)) == 4.0


def test_power_right_associative():
    assert xc.evaluate(xc.parse("2^3^2"), xc.EvalContext((), ())) == 512.0


def test_subtraction_left_associative():
    assert xc.evaluate(xc.parse("1-2-3"), xc.EvalContext((), ())) == -4.0


def test_to_source_round_trip_corpus():
    for src in CORPUS:
        node = xc.parse(src)
        assert xc.parse(xc.to_source(node)) == node


def _parsed(parse, src):
    """The AST of src, or the (message, offset, expected) of its error."""
    try:
        return parse(src)
    except xc.ParseError as e:
        return str(e), e.offset, e.expected


# every parse error of the tests above, and one of each message and
# expected tuple that they do not raise
_ERROR_CASES = _POSITIONED_ERRORS + [
    "pow(q1,", "1e400*v1", "2*v1 + 1.5E999", "1e400*v1^2", ".", ".e5",
    "1 2", "(1 2", "sin(1 2)", "sin(1, 2)", "q1(2)", ")", "1 + *"]


@pytest.mark.parametrize("src", _ERROR_CASES)
def test_parse_error_is_the_oracles(src):
    # the message, offset and expected tuple of the parser that the token
    # pattern replaced (tests/parser_oracle.py)
    assert _parsed(xc.parse, src) == _parsed(parser_oracle.parse, src)
    assert isinstance(_parsed(xc.parse, src), tuple)


_FRAGMENTS = ["q1", "v2", "q", "v", "q01", "1", "0", "9", ".", "e", "E",
              "1e400", "1.5e-3", "+", "-", "*", "/", "^", "(", ")", ",", " ",
              "\t", "sin", "pow", "abs", "c", "_x", "foo", "@"]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map(
                     "".join),
                 st.text(st.characters(max_codepoint=127), max_size=30)))
def test_parse_is_the_oracle_on_ascii_text(src):
    # on ASCII text the oracle reads digits as parse does, so both give
    # equal ASTs, or errors with equal messages, offsets and expected
    assert _parsed(xc.parse, src) == _parsed(parser_oracle.parse, src)


@pytest.mark.parametrize("src, parsed", [
    ("q\u0663", xc.Param("q\u0663")),         # an Arabic-Indic three
    ("q1\u00b2", xc.Param("q1\u00b2")),       # a superscript two
    ("0.5*q\u00b2", xc.BinOp("*", xc.Const(0.5), xc.Param("q\u00b2"))),
    ("1\u0663", ("unexpected character '\u0663' at offset 1", 1, ())),
    ("\u0663", ("unexpected character '\u0663' at offset 0", 0, ())),
])
def test_a_digit_is_an_ascii_digit(src, parsed):
    # str.isdigit holds for '\u0663' and '\u00b2', and int('\u0663') is 3
    assert _parsed(xc.parse, src) == parsed


def _ast_trees():
    """ASTs of the parser's shape: nonnegative finite constants, and
    parameter names that are neither functions nor q/v indices."""
    consts = st.floats(0.0, allow_infinity=False).filter(
        lambda x: math.copysign(1.0, x) > 0).map(xc.Const)
    names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
    params = names.filter(lambda s: s not in xc.FUNCTIONS
                          and not re.fullmatch(r"[qv][0-9]+", s))
    leaves = st.one_of(consts, params.map(xc.Param),
                       st.integers(0, 12).map(xc.Coord),
                       st.integers(0, 12).map(xc.Vel))

    def extend(sub):
        unary = [f for f, n in xc.FUNCTIONS.items() if n == 1]
        return st.one_of(
            sub.map(xc.Neg),
            st.builds(xc.BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(lambda f, a: xc.Call(f, (a,)), st.sampled_from(unary),
                      sub))
    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_ast_trees())
def test_to_source_round_trips_every_ast(node):
    assert xc.parse(xc.to_source(node)) == node


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_harmonic_potential():
    e = xc.parse("0.5*k*q1^2")
    assert xc.evaluate(e, ctx1(1.0, 0.0, k=1.0)) == 0.5


def test_eval_pythagoras():
    e = xc.parse("sqrt(v1^2+v2^2)")
    assert xc.evaluate(e, xc.EvalContext((0.0, 0.0), (3.0, 4.0))) == 5.0


def test_eval_log_domain_error():
    with pytest.raises(xc.EvalDomainError):
        xc.evaluate(xc.parse("ln(q1)"), ctx1(0.0, 0.0))


def test_eval_division_by_zero():
    with pytest.raises(xc.EvalDomainError):
        xc.evaluate(xc.parse("1/q1"), ctx1(0.0, 0.0))


def test_sign_at_zero_is_zero():
    assert xc.evaluate(xc.parse("sign(v1)"), ctx1(0.0, 0.0)) == 0.0
    assert xc.evaluate(xc.parse("sign(v1)"), ctx1(0.0, -3.0)) == -1.0


def test_zero_to_fractional_power():
    # the kink convention: 0^p = 0 for p > 0
    assert xc.evaluate(xc.parse("v1^1.5"), ctx1(0.0, 0.0)) == 0.0


def test_negative_base_fractional_power_is_domain_error():
    with pytest.raises(xc.EvalDomainError):
        xc.evaluate(xc.parse("v1^1.5"), ctx1(0.0, -1.0))


def test_bind_check_rejects_out_of_range_and_unknown():
    with pytest.raises(xc.BindError):
        xc.bind_check(xc.parse("q3"), 2, {})
    with pytest.raises(xc.BindError):
        xc.bind_check(xc.parse("q0"), 2, {})  # indices are 1-based
    with pytest.raises(xc.BindError):
        xc.bind_check(xc.parse("zz*v1"), 1, {"c": 1.0})
    xc.bind_check(xc.parse("c*q2*v1"), 2, {"c": 1.0})


def test_compiled_matches_interpreter_on_corpus(corpus_asts):
    for src, node in corpus_asts:
        for ctx in random_contexts(10, seed=hash(src) % 2**32):
            a = xc.evaluate(node, ctx)
            b = evaluate_interpreted(node, ctx)
            assert a == pytest.approx(b, rel=1e-14, abs=1e-14), src


# ---------------------------------------------------------------------------
# Gradients


def test_grad_v_quadratic():
    g = xc.grad_v(xc.parse("c*v1^2"), ctx1(0.0, 2.0, c=1.0))
    assert g == pytest.approx([4.0])


def test_grad_v_degree_three_norm():
    e = xc.parse("A*(v1^2+v2^2)^1.5")
    ctx = xc.EvalContext((0.0, 0.0), (1.0, 0.0), {"A": 1.0})
    g = xc.grad_v(e, ctx)
    fd = xc.fd_gradient(e, ctx, "velocities", step=1e-6)
    assert g == pytest.approx([3.0, 0.0], abs=1e-12)
    assert g == pytest.approx(fd, abs=1e-8)


def test_grad_v_constant_is_zero_vector():
    g = xc.grad_v(xc.parse("5"), xc.EvalContext((1.0, 1.0), (1.0, 1.0)))
    assert np.array_equal(g, np.zeros(2))


def test_grad_q_harmonic():
    g = xc.grad_q(xc.parse("0.5*k*q1^2"), ctx1(3.0, 0.0, k=2.0))
    assert g == pytest.approx([6.0])


def test_grad_q_velocity_only_is_zero():
    g = xc.grad_q(xc.parse("v1^2"), ctx1(1.0, 2.0))
    assert np.array_equal(g, np.zeros(1))


def test_grad_q_product_rule():
    g = xc.grad_q(xc.parse("q1*q2"),
                  xc.EvalContext((2.0, 5.0), (0.0, 0.0)))
    assert g == pytest.approx([5.0, 2.0])


def test_zero_product_tangent_keeps_its_sign():
    # the tangent of 0*v1 is the factor 0.0 times the seed 1.0, a value and
    # not a structural zero: times q1 = -2 it is -0.0, where a structural
    # zero would give +0.0
    node = xc.parse("q1*(0*v1)")
    _, (g,) = xc.compile_expr(node, 1, "v")((-2.0,), (0.5,), {})
    _, ga = xc.compile_array(node, 1, "v")((-2.0,), np.array([[0.5, 3.0]]),
                                           {})
    assert g == 0.0 and math.copysign(1.0, g) == -1.0
    assert ga.shape == (1, 2) and not ga.any() and np.signbit(ga).all()


def test_grad_interpreted_matches_compiled(corpus_asts):
    for src, node in corpus_asts:
        for ctx in random_contexts(5, seed=3):
            assert xc.grad_v(node, ctx) == pytest.approx(
                grad_v_interpreted(node, ctx), rel=1e-13, abs=1e-13), src
            assert xc.grad_q(node, ctx) == pytest.approx(
                grad_q_interpreted(node, ctx), rel=1e-13, abs=1e-13), src


# Points outside an expression's domain, or on its edge where only a
# derivative is undefined: (source, q, v, how many of the value, grad_v and
# grad_q passes raise)
_DOMAIN_CASES = [
    ("ln(v1)", (1.0, 1.0), (0.0, 1.0), 3),
    ("ln(v1)", (1.0, 1.0), (-0.5, 1.0), 3),
    ("ln(q1*v1)", (-1.0, 1.0), (1.0, 1.0), 3),
    ("sqrt(v1)", (1.0, 1.0), (-1.0, 1.0), 3),
    ("sqrt(v1)", (1.0, 1.0), (0.0, 1.0), 1),
    ("sqrt(v1^2 + v2^2)", (1.0, 1.0), (0.0, 0.0), 1),
    ("1/v1", (1.0, 1.0), (0.0, 1.0), 3),
    ("q1/(v1 - v2)", (1.0, 1.0), (0.5, 0.5), 3),
    ("v1^1.5", (1.0, 1.0), (-1.0, 1.0), 3),
    ("(q1 - 2)^0.5", (1.0, 1.0), (1.0, 1.0), 3),
    ("v1^q1", (0.5, 1.0), (-1.0, 1.0), 3),
    ("v1^k", (1.0, 1.0), (-1.0, 1.0), 3),
    ("v1^-2", (1.0, 1.0), (0.0, 1.0), 3),
    ("v1^q1", (-1.0, 1.0), (0.0, 1.0), 3),
    ("q1^v1", (-2.0, 1.0), (2.0, 1.0), 1),
    ("v1^v2", (1.0, 1.0), (-1.0, 3.0), 1),
    ("q1^v1", (0.0, 1.0), (2.0, 1.0), 0),
]


@pytest.mark.parametrize("src, q, v, failing", _DOMAIN_CASES)
def test_compiled_matches_interpreter_at_domain_errors(src, q, v, failing):
    node = xc.parse(src)
    ctx = xc.EvalContext(q, v, {"k": 2.5})
    passes = [(xc.evaluate, evaluate_interpreted),
              (xc.grad_v, grad_v_interpreted),
              (xc.grad_q, grad_q_interpreted)]
    raised = 0
    for compiled, oracle in passes:
        try:
            expected = oracle(node, ctx)
        except xc.EvalDomainError as e:
            with pytest.raises(xc.EvalDomainError) as exc:
                compiled(node, ctx)
            assert str(exc.value) == str(e)
            raised += 1
        else:
            assert _rel_close(compiled(node, ctx), expected)
    assert raised == failing


def _outcome(fn, *args):
    """fn(*args) as ("ok", result as nested lists) or ("error", message)."""
    try:
        out = fn(*args)
    except xc.EvalDomainError as e:
        return "error", str(e)
    return "ok", [np.asarray(x).tolist() for x in out] if isinstance(
        out, tuple) else np.asarray(out).tolist()


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_negative_literal_exponent_is_its_parsed_twin(p):
    # a hand-built negative literal exponent takes the one power rule, as
    # the parsed Neg(Const) does: the same values, tangents and errors,
    # also at a zero base and at a negative base
    built = xc.BinOp("^", xc.Vel(1), xc.Const(-p))
    parsed = xc.parse(f"v1^-{p}")
    assert parsed == xc.BinOp("^", xc.Vel(1), xc.Neg(xc.Const(p)))
    points = [(0.7, 0.0), (2.0, 0.0), (0.0, 0.0), (-1.3, 0.0)]
    q = (0.0, 0.0)
    for wrt in (None, "v"):
        fb, fp = (xc.compile_expr(n, 2, wrt) for n in (built, parsed))
        for v in points:
            assert _outcome(fb, q, v, {}) == _outcome(fp, q, v, {}), (wrt, v)
        ab, ap = (xc.compile_array(n, 2, wrt) for n in (built, parsed))
        for pts in (points[:2], points[:3], points[:2] + points[3:]):
            vs = np.array(pts).T
            assert _outcome(ab, q, vs, {}) == _outcome(ap, q, vs, {}), wrt


def _dual_result(node, q, v, p, wrt):
    """eval_dual's result in compile_expr's form: the value, or (value,
    tangents) when wrt is set."""
    r = eval_dual(node, q, v, p)
    if not wrt:
        return r
    return (r.val, tuple(r.tan)) if isinstance(r, Dual) else (r, (0.0,))


@pytest.mark.parametrize("wrt", [None, "v", "q"])
def test_power_of_two_leaves_is_the_oracle_exactly(wrt):
    # values and tangents equal to the oracle's bit for bit (==) at nonzero
    # bases, and its error where there is one
    leaves = ["v1", "q1", "2", "1.5", "k"]
    p = {"k": 2.5}
    for base in leaves:
        for exponent in leaves:
            node = xc.parse(f"{base}^{exponent}")
            fn = xc.compile_expr(node, 1, wrt)
            for q1, v1 in [(0.7, 1.3), (1.6, 0.4), (-1.3, 2.0), (3.0, -0.8),
                           (-2.0, -1.5)]:
                q, v = [q1], [v1]
                if wrt:
                    seeded = q if wrt == "q" else v
                    seeded[0] = Dual(seeded[0], np.array([1.0]))
                assert (_outcome(fn, (q1,), (v1,), p)
                        == _outcome(_dual_result, node, q, v, p, wrt)), \
                    (base, exponent, q1, v1)


def test_oracle_power_forms_only_the_partials_it_needs():
    # v1^q1 in q at a tiny base: the unused d/dbase partial b*a^(b-1)
    # overflows, and the oracle must not form it, as the compiled rule
    # does not; 0^NaN is a ** b, NaN, in both
    node = xc.parse("v1^q1")
    fn = xc.compile_expr(node, 1, "q")
    expected = (1.0000000000000204e+260, (-4.6051701859881855e+262,))
    assert fn((-1.3,), (1e-200,), {}) == expected
    q = [Dual(-1.3, np.array([1.0]))]
    assert _dual_result(node, q, [1e-200], {}, "q") == expected
    node = xc.parse("v1^k")
    assert math.isnan(xc.compile_expr(node, 1)((0.0,), (0.0,),
                                               {"k": math.nan}))
    assert math.isnan(eval_dual(node, [0.0], [0.0], {"k": math.nan}))


def test_smooth_eps_regularizes_abs_gradient_only():
    e = xc.parse("abs(v1)")
    ctx = ctx1(0.0, 5e-5)
    sharp = xc.grad_v(e, ctx)
    smooth = xc.grad_v(e, ctx, smooth_eps=1e-4)
    assert sharp == pytest.approx([1.0])
    assert smooth == pytest.approx([math.tanh(5e-5 / 1e-4)])
    # values are untouched by the regularization
    assert xc.evaluate(e, ctx) == 5e-5


# ---------------------------------------------------------------------------
# Finite differences


def test_fd_gradient_cubic():
    g = xc.fd_gradient(xc.parse("v1^3"), ctx1(0.0, 2.0), "velocities",
                       step=1e-5)
    assert g == pytest.approx([12.0], abs=1e-8)


def test_fd_gradient_sine():
    g = xc.fd_gradient(xc.parse("sin(q1)"), ctx1(0.0, 0.0), "coords",
                       step=1e-6)
    assert g == pytest.approx([1.0], abs=1e-9)


def test_fd_gradient_zero_step_is_error():
    with pytest.raises(ValueError):
        xc.fd_gradient(xc.parse("v1"), ctx1(0.0, 0.0), "velocities", step=0.0)


def test_fd_gradient_bad_wrt_is_error():
    with pytest.raises(ValueError):
        xc.fd_gradient(xc.parse("v1"), ctx1(0.0, 0.0), "speed", step=1e-6)


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
@example("q\u00b2")
@example("v\u00b9")
@example("q1\u00b2")
@example("q\u0663")
@example("1\u0663")
@example("q" + "1" * 5000)  # more digits than int() converts
@example("(" * 2000 + "1" + ")" * 2000)  # deeper than the recursion limit
@example("-" * 5000 + "v1")
@example("-" * 600 + "q1^2")  # parses within the limit, deeper than the bound
@example("+".join(["0.001*q1^2"] * 700))
def test_parser_is_total(src):
    try:
        xc.parse(src)
    except xc.ParseError as e:
        assert 0 <= e.offset <= len(src)


def test_parse_bounds_the_depth_of_the_tree():
    # counted in levels: n negations of v1 are n + 1 levels, and so is a
    # left-deep sum of n + 1 addends; the deepest tree that parses (200
    # levels) still hashes and compiles, and one level more is refused
    point = ((0.0,), (1.0,), {})
    for deepest, value, deeper in (
            ("-" * 199 + "v1", -1.0, "-" * 200 + "v1"),
            ("+".join(["v1"] * 200), 200.0, "+".join(["v1"] * 201))):
        node = xc.parse(deepest)
        assert hash(node) == hash(xc.parse(deepest))
        assert xc.compiled(node)(*point) == value
        with pytest.raises(xc.ParseError,
                           match="nests too deeply at offset 0$"):
            xc.parse(deeper)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3, allow_nan=False),
       st.floats(-1e3, 1e3, allow_nan=False))
def test_dual_square_identity(x, t):
    # tangent of x*x is exactly 2*value*tangent in forward mode
    r = eval_dual(xc.parse("v1*v1"), (0.0,), (Dual(x, np.array([t])),), {})
    assert r.val == x * x
    assert r.tan[0] == x * t + x * t  # same roundings as the product rule


def test_ad_matches_fd_on_corpus(corpus_asts):
    for src, node in corpus_asts:
        for ctx in random_contexts(20, seed=11):
            for wrt, ad in (("velocities", xc.grad_v(node, ctx)),
                            ("coords", xc.grad_q(node, ctx))):
                fd = xc.fd_gradient(node, ctx, wrt, step=1e-6)
                assert np.all(np.abs(ad - fd) <= 1e-6 * (1.0 + np.abs(ad))), \
                    (src, wrt, ctx)


# ---------------------------------------------------------------------------
# Array mode

# Every function and operator, integer, non-integer and variable exponents,
# and expressions that do not depend on v (broadcast results).
# Evaluated at the positive points of random_contexts.
ARRAY_SMOOTH = CORPUS + [
    "ln(v1)*sqrt(v2) + exp(-v1*v2) - cos(v1)/sin(v2)",
    "2^v1 + q1^v2 + v1^v2 + (v1*v2)^-2",
    "v1^-1 + (v1 - v2)^3 + v2^0.25",
    "sign(v2 - 3) + abs(v1) + tanh(v2)",
    "q1^2 + sin(q2)",
    "c",
    "k*ln(q1)",
]

# Valid at any sign and at exact zeros: sign(0) = 0, d|x|/dx = 0 at 0,
# x^n derivative at 0 (1 only for n = 1), and a variable exponent of a zero
# base.
ARRAY_SIGNED = [
    "sign(v1)", "abs(v2)", "sign(v1)*v1^2", "mu*abs(v1 - v2)",
    "abs(v1)^3 + v2^1", "v1^3*v2 + v2^2", "v1^q1 + v2^q2",
    "tanh(v1/0.01)*v1", "sqrt(v1^2 + v2^2 + 0.01)",
    "exp(v1)*sin(v2) + cos(v1*v2)", "c*q1",
]
# Valid where v >= 0, including non-integer powers of exact zeros.
ARRAY_NONNEG = ["v1^1.5 + v2^0.5", "A*(v1^2+v2^2)^1.5", "v1^q1 + v2^2.5"]

_SIGNED_V = [(a, b) for a in (-1.3, -0.0, 0.0, 0.7)
             for b in (0.0, -0.4, 1.1)]
_NONNEG_V = [(a, b) for a in (0.0, 0.7, 1.3) for b in (0.0, 0.45)]


def _array_cases():
    smooth = [c.v for c in random_contexts(12, seed=5)]
    for q in ((0.7, 1.2), (1.0, 2.5)):
        for src in ARRAY_SMOOTH:
            yield src, q, smooth, None
    # v1^q1 at negative v1 needs an integer q1; q2 = 1 is the da = 1 kink
    for q in ((2.0, 1.0), (3.0, 2.0)):
        for src in ARRAY_SIGNED:
            yield src, q, _SIGNED_V, None
            yield src, q, _SIGNED_V, 1e-3
    for q in ((0.7, 1.2), (2.0, 1.0)):
        for src in ARRAY_NONNEG:
            yield src, q, _NONNEG_V, None


def _rel_close(a, b):
    """|a - b| <= 1e-13 |b| elementwise, so exact zeros must match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.all(np.abs(a - b) <= 1e-13 * np.abs(b))


def test_array_mode_matches_scalar_and_interpreter():
    checked = 0
    for src, q, points, eps in _array_cases():
        node = xc.parse(src)
        P = CORPUS_PARAMS
        vs = np.array(points).T  # (dof, N)
        val = xc.compile_array(node)(q, vs, P)
        gval, grad = xc.compile_array(node, 2, "v", eps)(q, vs, P)
        assert val.shape == gval.shape == (len(points),), src
        assert grad.shape == (2, len(points)), src
        f = xc.compile_expr(node)
        fg = xc.compile_expr(node, 2, "v", eps)
        for k, v in enumerate(points):
            ctx = xc.EvalContext(q, v, P)
            s_val, s_grad = fg(q, v, P)
            assert _rel_close(val[k], f(q, v, P)), (src, v)
            assert _rel_close(val[k], evaluate_interpreted(node, ctx))
            assert _rel_close(gval[k], s_val), (src, v, eps)
            assert _rel_close(gval[k], eval_dual(node, q, v, P, eps))
            assert _rel_close(grad[:, k], np.array(s_grad)), (src, v, eps)
            assert _rel_close(grad[:, k],
                              grad_v_interpreted(node, ctx, eps))
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("src, points", [
    ("ln(v1)", [(0.5, 1.0), (-0.25, 1.0), (-2.0, 1.0)]),
    ("sqrt(v1)*v2", [(1.0, 1.0), (-0.5, 1.0), (-1.5, 1.0)]),
    ("v1^1.5", [(0.3, 0.0), (0.0, 0.0), (-0.7, 0.0), (-0.1, 0.0)]),
    ("v1^v2", [(1.0, 1.0), (2.0, 0.5), (-3.0, 2.5), (0.0, -1.0)]),
    ("v1^v2", [(1.0, 1.0), (0.0, -1.0), (-3.0, 2.5)]),
    ("v1^-2", [(1.0, 0.0), (0.0, 0.0)]),
    ("1/(v1 - 1)", [(0.0, 0.0), (1.0, 0.0)]),
    ("sqrt(v1^2 + v2^2)", [(1.0, 0.0), (0.0, 0.0)]),
    ("1/(v2/v1)", [(-1.3, 0.0), (0.0, 1.0)]),
    ("-sqrt(v2) + sign(v1)", [(1.0, 0.0), (1.0, -0.4)]),
    # a subexpression that depends on no point is a Python float
    ("(-2)^1.5 + v1", [(1.0, 0.0), (0.5, 0.0)]),
    ("2/0 + v1", [(1.0, 0.0), (0.5, 0.0)]),
    ("v1/(q1 - 0.7)", [(1.0, 0.0), (0.5, 0.0)]),
    ("ln(q1 - 1)*v1", [(1.0, 0.0), (0.5, 0.0)]),
    ("v1^k", [(1.0, 0.0), (-1.0, 0.0)]),
    ("v1^1e10", [(1.0, 0.0), (-1.0, 0.0)]),
    ("(v1 - 1)^k", [(2.0, 0.0), (0.5, 0.0)]),
])
def test_array_mode_domain_error_matches_first_scalar_error(src, points):
    node = xc.parse(src)
    fg = xc.compile_expr(node, 2, "v")
    q, p = _SHARED_Q_AND_PARAMS.get(src, ((0.0, 0.0), {}))
    for v in points:
        try:
            fg(q, v, p)
        except xc.EvalDomainError as e:
            expected = str(e)
            break
    with pytest.raises(xc.EvalDomainError) as exc:
        xc.compile_array(node, 2, "v")(q, np.array(points).T, p)
    assert str(exc.value) == expected


@pytest.mark.parametrize("src, q, points, p", [
    # d(q1^v1)/dv1 = q1^v1 ln q1 is array mode's _adbpow: 0 at q1 = 0,
    # where a negative exponent is the scalar code's error
    ("q1^v1", (1.7,), [0.5, 1.0, 2.5, -1.0], {}),
    ("q1^v1", (0.0,), [0.5, 1.0, 2.5], {}),
    ("q1^v1", (0.0,), [0.5, -1.0], {}),
    # a huge or NaN exponent is non-integer to the scalar code, while
    # numpy raises a negative base to it without a flag: _apow's guard
    ("v1^c", (), [-2.0], {"c": 1e10}),
    ("v1^c", (), [-2.0], {"c": math.nan}),
])
def test_array_powers_are_the_scalar_code(src, q, points, p):
    # array mode's values and tangents at every point are the scalar
    # code's, or it raises the scalar code's first error
    node = xc.parse(src)
    vs = np.array([points])
    for wrt in (None, "v"):
        scalar = xc.compiled(node, 1, wrt)
        arr = xc.compile_array(node, 1, wrt)
        try:
            ref = [scalar(q, (v,), p) for v in points]
        except xc.EvalDomainError as e:
            with pytest.raises(type(e)) as got:
                arr(q, vs, p)
            assert str(got.value) == str(e)
            continue
        out = arr(q, vs, p)
        if wrt:
            out = [(float(x), (float(g),)) for x, g in zip(out[0], out[1][0])]
        else:
            out = [float(x) for x in out]
        assert repr(out) == repr(ref), wrt


# The shared coordinates and parameters of the cases above that need them
_SHARED_Q_AND_PARAMS = {
    "v1/(q1 - 0.7)": ((0.7, 0.0), {}),
    "ln(q1 - 1)*v1": ((0.7, 0.0), {}),
    # 1e10 is non-integer to the scalar code (as "v1^1e10" is); numpy
    # gives (-1)^1e10 = 1 without a flag
    "v1^k": ((0.0, 0.0), {"k": 1e10}),
    # a NaN exponent is non-integer to the scalar code; numpy gives
    # (-0.5)^NaN = NaN without a flag
    "(v1 - 1)^k": ((0.0, 0.0), {"k": math.nan}),
}


def _grammar_exprs():
    """Expression source text from the grammar: every function and
    operator, with constant, parameter and variable exponents."""
    leaves = st.sampled_from(["v1", "v2", "q1", "q2", "c", "k", "0",
                              "0.5", "2", "(-2)"])
    exponents = st.sampled_from(["2", "3", "-1", "0.5", "1.5", "-0.5",
                                 "k", "q1", "v2"])

    def extend(sub):
        return st.one_of(
            st.builds("({} {} {})".format, sub,
                      st.sampled_from("+-*/"), sub),
            st.builds("{}^{}".format, sub, exponents),
            st.builds("{}({})".format,
                      st.sampled_from([f for f, n in xc.FUNCTIONS.items()
                                       if n == 1]), sub))
    return st.recursive(leaves, extend, max_leaves=6)


_POINT_VALUES = st.sampled_from([-1.3, -0.4, -0.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(src=_grammar_exprs(),
       v=st.lists(st.tuples(_POINT_VALUES, _POINT_VALUES),
                  min_size=1, max_size=5),
       q=st.tuples(_POINT_VALUES, _POINT_VALUES),
       wrt=st.sampled_from([None, "v", "q"]),
       eps=st.sampled_from([None, 1e-3]))
def test_array_mode_is_the_scalar_code_at_every_point(src, v, q, wrt, eps):
    # array mode gives the scalar values at every point, or raises the
    # scalar code's error at its first failing point in flat order; a
    # non-finite scalar value (a product that overflowed) is an overflow
    node = xc.parse(src)
    p = {"c": 0.7, "k": 3.0}
    fn = xc.compile_expr(node, 2, wrt, eps)
    arr = xc.compile_array(node, 2, wrt, eps)
    args = (q, np.array(v).T, p)
    try:
        ref = [fn(q, vk, p) for vk in v]
    except xc.EvalDomainError as e:
        with pytest.raises(xc.EvalDomainError) as exc:
            arr(*args)
        assert str(exc.value) == str(e)
        return
    val = np.array([r[0] if wrt else r for r in ref])
    tan = np.array([r[1] for r in ref]).T if wrt else np.zeros(0)
    if not (np.isfinite(val).all() and np.isfinite(tan).all()):
        with pytest.raises(xc.EvalDomainError, match="overflow"):
            arr(*args)
        return
    out = arr(*args)
    if wrt:
        assert _rel_close(out[0], val) and _rel_close(out[1], tan)
    else:
        assert _rel_close(out, val)


@pytest.mark.parametrize("src, q, v, p", [
    ("sin(v1*v1)", (), (1e200,), {}),
    ("cos(q1)*v1", (math.inf,), (1.0,), {}),
    ("sin(c)*v1", (), (1.0,), {"c": math.inf}),
], ids=["sin-of-overflowed-product", "cos-of-infinite-q", "hoisted-sin"])
def test_sin_and_cos_of_an_infinite_value_are_domain_errors(src, q, v, p):
    # math.sin and math.cos raise ValueError at an infinite argument: the
    # scalar code names the expression, from its value and tangent code
    # and from a hoisted parameter-only block alike, and array mode hands
    # the point to it
    node = xc.parse(src)
    match = (r"^math domain error \(sin or cos of an infinite value\) in "
             rf"subexpression '{re.escape(xc.to_source(node))}'$")
    fns = [xc.compile_expr(node, len(v), wrt) for wrt in (None, "v")]
    (consts, names) = xc.compile_blocks([node], len(v), "v", hoist=True)[1]
    if consts:
        fns.append(lambda q, v, p: xc.define("_c(p)", consts + [
            f"return ({', '.join(names)},)"])(p))
    fns.append(lambda q, v, p: xc.compile_array(node, len(v))(
        q, np.array(v)[:, None], p))
    for fn in fns:
        with pytest.raises(xc.EvalDomainError, match=match):
            fn(q, v, p)
    assert len(fns) == (4 if src == "sin(c)*v1" else 3)


def test_array_mode_hands_an_overflowing_point_to_the_scalar_code():
    # tanh(v1*v1) at v1 = 1e200: numpy flags the product's overflow, and
    # the scalar code gives tanh(inf) = 1.0 with tangent 0.0 there, and its
    # own numbers at the ordinary point beside it; v1*v1 alone is
    # non-finite there, which is an overflow in either mode
    points = np.array([[1e200, 0.5]])
    node = xc.parse("tanh(v1*v1)")
    assert xc.compile_array(node, 1)((), points, {}).tolist() == [
        1.0, xc.compiled(node)((), (0.5,), {})]
    val, tan = xc.compile_array(node, 1, "v")((), points, {})
    ref = xc.compiled(node, 1, "v")((), (0.5,), {})
    assert val.tolist() == [1.0, ref[0]]
    assert tan.tolist() == [[0.0, ref[1][0]]]
    for wrt in (None, "v"):
        with pytest.raises(xc.EvalDomainError,
                           match="^floating-point overflow in subexpression "
                                 "'v1 \\* v1'$"):
            xc.compile_array(xc.parse("v1*v1"), 1, wrt)((), points, {})


def _general_scalar(node, dof, wrt, eps):
    """The scalar code with `^` by the unspecialised one power rule
    (_cpow and _cdpow at every exponent): array mode's source run on the
    scalar helpers."""
    return xc._load(node, dof, wrt, eps, xc._COMPILE_GLOBALS, scalar=False)


def _exact(fn, *args):
    """fn(*args) with every float as its IEEE bits (so the sign of a zero
    counts), or the error's type and message."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - compared by the tests
        return type(e), str(e)

    def bits(x):
        if isinstance(x, tuple):
            return tuple(map(bits, x))
        return struct.pack("<d", x)
    return bits(out)


# zeros of both signs, NaN, negative bases, and bases whose powers or
# partials overflow (the OverflowError of float **)
_POWER_BASES = [0.0, -0.0, math.nan, -1.3, -2.0, 0.7, 2.0, 1e200, -1e200,
                1e-200, math.inf, -math.inf]


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5,
                               -0.5, 2.5e9, -2.5e9, 1e10])
def test_literal_powers_are_the_one_rule_bit_for_bit(p):
    # v1 ^ p for a literal p: the specialised value and partial equal
    # _cpow's and _cdpow's bit for bit, at every base, errors included;
    # a whole p >= 0 calls no helper at all
    node = xc.BinOp("^", xc.Vel(1), xc.Const(p))
    for wrt in (None, "v"):
        fn = xc.compile_expr(node, 1, wrt)
        ref = _general_scalar(node, 1, wrt, None)
        for a in _POWER_BASES:
            assert _exact(fn, (), (a,), {}) == _exact(ref, (), (a,), {}), (
                p, wrt, a)
    lines, _, _ = xc._CodeGen(1, "v", None).block(node)
    assert not any("_cdpow" in x for x in lines)
    if p >= 0 and p.is_integer() and p < 1e9:
        assert not any("_cpow" in x for x in lines)


_EXACT_POINTS = st.sampled_from(_POWER_BASES[:10])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(src=_grammar_exprs(),
       v=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       q=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       wrt=st.sampled_from([None, "v", "q"]),
       eps=st.sampled_from([None, 1e-3]))
def test_specialised_powers_are_the_one_rule_on_the_grammar(src, v, q, wrt,
                                                            eps):
    # the scalar code with literal powers specialised gives what the one
    # power rule gives: the same bits, the same error and message
    node = xc.parse(src)
    p = {"c": 0.7, "k": 3.0}
    assert (_exact(xc.compile_expr(node, 2, wrt, eps), q, v, p)
            == _exact(_general_scalar(node, 2, wrt, eps), q, v, p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(src=_grammar_exprs(),
       v=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       q=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       wrt=st.sampled_from([None, "v", "q"]))
def test_hoisted_constants_leave_every_value_as_it_was(src, v, q, wrt):
    # the blocks with their parameter-only subexpressions hoisted into
    # constant lines give the compiled values bit for bit; an error stays
    # an error, though a hoisted one may now come before another
    node = xc.parse(src)
    p = {"c": 0.7, "k": 3.0}
    blocks, (consts, names) = xc.compile_blocks([node], 2, wrt, hoist=True)
    (lines, val, g), = blocks
    assert not any("p[" in x for x in lines)
    assert all(f"{n} = " in "".join(consts) for n in names)
    hoisted = xc.define("_f(q, v, p)", xc.unpack([node]) + consts + lines + [
        f"return {val}" + (f", ({', '.join(g)},)" if wrt else "")])
    got, ref = (_exact(f, q, v, p)
                for f in (hoisted, xc.compile_expr(node, 2, wrt)))
    if isinstance(ref[0], type):
        assert ref[0] is got[0] is xc.EvalDomainError or ref == got
    else:
        assert got == ref


def test_compile_cache_is_bounded_and_keyed_by_value():
    # 2,000 distinct expressions leave the cache at or below its bound, and
    # two parses of the same text share one compiled function: two trees,
    # as parse stores the tree of a text, so the second is parsed anew
    ctx = xc.EvalContext((0.3,), (0.7,), {"c": 0.2})
    for i in range(2000):
        e = xc.parse(f"c*v1^2 + {i}*q1")
        xc.evaluate(e, ctx)
        xc.grad_v(e, ctx)
    info = xc.compiled.cache_info()
    assert info.currsize <= info.maxsize
    a = xc.parse("c*v1^2*sin(q1)")
    xc.parse.cache_clear()
    b = xc.parse("c*v1^2*sin(q1)")
    assert a is not b and a == b
    assert xc.compiled(a) is xc.compiled(b)
    assert xc.compiled(a, 1, "v", None) is xc.compiled(b, 1, "v", None)


def test_parse_returns_one_tree_per_text_and_stores_no_error():
    # a repeat text is the same tree, so the caches keyed by trees compare
    # it by identity; a text that fails raises each time, the same error
    assert xc.parse("c*v1^2 + q1") is xc.parse("c*v1^2 + q1")
    errors = []
    for _ in range(2):
        with pytest.raises(xc.ParseError) as e:
            xc.parse("c*v1^")
        errors.append((str(e.value), e.value.offset))
    assert errors[0] == errors[1]
    info = xc.parse.cache_info()
    assert info.currsize <= info.maxsize


def test_constants_of_different_code_never_share_it():
    # a Const equals another only where both compile to the same code:
    # -0.0 and 0.0, and 1 and 1.0, compare equal as floats but not here
    one = ((1.0,), (1.0,), {})
    for x, y in ((-0.0, 0.0), (1, 1.0)):
        a, b = (xc.BinOp("*", xc.Const(c), xc.Coord(1)) for c in (x, y))
        assert a != b and xc.Const(x) != xc.Const(y)
        assert xc.compiled(a) is not xc.compiled(b)
        assert repr(xc.compiled(a)(*one)) == repr(x * 1.0)
        assert repr(xc.compiled(xc.Const(x))(*one)) == repr(x)
        assert repr(xc.compiled(xc.Const(y))(*one)) == repr(y)
    assert xc.Const(0.5) == xc.Const(0.5)
    assert hash(xc.Const(0.5)) == hash(xc.Const(0.5))


# ---------------------------------------------------------------------------
# Velocity degree


@pytest.mark.parametrize("src, degree", [
    ("v1^c", None),                 # a parameter exponent of a velocity
    ("q1^c", 0.0),                  # ... of a degree-0 base
    ("exp(v1)", None),
    ("tanh(v1/v2)", 0.0),
    ("sign(v1)*v1^2", 2.0),
    ("v1^-1", -1.0),                # -1 parses as a negated number
    ("v1^-2", -2.0),
    ("v1^2*v1^-1", 1.0),
    ("(v1^2+v2^2)^-0.5*v1^2", 1.0),
    ("(v1^2+v1^3)*q1", None),
    ("A*(v1^2+v2^2)^1.5", 3.0),
    ("c*v1*tanh(v1/0.001)", None),
    ("-abs(v1 - v2)", 1.0),
    ("sqrt(abs(v1))", None),
    ("(v1^1e200)^1e200", None),     # an infinite degree is no degree
    ("v1^(3/2)", None),             # the exponent is not a literal
])
def test_velocity_degree_hand_cases(src, degree):
    assert xc.velocity_degree(xc.parse(src)) == degree


def test_addends_split_sums_and_differences_at_the_top_only():
    node = xc.parse("a - b*(v1 - v2) + (c + d) - (e + f)")
    assert list(map(xc.to_source, xc.addends(node))) == [
        "a", "-(b * (v1 - v2))", "c + d", "-(e + f)"]
    assert xc.addends(xc.parse("-(v1^2 + v2^2)")) == [
        xc.parse("-(v1^2 + v2^2)")]


def _degree_oracle(node, dof, params):
    """raymodel.homogeneity_check of node at its inferred degree; a state
    where the expression has no value fails at every scale, so it counts
    as agreeing there."""
    fn = xc.compile_expr(node)

    def evaluate(q, v, p):
        try:
            return fn(q, v, p)
        except xc.EvalDomainError:
            return 0.0
    term = SimpleNamespace(evaluate=evaluate,
                           degree=xc.velocity_degree(node))
    return rm.homogeneity_check(term, dof, params)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_velocity_degree_of_every_builtin_term_is_declared(name):
    system = get_builtin(name).system
    for t in system.dissipation.terms:
        assert xc.velocity_degree(t.expr) == t.degree
        assert _degree_oracle(t.expr, system.dof, system.params).passed


@settings(max_examples=500, deadline=None, derandomize=True)
@given(src=_grammar_exprs())
def test_velocity_degree_passes_the_sampled_check(src):
    # wherever the pass gives a degree, the sampled homogeneity check
    # passes at that degree
    node = xc.parse(src)
    if xc.velocity_degree(node) is not None:
        rep = _degree_oracle(node, 2, {"c": 0.7, "k": 3.0})
        assert rep.passed, (src, rep)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_nodes_kept_hash_stays_out_of_copies(clone):
    # a tree keeps its hash once computed, so a cache keyed by it hashes no
    # child again; a copy or a pickle does not carry it, as a string's hash
    # differs between processes: here a stale one stands in for that
    parsed = xc.parse("A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)")
    node = dataclasses.replace(parsed)  # not the tree parse keeps
    assert hash(node) == hash(parsed) and "_hash" in vars(node)
    object.__setattr__(node, "_hash", 12345)
    copied = clone(node)
    assert "_hash" not in vars(copied)
    assert copied == node
    assert hash(copied) == hash(parsed) != 12345
