import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raydiss import exprcore as xc

from conftest import CORPUS, CORPUS_PARAMS, random_contexts


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


@pytest.mark.parametrize("src", ["", "1 +", "sin()", "foo(1)",
                                 "1.2.3", "(q1", "q1 @ v1"])
def test_parse_error_has_position(src):
    with pytest.raises(xc.ParseError) as exc:
        xc.parse(src)
    assert 0 <= exc.value.offset <= len(src)


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
            b = xc.evaluate_interpreted(node, ctx)
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


def test_grad_interpreted_matches_compiled(corpus_asts):
    for src, node in corpus_asts:
        for ctx in random_contexts(5, seed=3):
            assert xc.grad_v(node, ctx) == pytest.approx(
                xc.grad_v_interpreted(node, ctx), rel=1e-13, abs=1e-13), src
            assert xc.grad_q(node, ctx) == pytest.approx(
                xc.grad_q_interpreted(node, ctx), rel=1e-13, abs=1e-13), src


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
def test_parser_is_total(src):
    try:
        xc.parse(src)
    except xc.ParseError as e:
        assert 0 <= e.offset <= len(src)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3, allow_nan=False),
       st.floats(-1e3, 1e3, allow_nan=False))
def test_dual_square_identity(x, t):
    # tangent of x*x is exactly 2*value*tangent in forward mode
    r = xc.eval_dual(xc.parse("v1*v1"), (0.0,), (xc.Dual(x, np.array([t])),),
                     {})
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

# Every function and operator, integer, non-integer and variable (_cpow3)
# exponents, and expressions that do not depend on v (broadcast results).
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
# x^n derivative at 0 (1 only for n = 1), and _cpow3's zero-base branch.
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
            assert _rel_close(val[k], xc.evaluate_interpreted(node, ctx))
            assert _rel_close(gval[k], s_val), (src, v, eps)
            assert _rel_close(gval[k], xc.eval_dual(node, q, v, P, eps))
            assert _rel_close(grad[:, k], np.array(s_grad)), (src, v, eps)
            assert _rel_close(grad[:, k],
                              xc.grad_v_interpreted(node, ctx, eps))
            checked += 1
    assert checked > 500


def test_array_mode_accepts_per_point_coordinates():
    node = xc.parse("k*q1^2*v1 + sin(q2)")
    qs = np.array([[0.1, -0.5, 2.0], [1.0, 0.0, -1.0]])
    vs = np.array([[0.3, 0.0, -2.0], [0.0, 0.0, 0.0]])
    val, grad = xc.compile_array(node, 2, "q")(qs, vs, CORPUS_PARAMS)
    fg = xc.compile_expr(node, 2, "q")
    for k in range(3):
        s_val, s_grad = fg(tuple(qs[:, k]), tuple(vs[:, k]), CORPUS_PARAMS)
        assert _rel_close(val[k], s_val)
        assert _rel_close(grad[:, k], np.array(s_grad))


@pytest.mark.parametrize("src, points", [
    ("ln(v1)", [(0.5, 1.0), (-0.25, 1.0), (-2.0, 1.0)]),
    ("sqrt(v1)*v2", [(1.0, 1.0), (-0.5, 1.0), (-1.5, 1.0)]),
    ("v1^1.5", [(0.3, 0.0), (0.0, 0.0), (-0.7, 0.0), (-0.1, 0.0)]),
    ("v1^v2", [(1.0, 1.0), (2.0, 0.5), (-3.0, 2.5), (0.0, -1.0)]),
    ("v1^v2", [(1.0, 1.0), (0.0, -1.0), (-3.0, 2.5)]),
    ("v1^-2", [(1.0, 0.0), (0.0, 0.0)]),
    ("1/(v1 - 1)", [(0.0, 0.0), (1.0, 0.0)]),
    ("sqrt(v1^2 + v2^2)", [(1.0, 0.0), (0.0, 0.0)]),
])
def test_array_mode_domain_error_matches_first_scalar_error(src, points):
    node = xc.parse(src)
    fg = xc.compile_expr(node, 2, "v")
    for v in points:
        try:
            fg((0.0, 0.0), v, {})
        except xc.EvalDomainError as e:
            expected = str(e)
            break
    with pytest.raises(xc.EvalDomainError) as exc:
        xc.compile_array(node, 2, "v")((0.0, 0.0), np.array(points).T, {})
    assert str(exc.value) == expected
