import math
import sys

import numpy as np
import pytest

from conftest import count_array_calls, count_scalar_passes
from raydiss import exprcore as xc
from raydiss import raymodel as rm


def ctx(q, v, **params):
    return xc.EvalContext(tuple(q), tuple(v), params)


def homsum(*pairs):
    return rm.DissipationSpec(
        "homogeneous_sum",
        [rm.DissipationTerm(xc.parse(src), deg) for src, deg in pairs])


def general(src, **quad):
    return rm.DissipationSpec("general", raw=xc.parse(src),
                              quadrature=rm.QuadratureConfig(**quad))


# ---------------------------------------------------------------------------
# Spec types


def test_degree_must_be_positive():
    with pytest.raises(rm.ModelError):
        rm.DissipationTerm(xc.parse("v1^2"), 0.0)
    with pytest.raises(rm.ModelError):
        rm.DissipationTerm(xc.parse("v1^2"), -1.0)


def test_mode_field_consistency():
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("squiggly")
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("general")  # missing raw
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("homogeneous_sum", raw=xc.parse("v1^2"))


def test_system_rejects_velocity_in_mass_and_potential():
    with pytest.raises(rm.ModelError):
        rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1+v1")]],
                      potential=xc.parse("0"),
                      dissipation=rm.null_dissipation())
    with pytest.raises(rm.ModelError):
        rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1")]],
                      potential=xc.parse("v1^2"),
                      dissipation=rm.null_dissipation())


def test_system_mass_symmetry_enforced():
    sys = rm.SystemSpec(
        dof=2,
        mass_matrix=[[xc.parse("1"), xc.parse("q1")],
                     [xc.parse("0"), xc.parse("1")]],
        potential=xc.parse("0"), dissipation=rm.null_dissipation())
    with pytest.raises(rm.ModelError):
        sys.mass((1.0, 0.0))


def test_constant_mass_cannot_be_corrupted_through_mass():
    from raydiss import dynamics as dy

    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("m")]],
                        potential=xc.parse("k*q1"),
                        dissipation=rm.null_dissipation(),
                        params={"m": 2.0, "k": 0.3})
    M = sys.mass((0.0,))
    try:
        M[0, 0] = 99.0
    except ValueError:
        pass  # read-only
    assert sys.mass((0.5,))[0, 0] == 2.0
    # the cached factor is built after the write attempt: b = -k, M = 2
    assert dy.accel(sys, dy.State(0.0, [0.5], [1.0]))[0] == -0.3 / 2.0


# ---------------------------------------------------------------------------
# Compiled models


def test_general_quadrature_rule_built_once_per_spec(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    spec = general("v1^2 + abs(v2)^3")
    for q, v in rm.sample_states(2, 3, seed=4):
        c = ctx(q, v)
        rm.grad_R_v(spec, c)
        rm.eval_R(spec, c)
        rm.eval_R_quadrature(spec, c)
        spec.model(2).D_R_grad(c.q, c.v, {})
    assert calls == [16, 12]  # the main and the estimate rule, once each


def test_runs_do_not_grow_the_expression_compile_cache():
    from raydiss import audit as au
    from raydiss import config as cf
    from raydiss import dynamics as dy

    def run(cfg):
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        assert au.full_audit(cfg.system, traj, cfg.tolerances).passed

    base = cf.config_from_dict({"system": "damped_sho", "t_end": 0.5})
    inline = {
        "dof": 2, "params": {"a": 1.0, "A": 0.1},
        "mass_matrix": [["2", "a*cos(q1-q2)"], ["a*cos(q1-q2)", "2"]],
        "potential": "-cos(q1) - cos(q2)",
        "dissipation": {"mode": "homogeneous_sum",
                        "terms": [{"expr": "A*(v1^2+v2^2)^1.5",
                                   "degree": 3}]},
        "initial": {"q": [0.6, -0.3], "v": [0.0, 0.0]}, "t_end": 0.2,
    }
    before = len(xc._COMPILE_CACHE)
    for c in (0.1, 0.2, 0.3):
        run(base.with_params({"c": c}))
    for _ in range(2):
        run(cf.config_from_dict(inline))
    assert len(xc._COMPILE_CACHE) == before


def test_with_params_shares_the_builtin_dissipation_model():
    from raydiss import config as cf
    from raydiss.builtins import get_builtin

    base = cf.config_from_dict({"system": "damped_sho"})
    a = base.with_params({"c": 0.1})
    b = base.with_params({"c": 0.3})
    assert a.system.dissipation is base.system.dissipation
    assert a.system.dissipation.model(1) is b.system.dissipation.model(1)
    assert a.system.params["c"] == 0.1 and b.system.params["c"] == 0.3
    assert get_builtin("damped_sho", {"c": 0.1}).reference is not None
    assert get_builtin("damped_sho", {"c": 3.0}).reference is None


# ---------------------------------------------------------------------------
# Homogeneity


def test_homogeneity_quadratic_passes():
    rep = rm.homogeneity_check(rm.DissipationTerm(xc.parse("c*v1^2"), 2.0),
                               1, {"c": 0.3})
    assert rep.passed and rep.max_violation <= 1e-12


def test_homogeneity_degree_three_norm_passes():
    rep = rm.homogeneity_check(
        rm.DissipationTerm(xc.parse("A*(v1^2+v2^2)^1.5"), 3.0),
        2, {"A": 0.7})
    assert rep.passed


def test_homogeneity_wrong_degree_fails():
    # direct oracle: |lam^3 v^2 - lam^2 v^2| / (lam^3 v^2) at lam=2 is 1/2
    e = xc.parse("c*v1^2")
    c = {"c": 1.0}
    base = xc.evaluate(e, ctx([0.0], [1.3], **c))
    scaled = xc.evaluate(e, ctx([0.0], [2.6], **c))
    assert abs(2.0 ** 3 * base - scaled) / (2.0 ** 3 * base) == \
        pytest.approx(0.5)
    rep = rm.homogeneity_check(rm.DissipationTerm(e, 3.0), 1, c)
    assert not rep.passed
    assert rep.max_violation > 0.4
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# Closed-form R


def test_r_closed_classical_quadratic():
    spec = homsum(("c*v1^2", 2.0))
    assert rm.eval_R_closed(spec, ctx([0.0], [2.0], c=1.0)) == 2.0


def test_r_closed_degree_three():
    spec = homsum(("A*(v1^2+v2^2)^1.5", 3.0))
    assert rm.eval_R_closed(
        spec, ctx([0.0, 0.0], [1.0, 0.0], A=3.0)) == pytest.approx(1.0)


def test_r_closed_null_dissipation():
    assert rm.eval_R_closed(rm.null_dissipation(), ctx([1.0], [1.0])) == 0.0


def test_r_ratio_is_reciprocal_degree():
    for src, deg in (("abs(v1)", 1.0), ("v1^2", 2.0), ("abs(v1)^3", 3.0)):
        spec = homsum((src, deg))
        for q, v in rm.sample_states(1, 30, seed=5):
            c = ctx(q, v)
            d = rm.eval_D(spec, c)
            if d > 1e-10:
                assert rm.eval_R_closed(spec, c) / d == pytest.approx(
                    1.0 / deg, rel=1e-12)


def test_r_vanishes_at_rest():
    spec = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    assert rm.eval_R_closed(spec, ctx([1.7], [0.0])) == 0.0
    gspec = general("v1^2 + abs(v1)^3")
    val, _ = rm.eval_R_quadrature(gspec, ctx([1.7], [0.0]))
    assert val == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Quadrature R


def test_quadrature_quadratic():
    val, warning = rm.eval_R_quadrature(general("v1^2"), ctx([0.0], [2.0]))
    assert val == pytest.approx(2.0, rel=1e-10)
    assert warning is None


def test_quadrature_cubic():
    val, _ = rm.eval_R_quadrature(general("abs(v1)^3"), ctx([0.0], [1.0]))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_quadrature_sum_rule():
    val, _ = rm.eval_R_quadrature(general("v1^2 + abs(v1)^3"),
                                  ctx([0.0], [1.0]))
    assert val == pytest.approx(5.0 / 6.0, rel=1e-10)
    closed = rm.eval_R_closed(homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0)),
                              ctx([0.0], [1.0]))
    assert val == pytest.approx(closed, rel=1e-10)


def test_quadrature_matches_closed_on_samples():
    spec_c = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    spec_g = general("v1^2 + abs(v1)^3")
    for q, v in rm.sample_states(1, 25, seed=9):
        c = ctx(q, v)
        a = rm.eval_R_quadrature(spec_g, c)[0]
        b = rm.eval_R_closed(spec_c, c)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_quadrature_diverges_for_rest_nonvanishing_d():
    # D(q, 0) = 1 makes the integral of D/u diverge at u -> 0
    with pytest.raises(rm.QuadratureError):
        rm.eval_R_quadrature(general("v1^2 + 1"), ctx([0.0], [1.0]))


def test_quadrature_error_names_state_estimate_and_tolerance():
    with pytest.raises(rm.QuadratureError) as err:
        rm.eval_R_quadrature(general("v1^2 + 1"), ctx([0.25], [-1.5]))
    msg = str(err.value)
    assert msg.startswith("R quadrature did not converge at q=[0.25], "
                          "v=[-1.5]: R = ")
    assert "estimate " in msg and "(tolerance 1e-10)" in msg
    r = float(msg.split("R = ")[1].split(",")[0])
    est = float(msg.split("estimate ")[1].split()[0])
    # each rule sums 1/u over its nodes: the two differ by far more than
    # the tolerance, and R grows like the log of the smallest node
    assert abs(r - est) > 1e-10 * (1.0 + abs(r)) and r > 20.0


def test_quadrature_coarse_settings_still_converge_on_polynomials():
    # integrand u^3 v^4 is polynomial, exact even on the coarsest rule
    val, warning = rm.eval_R_quadrature(
        general("v1^4", node_count=8, panels=1, tolerance=1e-12),
        ctx([0.0], [2.0]))
    assert val == pytest.approx(4.0, rel=1e-12)  # D/4 = 16/4
    assert warning is None


# ---------------------------------------------------------------------------
# Graded quadrature against closed forms and a per-node scalar loop


def _graded_nodes(qc):
    """[(u, w) per node] of the main rule, then of the estimate rule, each
    panel-major on the edges 0, GRADING^(panels-1), ..., GRADING, 1."""
    edges = [0.0] + [rm.GRADING ** k for k in range(qc.panels - 1, -1, -1)]
    rules = []
    for n in (qc.node_count, qc.estimate_nodes):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        rules.append([(0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w)
                      for a, b in zip(edges[:-1], edges[1:])
                      for x, w in zip(nodes, weights)])
    return rules


def _scalar_loop_graded(spec, dof, q, v, p, with_grad):
    """Reference: the graded rule as one scalar compiled call per node, in
    the model's node order. Returns (R, dR/dv); raises QuadratureError
    when the estimate rule's R differs beyond the tolerance."""
    qc = spec.quadrature
    fn = (xc.compile_expr(spec.raw, dof, "v") if with_grad
          else xc.compile_expr(spec.raw))
    va = np.asarray(v, dtype=float)
    sums = []
    for rule in _graded_nodes(qc):
        acc_val = 0.0
        acc_g = np.zeros(dof)
        for u, w in rule:
            vs = tuple(u * va)
            if with_grad:
                val, g = fn(q, vs, p)
                acc_g += w * np.array(g)
            else:
                val = fn(q, vs, p)
            acc_val += (w / u) * val
        sums.append((acc_val, acc_g))
    (r, g), (est, _) = sums
    if not abs(r - est) <= qc.tolerance * (1.0 + abs(r)):
        raise rm.QuadratureError("did not converge")
    return r, g


def _rel_close(a, b):
    """|a - b| <= 1e-13 |b| elementwise, so exact zeros must match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.all(np.abs(a - b) <= 1e-13 * np.abs(b))


def _close(a, b, tol=1e-13):
    """|a - b| <= tol (1 + |b|) elementwise, the quadrature's own error
    measure."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.all(np.abs(a - b)
                                         <= tol * (1.0 + np.abs(b)))


QUAD_ORACLE_D = [
    "A*(v1^2+v2^2)^1.5",
    "v1^2 + abs(v2)^3",
    "mu*abs(v1 - v2)",
    "sign(v1)*v1^2 + abs(v2)",
    "v1*tanh(v1/0.001) + v2^2",     # needed 16 uniform panels at |v1| = 1
    "exp(v1^2 + v2^2) - 1 + (1 + q1^2)*v2^4",
]


def test_vectorised_quadrature_matches_scalar_loop():
    p = {"A": 1.3, "mu": 0.7}
    states = [(q, v) for q, v in rm.sample_states(2, 12, seed=21,
                                                  v_norm_range=(0.1, 2.0))]
    states += [((0.3, -1.0), v) for v in
               ((0.0, 0.0), (0.0, 0.8), (-1.1, 0.0), (1.0, 0.3))]
    for src in QUAD_ORACLE_D:
        spec = general(src)
        model = spec.model(2)
        for q, v in states:
            q, v = tuple(q), tuple(v)
            ref_r, _ = _scalar_loop_graded(spec, 2, q, v, p, False)
            _, ref_g = _scalar_loop_graded(spec, 2, q, v, p, True)
            r = model.R(q, v, p)
            d, r2, g = model.D_R_grad(q, v, p)
            assert _rel_close(r, ref_r), (src, v)
            assert _rel_close(g, ref_g), (src, v)
            # the gradient pass reduces the same node values for R
            assert r2 == r and d == model.D(q, v, p), (src, v)


def test_tanh_law_converges_where_uniform_panels_refined():
    # |v1| = 1 needed 16 uniform panels of 64 nodes and |v1| = 1.78 did not
    # converge on them; R = eps ln cosh(v/eps), dR/dv = tanh(v/eps)
    model = general("v1*tanh(v1/0.001)").model(1)
    for v in (0.5, 1.0, 1.78):
        _, r, g = model.D_R_grad((0.0,), (v,), {})
        exact = v + 0.001 * (math.log1p(math.exp(-2000.0 * v))
                             - math.log(2.0))
        assert _close(r, exact) and _close(g, [math.tanh(1000.0 * v)])
    assert not hasattr(model, "refinements")


def test_regularised_coulomb_law_matches_closed_form():
    # c v tanh(v/eps): R = c eps ln cosh(v/eps), dR/dv = c tanh(v/eps), at
    # 400 log-spaced speeds of both signs, the feature at u = eps/|v|. The
    # estimate rule checks R only; the gradient's integrand,
    # c (tanh s + s sech^2 s) at s = u v/eps, is sharper, and its error
    # reaches 9e-13 near |v| = 0.017
    c, eps = 0.3, 0.001
    model = general("c*v1*tanh(v1/0.001)").model(1)
    for speed in np.logspace(-2.0, 1.0, 400):
        exact = c * (speed + eps * (math.log1p(math.exp(-2.0 * speed / eps))
                                    - math.log(2.0)))
        for v in (speed, -speed):
            _, r, g = model.D_R_grad((0.0,), (float(v),), {"c": c})
            assert _close(r, exact), v
            assert _close(g, [c * math.tanh(v / eps)], 1e-11), v


@pytest.mark.parametrize("src, degree", [
    ("(v1^2+v2^2)^0.75", 1.5),
    ("abs(v1)^1.2", 1.2),
    ("sqrt(v1^2+v2^2)^2.5", 2.5),
])
def test_non_integer_power_laws_match_d_over_degree(src, degree):
    # D(u v)/u = u^(n-1) D(v) is not smooth at u = 0 for these n; for a
    # degree-n homogeneous D, R = D/n and dR/dv = (dD/dv)/n
    model = general(src).model(2)
    grad_D = xc.compile_expr(xc.parse(src), 2, "v")
    for q, v in rm.sample_states(2, 300, seed=13):
        q, v = tuple(q), tuple(v)
        d, dd = grad_D(q, v, {})
        _, r, g = model.D_R_grad(q, v, {})
        assert _close(r, d / degree), v
        assert _close(g, np.array(dd) / degree), v


def _uniform_rule_R(src, q, v, p):
    """R from the former default rule at its first pass: 4 equal panels of
    64 Gauss-Legendre nodes."""
    fn = xc.compile_expr(xc.parse(src))
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for k in range(4):
        u = 0.125 * x + (0.25 * k + 0.125)
        total += sum(0.125 * wi / ui * fn(q, tuple(ui * np.asarray(v)), p)
                     for ui, wi in zip(u, w))
    return total


@pytest.mark.parametrize("src, twin", [
    ("A*(v1^2+v2^2)^1.5", [("A*(v1^2+v2^2)^1.5", 3.0)]),
    ("v1^2 + abs(v2)^3", [("v1^2", 2.0), ("abs(v2)^3", 3.0)]),
    ("abs(v1) + 0.3*v2^2", [("abs(v1)", 1.0), ("0.3*v2^2", 2.0)]),
    ("v1^4*(1+q1^2)", [("v1^4*(1+q1^2)", 4.0)]),
])
def test_smooth_laws_match_homogeneous_twin_and_uniform_rule(src, twin):
    p = {"A": 0.1}
    model = general(src).model(2)
    twin_model = homsum(*twin).model(2)
    for q, v in rm.sample_states(2, 25, seed=8):
        q, v = tuple(q), tuple(v)
        _, r, g = model.D_R_grad(q, v, p)
        assert _close(r, twin_model.R(q, v, p)), v
        assert _close(g, twin_model.D_R_grad(q, v, p)[2]), v
        assert _close(r, _uniform_rule_R(src, q, v, p)), v


def test_each_quadrature_evaluation_is_one_array_call(monkeypatch):
    model = general("v1^2 + abs(v2)^3").model(2)
    calls = count_array_calls(model, monkeypatch)
    q, v = (0.1, 0.2), (0.7, -1.3)
    model.R(q, v, {})
    assert calls == ["_D_nodes"]
    model.D_R_grad(q, v, {})
    assert calls == ["_D_nodes", "_D_grad_nodes"]


@pytest.mark.parametrize("src, p, v", [
    ("c*(v1^2+v2^2)^0.5", {"c": 0.3}, (0.0, 0.0)),
    ("c*abs(v1)^n", {"c": 0.3, "n": 0.5}, (0.0, 0.7)),
])
def test_zero_speed_conventions_take_no_scalar_pass(monkeypatch, src, p, v):
    # a zero base to a power below 1 is masked in array mode, so the kink
    # convention (value and derivative 0) costs no point-by-point pass
    passes = count_scalar_passes(monkeypatch)
    model = general(src).model(2)
    assert model.D_R_grad((0.1, 0.2), v, p) == (0.0, 0.0, [0.0, 0.0])
    assert model.R((0.1, 0.2), v, p) == 0.0
    assert passes == []


@pytest.mark.parametrize("src, v, with_grad", [
    ("v1^1.5", (-0.8,), False),
    ("v1^1.5", (-0.8,), True),
    ("ln(v1)", (-0.5,), False),
    ("ln(v1)", (0.0,), True),
    ("v1^2 + ln(1 - v1)", (1.5,), False),  # fails from u = 2/3 on
    ("v1^2 + ln(1 - v1)", (1.5,), True),
    ("sqrt(v1)*v1^2", (0.0,), True),
])
def test_vectorised_quadrature_domain_error_matches_scalar_loop(
        src, v, with_grad):
    spec = general(src)
    with pytest.raises(xc.EvalDomainError) as ref:
        _scalar_loop_graded(spec, 1, (0.0,), v, {}, with_grad)
    model = spec.model(1)
    call = model.D_R_grad if with_grad else model.R
    with pytest.raises(xc.EvalDomainError) as got:
        call((0.0,), v, {})
    assert str(got.value) == str(ref.value)


def test_sqrt_derivative_at_zero_fails_only_the_gradient():
    spec = general("sqrt(v2)*v1^2")
    q, v = (0.0, 0.0), (1.2, 0.0)
    ref_r, _ = _scalar_loop_graded(spec, 2, q, v, {}, False)
    assert _rel_close(spec.model(2).R(q, v, {}), ref_r)
    with pytest.raises(xc.EvalDomainError, match="sqrt derivative at zero"):
        spec.model(2).D_R_grad(q, v, {})


def test_vectorised_quadrature_still_diverges_for_rest_nonvanishing_d():
    spec = general("v1^2 + 1")
    for call in (spec.model(1).R, spec.model(1).D_R_grad):
        with pytest.raises(rm.QuadratureError):
            call((0.0,), (1.0,), {})


def _exp_overflow_speeds(qc):
    """Speeds above which D = exp(v1^2) - 1, and dD/dv = 2 v1 exp(v1^2),
    overflow at the largest node of the graded rule."""
    u_max = max(u for rule in _graded_nodes(qc) for u, _ in rule)
    big = math.log(sys.float_info.max)
    x = math.sqrt(big)
    for _ in range(50):  # x^2 + ln(2x) = big, by fixed-point iteration
        x = math.sqrt(big - math.log(2.0 * x))
    return math.sqrt(big) / u_max, x / u_max


@pytest.mark.parametrize("src, q, v, which", [
    ("exp(v1^2) - 1", 0.0, 26.8, "R"),  # D overflows near u = 1
    ("exp(v1^2) - 1", 0.0, 26.72, "grad_R"),  # only dD/dv overflows
    ("v1^2*exp(q1^2)", 30.0, 1.0, "R"),
    ("v1^2*exp(q1^2)", 30.0, 1.0, "grad_R"),
])
def test_quadrature_overflow_is_named_not_blamed_on_rest_value(
        src, q, v, which):
    import re
    import warnings

    spec = general(src)
    if src.startswith("exp"):
        d_over, grad_over = _exp_overflow_speeds(spec.quadrature)
        assert v > (d_over if which == "R" else grad_over)
        assert which == "R" or v < d_over
    call = getattr(spec.model(1), "D_R_grad" if which == "grad_R" else which)
    expected = (f"floating-point overflow in subexpression "
                f"'{xc.to_source(spec.raw)}'")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(xc.EvalDomainError,
                           match=f"^{re.escape(expected)}$"):
            call((q,), (v,), {})


# ---------------------------------------------------------------------------
# Dissipative force dR/dv


def test_force_linear_drag():
    g = rm.grad_R_v(homsum(("c*v1^2", 2.0)), ctx([0.0], [3.0], c=1.0))
    assert g == pytest.approx([3.0])


def test_force_quadratic_drag():
    spec = homsum(("A*abs(v1)^3", 3.0))
    c = ctx([0.0], [-2.0], A=1.0)
    g = rm.grad_R_v(spec, c)
    # oracle: finite differences of R = |v|^3 / 3
    fd = xc.fd_gradient(xc.parse("A*abs(v1)^3/3"), c, "velocities", 1e-6)
    assert g == pytest.approx([-4.0], abs=1e-12)
    assert g == pytest.approx(fd, abs=1e-5)


def test_force_null_dissipation():
    g = rm.grad_R_v(rm.null_dissipation(), ctx([1.0, 2.0], [3.0, 4.0]))
    assert np.array_equal(g, np.zeros(2))


def test_force_general_matches_closed():
    spec_c = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    spec_g = general("v1^2 + abs(v1)^3")
    for q, v in rm.sample_states(1, 10, seed=2):
        c = ctx(q, v)
        assert rm.grad_R_v(spec_g, c) == pytest.approx(
            rm.grad_R_v(spec_c, c), rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# Euler identity and positivity


def test_euler_identity_quadratic_exact():
    rep = rm.euler_identity_check(homsum(("c*v1^2", 2.0)), 1, {"c": 0.4})
    assert rep.passed and rep.max_violation <= 1e-12


def test_euler_identity_two_dof_cubic():
    rep = rm.euler_identity_check(homsum(("A*(v1^2+v2^2)^1.5", 3.0)),
                                  2, {"A": 0.8})
    assert rep.passed


def test_euler_identity_null():
    rep = rm.euler_identity_check(rm.null_dissipation(), 1, {})
    assert rep.passed and rep.max_violation == 0.0


def test_positivity_quadratic_passes():
    rep = rm.positivity_scan(homsum(("c*v1^2", 2.0)), 1, {"c": 1.0})
    assert rep.passed
    assert rep.detail == "min D = 0"  # not "-0"


def test_positivity_negative_fails_with_witness():
    rep = rm.positivity_scan(homsum(("-v1^2", 2.0)), 1, {})
    assert not rep.passed
    assert rep.witness is not None
    q, v = rep.witness
    assert -(v[0] ** 2) < 0.0
    assert rep.detail == f"min D = {-rep.max_violation:.6g}"


def test_positivity_configuration_coefficient():
    # D = A(q) |v|^3 with A(q) = q1^2 >= 0
    rep = rm.positivity_scan(homsum(("q1^2*abs(v1)^3", 3.0)), 1, {})
    assert rep.passed


def test_rest_value_check():
    good = rm.rest_value_check(general("v1^2"), 1, {})
    assert good.passed
    bad = rm.rest_value_check(general("v1^2 + q1"), 1, {})
    assert not bad.passed
    assert bad.witness[1] == (0.0,)  # the witness is the state at rest


@pytest.mark.parametrize("check", [
    lambda n: rm.homogeneity_check(homsum(("v1^2", 2.0)).terms[0], 1, {},
                                   samples=n),
    lambda n: rm.euler_identity_check(general("v1^2"), 1, {}, samples=n),
    lambda n: rm.positivity_scan(general("v1^2"), 1, {}, samples=n),
    lambda n: rm.rest_value_check(general("v1^2"), 1, {}, samples=n),
], ids=["homogeneity", "euler_identity", "positivity", "rest_value"])
def test_sampled_checks_need_at_least_one_sample(check):
    assert check(1).samples == 1
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check(0)


def test_sampled_check_counts_a_nan_violation_as_inf():
    # inf - inf in a check's arithmetic must fail the check, not pass it
    states = rm.sample_states(1, 3, seed=0)
    rep = rm._sampled_check("nan", states, lambda q, v: (0.0, math.nan), 1.0)
    assert not rep.passed
    assert rep.max_violation == math.inf
    assert rep.witness == (tuple(states[0][0]), tuple(states[0][1]))


def test_sample_states_reproducible():
    a = rm.sample_states(2, 5, seed=42)
    b = rm.sample_states(2, 5, seed=42)
    for (qa, va), (qb, vb) in zip(a, b):
        assert np.array_equal(qa, qb) and np.array_equal(va, vb)
    speeds = [np.linalg.norm(v) for _, v in rm.sample_states(2, 200, seed=1)]
    assert 0.1 <= min(speeds) and max(speeds) <= 10.0
