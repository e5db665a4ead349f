import copy
import hashlib
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (clear_model_caches, count_array_calls,
                      count_scalar_passes)
from raydiss import config as cf
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import get_builtin
from test_audit import THREE_TERM_SHO
from test_exprcore import _EXACT_POINTS, _grammar_exprs


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
    with pytest.raises(rm.ModelError, match="got nan"):
        rm.DissipationTerm(xc.parse("v1^2"), float("nan"))


@pytest.mark.parametrize("eps", [-1e-3, 0.0, float("nan")])
def test_smooth_eps_must_be_positive(eps):
    # tanh(v/eps) with eps < 0 points along v, and the "friction" pumps
    # energy; 0 and NaN give no width at all
    with pytest.raises(rm.ModelError, match=f"smooth_eps must be > 0, got "
                                            f"{eps}"):
        rm.DissipationTerm(xc.parse("mu*abs(v1)"), 1.0, smooth_eps=eps)


def test_mode_field_consistency():
    # a config names its mode by its own syntax, so these raise only for a
    # direct caller
    v2 = xc.parse("v1^2")
    for args, kwargs, message in [
            (("squiggly",), {}, "unknown dissipation mode 'squiggly'"),
            (("general",), {}, "general mode requires 'raw'"),
            (("homogeneous_sum",), {"raw": v2},
             "homogeneous_sum mode must not set 'raw'"),
            (("general", [rm.DissipationTerm(v2, 2.0)]), {"raw": v2},
             "general mode must not set 'terms'")]:
        with pytest.raises(rm.ModelError) as exc:
            rm.DissipationSpec(*args, **kwargs)
        assert str(exc.value) == message


def test_checks_that_only_the_python_api_reaches():
    # a config checks dof and the mass grid in its own terms first, and
    # picks the evaluator by mode, so these raise only for a direct caller
    v2, one = xc.parse("v1^2"), xc.parse("1")
    for dof, mass, message in [
            (0, [], "dof must be >= 1"),
            (2, [[one, one], [one]], "mass_matrix must be 2x2"),
            (2, [[one, one]], "mass_matrix must be 2x2")]:
        with pytest.raises(rm.ModelError) as exc:
            rm.SystemSpec(dof=dof, mass_matrix=mass, potential=one,
                          dissipation=rm.null_dissipation())
        assert str(exc.value) == message
    ctx = xc.EvalContext((0.0,), (1.0,), {})
    with pytest.raises(rm.ModelError,
                       match="^eval_R_closed requires homogeneous_sum mode$"):
        rm.eval_R_closed(rm.DissipationSpec("general", raw=v2), ctx)
    with pytest.raises(rm.ModelError,
                       match="^eval_R_quadrature requires general mode$"):
        rm.eval_R_quadrature(rm.DissipationSpec(
            "homogeneous_sum", [rm.DissipationTerm(v2, 2.0)]), ctx)
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        rm.sample_states(1, 0, 0)


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
    # mechanics evaluates M at each call, unchanged by the write: b = -k
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
    clear_model_caches()
    # no addend has a velocity degree, so the model is the whole-D rule
    spec = general("v1*tanh(v1/0.001) + v2^2*tanh(v2)")
    assert spec.quadrature_model(2) is spec.model(2)
    for q, v in rm.sample_states(2, 3, seed=4):
        c = ctx(q, v)
        rm.grad_R_v(spec, c)
        rm.eval_R(spec, c)
        rm.eval_R_quadrature(spec, c)
        spec.model(2).D_R_grad(c.q, c.v, {})
    assert calls == [16, 12]  # the main and the estimate rule, once each


def test_runs_do_not_grow_the_expression_compile_cache():
    # 2,000 distinct systems leave every cache of generated code at or
    # below its bound, and repeated runs of the same documents, also with
    # other params, add no entry to any of them
    from raydiss import audit as au
    from raydiss import dynamics as dy

    caches = (xc.compiled, rm._dissipation_model, rm._code, dy._loop,
              dy._point)
    for i in range(2000):
        term = rm.DissipationTerm(xc.parse(f"c*v1^2 + {i}*v1^2"), 2.0)
        term.evaluate((0.0,), (1.0,), {"c": 0.1})
        rm.SystemSpec(1, [[xc.parse("m")]], xc.parse(f"{i}*q1^2"),
                      rm.DissipationSpec("homogeneous_sum", [term]),
                      {"m": 1.0, "c": 0.1}).model
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache

    def run(cfg):
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        assert au.full_audit(cfg.system, traj, cfg.tolerances).passed

    inline = {
        "dof": 2, "params": {"a": 1.0, "A": 0.1},
        "mass_matrix": [["2", "a*cos(q1-q2)"], ["a*cos(q1-q2)", "2"]],
        "potential": "-cos(q1) - cos(q2)",
        "dissipation": {"mode": "homogeneous_sum",
                        "terms": [{"expr": "A*(v1^2+v2^2)^1.5",
                                   "degree": 3}]},
        "initial": {"q": [0.6, -0.3], "v": [0.0, 0.0]}, "t_end": 0.2,
    }
    sizes = []
    for _ in range(2):
        base = cf.config_from_dict({"system": "damped_sho", "t_end": 0.5})
        for c in (0.1, 0.2, 0.3):
            run(base.with_params({"c": c}))
        run(cf.config_from_dict(inline))
        sizes.append([(c.cache_info().currsize, c.cache_info().misses)
                      for c in caches])
    assert sizes[1] == sizes[0]


def test_one_system_per_value_and_a_bounded_cache_of_them():
    # rm.system returns one SystemSpec per value: trees equal by value
    # (here parsed anew, so not the same objects) give the same system, and
    # each field, a param's repr included, tells systems apart; 2,000
    # distinct params leave the cache of systems within its bound
    clear_model_caches()

    def fields(dof=1, potential="0.5*k*q1^2", mode="homogeneous_sum",
               degree=2.0, eps=None, node_count=16, c=0.0):
        if mode == "general":
            d = general("c*v1^2", node_count=node_count)
        else:
            d = rm.DissipationSpec("homogeneous_sum", [
                rm.DissipationTerm(xc.parse("c*v1^2"), degree, eps)])
        mm = [[xc.parse("m") if i == j else xc.parse("0")
               for j in range(dof)] for i in range(dof)]
        return (dof, mm, xc.parse(potential), d,
                {"m": 1.0, "k": 1.0, "c": c})

    first = rm.system(*fields())
    xc.parse.cache_clear()
    again = fields()
    assert again[2] is not first.potential and again[2] == first.potential
    assert rm.system(*again) is first
    assert rm.system(*fields(c=0.0)) is first
    others = [rm.system(*fields(**change)) for change in (
        {"c": -0.0}, {"potential": "0.5*k*q1^4"}, {"degree": 3.0},
        {"eps": 1e-3}, {"mode": "general"}, {"dof": 2})]
    general_pair = [rm.system(*fields(mode="general", node_count=n))
                    for n in (16, 24)]
    systems = [first, *others, general_pair[1]]
    assert len({id(x) for x in systems}) == len(systems)
    assert repr(others[0].params["c"]) == "-0.0"
    assert general_pair[0] is others[4]
    for i in range(2000):
        rm.system(*fields(c=float(i)))
    info = rm._system.cache_info()
    assert info.currsize <= info.maxsize


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


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
def test_systems_and_configs_copy_as_their_fields(clone):
    # a copy is rebuilt from the declared fields and looks up the same
    # compiled models by value, so it runs to the same rows
    from raydiss import dynamics as dy

    def rows(system, cfg):
        return dy.integrate(system, cfg.initial, cfg.t_end,
                            cfg.integrator).rows

    sho = get_builtin("sho")
    copied = clone(sho.system)
    assert copied is not sho.system and copied.params == sho.system.params
    assert rows(copied, sho) == rows(sho.system, sho)
    cfg = cf.config_from_dict({
        "dof": 1, "params": {"m": 1.0, "k": 1.0, "c": 0.05},
        "mass_matrix": [["m"]], "potential": "0.5*k*q1^2",
        "dissipation": {"mode": "general",
                        "raw": "c*v1^2 + c*v1*tanh(v1/0.01)"},
        "initial": {"q": [1.0], "v": [0.0]}, "t_end": 0.5})
    back = clone(cfg)
    assert back.system is not cfg.system
    assert back.system.model.dissipation is cfg.system.model.dissipation
    assert rows(back.system, back) == rows(cfg.system, cfg)


def test_mirrored_mass_entries_of_different_constants_are_checked(
        monkeypatch):
    # -0.0*q1 and 0.0*q1 are different code: the pair is evaluated twice
    # and checked for symmetry, each entry keeping its own sign of zero
    bodies = {}

    def define(signature, body, define=rm._define, **names):
        bodies[signature.split("(")[0]] = body
        return define(signature, body, **names)
    monkeypatch.setattr(rm, "_define", define)
    clear_model_caches()
    two = xc.Const(2.0)
    entry = [xc.BinOp("*", xc.Const(c), xc.Coord(1)) for c in (-0.0, 0.0)]
    system = rm.SystemSpec(2, [[two, entry[0]], [entry[1], two]],
                           xc.parse("0"), rm.null_dissipation())
    M = system.mass((1.0, 0.0))
    assert [math.copysign(1.0, x) for x in (M[0, 1], M[1, 0])] == [-1.0, 1.0]
    assert sum(x.startswith("if not abs(") for x in bodies["_statics"]) == 1


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


@pytest.mark.parametrize("name", ["sho", "damped_sho", "quad_drag_particle",
                                  "pendulum_drag_2dof", "coulomb_block",
                                  "smoothed_sign", "sharp_smoothed_sign"])
def test_d_r_grad_sums_equal_the_value_code(name):
    # D_R_grad takes a term's value from its gradient code, except for sign
    # under smooth_eps, where the gradient code's value is tanh(x/eps);
    # its D and R still equal the value code's left-to-right sums from 0.0
    # bit for bit (the model's D and R are D_R_grad's own values)
    if name == "smoothed_sign":
        terms = [rm.DissipationTerm(xc.parse("mu*v1*sign(v1)"), 1.0,
                                    smooth_eps=0.5),
                 rm.DissipationTerm(xc.parse("c*abs(v2)^3"), 3.0,
                                    smooth_eps=0.5)]
        spec, dof, p = (rm.DissipationSpec("homogeneous_sum", terms), 2,
                        {"mu": 0.4, "c": 0.3})
    elif name == "sharp_smoothed_sign":
        # D = 0.3 |v1| exactly, while dR/dv is the derivative of
        # 0.3 v1 tanh(v1/eps)
        eps = 1e-3
        terms = [rm.DissipationTerm(xc.parse("0.3*v1*sign(v1)"), 1.0,
                                    smooth_eps=eps)]
        spec, dof, p = rm.DissipationSpec("homogeneous_sum", terms), 1, {}
        for v1 in (-0.2, -2e-3, -1e-4, 0.0, 5e-4, 3e-3, 1.5):
            d, r, g = spec.model(1).D_R_grad((0.0,), (v1,), p)
            x = v1 / eps
            assert d == r == 0.3 * abs(v1)
            assert g[0] == pytest.approx(
                0.3 * (math.tanh(x) + x * (1.0 - math.tanh(x) ** 2)),
                rel=1e-13, abs=1e-300)
    else:
        system = get_builtin(name).system
        spec, dof, p = system.dissipation, system.dof, system.params
    model = spec.model(dof)
    for q, v in rm.sample_states(dof, 100, seed=13):
        d, r, _ = model.D_R_grad(q, v, p)
        D = R = 0.0
        for t in spec.terms:
            x = t.evaluate(q, v, p)
            D += x
            R += x / t.degree
        bits = [float(x).hex() for x in (d, r, D, R)]
        assert bits[:2] == bits[2:], (q, v)
    if name == "smoothed_sign":
        smoothed = xc.compile_expr(terms[0].expr, dof, "v", 0.5)
        assert smoothed(q, v, p)[0] != terms[0].evaluate(q, v, p)


def _term_loop(spec, dof, q, v, p):
    """(D, R, dR/dv) of a homogeneous_sum spec as a loop over its terms:
    each term's gradient code (its value code for sign under smooth_eps),
    every sum from 0.0, in term order."""
    D = R = 0.0
    g = [0.0] * dof
    for t in spec.terms:
        d, dv = xc.compile_expr(t.expr, dof, "v", t.smooth_eps)(q, v, p)
        if t.smooth_eps and "sign" in xc.to_source(t.expr):
            d = t.evaluate(q, v, p)
        D += d
        R += d / t.degree
        for j, x in enumerate(dv):
            g[j] += x / t.degree
    return D, R, g


def test_straight_line_d_r_grad_is_the_term_loop_bit_for_bit():
    # the unrolled D_R_grad against the loop it replaced, signed zeros
    # included: terms that give -0.0 (odd powers at a negative zero speed,
    # a negative coefficient), one under smooth_eps with sign, and no terms
    terms = [rm.DissipationTerm(xc.parse("mu*v1*sign(v1)"), 1.0,
                                smooth_eps=0.5),
             rm.DissipationTerm(xc.parse("c*v1^3 + v2^2*v1"), 3.0),
             rm.DissipationTerm(xc.parse("-c*abs(v2)^1.5"), 1.5,
                                smooth_eps=1e-3),
             rm.DissipationTerm(xc.parse("(1 + q1^2)*v2^2"), 2.0)]
    p = {"mu": 0.4, "c": 0.3}
    states = list(rm.sample_states(2, 40, seed=5))
    states += [((0.0, -0.0), v) for v in ((-0.0, -0.0), (0.0, -0.0),
                                          (-0.0, 1.5), (-2.0, 0.0))]
    for ts in (terms, terms[1:3], []):
        spec = rm.DissipationSpec("homogeneous_sum", ts)
        model = spec.model(2)
        for q, v in states:
            # repr tells -0.0 from 0.0, and every double from the next
            assert (repr(model.D_R_grad(q, v, p))
                    == repr(_term_loop(spec, 2, q, v, p))), (ts, q, v)


# ---------------------------------------------------------------------------
# R's own value lines against D_R_grad's R


def _outcome(fn, *args):
    """repr of fn(*args), which tells -0.0 from 0.0 and every double from
    the next, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as e:
        return type(e), str(e)


def _r_of_d_r_grad(model):
    return lambda q, v, p: model.D_R_grad(q, v, p)[1]


_SIGN_EPS_TERMS = [
    rm.DissipationTerm(xc.parse("mu*v1*sign(v1)"), 1.0, smooth_eps=0.5),
    rm.DissipationTerm(xc.parse("c*v1^3 + v2^2*v1"), 3.0),
    rm.DissipationTerm(xc.parse("-c*abs(v2)^1.5"), 1.5, smooth_eps=1e-3)]


def _value_case(name):
    """(model, dof, params) of a builtin, or of a named D: sign under
    smooth_eps among other terms, a rest alone, and terms with a rest."""
    if name == "sign_under_smooth_eps":
        spec = rm.DissipationSpec("homogeneous_sum", _SIGN_EPS_TERMS)
        return spec.model(2), 2, {"mu": 0.4, "c": 0.3}
    if name in ("rest_alone", "terms_and_rest"):
        raw = {"rest_alone": "c*v1*tanh(v1/0.01)",
               "terms_and_rest": "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.01) "
                                 "+ 0.1*v2^2"}[name]
        spec = general(raw)
        dof = 1 if name == "rest_alone" else 2
        assert spec.split[1] is not None
        return spec.model(dof), dof, {"c": 0.05, "A": 0.1}
    system = get_builtin(name).system
    return system.model.dissipation, system.dof, system.params


@pytest.mark.parametrize("name", ["sho", "damped_sho", "quad_drag_particle",
                                  "coulomb_block", "pendulum_drag_2dof",
                                  "sign_under_smooth_eps", "rest_alone",
                                  "terms_and_rest"])
def test_r_value_lines_are_d_r_grads_r_bit_for_bit(name):
    # R runs R's own value lines, which give D_R_grad's R at sampled
    # states and at zero speeds of either sign
    model, dof, p = _value_case(name)
    states = list(rm.sample_states(dof, 100, seed=17))
    states += [((0.5,) * dof, v) for v in ((0.0,) * dof, (-0.0,) * dof,
                                           (-0.0,) + (1.5,) * (dof - 1))]
    for q, v in states:
        assert _outcome(model.R, q, v, p) == _outcome(
            _r_of_d_r_grad(model), q, v, p), (q, v)
    assert "_quad(q, v, p, True)" not in "".join(model.R_lines)


def test_r_value_lines_are_generated_on_first_use():
    # a load, a run and its sampled checks generate neither R's lines nor
    # R; the stationarity audit generates the lines
    from raydiss import audit as au
    from raydiss import dynamics as dy

    clear_model_caches()
    cfg = cf.config_from_dict({**THREE_TERM_SHO, "t_end": 1.0})
    model = cfg.system.model.dissipation
    traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end, cfg.integrator)
    cfg.system.sampled_check("euler_identity", 20, 1)
    cfg.system.sampled_check("positivity", 20, 1)
    assert "R_lines" not in vars(model) and "R" not in vars(model)
    au.full_audit(cfg.system, traj, cfg.tolerances)
    assert "R_lines" in vars(model) and "R" not in vars(model)
    # the lines read no gradient: no tangent of any term is summed
    assert not any(x.startswith(("D", "g")) for x in model.R_lines)


def test_sqrt_derivative_at_rest_fails_d_r_grad_not_r():
    # the deliberate difference: at rest a sqrt(v1^2)^3 law's gradient
    # code raises for the derivative of sqrt at zero, while R, from the
    # value code alone, is 0.0
    spec = homsum(("c*sqrt(v1^2)^3", 3.0))
    model, p = spec.model(1), {"c": 0.1}
    with pytest.raises(xc.EvalDomainError, match="sqrt derivative at zero"):
        model.D_R_grad((0.3,), (0.0,), p)
    assert repr(model.R((0.3,), (0.0,), p)) == "0.0"
    assert rm.eval_R_closed(spec, ctx([0.3], [0.0], c=0.1)) == 0.0


_GRADIENT_ONLY = ("sqrt derivative at zero",
                  "derivative w.r.t. exponent needs positive base",
                  "floating-point overflow")


@settings(max_examples=400, deadline=None, derandomize=True)
@example(src="sqrt(v1)", q=(0.0, 0.0), v=(0.0, 0.7), eps=None)
@example(src="(-2)^v1", q=(0.0, 0.0), v=(2.0, 0.7), eps=None)
@example(src="c*v1^-1", q=(0.0, 0.0), v=(1e-200, 0.7), eps=1e-3)
@example(src="sqrt(v2) + ln(v1)", q=(0.0, 0.0), v=(-1.3, 0.0), eps=None)
@given(src=_grammar_exprs(), v=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       q=st.tuples(_EXACT_POINTS, _EXACT_POINTS),
       eps=st.sampled_from([None, 1e-3]))
def test_r_value_lines_on_the_grammar(src, q, v, eps):
    # a term of any expression in the grammar: R gives D_R_grad's R bit
    # for bit, or raises its error; where they differ, D_R_grad raised an
    # error of the term's gradient code alone, and R gives what the term's
    # value code gives, value or error
    node = xc.parse(src)
    p = {"c": 0.7, "k": 3.0}
    term = rm.DissipationTerm(node, 2.0, smooth_eps=eps)
    model = rm.DissipationModel((term,), None, rm.QuadratureConfig(), 2)
    got = _outcome(model.R, q, v, p)
    ref = _outcome(_r_of_d_r_grad(model), q, v, p)
    if got == ref:
        return
    gradient = xc.compile_expr(node, 2, "v", eps)
    assert _outcome(lambda *a: gradient(*a)[0], q, v, p) == ref
    assert ref[0] is xc.EvalDomainError
    assert ref[1].startswith(_GRADIENT_ONLY), ref
    value = xc.compile_expr(node, 2)
    assert got == _outcome(lambda *a: 0.0 + value(*a) / 2.0, q, v, p)


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


def test_quadrature_config_is_bounded():
    # the smallest edge GRADING^(panels-1) is a normal double up to
    # MAX_PANELS, where the rule still works without a numpy warning; one
    # past either bound is rejected before any rule is built
    assert sys.float_info.min <= rm.GRADING ** (rm.MAX_PANELS - 1)
    assert rm.GRADING ** rm.MAX_PANELS < sys.float_info.min
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _ = rm.eval_R_quadrature(general("v1^4", panels=rm.MAX_PANELS),
                                      ctx([0.0], [2.0]))
    assert val == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"panels must be in 1\.\.374$"):
        rm.QuadratureConfig(panels=rm.MAX_PANELS + 1)
    with pytest.raises(ValueError, match=r"node_count must be in 8\.\.256$"):
        rm.QuadratureConfig(node_count=rm.MAX_NODES + 1)


def test_quadrature_tolerance_rejects_nan():
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        rm.QuadratureConfig(tolerance=float("nan"))


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


def _draw_at_speeds(monkeypatch, speeds, *args):
    """sample_states' draw of `args` (dof, samples, seed) with the speeds
    log-uniform in `speeds` instead of rm.V_NORM_RANGE, outside its cache."""
    monkeypatch.setattr(rm, "V_NORM_RANGE", speeds)
    return rm._draw.__wrapped__(*args)


def test_vectorised_quadrature_matches_scalar_loop(monkeypatch):
    p = {"A": 1.3, "mu": 0.7}
    states = list(_draw_at_speeds(monkeypatch, (0.1, 2.0), 2, 12, 21))
    states += [((0.3, -1.0), v) for v in
               ((0.0, 0.0), (0.0, 0.8), (-1.1, 0.0), (1.0, 0.3))]
    for src in QUAD_ORACLE_D:
        spec = general(src)
        model = spec.quadrature_model(2)
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
    model = general("v1*tanh(v1/0.001)").quadrature_model(1)
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
    model = general("c*v1*tanh(v1/0.001)").quadrature_model(1)
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
    model = general(src).quadrature_model(2)
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
    model = general(src).quadrature_model(2)
    twin_model = homsum(*twin).model(2)
    for q, v in rm.sample_states(2, 25, seed=8):
        q, v = tuple(q), tuple(v)
        _, r, g = model.D_R_grad(q, v, p)
        assert _close(r, twin_model.R(q, v, p)), v
        assert _close(g, twin_model.D_R_grad(q, v, p)[2]), v
        assert _close(r, _uniform_rule_R(src, q, v, p)), v


def test_each_quadrature_evaluation_is_one_array_call(monkeypatch):
    model = general("v1^2 + abs(v2)^3").quadrature_model(2)
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
    model = general(src).quadrature_model(2)
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
    model = spec.quadrature_model(1)
    call = model.D_R_grad if with_grad else model.R
    with pytest.raises(xc.EvalDomainError) as got:
        call((0.0,), v, {})
    assert str(got.value) == str(ref.value)


def test_sqrt_derivative_at_zero_fails_only_the_gradient():
    spec = general("sqrt(v2)*v1^2")
    q, v = (0.0, 0.0), (1.2, 0.0)
    ref_r, _ = _scalar_loop_graded(spec, 2, q, v, {}, False)
    model = spec.quadrature_model(2)
    assert _rel_close(model.R(q, v, {}), ref_r)
    with pytest.raises(xc.EvalDomainError, match="sqrt derivative at zero"):
        model.D_R_grad(q, v, {})


def test_vectorised_quadrature_still_diverges_for_rest_nonvanishing_d():
    spec = general("v1^2 + 1")
    model = spec.quadrature_model(1)
    for call in (model.R, model.D_R_grad):
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
    call = getattr(spec.quadrature_model(1),
                   "D_R_grad" if which == "grad_R" else which)
    expected = (f"floating-point overflow in subexpression "
                f"'{xc.to_source(spec.raw)}'")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(xc.EvalDomainError,
                           match=f"^{re.escape(expected)}$"):
            call((q,), (v,), {})


# ---------------------------------------------------------------------------
# General mode split: closed-form addends and the graded rule for the rest

MIXED_D = "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)"
MIXED_PARAMS = {"A": 0.1, "c": 0.3}
REST_ONLY_D = "c*v1*tanh(v1/0.001) + c*v2*tanh(v2/0.01)"


def test_general_split_takes_the_addends_of_known_positive_degree():
    terms, rest = general("v1^2 - 0.5*abs(v2)^3 + c*v1^-1").split
    assert [(xc.to_source(t.expr), t.degree) for t in terms] == [
        ("v1 ^ 2.0", 2.0), ("-(0.5 * abs(v2) ^ 3.0)", 3.0)]
    assert xc.to_source(rest) == "c * v1 ^ (-1.0)"  # degree -1: the rule
    spec = general("c*v1*tanh(v1/0.001) - v2^c")
    assert spec.split == ((), spec.raw)
    assert general(MIXED_D).split[1] == xc.parse("c*v1*tanh(v1/0.001)")
    declared = homsum(("v1^2", 2.0))
    assert declared.split == (declared.terms, None)


def test_homogeneous_general_d_is_its_homogeneous_sum_twin_bit_for_bit(
        monkeypatch):
    # no addend is left for the rule, so the model makes no array call
    model = general("A*(v1^2+v2^2)^1.5").model(2)
    twin = homsum(("A*(v1^2+v2^2)^1.5", 3.0)).model(2)
    assert type(model) is type(twin)
    for q, v in rm.sample_states(2, 25, seed=8):
        got, ref = model.D_R_grad(q, v, MIXED_PARAMS), twin.D_R_grad(
            q, v, MIXED_PARAMS)
        assert repr(got) == repr(ref), v
    # every shape of D is one model class whose D and R are D_R_grad's
    # values bit for bit; with a rest for the rule, D_R_grad makes one
    # gradient pass, R one value pass and D none, and otherwise no call
    three_terms = cf.config_from_dict(THREE_TERM_SHO).system.dissipation
    for spec, dof, rest in [
            (rm.null_dissipation(), 2, False), (three_terms, 1, False),
            (general("A*(v1^2+v2^2)^1.5"), 2, False),
            (general(MIXED_D), 2, True), (general(REST_ONLY_D), 2, True)]:
        model = spec.model(dof)
        assert type(model) is rm.DissipationModel
        assert (spec.split[1] is not None) == rest
        calls = count_array_calls(model, monkeypatch)
        for q, v in rm.sample_states(dof, 10, seed=8):
            d, r, _ = model.D_R_grad(q, v, MIXED_PARAMS)
            assert calls == ["_D_grad_nodes"] * rest
            assert repr(model.R(q, v, MIXED_PARAMS)) == repr(r), v
            assert calls == ["_D_grad_nodes", "_D_nodes"] * rest
            assert repr(model.D(q, v, MIXED_PARAMS)) == repr(d), v
            assert calls == ["_D_grad_nodes", "_D_nodes"] * rest
            calls.clear()


def test_split_law_matches_the_whole_d_quadrature(monkeypatch):
    # the closed form of the norm addend plus the rule over the tanh
    # addend against the rule over the whole D, within the rule's own
    # tolerance; D and R are the split's D_R_grad values bit for bit, and
    # each evaluation is one array call of the tanh addend's rule. D_R_grad
    # is the closed part's values plus the rule's, bit for bit
    spec = general(MIXED_D)
    model, whole = spec.model(2), spec.quadrature_model(2)
    closed = general("A*(v1^2+v2^2)^1.5").model(2)
    rule = general("c*v1*tanh(v1/0.001)").model(2)
    tol = spec.quadrature.tolerance
    calls = count_array_calls(model, monkeypatch)
    states = _draw_at_speeds(monkeypatch, (1e-3, 10.0), 2, 40, 3)
    for k, (q, v) in enumerate(states):
        d, r, g = model.D_R_grad(q, v, MIXED_PARAMS)
        (dc, rc, gc), (dr, rr, gr) = (closed.D_R_grad(q, v, MIXED_PARAMS),
                                      rule.D_R_grad(q, v, MIXED_PARAMS))
        assert repr((d, r, g)) == repr(
            (dc + dr, rc + rr, [a + b for a, b in zip(gc, gr)])), v
        _, r_whole, g_whole = whole.D_R_grad(q, v, MIXED_PARAMS)
        assert _close(r, r_whole, tol) and _close(g, g_whole, tol), v
        assert model.R(q, v, MIXED_PARAMS) == r
        assert model.D(q, v, MIXED_PARAMS) == d
        assert calls == ["_D_grad_nodes", "_D_nodes"] * (k + 1)
    assert rm.eval_R_quadrature(spec, ctx(q, v, **MIXED_PARAMS))[0] == (
        whole.R(q, v, MIXED_PARAMS))


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
    rep = rm.euler_identity_check(homsum(("c*v1^2", 2.0)).model(1), 1,
                                  {"c": 0.4})
    assert rep.passed and rep.max_violation <= 1e-12


def test_euler_identity_two_dof_cubic():
    rep = rm.euler_identity_check(
        homsum(("A*(v1^2+v2^2)^1.5", 3.0)).model(2), 2, {"A": 0.8})
    assert rep.passed


def test_euler_identity_null():
    rep = rm.euler_identity_check(rm.null_dissipation().model(1), 1, {})
    assert rep.passed and rep.max_violation == 0.0


def test_positivity_quadratic_passes():
    rep = rm.positivity_scan(homsum(("c*v1^2", 2.0)).model(1), 1, {"c": 1.0})
    assert rep.passed
    assert rep.detail == "min D = 0"  # not "-0"


def test_positivity_negative_fails_with_witness():
    rep = rm.positivity_scan(homsum(("-v1^2", 2.0)).model(1), 1, {})
    assert not rep.passed
    assert rep.witness is not None
    q, v = rep.witness
    assert -(v[0] ** 2) < 0.0
    assert rep.detail == f"min D = {-rep.max_violation:.6g}"


def test_positivity_configuration_coefficient():
    # D = A(q) |v|^3 with A(q) = q1^2 >= 0
    rep = rm.positivity_scan(homsum(("q1^2*abs(v1)^3", 3.0)).model(1), 1,
                             {})
    assert rep.passed


def test_rest_value_check():
    good = rm.rest_value_check(general("v1^2").model(1), 1, {})
    assert good.passed
    bad = rm.rest_value_check(general("v1^2 + q1").model(1), 1, {})
    assert not bad.passed
    assert bad.witness[1] == (0.0,)  # the witness is the state at rest


@pytest.mark.parametrize("check", [
    lambda n: rm.homogeneity_check(homsum(("v1^2", 2.0)).terms[0], 1, {},
                                   samples=n),
    lambda n: rm.euler_identity_check(general("v1^2").model(1), 1, {},
                                       samples=n),
    lambda n: rm.positivity_scan(general("v1^2").model(1), 1, {}, samples=n),
    lambda n: rm.rest_value_check(general("v1^2").model(1), 1, {},
                                   samples=n),
], ids=["homogeneity", "euler_identity", "positivity", "rest_value"])
def test_sampled_checks_need_at_least_one_sample(check):
    assert check(1).samples == 1
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check(0)


def test_sampled_check_looks_its_check_up_by_name():
    # each name takes its own check; another name, "euler" among them,
    # raises KeyError and stores nothing, where it once stored a positivity
    # report
    system = get_builtin("damped_sho").system
    for name in ("euler_identity", "positivity"):
        assert system.sampled_check(name, 5, 11).name == name
    for name in ("euler", "homogeneity"):
        with pytest.raises(KeyError):
            system.sampled_check(name, 5, 11)
        assert (name, 5, 11) not in system._sampled


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


def test_sample_states_are_one_shared_immutable_draw():
    # config loads and audits draw the same few seeded sets: one draw per
    # arguments is kept, as tuples that no caller can change, in a cache
    # of fixed size
    a = rm.sample_states(2, 100, 20260823)
    assert rm.sample_states(2, 100, 20260823) is a
    # the draws every check reads are pinned, bit for bit
    assert a[0] == ((-1.8350293311613068, -1.299356228655277),
                    (4.848572066642935, -6.953757208472805))
    assert hashlib.sha256(repr(a).encode()).hexdigest().startswith(
        "1490ca4c7525ceb8")
    assert type(a) is tuple and len(a) == 100
    assert all(type(q) is tuple and type(v) is tuple for q, v in a)
    assert rm.sample_states(2, 100, 20260824) != a
    for seed in range(3 * rm._SAMPLE_CACHE):
        rm.sample_states(1, 2, seed)
    assert rm._draw.cache_info().currsize == rm._SAMPLE_CACHE


class _ZeroNormal:
    """A generator whose normal draws are all zero, and whose uniform
    draws are their lower bound."""

    def normal(self, size):
        return np.zeros(size)

    def uniform(self, lo, hi, size=None):
        return lo if size is None else np.full(size, lo)


def test_a_direction_draw_of_norm_zero_is_e1(monkeypatch):
    # the sampled states and the audit's probes take their directions
    # from one helper; a zero draw, which numpy's normal never gives in
    # practice, is the first unit vector for both
    from raydiss import audit as au

    assert rm._direction(_ZeroNormal(), 3) == ([1.0, 0.0, 0.0], 1.0)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroNormal())
    assert au._probe_directions.__wrapped__(2, 3, 0) == ((1.0, 0.0),) * 3
    speed = float(np.exp(np.log(rm.V_NORM_RANGE[0])))
    assert rm._draw.__wrapped__(2, 2, 0) == (
        ((-2.0, -2.0), (speed, 0.0)),) * 2


def test_sample_states_normalise_by_the_left_to_right_norm():
    # v = speed * d / |d| with |d| = sqrt(d1 d1 + d2 d2) summed left to
    # right, on numpy's seeded draws, including the states where numpy's
    # norm rounds differently
    rng = np.random.default_rng(7)
    lo, hi = np.log(0.1), np.log(10.0)
    moved = 0
    for q, v in rm.sample_states(2, 200, seed=7):
        assert q == tuple(rng.uniform(-2.0, 2.0, 2).tolist())
        d = rng.normal(size=2).tolist()
        speed = float(np.exp(rng.uniform(lo, hi)))
        n = math.sqrt(d[0] * d[0] + d[1] * d[1])
        assert v == (speed * d[0] / n, speed * d[1] / n)
        moved += n != np.linalg.norm(d)
    assert moved


def test_euler_check_forms_v_dot_grad_as_the_sample_w(monkeypatch):
    # the Euler check's v.dR/dv is a sample row's W bit for bit, pinned on
    # a 2-dof pendulum state where numpy's np.dot rounds differently
    from raydiss import dynamics as dy

    b = get_builtin("pendulum_drag_2dof")
    sm = b.system.model
    rng = np.random.default_rng(18)
    for _ in range(200):
        q, v = (tuple(rng.uniform(-2.0, 2.0, 2).tolist()) for _ in range(2))
        D, _, g = sm.dissipation.D_R_grad(q, v, sm.params)
        if float(np.dot(v, g)) != v[0] * g[0] + v[1] * g[1]:
            break
    else:
        pytest.fail("no state where numpy's np.dot differs")
    traj = dy.integrate(b.system, dy.State(0.0, q, v), 0.01,
                        dy.IntegratorConfig(method="rk4", dt=0.01))
    W = traj.diagnostics()[0].W
    monkeypatch.setattr(rm, "sample_states",
                        lambda dof, samples, seed: [(q, v)])
    rep = rm.euler_identity_check(sm.dissipation, 2, b.system.params)
    assert rep.max_violation == abs(W - D) / (1.0 + abs(D))


@pytest.mark.parametrize("name", ["sho", "pendulum_drag_2dof", "full_mass_3dof",
                                  "skew"])
def test_mass_is_statics_mass_bit_for_bit(name):
    # the mass alone, from the entries' value code, is statics' M, and
    # raises statics' error where the symmetry check fails
    from test_dynamics import full_mass_3dof

    if name == "full_mass_3dof":
        sys = full_mass_3dof()
    elif name == "skew":
        sys = rm.SystemSpec(dof=2, mass_matrix=[
            [xc.parse("2"), xc.parse("q1")],
            [xc.parse("q1 + 1e-9*q2"), xc.parse("2")]],
            potential=xc.parse("0"), dissipation=rm.null_dissipation())
    else:
        sys = get_builtin(name).system
    sm = sys.model
    for q, _ in rm.sample_states(sys.dof, 50, seed=5):
        try:
            expected = sm.statics(q, sm.c)[0]
        except rm.MassMatrixError as e:
            with pytest.raises(rm.MassMatrixError) as info:
                sm.mass(q, sm.c)
            assert str(info.value) == str(e)
            continue
        assert [[x.hex() for x in row] for row in sm.mass(q, sm.c)] == [
            [x.hex() for x in row] for row in expected]
