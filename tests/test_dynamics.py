import dataclasses
import gc
import math
import os
import re
import struct
import sys
import threading
import warnings
import weakref
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import mechanics_oracle
import stepper_oracle
from conftest import clear_model_caches, count_array_calls, count_scalar_passes
from raydiss import audit as au
from raydiss import config as cf
from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import BUILTIN_NAMES, get_builtin


def make_sho():
    return get_builtin("sho").system


def make_damped_sho():
    return get_builtin("damped_sho").system


def make_quad_drag_particle():
    return get_builtin("quad_drag_particle").system


def free_particle(dissipation=None):
    return rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1")]],
                         potential=xc.parse("0"),
                         dissipation=dissipation or rm.null_dissipation())


def pendulum():
    return rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1")]],
                         potential=xc.parse("-cos(q1)"),
                         dissipation=rm.null_dissipation())


# ---------------------------------------------------------------------------
# Acceleration assembly


def test_accel_sho():
    a = dy.accel(make_sho(), dy.State(0.0, [1.0], [0.0]))
    assert a == pytest.approx([-1.0])


def test_accel_damped_sho_pure_drag():
    a = dy.accel(make_damped_sho(), dy.State(0.0, [0.0], [1.0]))
    assert a == pytest.approx([-0.2])


def test_accel_quad_drag():
    a = dy.accel(make_quad_drag_particle(), dy.State(0.0, [0.0], [2.0]))
    assert a == pytest.approx([-2.0])


def test_accel_configuration_dependent_mass():
    # 1-dof with M = 1 + q1^2: EOM is (1+q^2) qdd + q v^2 = -dV/dq
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1 + q1^2")]],
                        potential=xc.parse("0.5*q1^2"),
                        dissipation=rm.null_dissipation())
    q, v = 0.7, 1.3
    a = dy.accel(sys, dy.State(0.0, [q], [v]))
    expected = (-q - q * v * v) / (1.0 + q * q)
    assert a == pytest.approx([expected], rel=1e-12)


def test_mass_matrix_must_be_positive_definite():
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("-1")]],
                        potential=xc.parse("0"),
                        dissipation=rm.null_dissipation())
    with pytest.raises(dy.MassMatrixError, match=r"q=.*\(t=0\.0\)"):
        dy.accel(sys, dy.State(0.0, [0.0], [0.0]))


def test_asymmetric_mass_raises_from_accel():
    # the off-diagonal pair has different expressions that agree at q1 = 0
    sys = rm.SystemSpec(
        dof=2,
        mass_matrix=[[xc.parse("2"), xc.parse("0.1*q1")],
                     [xc.parse("0.1*sin(q1)"), xc.parse("2")]],
        potential=xc.parse("0"), dissipation=rm.null_dissipation())
    dy.accel(sys, dy.State(0.0, [0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(dy.MassMatrixError, match=r"not symmetric.*t=1\.5"):
        dy.accel(sys, dy.State(1.5, [1.0, 0.0], [1.0, 0.0]))


def _reference_accel(sys, q, v):
    """The einsum + np.linalg.solve assembly, with every piece evaluated
    per expression through exprcore rather than the system's model."""
    ctx = sys.ctx(q, v)
    M = np.array([[xc.evaluate(e, ctx) for e in row]
                  for row in sys.mass_matrix])
    dM = np.moveaxis(np.array([[xc.grad_q(e, ctx) for e in row]
                               for row in sys.mass_matrix]), 2, 0)
    va = np.asarray(v, dtype=float)
    b = (-xc.grad_q(sys.potential, ctx)
         - rm.grad_R_v(sys.dissipation, ctx)
         + 0.5 * np.einsum("a,jab,b->j", va, dM, va)
         - np.einsum("j,jab->ab", va, dM) @ va)
    return np.linalg.solve(M, b)


def full_mass_3dof():
    # M = diag(2 + q_a^2) + s s^T is positive definite everywhere, and
    # every entry depends on q, so dM/dq has off-diagonal terms in every
    # direction; the (3, 1) entry is the (1, 3) product written in the
    # other order, which takes the evaluated-twice symmetry path
    s = ["sin(q1+q2)", "cos(q2-q3)", "q1*sin(q3)"]
    mm = [[f"{'2 + q%d^2 + ' % (a + 1) if a == b else ''}"
           f"{s[min(a, b)]}*{s[max(a, b)]}" for b in range(3)]
          for a in range(3)]
    mm[2][0] = f"{s[2]}*{s[0]}"
    terms = [rm.DissipationTerm(xc.parse("c*(v1^2 + v2^2 + v3^2)"), 2.0),
             rm.DissipationTerm(xc.parse("(1 + q1^2)*abs(v2)^3"), 3.0)]
    return rm.SystemSpec(
        dof=3, mass_matrix=[[xc.parse(e) for e in row] for row in mm],
        potential=xc.parse("0.5*k*(q1^2 + q2^2 + q3^2) + q1*q2*q3"),
        dissipation=rm.DissipationSpec("homogeneous_sum", terms),
        params={"c": 0.3, "k": 2.0})


def sparse_mass_3dof():
    # each entry references a subset of the coordinates (the (2, 3) pair
    # none), so dM_ac/dq_j is a structural zero for the other j; the
    # diagonal dominates for q in [-2, 2]^3, so M is positive definite
    mm = [["m*(2 + q1^2)", "0.3*sin(q2)", "0.1*q3"],
          ["0.3*sin(q2)", "3 + 0.5*cos(q3)", "0"],
          ["0.1*q3", "0", "2 + 0.2*q1*q2"]]
    return rm.SystemSpec(
        dof=3, mass_matrix=[[xc.parse(e) for e in row] for row in mm],
        potential=xc.parse("0.5*k*(q1^2 + q2^2 + q3^2)"),
        dissipation=rm.DissipationSpec("homogeneous_sum", [
            rm.DissipationTerm(xc.parse("c*(v1^2 + v2^2 + v3^2)"), 2.0)]),
        params={"c": 0.3, "k": 2.0, "m": 1.5})


def _generated(make, monkeypatch):
    """(system, {function name: body lines}) of the functions that
    SystemModel defines for the system make() returns."""
    bodies = {}
    clear_model_caches()

    def define(signature, body, define=rm._define, **names):
        bodies[signature.split("(")[0]] = body
        return define(signature, body, **names)
    monkeypatch.setattr(rm, "_define", define)
    sys = make()
    sys.model
    return sys, bodies


@pytest.mark.parametrize("make", [
    lambda: get_builtin("pendulum_drag_2dof").system, full_mass_3dof])
def test_accel_matches_numpy_assembly(make, monkeypatch):
    sys, bodies = _generated(make, monkeypatch)
    # one symmetry check, for the (1, 3) pair written in two orders
    assert sum(x.startswith("if not abs(") for x in bodies["_statics"]) == (
        1 if sys.dof == 3 else 0)
    for q, v in rm.sample_states(sys.dof, 50, seed=17):
        a = dy.accel(sys, dy.State(0.0, q, v))
        ref = _reference_accel(sys, q, v)
        assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["sho", "damped_sho", "quad_drag_particle",
                                  "pendulum_drag_2dof", "coulomb_block"])
def test_mass_is_the_compiled_entry_values(name):
    sys = get_builtin(name).system
    for q, v in rm.sample_states(sys.dof, 10, seed=3):
        ctx = sys.ctx(q, v)
        M = sys.mass(q)
        dM = sys.mass_grad(q)
        for a, row in enumerate(sys.mass_matrix):
            for b, e in enumerate(row):
                assert M[a, b] == xc.evaluate(e, ctx)
                assert np.array_equal(dM[:, a, b], xc.grad_q(e, ctx))


def _mass_system(entries, params=None):
    return rm.SystemSpec(
        dof=len(entries),
        mass_matrix=[[xc.parse(e) for e in row] for row in entries],
        potential=xc.parse("0"), dissipation=rm.null_dissipation(),
        params=params or {})


@pytest.mark.parametrize("sys, q, match", [
    (_mass_system([["1", "q1"], ["q1", "1"]]), [2.0, 0.0],
     "not positive definite"),
    (_mass_system([["2", "0"], ["0", "1 - q2"]]), [0.0, 1.0],
     "not positive definite"),
    (_mass_system([["m*(1 + q1^2)"]], {"m": math.nan}), [0.5],
     "not positive definite"),
    (_mass_system([["m"]], {"m": math.nan}), [0.5],
     "not positive definite"),
    (_mass_system([["2", "0.5*q1"], ["0.5*sin(q1)", "2"]]), [1.0, 0.0],
     "not symmetric"),
])
def test_mass_matrix_errors_name_the_state(sys, q, match):
    s = dy.State(0.25, q, [0.0] * len(q))
    with pytest.raises(dy.MassMatrixError,
                       match=match + r" at q=\[.*\] \(t=0\.25\)"):
        dy.accel(sys, s)
    with pytest.raises(dy.MassMatrixError,
                       match=match + r" at q=\[.*\] \(t=0\.25\)"):
        dy.integrate(sys, s, 1.0, dy.IntegratorConfig())


def test_mid_run_mass_matrix_error_names_the_stage_time():
    # M = 1 - q1 loses definiteness once q1 passes 1, at a stage of a step
    sys = _mass_system([["1 - q1"]])
    with pytest.raises(dy.MassMatrixError,
                       match=r"not positive definite at q=\[1\.0\d*\] "
                             r"\(t=0\.6\d*\)$"):
        dy.integrate(sys, dy.State(0.0, [0.0], [1.0]), 10.0,
                     dy.IntegratorConfig(method="rk4", dt=0.01))


@pytest.mark.parametrize("mass, potential, src", [
    ("1 + exp(q1)", "0", "1.0 + exp(q1)"), ("1", "exp(q1)", "exp(q1)")])
def test_overflow_in_mass_or_potential_names_the_expression(mass, potential,
                                                            src):
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse(mass)]],
                        potential=xc.parse(potential),
                        dissipation=rm.null_dissipation())
    match = f"floating-point overflow in subexpression '{re.escape(src)}'"
    with pytest.raises(xc.EvalDomainError, match=match):
        dy.accel(sys, dy.State(0.0, [800.0], [0.0]))
    with pytest.raises(xc.EvalDomainError, match=match):
        dy.integrate(sys, dy.State(0.0, [800.0], [0.0]), 1.0,
                     dy.IntegratorConfig())


def test_overflow_in_a_hoisted_constant_names_its_expression():
    # exp(k) depends on params only, so constants(p) computes it, in the
    # potential's own overflow guard, on the model's first read of c;
    # accel and integrate read it first. A c that raised is not kept, so
    # the next read raises again, and a system at another k has its own
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("m")]],
                        potential=xc.parse("exp(k)*q1^2"),
                        dissipation=rm.null_dissipation(),
                        params={"m": 1.0, "k": 800.0})
    s = dy.State(0.0, [0.5], [0.0])
    match = r"floating-point overflow in subexpression 'exp\(k\) \* q1"
    with pytest.raises(xc.EvalDomainError, match=match):
        dy.accel(sys, s)
    with pytest.raises(xc.EvalDomainError, match=match):
        dy.integrate(sys, s, 1.0, dy.IntegratorConfig())
    assert "c" not in vars(sys.model)
    with pytest.raises(xc.EvalDomainError, match=match):
        sys.model.c
    with pytest.raises(TypeError):
        sys.params["k"] = 0.0
    new = dataclasses.replace(sys, params={**sys.params, "k": 0.0})
    assert dy.accel(new, s).tolist() == [-1.0]


def _asymmetric_2dof():
    # the off-diagonal pair has different expressions that agree at q1 = 0
    return _mass_system([["2", "0.1*q1"], ["0.1*sin(q1)", "2"]])


def _constant_mass_2dof():
    # a q-free mass with an off-diagonal entry, and a potential undefined
    # at q1 = 0, where no mass entry needs it
    return rm.SystemSpec(
        dof=2, mass_matrix=[[xc.parse(e) for e in row]
                            for row in [["2", "a"], ["a", "1"]]],
        potential=xc.parse("-k/q1 + 0.5*k*q2^2"),
        dissipation=rm.null_dissipation(), params={"a": 0.7, "k": 1.5})


def _sign_eps_sqrt():
    # a sign term under smooth_eps, which rhs values by its own code, and
    # a term undefined at q1 < 0
    d = rm.DissipationSpec("homogeneous_sum", [
        rm.DissipationTerm(xc.parse("mu*v1*sign(v1)"), 1.0, smooth_eps=1e-3),
        rm.DissipationTerm(xc.parse("c*sqrt(q1)*v1^2"), 2.0)])
    return dataclasses.replace(pendulum(), dissipation=d,
                               params={"c": 0.3, "mu": 0.2})


def _rule_error():
    # a graded rule of two panels, too coarse for the tanh addend: its R
    # fails the rule's error estimate at every state but rest
    d = rm.DissipationSpec(
        "general", raw=xc.parse("c*v1^2 + c*v1*tanh(v1/0.001)"),
        quadrature=rm.QuadratureConfig(panels=2))
    return dataclasses.replace(pendulum(), dissipation=d, params={"c": 0.3})


def _bits(x):
    return np.array(x, dtype=float).tobytes()


@pytest.mark.parametrize("make", [
    *[lambda name=name: get_builtin(name).system
      for name in ("sho", "damped_sho", "quad_drag_particle",
                   "pendulum_drag_2dof", "coulomb_block")],
    full_mass_3dof, sparse_mass_3dof, _asymmetric_2dof,
    lambda: _mass_system([["1 + q1^2"]]), _constant_mass_2dof,
    lambda: _mixed_pendulum(get_builtin("pendulum_drag_2dof")),
    _sign_eps_sqrt, _rule_error],
    ids=["sho", "damped_sho", "quad_drag_particle", "pendulum_drag_2dof",
         "coulomb_block", "full_mass_3dof", "sparse_mass_3dof",
         "asymmetric_2dof", "1+q1^2", "constant_mass_2dof", "general_tanh",
         "sign_eps_sqrt", "rule_error"])
def test_generated_mechanics_matches_loop_oracle(make):
    # the generated rhs is the model's D_R_grad followed by the loop form
    # of the mechanics: (qdd, D, R, dR/dv, M, V), or the MassMatrixError,
    # EvalDomainError or QuadratureError, agree bit for bit, signed zeros
    # included, also at states with zero coordinates and speeds of either
    # sign
    sys = make()
    sm = sys.model
    states = list(rm.sample_states(sys.dof, 40, seed=29))
    states.append(((0.0,) * sys.dof, (0.0,) * sys.dof))
    states += [(q[:1] + (-0.0,) * (sys.dof - 1), (-0.0,) + v[1:])
               for q, v in states[:4]]
    outcomes = set()
    for q, v in states:
        q, v = list(q), list(v)
        try:
            D, R, gR = sm.dissipation.D_R_grad(q, v, sm.params)
            qdd, M, V = mechanics_oracle.mechanics(sys, q, v, gR)
        except (dy.MassMatrixError, xc.EvalDomainError,
                rm.QuadratureError) as e:
            with pytest.raises(type(e)) as got:
                sm.rhs(*q, *v, sm.params, sm.c)
            assert str(got.value) == str(e)
            outcomes.add(type(e).__name__)
            continue
        ref = [*qdd, D, R, *gR, *[x for row in M for x in row], V]
        assert _bits(sm.rhs(*q, *v, sm.params, sm.c)) == _bits(ref), (q, v)
        outcomes.add("value")
    assert outcomes == {"value"} | {
        _asymmetric_2dof: {"MassMatrixError"},
        _constant_mass_2dof: {"EvalDomainError"},
        _sign_eps_sqrt: {"EvalDomainError"},
        _rule_error: {"QuadratureError"}}.get(make, set())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_mechanics_has_no_zero_factor(name, monkeypatch):
    # a mass entry that references no coordinate adds no dM terms, so the
    # generated rhs never multiplies by a dM/dq that is the literal 0
    _, bodies = _generated(lambda: get_builtin(name).system, monkeypatch)
    assert [x for x in bodies["_rhs"]
            if re.search(r"\* 0\.0(?![\d.e])", x)] == []


def test_sparse_mass_adds_only_the_referenced_dm_terms(monkeypatch):
    # dM_ac/dq_j adds b terms only where the entry M_ac references q_j:
    # one per entry that references one coordinate, two for the (3, 3)
    # entry, none for the zero pair, and no factor that is the literal 0
    _, bodies = _generated(sparse_mass_3dof, monkeypatch)
    mech = bodies["_rhs"]
    assert [x for x in mech if re.search(r"\* 0\.0(?![\d.e])", x)] == []
    assert sum(x.startswith("w = ") for x in mech) == 7
    assert sum(re.match(r"b\d \+= w \* ", x) is not None
               for x in mech) == 8


def test_parameter_only_work_is_hoisted_into_constants(monkeypatch):
    # the double pendulum's mechanics lines and statics read no params:
    # every parameter-only subexpression of V and M, as (m1 + m2)*l1^2 and
    # m2*l1*l2, is computed once per system by constants(p). rhs is the
    # dissipation's lines, which read the param A, then the mechanics lines
    sys, bodies = _generated(
        lambda: get_builtin("pendulum_drag_2dof").system, monkeypatch)
    lines = sys.model.dissipation.lines
    assert bodies["_rhs"][:len(lines)] == lines
    mech = bodies["_rhs"][len(lines):-1]
    assert sum("p[" in x for x in bodies["_rhs"]) == 1
    for body in (mech, bodies["_statics"]):
        assert [x for x in body if "p[" in x] == []
        assert body[0].endswith(", = c")
    assert sum("p[" in x for x in bodies["_constants"]) == 15
    # -(m1 + m2)*g*l1 and m2*g*l2 of V, then M's three distinct entries
    assert sys.model.c == (-2.0, 1.0, 2.0, 1.0, 1.0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_generated_code_has_no_neutral_factor(name, monkeypatch):
    # a tangent that is the literal 1.0 (the seed of a coordinate or a
    # velocity) contributes its other factor, the same double bit for bit,
    # not a product `x * 1.0`; a tangent that is a lone name is used as it
    # is, not copied (`t4 = t3`), and the negation of a literal is a
    # literal, not a temporary (`t37 = -(1.0)`). (A zero product such as
    # 0*v1 keeps a temporary `tN = 0.0`: no builtin has one.)
    lines = []

    def block(self, node, block=xc._CodeGen.block):
        n = len(self.constants)  # with the lines it hoists, if any
        out = block(self, node)
        lines.extend(out[0] + list(out[2]) + self.constants[n:])
        return out
    monkeypatch.setattr(xc._CodeGen, "block", block)
    clear_model_caches()
    b = get_builtin(name)
    b.system.model.dissipation.D_R_grad(b.initial.q.tolist(),
                                        b.initial.v.tolist(), b.system.params)
    assert len(lines) > 10
    assert [x for x in lines if re.search(r"\* 1\.0(?![\d.e])", x)] == []
    assert [x for x in lines if re.fullmatch(
        r"\s*t\d+ = (t\d+|[qv]\d+|-?\(?[\d.e+-]+\)?)", x)] == []


def _first_use_race(n):
    spec = rm.DissipationSpec(
        "homogeneous_sum", [rm.DissipationTerm(xc.parse("c*v1^2"), 2.0)])
    systems = [rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("m")]],
                             potential=xc.parse("0.5*q1^2"), dissipation=spec,
                             params={"m": 1.0, "c": 0.1 * (i + 1)})
               for i in range(n)]
    state = dy.State(0.0, [0.5], [1.0])
    barrier = threading.Barrier(n)
    results = [None] * n

    def work(i):
        ctx = systems[i].ctx(state.q, state.v)
        barrier.wait(timeout=10)
        results[i] = (rm.grad_R_v(spec, ctx)[0],
                      dy.accel(systems[i], state)[0])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return results


def test_concurrent_first_use_builds_complete_models():
    # threads that share one DissipationSpec may build its model at once;
    # a thread that saw a half-built model would leave no result
    n = min(os.cpu_count() or 1, 32) + 2
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = [_first_use_race(n) for _ in range(20)]
    finally:
        sys.setswitchinterval(old)
    for results in rounds:
        for i, r in enumerate(results):
            c = 0.1 * (i + 1)
            assert r == pytest.approx((c, -0.5 - c), rel=1e-15)


# ---------------------------------------------------------------------------
# Fixed-step RK4


def test_rk4_free_particle_exact():
    # one RK4 step, integrate(sys, s, s.t + dt, rk4 at dt), of a free
    # particle lands exactly: one attempt of four RHS calls after k1
    cfg = dy.IntegratorConfig(method="rk4", dt=0.5)
    traj = dy.integrate(free_particle(), dy.State(0.0, [0.0], [1.0]), 0.5,
                        cfg)
    assert (traj.steps_taken, traj.steps_rejected, traj.rhs_calls) == (1, 0,
                                                                       5)
    assert traj.rows[-1][:3] == [0.5, 0.5, 1.0]


def test_rk4_sho_period_closure():
    T = 2.0 * math.pi
    cfg = dy.IntegratorConfig(method="rk4", dt=T / 1000.0)
    traj = dy.integrate(make_sho(), dy.State(0.0, [1.0], [0.0]), T, cfg)
    assert traj.steps_taken == len(traj) - 1 == 1000
    assert traj.column("t") == [min(n * cfg.dt, T) for n in range(1001)]
    s = traj.state(-1)
    assert math.hypot(s.q[0] - 1.0, s.v[0]) <= 1e-9


def test_rk4_negative_dt_is_error():
    # the step size is the config's, so no run starts from a negative one
    with pytest.raises(ValueError, match="must be positive$"):
        dy.IntegratorConfig(method="rk4", dt=-1.0)


def test_rk4_order_of_convergence():
    b = get_builtin("damped_sho")
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = dy.IntegratorConfig(method="rk4", dt=dt)
        traj = dy.integrate(b.system, b.initial, 5.0, cfg)
        qr, _ = b.reference(5.0)
        errs.append(abs(traj.states()[-1].q[0] - qr[0]))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0  # fourth order: ~16x per halving


# ---------------------------------------------------------------------------
# Adaptive RK45


def _spacing(traj):
    t = traj.column("t")
    return [b - a for a, b in zip(t, t[1:])]


def test_rk45_step_accepts_and_grows_at_loose_tolerance():
    # a smooth problem at loose tolerance: every attempt from the first
    # step, 1e-2 (t_end - t0), is accepted and none is shorter than the one
    # before, except the last, cut to land on t_end
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-3, abs_tol=1e-6)
    traj = dy.integrate(make_damped_sho(), dy.State(0.0, [1.0], [0.0]), 1.0,
                        cfg)
    steps = _spacing(traj)
    assert traj.steps_rejected == 0 and len(steps) == traj.steps_taken > 3
    assert steps[0] == 1e-2
    assert all(b >= a for a, b in zip(steps, steps[1:-1]))


def test_rk45_step_rejects_oversized_step():
    # at a tight tolerance the first step, 0.1, is rejected: the first
    # accepted step is shorter, and each attempt costs six RHS calls
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-12, abs_tol=1e-14)
    traj = dy.integrate(make_damped_sho(), dy.State(0.0, [1.0], [0.0]), 10.0,
                        cfg)
    assert traj.steps_rejected >= 1
    assert _spacing(traj)[0] < 0.1
    assert traj.rhs_calls == 1 + 6 * (traj.steps_taken + traj.steps_rejected)


def _counting_rhs(monkeypatch, system):
    """The number of calls, from now on, of the system model's rhs, of its
    dissipation's D_R_grad and of its statics. Every rhs call is asserted
    to take the state as Python floats."""
    sm = system.model
    owners = {"rhs": sm, "D_R_grad": sm.dissipation, "statics": sm}
    calls = dict.fromkeys(owners, 0)
    for key, owner in owners.items():
        def counted(*args, fn=getattr(owner, key), key=key):
            if key == "rhs":
                assert all(type(x) is float for x in args[:-2]), args
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(owner, key, counted)
    return calls


def test_rk45_counts_rhs_calls_with_first_same_as_last(monkeypatch):
    b = get_builtin("pendulum_drag_2dof")
    calls = _counting_rhs(monkeypatch, b.system)
    traj = dy.integrate(b.system, b.initial, 3.0, b.integrator)
    assert traj.steps_rejected > 0
    attempts = traj.steps_taken + traj.steps_rejected
    assert traj.rhs_calls == 1 + 6 * attempts
    assert calls == {"rhs": traj.rhs_calls, "D_R_grad": 0, "statics": 0}


def _mixed_pendulum(b):
    """b.system with a regularised Coulomb addend in its general-mode D:
    the graded rule integrates that addend, of no velocity degree."""
    d = rm.DissipationSpec("general", raw=xc.parse(
        "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)"))
    return dataclasses.replace(b.system, dissipation=d,
                               params={**b.system.params, "c": 0.05})


def _rk4(b):
    return dataclasses.replace(b.integrator, method="rk4", dt=2.0 ** -7)


@pytest.mark.parametrize("method,general", [
    ("rk45", False), ("rk45", True), ("rk4", False), ("rk4", True)],
    ids=["homogeneous_sum", "general", "rk4-homogeneous_sum", "rk4-general"])
def test_rk45_samples_reuse_stage_values_bit_for_bit(method, general):
    # each sample takes D, R and dR/dv from the accepted step's last
    # stage (the first sample from the first stage) instead of evaluating
    # them again; they must be the values a fresh evaluation gives
    b = get_builtin("pendulum_drag_2dof")
    system = _mixed_pendulum(b) if general else b.system
    cfg = _rk4(b) if method == "rk4" else b.integrator
    traj = dy.integrate(system, b.initial, 2.0, cfg)
    assert len(traj) > 20
    for s, d in zip(traj.states(), traj.diagnostics()):
        assert d == dy.diagnostics(system, s, d.E_diss)


@pytest.mark.parametrize("name", ["damped_sho", "pendulum_drag_2dof"])
def test_integrate_builds_rows_of_python_floats_only(name, monkeypatch):
    # a sample is one row of Python floats, columns(dof) then E; integrate
    # builds no State or Diagnostics, and the accessors build one per row
    b = get_builtin(name)
    built = []
    for cls in (dy.State, dy.Diagnostics):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for cfg in (dy.IntegratorConfig(method="rk4", dt=1e-2), b.integrator):
        traj = dy.integrate(b.system, b.initial, 1.0, cfg)
        assert built == []
        width = len(dy.columns(b.system.dof)) + 1
        assert all(len(r) == width and all(type(x) is float for x in r)
                   for r in traj.rows)
        states, diags = traj.states(), traj.diagnostics()
        assert built == ["State"] * len(traj) + ["Diagnostics"] * len(traj)
        assert [d.E_diss for d in diags] == traj.column("E")
        assert [s.t for s in states] == traj.column("t")
        built.clear()


def test_sample_T_and_W_are_fixed_order_sums():
    # T = 0.5 (v.M).v and W = v.dR/dv are left-to-right sums of Python
    # float products, pinned on a 2-dof state where numpy's v @ M @ v
    # rounds differently (it differs at about a third of random states)
    b = get_builtin("pendulum_drag_2dof")
    sm = b.system.model
    rng = np.random.default_rng(16)
    for _ in range(200):
        q, v = rng.uniform(-2.0, 2.0, 2).tolist(), rng.uniform(-2.0, 2.0,
                                                             2).tolist()
        M = b.system.mass(q)
        (m00, m01), (m10, m11) = M.tolist()
        T = 0.5 * ((v[0] * m00 + v[1] * m10) * v[0]
                   + (v[0] * m01 + v[1] * m11) * v[1])
        if T != 0.5 * float(np.array(v) @ M @ np.array(v)):
            break
    else:
        pytest.fail("no state where numpy's v @ M @ v differs")
    g = sm.dissipation.D_R_grad(q, v, sm.params)[2]
    s = dy.State(0.0, q, v)
    traj = dy.integrate(b.system, s, 0.01,
                        dy.IntegratorConfig(method="rk4", dt=0.01))
    d = traj.diagnostics()[0]
    assert d.T_kin == T
    assert d.W == v[0] * g[0] + v[1] * g[1]
    assert d.H == T + d.V_pot
    assert d == dy.diagnostics(b.system, s)


def test_rk45_general_mode_samples_add_no_quadrature(monkeypatch):
    b = get_builtin("pendulum_drag_2dof")
    system = _mixed_pendulum(b)
    calls = count_array_calls(system.dissipation.model(2), monkeypatch)
    traj = dy.integrate(system, b.initial, 1.0, b.integrator)
    assert len(traj) > 20
    assert len(calls) == traj.rhs_calls


def test_general_pendulum_from_rest_takes_no_scalar_pass(monkeypatch):
    # the Coulomb addend's rule at and near rest stays in array mode (no
    # numpy flag); the speed norm's kink at rest is test_raymodel's
    # zero-speed case, now that its addend has a closed form
    b = get_builtin("pendulum_drag_2dof")
    assert list(b.initial.v) == [0.0, 0.0]
    passes = count_scalar_passes(monkeypatch)
    traj = dy.integrate(_mixed_pendulum(b), b.initial, 0.5, b.integrator)
    assert len(traj) > 5
    assert passes == []


def test_rk4_general_mode_samples_add_no_quadrature(monkeypatch):
    b = get_builtin("pendulum_drag_2dof")
    system = _mixed_pendulum(b)
    calls = count_array_calls(system.dissipation.model(2), monkeypatch)
    traj = dy.integrate(system, b.initial, 1.0, _rk4(b))
    assert len(traj) > 20
    assert len(calls) == traj.rhs_calls == 1 + 4 * traj.steps_taken


def test_model_dissipation_is_the_one_its_rhs_runs(monkeypatch):
    # a system's rhs and its model's dissipation are one object, also
    # after the dissipation cache has dropped the model that rhs was
    # generated with: every array call of a run is that model's
    d = rm.DissipationSpec("general",
                           raw=xc.parse("c*v1^2 + c*v1*tanh(v1/0.001)"))
    system = dataclasses.replace(pendulum(), dissipation=d,
                                 params={"c": 0.3})
    system.model
    for i in range(rm._dissipation_model.cache_info().maxsize):
        rm.DissipationSpec("homogeneous_sum", [rm.DissipationTerm(
            xc.parse(f"{i + 1}*v1^2"), 2.0)]).model(1)
    system = dataclasses.replace(system, params={"c": 0.2})
    calls = count_array_calls(system.model.dissipation, monkeypatch)
    traj = dy.integrate(system, dy.State(0.0, [0.5], [1.0]), 0.1,
                        dy.IntegratorConfig(method="rk4", dt=0.01))
    assert len(calls) == traj.rhs_calls == 41


def test_rk4_counts_rhs_calls(monkeypatch):
    # k1 at the start, then four stages per step: the last stage of a
    # step is evaluated at its new state and is the next step's k1
    system = make_damped_sho()
    calls = _counting_rhs(monkeypatch, system)
    traj = dy.integrate(system, dy.State(0.0, [1.0], [0.0]), 1.0,
                        dy.IntegratorConfig(method="rk4", dt=0.01))
    assert traj.rhs_calls == 1 + 4 * traj.steps_taken == 401
    assert calls == {"rhs": 401, "D_R_grad": 0, "statics": 0}


def test_rk4_evaluates_dissipation_once_per_state(monkeypatch):
    # each RHS call is one call of the generated rhs (D, R, dR/dv, V, M
    # and qdd); a sample takes all of them from its step's last RHS call
    # and evaluates nothing, under either method, and neither the
    # dissipation's own D_R_grad nor the audit's statics is called
    for name in ("damped_sho", "pendulum_drag_2dof"):
        b = get_builtin(name)
        calls = _counting_rhs(monkeypatch, b.system)
        for cfg in (dy.IntegratorConfig(method="rk4", dt=2e-3),
                    dy.IntegratorConfig(method="rk45")):
            calls.update(dict.fromkeys(calls, 0))
            traj = dy.integrate(b.system, b.initial, 1.0, cfg)
            assert len(traj) == 1 + traj.steps_taken > 20
            assert cfg.method == "rk45" or traj.rhs_calls == 2001
            assert calls == {"rhs": traj.rhs_calls, "D_R_grad": 0,
                             "statics": 0}, (name, cfg)


def _replay(sys, init, t_end, cfg):
    """(reprs of t, q, v, E at the start and after each accepted attempt,
    rejected attempts) of integrate's steps taken by the oracle's attempts
    (tests/stepper_oracle.py), each from a k1 = f(t, y) evaluated afresh,
    not handed on from the attempt before."""
    attempt = stepper_oracle.METHODS[cfg.method]
    t, y = init.t, dy._pack(init, 0.0)
    dt = cfg.dt if cfg.method == "rk4" else min(1e-2 * (t_end - t), 0.1)
    states, rejected = [[t, *y]], 0
    while t < t_end - 1e-15 * (1.0 + abs(t_end)):
        h = min(dt, t_end - t)
        k1 = stepper_oracle._rhs(sys, t, y)[0]
        ynew, ok, dt, _ = attempt(sys, t, y, h, cfg, k1)
        if ok:
            t, y = t + h, ynew
            states.append([t, *y])
        else:
            rejected += 1
    return [list(map(repr, x)) for x in states], rejected


def _states(traj):
    """The reprs of t, q, v and E of every sample row."""
    m = traj.dof
    return [list(map(repr, r[:1 + 2 * m] + r[-1:])) for r in traj.rows]


def test_integrate_replays_step_rk45_bit_for_bit():
    # integrate reuses each accepted step's last stage as the next first
    # stage; the replay evaluates k1 afresh at each attempt, so a stale
    # reused stage after an accept or a reject would show as a differing
    # bit (or, when it shrinks the steps, as MaxStepsError)
    b = get_builtin("pendulum_drag_2dof")
    cfg = dataclasses.replace(b.integrator, max_steps=2000)
    traj = dy.integrate(b.system, b.initial, 3.0, cfg)
    states, rejected = _replay(b.system, b.initial, 3.0, cfg)
    assert rejected == traj.steps_rejected > 0
    assert states == _states(traj)


def _sprung_coulomb_block():
    """coulomb_block on a spring, 0.5*k*q1^2: its right-hand side is not
    constant, and its velocity reverses inside t < 1."""
    b = get_builtin("coulomb_block")
    system = dataclasses.replace(
        b.system, potential=xc.parse("0.5*k*q1^2"),
        params={**b.system.params, "k": 40.0})
    return dataclasses.replace(b, system=system)


@pytest.mark.parametrize("make", [
    lambda: get_builtin("pendulum_drag_2dof"),
    lambda: get_builtin("coulomb_block"),
    _sprung_coulomb_block,
], ids=["pendulum_drag_2dof", "coulomb_block", "sprung_coulomb_block"])
def test_integrate_replays_step_rk4_bit_for_bit(make):
    # integrate hands each step's last RHS call on as the next k1; the
    # replay evaluates k1 afresh, so a stale k1 would show as a bit (dt is
    # 2^-7, so the replay's t + dt are integrate's multiples of dt)
    b = make()
    cfg = dataclasses.replace(_rk4(b), sample_every=1)
    traj = dy.integrate(b.system, b.initial, 1.0, cfg)
    assert len(traj) == 129 and traj.state(-1).t == 1.0
    assert _replay(b.system, b.initial, 1.0, cfg) == (_states(traj), 0)


def _numpy_f(system):
    """f(t, y) for y = [q, v, E] as a numpy array, from the public accel and
    diagnostics: E' = D."""
    m = system.dof

    def f(t, y):
        s = dy.State(t, y[:m], y[m:2 * m])
        return np.concatenate([s.v, dy.accel(system, s),
                               [dy.diagnostics(system, s).D_val]])
    return f


def _numpy_y(s):
    return np.concatenate([s.q, s.v, [0.0]])


@pytest.mark.parametrize("name", ["damped_sho", "pendulum_drag_2dof"])
def test_integrate_rk4_matches_numpy_textbook_rk4_bit_for_bit(name):
    # y_{n+1} = y_n + h/6 (k1 + 2 k2 + 2 k3 + k4) on numpy arrays, with
    # k2 = f(y_n + h/2 k1), k3 = f(y_n + h/2 k2), k4 = f(y_n + h k3)
    b = get_builtin(name)
    cfg = dataclasses.replace(_rk4(b), sample_every=1)
    traj = dy.integrate(b.system, b.initial, 1.0, cfg)
    f, h, m = _numpy_f(b.system), cfg.dt, b.system.dof
    y = _numpy_y(b.initial)
    for n, (s, d) in enumerate(zip(traj.states(), traj.diagnostics())):
        assert s.t == n * h
        assert np.array_equal(s.q, y[:m]) and np.array_equal(s.v, y[m:2 * m])
        assert d.E_diss == y[2 * m]
        t = n * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert len(traj) == 129


# Dormand-Prince 5(4) Butcher tableau (Hairer, Norsett & Wanner, Solving
# ODEs I, table II.5.2): nodes c, matrix a, 5th-order weights b5 and
# 4th-order weights b4
_BUTCHER_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
_BUTCHER_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_BUTCHER_B5 = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784,
                        11 / 84, 0])
_BUTCHER_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640,
                        -92097 / 339200, 187 / 2100, 1 / 40])


def test_integrate_rk45_matches_numpy_dormand_prince():
    # a fresh numpy Dormand-Prince from the tableau with the documented
    # controller (weighted RMS error over q and v, safety 0.9, factor in
    # [0.2, 5]) takes the same accepted and rejected steps; stage sums
    # are ordered differently, so states agree to round-off only
    b = get_builtin("pendulum_drag_2dof")
    cfg, t_end = b.integrator, 3.0
    traj = dy.integrate(b.system, b.initial, t_end, cfg)
    f, m = _numpy_f(b.system), b.system.dof
    y, t = _numpy_y(b.initial), b.initial.t
    dt = min(1e-2 * (t_end - t), 0.1)
    accepted = rejected = 0
    while t < t_end - 1e-15 * (1.0 + t_end):
        h = min(dt, t_end - t)
        K = np.zeros((7, len(y)))
        for i in range(7):
            K[i] = f(t + _BUTCHER_C[i] * h, y + h * (_BUTCHER_A[i] @ K[:6]))
        err_est = h * ((_BUTCHER_B5 - _BUTCHER_B4) @ K)[:2 * m]
        w = cfg.abs_tol + cfg.rel_tol * np.abs(y[:2 * m])
        err = math.sqrt(np.mean((err_est / w) ** 2))
        if err <= 1.0:
            y, t = y + h * (_BUTCHER_B5 @ K), t + h
            accepted += 1
        else:
            rejected += 1
        dt = h * (5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2)))
    assert (accepted, rejected) == (traj.steps_taken, traj.steps_rejected)
    assert rejected > 0
    s, d = traj.state(-1), traj.diagnostics()[-1]
    assert s.t == pytest.approx(t, abs=1e-12)
    assert np.max(np.abs(np.concatenate([s.q, s.v, [d.E_diss]]) - y)) <= 1e-12


def test_rk45_nan_state_is_divergence_error():
    with pytest.raises(dy.DivergenceError):
        dy.integrate(make_sho(), dy.State(0.0, [float("nan")], [0.0]), 1e-3,
                     dy.IntegratorConfig())


@pytest.mark.parametrize("name", ["damped_sho", "pendulum_drag_2dof"])
@pytest.mark.parametrize("cfg", [
    dy.IntegratorConfig(method="rk4", dt=0.1),
    dy.IntegratorConfig(method="rk45", dt=0.1),
    dy.IntegratorConfig()], ids=["rk4", "rk45", "integrate"])
def test_non_finite_start_is_divergence_error_at_its_time(cfg, name):
    # integrate refuses a non-finite start (a NaN time too) before any RHS
    # call, under either method and under the default config: not at the
    # end of the first step, and not as a mass-matrix failure of the NaN
    b = get_builtin(name)
    q = list(b.initial.q)
    q[0] = float("nan")
    with pytest.raises(dy.DivergenceError,
                       match=r"^non-finite state at t=0\.0$"):
        dy.integrate(b.system, dy.State(0.0, q, b.initial.v), 1.0, cfg)
    with pytest.raises(dy.DivergenceError,
                       match=r"^non-finite state at t=nan$"):
        dy.integrate(b.system, dy.State(float("nan"), b.initial.q,
                                        b.initial.v), 1.0, cfg)


@pytest.mark.parametrize("potential,cfg,error,match", [
    ("-q1*q1*q1*q1*q1*q1", dy.IntegratorConfig(method="rk4", dt=0.2),
     dy.DivergenceError, "t=0.6000000000000001"),
    ("-q1^4", dy.IntegratorConfig(method="rk4", dt=0.05),
     xc.EvalDomainError, "'-q1 ^ 4.0'"),
    ("-q1^4", dy.IntegratorConfig(), dy.StiffnessError, "underflow"),
], ids=["rk4-product-overflow", "rk4-power-overflow", "rk45-stiff"])
def test_mid_run_blow_up_is_named_without_warnings(potential, cfg, error,
                                                   match):
    # a state that runs off to infinity mid-run: Python float products
    # overflow to inf silently, so the finite check after each step (or
    # the compiled code's overflow check, or the step-size floor) must
    # stop the run with a named error, and no warning may leak
    system = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1")]],
                           potential=xc.parse(potential),
                           dissipation=rm.null_dissipation())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(match)):
            dy.integrate(system, dy.State(0.0, [1.0], [10.0]), 10.0, cfg)


@pytest.mark.parametrize("method, error, match", [
    ("rk4", xc.EvalDomainError, "infinite value) in subexpression '-cos(q1)'"),
    ("rk45", dy.DivergenceError, "non-finite state at t=0.1"),
])
def test_infinite_stage_position_is_a_named_error(method, error, match):
    # a pendulum thrown at v = 1e300 with a huge step: an RK4 stage
    # position overflows to inf before the new state's finite check, and
    # dV/dq = sin(q1) there is the scalar code's domain error, not a raw
    # ValueError; the pair starts with a step of 0.1, so its stage
    # positions stay finite, and its error norm overflows
    cfg = dy.IntegratorConfig(method=method, dt=1e10)
    with pytest.raises(error, match=re.escape(match)):
        dy.integrate(pendulum(), dy.State(0.0, [0.0], [1e300]), 1e11, cfg)


# ---------------------------------------------------------------------------
# Generated loops against the list-form oracle (tests/stepper_oracle.py)


def _runs(sys, init, t_end, cfg):
    """(generated, oracle) outcomes of one integrate run: the repr of every
    row and the counters, or the error's type and message."""
    out = []
    for integrate in (dy.integrate, stepper_oracle.integrate):
        try:
            traj = integrate(sys, init, t_end, cfg)
        except Exception as e:  # noqa: BLE001 - compared by the tests
            out.append((type(e), str(e)))
            continue
        out.append(([list(map(repr, r)) for r in traj.rows],
                    traj.steps_taken, traj.steps_rejected, traj.rhs_calls))
    return out


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("make", [
    make_damped_sho, lambda: get_builtin("pendulum_drag_2dof").system,
    lambda: _mixed_pendulum(get_builtin("pendulum_drag_2dof")),
    full_mass_3dof], ids=["damped_sho", "pendulum_drag_2dof", "general",
                          "full_mass_3dof"])
def test_generated_attempt_is_the_oracle_bit_for_bit(make, method):
    # the generated attempts as integrate runs them, from seeded states:
    # rk4 takes two steps of each size from small to far too large (the
    # first from integrate's k1, the second from the first's last stage);
    # rk45 starts from the first steps 1e-3, 2e-2 and 0.1 (spans 0.1, 2
    # and 10), so that it both accepts and rejects
    sys = make()
    rejected = 0
    for q, v in rm.sample_states(sys.dof, 6, seed=21):
        for dt, span in ((1e-3, 0.1), (2e-2, 2.0), (0.3, 10.0)):
            cfg = dy.IntegratorConfig(method=method, dt=dt, rel_tol=1e-8,
                                      abs_tol=1e-10)
            new, old = _runs(sys, dy.State(0.25, q, v),
                             0.25 + (2 * dt if method == "rk4" else span), cfg)
            assert new == old, (q, v, dt)
            rejected += new[2]
    assert (rejected > 0) == (method == "rk45")


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "general",
                                  "full_mass_3dof"])
def test_generated_loop_is_the_oracle_bit_for_bit(name, method,
                                                  sample_every):
    # every row (repr, so signed zeros and the last digit count) and the
    # counters of the generated loop against the Python integration loop over
    # the list-form attempts, which forms its rows with _dot sums; no
    # builtin has three coordinates, so full_mass_3dof gives the 3-dof loop
    # its oracle
    if name == "full_mass_3dof":
        sys, init, t_end = full_mass_3dof(), dy.State(
            0.0, [0.3, -0.2, 0.1], [0.5, -0.4, 0.2]), 2.0
        base = dy.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    else:
        b = get_builtin("pendulum_drag_2dof" if name == "general" else name)
        sys = _mixed_pendulum(b) if name == "general" else b.system
        init, t_end, base = b.initial, min(b.t_end, 2.0), b.integrator
    cfg = dataclasses.replace(base, method=method, dt=1e-2,
                              sample_every=sample_every)
    new, old = _runs(sys, init, t_end, cfg)
    assert new == old
    rows, taken, rejected, _ = new
    assert len(rows) == 1 + math.ceil(taken / sample_every) and taken > 3
    assert method == "rk45" or rejected == 0


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_generated_loop_errors_are_the_oracles(method):
    cfg = dy.IntegratorConfig(method=method, dt=1e-2)
    state = dy.State(0.25, [0.5], [1.0])
    expected = {
        # the attempt budget, spent mid-run
        "max_steps": (dy.MaxStepsError,
                      f"max_steps=7 exceeded at t="
                      f"{0.25 + 7 * 1e-2 if method == 'rk4' else ''}"),
        # a mass that stops being positive at q1 = 1: the error names the
        # stage's time
        "mass": (rm.MassMatrixError, "mass matrix not positive definite"),
        # a speed whose stage sums overflow
        "divergence": (dy.DivergenceError, "non-finite state at t="),
    }
    systems = {"max_steps": (pendulum(), state, 10.0,
                             dataclasses.replace(cfg, max_steps=7)),
               "mass": (_mass_system([["1 - q1"]]),
                        dy.State(0.25, [0.5], [10.0]), 10.0, cfg),
               "divergence": (free_particle(),
                              dy.State(0.25, [0.0], [1e308]), 10.0, cfg)}
    if method == "rk45":
        # a quartic hill that throws the state off faster and faster: the
        # step size falls below its floor
        systems["stiff"] = (rm.SystemSpec(
            dof=1, mass_matrix=[[xc.parse("1")]],
            potential=xc.parse("-q1^4"),
            dissipation=rm.null_dissipation()), dy.State(0.0, [1.0], [10.0]),
            10.0, cfg)
        expected["stiff"] = (dy.StiffnessError, "step size underflow")
    for case, args in systems.items():
        new, old = _runs(*args)
        assert new == old, case
        assert new[0] is expected[case][0], case
        assert new[1].startswith(expected[case][1]), (case, new[1])
        if case == "mass":
            assert re.search(r"\(t=[0-9.e-]+\)$", new[1])


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_generated_attempt_errors_are_the_oracles(method):
    # errors raised inside the first attempt of a run, from integrate's own
    # k1, each the oracle's in type and exact message: rk4 at dt 4 over a
    # span of 4 takes one attempt of 4, rk45 over a span of 10 starts with
    # one of 0.1
    t = 0.25
    h, span = (4.0, 4.0) if method == "rk4" else (0.1, 10.0)
    cfg = dy.IntegratorConfig(method=method, dt=h)

    def run(sys, q, v):
        new, old = _runs(sys, dy.State(t, [q], [v]), t + span, cfg)
        assert new == old
        return new

    # a mass that stops being positive at q1 = 1, crossed by the first
    # stage after k1 (rk4 t + h/2, rk45 t + h/5): the error names that
    # stage's position and time
    v, stage = (1.0, "q=[2.5] (t=2.25)") if method == "rk4" else (
        40.0, "q=[1.3] (t=0.27)")
    assert run(_mass_system([["1 - q1"]]), 0.5, v) == (
        rm.MassMatrixError, f"mass matrix not positive definite at {stage}")
    # a position that a step of 1e307 carries past the largest double: the
    # state overflows, no stage product
    assert run(free_particle(), 1.7e308, 1e307 / h) == (
        dy.DivergenceError, f"non-finite state at t={t + h}")
    # a speed whose stage products overflow with both signs: the pair's
    # 4th to 6th stage positions are inf - inf (NaN), which the free
    # particle's model ignores, and its error norm overflows
    assert run(free_particle(), 0.0, 1e308) == (
        dy.DivergenceError, f"non-finite state at t={t + h}")
    if method == "rk45":
        # a speed of 1e200 at q1 = 0: the new state is finite, but the
        # position's error entry (the rounding left by the sum of b5 - b4
        # times the speed) over the weight atol overflows when squared
        assert run(free_particle(), 0.0, 1e200) == (
            dy.DivergenceError, f"non-finite state at t={t + h}")
    # a dissipation term whose log leaves its domain inside a stage
    new = run(free_particle(rm.DissipationSpec("homogeneous_sum", (
        rm.DissipationTerm(xc.parse("ln(1 - q1)*v1^2"), 2.0),))), 0.5, v)
    assert new[0] is xc.EvalDomainError
    assert "ln of non-positive value" in new[1]


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_overflowing_speed_is_a_divergence_error(method):
    # a free particle from v = 1e308: rk4's sums overflow to inf and the
    # new state's check stops the run; the pair's stage sums meet inf and
    # -inf, and its error norm overflows: the same non-finite state at the
    # same time
    cfg = dy.IntegratorConfig(method=method)
    dt = cfg.dt if method == "rk4" else 0.1
    with pytest.raises(dy.DivergenceError,
                       match=f"^non-finite state at t={re.escape(str(dt))}$"):
        dy.integrate(free_particle(), dy.State(0.0, [0.0], [1e308]), 10.0,
                     cfg)


def test_loop_is_generated_once_per_method_and_dof(monkeypatch):
    # every system of one (method, dof) shares one generated loop, every
    # system of one dof one point function, and every system of the same
    # expressions its model code, its rhs included: the first model build
    # takes one entry of model code, which generates constants, statics
    # and the one rhs once each, the first integrate only its loop, which
    # evaluates its own first point, the first accel and diagnostics only
    # the point function, and the first full_audit only the stationarity
    # pass of the system's dissipation model; a second load, integrate and
    # full_audit of the same document generates no code at all, nor does a
    # with_params system, which runs on its new values; and the shared
    # functions keep no system or model alive
    defined = []

    def define(signature, *args, define=xc.define, **names):
        defined.append(signature.split("(")[0])
        return define(signature, *args, **names)
    monkeypatch.setattr(xc, "define", define)
    for cache in (dy._loop, dy._point):
        cache.cache_clear()
    clear_model_caches()

    def run(cfg):
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        assert au.full_audit(cfg.system, traj, cfg.tolerances).passed
        return traj.rows

    new = {"g": 1.3, "A": 0.2}
    model_code = ["_constants", "_statics", "_rhs"]

    def built():
        return [x for x in defined if x in model_code]
    for method, point, rhs in (("rk4", ["_point"], 1), ("rk45", [], 0)):
        doc = {"system": "pendulum_drag_2dof", "t_end": 0.5,
               "integrator": {"method": method}}
        defined.clear()
        cfg = cf.config_from_dict(doc)
        cfg.system.model
        assert built() == model_code * rhs, method
        assert rm._code.cache_info().misses == 1, method
        defined.clear()
        dy.integrate(cfg.system, cfg.initial, cfg.t_end, cfg.integrator)
        assert defined == [f"_{method}_loop"], method
        defined.clear()
        dy.accel(cfg.system, cfg.initial)
        dy.diagnostics(cfg.system, cfg.initial)
        assert defined == point, method
        defined.clear()
        cfg = cf.config_from_dict(doc)
        run(cfg)
        assert defined == ["_stationarity_pass"] * rhs, method
        defined.clear()
        run(cfg)
        rows = run(cfg.with_params(new))
        assert defined == [], method
        assert rows != run(cfg)
        clear_model_caches()
        fresh = cf.config_from_dict({**doc, "overrides": new})
        assert run(fresh) == rows
        assert built() == model_code, method
        assert rm._code.cache_info().misses == 1, method
    # fresh's model filled the emptied caches; the cache of systems holds
    # fresh's own, by design, and no other cache holds it or its model
    refs = [weakref.ref(fresh.system), weakref.ref(fresh.system.model)]
    del cfg, fresh
    rm._system.cache_clear()
    gc.collect()
    assert [r() for r in refs] == [None, None]


# ---------------------------------------------------------------------------
# The Dormand-Prince pair: its exactly rounded form, its tableau, and the
# edges of the time span


# The Dormand-Prince 5(4) tableau as published (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.5, table 5.2), in exact fractions, written out
# here rather than read from dynamics: rows 1-6 of A, then the 5th-order
# weights b5 as row 7, and the error weights E = b5 - b4
_DP5_A = [[Fraction(x) for x in row.split()] for row in (
    "",
    "1/5",
    "3/40 9/40",
    "44/45 -56/15 32/9",
    "19372/6561 -25360/2187 64448/6561 -212/729",
    "9017/3168 -355/33 46732/5247 49/176 -5103/18656",
    "35/384 0 500/1113 125/192 -2187/6784 11/84")]
_DP5_E = [Fraction(x) for x in (
    "71/57600 0 -71/16695 71/1920 -17253/339200 22/525 -1/40").split()]


def _rk45_exactly_rounded(sys, t, y, dt, cfg, k1):
    """stepper_oracle's Dormand-Prince attempt with every stage sum, error
    entry and the error norm's sum exactly rounded (math.fsum over every
    tableau term, zeros included), from the published tableau: the sum
    rule the pair had before its plain left-to-right sums."""
    K = [k1]

    def fsums(coeffs):
        return [math.fsum(map(mul, map(float, coeffs), col))
                for col in zip(*K)]

    def stage(row):
        return [x + dt * s for x, s in zip(y, fsums(row))]
    for i in range(1, 6):
        K.append(stepper_oracle._rhs(sys, t + float(sum(_DP5_A[i])) * dt,
                                     stage(_DP5_A[i]))[0])
    ynew = stage(_DP5_A[6])
    stepper_oracle._check_finite(ynew, t + dt)
    last = stepper_oracle._rhs(sys, t + dt, ynew)
    K.append(last[0])
    nmech = 2 * sys.dof
    err = math.sqrt(math.fsum(
        (dt * s / (cfg.abs_tol + cfg.rel_tol * abs(x))) ** 2
        for s, x in zip(fsums(_DP5_E), y[:nmech])) / nmech)
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return ynew, err <= 1.0, dt * factor, last


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "general"])
def test_pair_is_within_1e_13_of_its_exactly_rounded_form(name, monkeypatch):
    # the generated loop sums left to right; beside it, the oracle's loop
    # over the exactly rounded attempt takes the same accepted and rejected
    # steps and RHS calls, and ends within 1e-13 absolute in every entry of
    # its last row
    b = get_builtin("pendulum_drag_2dof" if name == "general" else name)
    sys = _mixed_pendulum(b) if name == "general" else b.system
    t_end = 3.0 if name == "general" else b.t_end
    traj = dy.integrate(sys, b.initial, t_end, b.integrator)
    monkeypatch.setitem(stepper_oracle.METHODS, "rk45", _rk45_exactly_rounded)
    exact = stepper_oracle.integrate(sys, b.initial, t_end, b.integrator)
    assert (traj.steps_taken, traj.steps_rejected, traj.rhs_calls) == (
        exact.steps_taken, exact.steps_rejected, exact.rhs_calls)
    assert traj.rows[-1][0] == exact.rows[-1][0] == t_end
    assert max(abs(a - e) for a, e in zip(traj.rows[-1],
                                          exact.rows[-1])) <= 1e-13


def test_dormand_prince_tableau_is_consistent():
    # each node is its row sum; the 5th-order weights b5 (the last row)
    # integrate c^k exactly for k = 0..4, the 4th-order weights b5 - E for
    # k = 0..3, and the error weights sum to zero
    for c, row in zip(dy._DP_C, dy._DP_A):
        assert abs(c - math.fsum(row)) <= 1e-15, c
    b5 = dy._DP_A[6] + [0.0]
    b4 = [b - e for b, e in zip(b5, dy._DP_E)]
    for weights, order in ((b5, 5), (b4, 4)):
        for k in range(order):
            assert abs(math.fsum(w * c ** k for w, c in zip(weights, dy._DP_C))
                       - 1.0 / (k + 1)) <= 1e-15, (order, k)
    assert abs(math.fsum(dy._DP_E)) <= 1e-15


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_span_the_loop_would_not_step_is_refused(method):
    # t_end = 1e-150 from t0 = 0 lies inside the loop's end guard
    # 1e-15 (1 + |t_end|): integrate refuses it instead of returning the
    # initial sample alone, and a config reports it at t_end
    cfg = dy.IntegratorConfig(method=method, dt=1e-151)
    message = ("t_end (1e-150) must be finite and exceed t0 (0.0) by more "
               "than 1e-15 (1 + |t_end|)")
    for integrate in (dy.integrate, stepper_oracle.integrate):
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate(free_particle(), dy.State(0.0, [0.0], [1.0]), 1e-150,
                      cfg)
    with pytest.raises(cf.ConfigError, match=re.escape(message)) as e:
        cf.config_from_dict({
            "dof": 1, "params": {}, "mass_matrix": [["1"]], "potential": "0",
            "dissipation": {"mode": "homogeneous_sum", "terms": []},
            "initial": {"q": [0.0], "v": [1.0]}, "t_end": 1e-150,
            "integrator": {"method": method, "dt": 1e-151}})
    assert e.value.path == "t_end"


@pytest.mark.parametrize("t0, t_end", [(0.0, 5e-13), (1e6, 1e6 + 1e-8)],
                         ids=["short", "late"])
def test_rk45_steps_a_short_span(t0, t_end):
    # the pair's first step is min(1e-2 (t_end - t0), 0.1), but no less
    # than its step-size floor 1e-14 (1 + |t0|): a short span, or one late
    # in time, that is not stiff steps to t_end instead of underflowing on
    # its first attempt, as the oracle does
    cfg = dy.IntegratorConfig()
    new, old = _runs(free_particle(), dy.State(t0, [0.0], [1.0]), t_end, cfg)
    assert new == old
    rows, taken, rejected, _ = new
    assert taken >= 1 and rejected == 0
    assert rows[-1][0] == repr(t_end)


# ---------------------------------------------------------------------------
# Full integrations against analytic oracles


def test_integrate_damped_sho_matches_analytic():
    b = get_builtin("damped_sho")
    traj = dy.integrate(b.system, b.initial, 10.0, b.integrator)
    qr, vr = b.reference(10.0)
    s = traj.states()[-1]
    assert abs(s.q[0] - qr[0]) <= 1e-8
    assert abs(s.v[0] - vr[0]) <= 1e-8


@pytest.mark.parametrize("name", ["sho", "quad_drag_particle",
                                  "coulomb_block"])
def test_builtin_run_matches_its_reference_at_every_sample(name):
    # measured maxima of |dq| and |dv|: 1.1e-10 (sho), 2.3e-11
    # (quad_drag_particle), 2.2e-16 (coulomb_block, whose t_end 2 is
    # before the block stops at v0*m/mu = 10/3)
    b = get_builtin(name)
    traj = dy.integrate(b.system, b.initial, b.t_end, b.integrator)
    for s in traj.states():
        qr, vr = b.reference(s.t)
        assert abs(s.q[0] - qr[0]) <= 1e-8 and abs(s.v[0] - vr[0]) <= 1e-8


def test_coulomb_reference_raises_once_the_block_stops():
    ref = get_builtin("coulomb_block").reference
    ref(10.0 / 3.0 - 1e-9)
    with pytest.raises(ValueError, match="before the block stops"):
        ref(10.0 / 3.0)


def test_integrate_quad_drag_half_velocity_at_t3():
    b = get_builtin("quad_drag_particle")
    traj = dy.integrate(b.system, b.initial, 3.0, b.integrator)
    assert abs(traj.states()[-1].v[0] - 0.5) <= 1e-8


def test_integrate_conservative_pendulum_long_run():
    sys = pendulum()
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12,
                              sample_every=50)
    # amplitude 1 rad; ~100 periods of the slightly anharmonic swing
    traj = dy.integrate(sys, dy.State(0.0, [1.0], [0.0]), 670.0, cfg)
    H = np.array([d.H for d in traj.diagnostics()])
    assert np.max(np.abs(H - H[0])) <= 1e-6


def test_integrate_monotone_energy_decay():
    b = get_builtin("damped_sho")
    traj = dy.integrate(b.system, b.initial, 10.0, b.integrator)
    H = np.array([d.H for d in traj.diagnostics()])
    assert np.all(np.diff(H) <= 1e-10)


def test_integrate_deterministic():
    b = get_builtin("pendulum_drag_2dof")
    t1 = dy.integrate(b.system, b.initial, 2.0, b.integrator)
    t2 = dy.integrate(b.system, b.initial, 2.0, b.integrator)
    for s1, s2 in zip(t1.states(), t2.states()):
        assert s1.t == s2.t
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.v, s2.v)


def test_integrate_lands_exactly_on_t_end():
    b = get_builtin("damped_sho")
    for method, cfg in (("rk4", dy.IntegratorConfig(method="rk4", dt=3e-3)),
                        ("rk45", b.integrator)):
        traj = dy.integrate(b.system, b.initial, 7.0, cfg)
        assert traj.times()[-1] == pytest.approx(7.0, abs=1e-12)


def test_integrate_rejects_bad_time_span():
    b = get_builtin("sho")
    # a non-finite t_end used to return a 1-sample trajectory
    for t_end in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dy.integrate(b.system, b.initial, t_end, b.integrator)


def test_integrate_max_steps_guard():
    b = get_builtin("sho")
    cfg = dy.IntegratorConfig(method="rk4", dt=1e-6, max_steps=10)
    with pytest.raises(dy.MaxStepsError):
        dy.integrate(b.system, b.initial, 1.0, cfg)


def test_trajectory_times_must_increase():
    b = get_builtin("sho")
    row = dy.integrate(b.system, b.initial, 0.1, b.integrator).rows[0]
    with pytest.raises(ValueError):
        dy.Trajectory(rows=[row, row], dof=1)


def test_params_are_read_only_and_a_new_value_makes_a_new_system():
    # a system keeps a read-only copy of its params, so its model's
    # constants hold for its life; a new mass is a new system
    params = {"m": 1.0, "k": 1.0}
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("m")]],
                        potential=xc.parse("0.5*k*q1^2"),
                        dissipation=rm.null_dissipation(), params=params)
    s = dy.State(0.0, [1.0], [1.0])
    a1 = dy.accel(sys, s)[0]
    params["m"] = 2.0
    with pytest.raises(TypeError):
        sys.params["m"] = 2.0
    assert sys.params == {"m": 1.0, "k": 1.0} and dy.accel(sys, s)[0] == a1
    new = dataclasses.replace(sys, params=params)
    assert new.mass([1.0])[0, 0] == 2.0
    assert dy.accel(new, s)[0] == a1 / 2.0
    assert dy.diagnostics(new, s).T_kin == 1.0


def test_constants_are_computed_once_per_system(monkeypatch):
    # the model computes its constants when it is built; a run, its audit
    # and each entry point read them
    calls = []

    def define(signature, body, define=rm._define, **names):
        f = define(signature, body, **names)
        if not signature.startswith("_constants("):
            return f

        def counted(p):
            calls.append(p)
            return f(p)
        return counted
    monkeypatch.setattr(rm, "_define", define)
    clear_model_caches()
    b = get_builtin("pendulum_drag_2dof")
    traj = dy.integrate(b.system, b.initial, 1.0, b.integrator)
    assert au.full_audit(b.system, traj).stationarity is not None
    s = traj.state(-1)
    dy.accel(b.system, s)
    dy.diagnostics(b.system, s)
    b.system.mass(s.q)
    b.system.mass_grad(s.q)
    assert calls == [b.system.params]


@pytest.mark.parametrize("field", ["dt", "rel_tol", "abs_tol"])
def test_integrator_config_rejects_nan(field):
    with pytest.raises(ValueError,
                       match="^dt, rel_tol and abs_tol must be positive$"):
        dy.IntegratorConfig(**{field: float("nan")})


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_step_rejects_nan_dt(method):
    # no run of either method starts from a NaN step: the config refuses it
    with pytest.raises(ValueError, match="must be positive$"):
        dy.IntegratorConfig(method=method, dt=float("nan"))


def test_diagnostics_energy_partition():
    b = get_builtin("damped_sho")
    d = dy.diagnostics(b.system, dy.State(0.0, [1.0], [2.0]))
    assert d.T_kin == pytest.approx(2.0)
    assert d.V_pot == pytest.approx(0.5)
    assert d.H == pytest.approx(2.5)
    assert d.D_val == pytest.approx(0.2 * 4.0)
    assert d.R_val == pytest.approx(0.2 * 4.0 / 2.0)
    # on-shell the rate of working of the drag equals v . dR/dv = D
    assert d.W == pytest.approx(d.D_val)
