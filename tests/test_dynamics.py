import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest

from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import (get_builtin, make_damped_sho,
                              make_quad_drag_particle, make_sho)


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


@pytest.mark.parametrize("make", [
    lambda: get_builtin("pendulum_drag_2dof").system, full_mass_3dof])
def test_accel_matches_numpy_assembly(make):
    sys = make()
    assert sys.model._asym_pairs == ([(0, 2)] if sys.dof == 3 else [])
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
    with pytest.raises(dy.MassMatrixError):
        dy.integrate(sys, s, 1.0, dy.IntegratorConfig())


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
    s = dy.step_rk4(free_particle(), dy.State(0.0, [0.0], [1.0]), 0.5)
    assert s.q[0] == 0.5
    assert s.v[0] == 1.0


def test_rk4_sho_period_closure():
    sys = make_sho()
    T = 2.0 * math.pi
    s = dy.State(0.0, [1.0], [0.0])
    dt = T / 1000.0
    for _ in range(1000):
        s = dy.step_rk4(sys, s, dt)
    assert math.hypot(s.q[0] - 1.0, s.v[0]) <= 1e-9


def test_rk4_negative_dt_is_error():
    with pytest.raises(ValueError):
        dy.step_rk4(make_sho(), dy.State(0.0, [1.0], [0.0]), -1.0)


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


def test_rk45_step_accepts_and_grows_at_loose_tolerance():
    sys = make_damped_sho()
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-3, abs_tol=1e-6)
    s = dy.State(0.0, [1.0], [0.0])
    dt = 1e-3
    for _ in range(4):
        s2, dt_next, accepted = dy.step_rk45(sys, s, dt, cfg)
        assert accepted
        assert dt_next >= dt  # smooth problem at loose tolerance
        s, dt = s2, dt_next


def test_rk45_step_rejects_oversized_step():
    sys = make_damped_sho()
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-12, abs_tol=1e-14)
    s = dy.State(0.0, [1.0], [0.0])
    s2, dt_next, accepted = dy.step_rk45(sys, s, 1.0, cfg)
    assert not accepted
    assert s2 is s
    assert dt_next < 1.0


def _counting_rhs(monkeypatch):
    calls = []
    rhs = dy._rhs

    def counted(sys, t, y):
        calls.append(t)
        return rhs(sys, t, y)

    monkeypatch.setattr(dy, "_rhs", counted)
    return calls


def test_rk45_counts_rhs_calls_with_first_same_as_last(monkeypatch):
    b = get_builtin("pendulum_drag_2dof")
    calls = _counting_rhs(monkeypatch)
    traj = dy.integrate(b.system, b.initial, 3.0, b.integrator)
    assert traj.steps_rejected > 0
    attempts = traj.steps_taken + traj.steps_rejected
    assert traj.rhs_calls == len(calls) == 1 + 6 * attempts


def test_rk4_counts_rhs_calls(monkeypatch):
    calls = _counting_rhs(monkeypatch)
    traj = dy.integrate(make_damped_sho(), dy.State(0.0, [1.0], [0.0]), 1.0,
                        dy.IntegratorConfig(method="rk4", dt=0.01))
    assert traj.rhs_calls == len(calls) == 4 * traj.steps_taken == 400


def test_integrate_replays_step_rk45_bit_for_bit():
    # integrate reuses each accepted step's last stage as the next first
    # stage; step_rk45 evaluates every stage afresh, so a stale reused
    # stage after an accept or a reject would show as a differing bit
    # (or, when it shrinks the steps, as MaxStepsError)
    b = get_builtin("pendulum_drag_2dof")
    cfg = dataclasses.replace(b.integrator, max_steps=2000)
    t_end = 3.0
    traj = dy.integrate(b.system, b.initial, t_end, cfg)
    s = b.initial
    dt = min(1e-2 * (t_end - s.t), 0.1)
    replay = [s]
    rejected = 0
    while s.t < t_end - 1e-15 * (1.0 + t_end):
        s, dt_next, ok = dy.step_rk45(b.system, s, min(dt, t_end - s.t), cfg)
        dt = dt_next
        if ok:
            replay.append(s)
        else:
            rejected += 1
    assert rejected == traj.steps_rejected > 0
    assert len(replay) == len(traj)
    for r, (x, _) in zip(replay, traj.samples):
        assert r.t == x.t
        assert np.array_equal(r.q, x.q) and np.array_equal(r.v, x.v)


def test_rk45_nan_state_is_divergence_error():
    with pytest.raises(dy.DivergenceError):
        dy.step_rk45(make_sho(), dy.State(0.0, [float("nan")], [0.0]),
                     1e-3, dy.IntegratorConfig())


# ---------------------------------------------------------------------------
# Full integrations against analytic oracles


def test_integrate_damped_sho_matches_analytic():
    b = get_builtin("damped_sho")
    traj = dy.integrate(b.system, b.initial, 10.0, b.integrator)
    qr, vr = b.reference(10.0)
    s = traj.states()[-1]
    assert abs(s.q[0] - qr[0]) <= 1e-8
    assert abs(s.v[0] - vr[0]) <= 1e-8


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
    d = dy.diagnostics(b.system, b.initial)
    with pytest.raises(ValueError):
        dy.Trajectory(samples=[(b.initial, d), (b.initial, d)], method="rk4")


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
