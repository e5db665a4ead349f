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
    # sweep threads share one DissipationSpec and may build its model at
    # once; a thread that saw a half-built model would leave no result
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
    with pytest.raises(ValueError):
        dy.integrate(b.system, b.initial, 0.0, b.integrator)


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
    assert d.L_val == pytest.approx(1.5)
    assert d.D_val == pytest.approx(0.2 * 4.0)
    assert d.R_val == pytest.approx(0.2 * 4.0 / 2.0)
    # on-shell the rate of working of the drag equals v . dR/dv = D
    assert d.W == pytest.approx(d.D_val)
