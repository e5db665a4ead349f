"""Python form of the right-hand side, the Runge-Kutta attempts and the
integration loop: the test oracle for the straight-line code that
`raydiss.dynamics` generates per method and degree of freedom.

`_rhs` is f(t, y) for y = [q, v, E] in Python: one call of the system
model's `D_R_grad` on lists of Python floats, then the loop-form
mechanics of `tests/mechanics_oracle.py`, a MassMatrixError gaining the
time t, so the oracle shares no line of the library's generated
right-hand side `SystemModel.rhs`. Each stage goes through `_rhs`: RK4 sums
its stages in textbook order, and the Dormand-Prince pair forms every stage
sum, the new state and the error vector as a left-to-right sum (`_dot`)
over the stage values with a nonzero tableau coefficient, in tableau
order, as the generated loop does, so the two agree bit for bit. Such a
sum never raises: a non-finite stage value flows on into `_rhs`, and a
non-finite error norm is a non-finite state at t + dt. The exactly
rounded `math.fsum` form of the pair stays in `tests/test_dynamics.py`,
which checks the generated loop against it within a tolerance.

`integrate` drives those attempts from a Python loop and forms each sample
row with `_row`, from `_dot` sums over the last RHS call's values, as
`raydiss.dynamics.integrate` did before its loop was generated.
"""

import math

from mechanics_oracle import mechanics
from raydiss.dynamics import (_DP_A, _DP_C, _DP_E, MaxStepsError,
                              StiffnessError, Trajectory, _diverged, _pack,
                              check_span)
from raydiss.raymodel import MassMatrixError, _dot


def _rhs(sys, t, y):
    """(f(t, y), (M, V, D, R, dR/dv) at the state of y)."""
    sm, m = sys.model, sys.dof
    q, v = y[:m], y[m:2 * m]
    D, R, gR = sm.dissipation.D_R_grad(q, v, sm.params)
    try:
        qdd, M, V = mechanics(sys, q, v, gR)
    except MassMatrixError as e:
        raise MassMatrixError(f"{e} (t={t})") from None
    return v + qdd + [D], (M, V, D, R, gR)


def _check_finite(y, t):
    if not all(map(math.isfinite, y)):
        _diverged(t)


def _axpy(y, h, k):
    return [a + h * b for a, b in zip(y, k)]


def _rk4_raw(sys, t, y, dt, cfg, k1):
    """One RK4 step from (t, y) with k1 = f(t, y), in four RHS calls;
    returns as _rk45_raw does, always accepted and with dt_next = dt."""
    k2 = _rhs(sys, t + 0.5 * dt, _axpy(y, 0.5 * dt, k1))[0]
    k3 = _rhs(sys, t + 0.5 * dt, _axpy(y, 0.5 * dt, k2))[0]
    k4 = _rhs(sys, t + dt, _axpy(y, dt, k3))[0]
    ynew = _axpy(y, dt / 6.0, [a + 2.0 * b + 2.0 * c + d
                               for a, b, c, d in zip(k1, k2, k3, k4)])
    _check_finite(ynew, t + dt)
    return ynew, True, dt, _rhs(sys, t + dt, ynew)


def _tableau_sums(coeffs, K):
    """[sum over j, left to right, of coeffs[j] * K[j][c] for each entry c],
    over the nonzero coeffs only."""
    a, K = zip(*((a, k) for a, k in zip(coeffs, K) if a))
    return [_dot(a, col) for col in zip(*K)]


def _lincomb(y, h, coeffs, K):
    """[y_c + h * (the tableau sum of entry c) for each entry c of y]."""
    return [c + h * s for c, s in zip(y, _tableau_sums(coeffs, K))]


def _rk45_raw(sys, t, y, dt, cfg, k1):
    """One Dormand-Prince attempt from (t, y) with k1 = f(t, y), in six
    RHS calls. Returns (ynew, accepted, dt_next, last), where ynew is the
    exact stage-7 argument and last = _rhs(sys, t + dt, ynew)."""
    nmech = 2 * sys.dof
    K = [k1]
    for i in range(1, 6):
        K.append(_rhs(sys, t + _DP_C[i] * dt, _lincomb(y, dt, _DP_A[i], K))[0])
    ynew = _lincomb(y, dt, _DP_A[6], K)
    _check_finite(ynew, t + dt)
    last = _rhs(sys, t + dt, ynew)
    K.append(last[0])
    # the weighted error entries of q and v
    e = [dt * s / (cfg.abs_tol + cfg.rel_tol * abs(x))
         for s, x in zip(_tableau_sums(_DP_E, K), y[:nmech])]
    err = math.sqrt(_dot(e, e) / nmech)
    if not math.isfinite(err):
        _diverged(t + dt)
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return ynew, err <= 1.0, dt * factor, last


METHODS = {"rk4": _rk4_raw, "rk45": _rk45_raw}


def _row(t, y, evals):
    """The sample row at t of y = [q, v, E], given (M, V, D, R, dR/dv)."""
    M, V, D, R, gR = evals
    v = y[len(gR):-1]
    T = 0.5 * _dot([_dot(v, col) for col in zip(*M)], v)
    return [t, *y[:-1], T + V, T, V, D, R, _dot(v, gR), y[-1]]


# Per method: its stages, the first step size, the time after the n-th
# accepted step h, and the step-size floor relative to 1 + |t|. RK4 times
# are exact multiples of dt: no rounding-made sliver step at the end. The
# pair's first step is no less than its floor.
_LOOP = {
    "rk4": (4, lambda cfg, t0, t_end: cfg.dt,
            lambda cfg, t0, n, t, h, t_end: min(t0 + n * cfg.dt, t_end), 0.0),
    "rk45": (6, lambda cfg, t0, t_end: max(min(1e-2 * (t_end - t0), 0.1),
                                           1e-14 * (1.0 + abs(t0))),
             lambda cfg, t0, n, t, h, t_end: t + h, 1e-14),
}


def integrate(sys, init, t_end, cfg):
    """dynamics.integrate as a Python loop over the list-form attempts."""
    y = _pack(init, 0.0)
    _check_finite([init.t] + y, init.t)
    check_span(init.t, t_end)
    stages, first_dt, advance, floor = _LOOP[cfg.method]
    attempt = METHODS[cfg.method]
    t0, t_end = float(init.t), float(t_end)
    t = t0
    f1 = _rhs(sys, t, y)  # k1 of the next attempt, evals
    rows = [_row(t, y, f1[1])]
    dt = first_dt(cfg, t0, t_end)
    end = t_end - 1e-15 * (1.0 + abs(t_end))
    attempts = accepted = 0
    while t < end:
        if attempts >= cfg.max_steps:
            raise MaxStepsError(f"max_steps={cfg.max_steps} exceeded at t={t}")
        if dt < floor * (1.0 + abs(t)):
            raise StiffnessError(
                f"step size underflow (dt={dt:.3e}) at t={t}; "
                "the problem is likely too stiff for an explicit pair")
        h = min(dt, t_end - t)
        ynew, ok, dt, last = attempt(sys, t, y, h, cfg, f1[0])
        attempts += 1
        if ok:
            accepted += 1
            y, f1 = ynew, last
            t = advance(cfg, t0, accepted, t, h, t_end)
            if accepted % cfg.sample_every == 0 or t >= end:
                rows.append(_row(t, y, f1[1]))
    traj = Trajectory.from_rows(rows, sys.dof)
    traj.steps_taken = accepted
    traj.steps_rejected = attempts - accepted
    traj.rhs_calls = 1 + stages * attempts  # k1, then the stages
    return traj
