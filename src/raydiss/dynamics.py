"""Equations of motion and time integration.

The motion solves M(q) qdd = b with

    b_j = dT/dq_j - (sum_k v_k dM/dq_k) v - dV/dq_j - dR/dv_j,
    dT/dq_j = 0.5 * v . (dM/dq_j) . v,

obtained by expanding d/dt(dT/dv) = M qdd + Mdot v for T = 0.5 v.M(q)v.
Only first derivatives of the mass-matrix entries are needed.

Every evaluation goes through the compiled model the SystemSpec owns
(`sys.model`); this module only assembles b and solves. Per RHS call, one
compiled call per mass entry returns both M_ab and dM_ab/dq, one returns
V and dV/dq, one dissipation call returns D, R and dR/dv, b is
accumulated in Python floats, and one square-root-free LDL^T
factorisation and solve gives qdd (a constant M keeps its factor).
The stepper state y = [q, v, E] and the stages are lists of Python floats
from start to end, so the compiled code never sees a numpy scalar; numpy
appears only in State and samples. RK4 sums its stages in textbook order,
and the pair's stage sums are exactly rounded (math.fsum), not BLAS-ordered.

Integrators: classical fixed-step RK4 and the Dormand-Prince 5(4) pair
with standard step-size control, in one loop. Every attempt ends with an
RHS call at its new state, which the next attempt takes as its 1st stage
(for the pair, its 7th stage: "first same as last", FSAL; Hairer, Norsett
& Wanner, Solving ODEs I, sec. II.6), so Trajectory.rhs_calls is
1 + stages * attempts (4 stages for RK4, 6 for the pair). That call also
yields M, V, D, R and dR/dv at the new state, so a sample calls no
compiled code: it forms T = 0.5 v.M.v and W = v.dR/dv from them.
Both integrators carry a running integral of D alongside the mechanical
state, so energy-balance audits run at full integrator accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .raymodel import MassMatrixError, SystemSpec, ldl_factor, ldl_solve


class DynamicsError(Exception):
    pass


class DivergenceError(DynamicsError):
    """NaN or infinity appeared in the state."""


class StiffnessError(DynamicsError):
    """Adaptive step size underflowed."""


class MaxStepsError(DynamicsError):
    pass


@dataclass(frozen=True)
class State:
    t: float
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    def is_finite(self):
        return (np.isfinite(self.t) and np.all(np.isfinite(self.q))
                and np.all(np.isfinite(self.v)))


@dataclass(frozen=True)
class Diagnostics:
    H: float
    T_kin: float
    V_pot: float
    D_val: float
    R_val: float
    W: float
    E_diss: float = 0.0  # integrator-accumulated integral of D since t0


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"
    dt: float = 1e-3
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000
    sample_every: int = 1

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator method '{self.method}'")
        if self.dt <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("dt, rel_tol and abs_tol must be positive")
        if self.max_steps < 1 or self.sample_every < 1:
            raise ValueError("max_steps and sample_every must be >= 1")


@dataclass
class Trajectory:
    samples: list  # of (State, Diagnostics)
    method: str
    steps_taken: int = 0
    steps_rejected: int = 0
    # right-hand-side evaluations, set by integrate: 1 + stages * attempts
    # (4 stages for rk4, 6 for rk45)
    rhs_calls: int = 0

    def __post_init__(self):
        ts = self.times()
        if len(ts) and np.any(np.diff(ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self):
        return len(self.samples)

    def times(self):
        return np.array([s.t for s, _ in self.samples])

    def states(self):
        return [s for s, _ in self.samples]

    def diagnostics(self):
        return [d for _, d in self.samples]


# ---------------------------------------------------------------------------
# Force assembly


def _accel(sm, q, v, gR):
    """(M(q)^-1 b, M(q), V(q)) at (q, v) with dR/dv = gR: lists of floats
    in, qdd as a list, M as nested lists (the read-only M0 when constant)."""
    V, gV = sm.grad_V(q, v, sm.params)
    b = [-x - y for x, y in zip(gV, gR)]
    if sm.mass_const:
        return ldl_solve(sm.factor0, b), sm.M0, V
    M, dM = sm.mass_and_grad(q)
    m = len(b)
    # b_j += 0.5 v.(dM/dq_j).v and b_a -= (Mdot v)_a, where
    # (Mdot v)_a = sum over c, j of v_j dM_ac/dq_j v_c
    for a in range(m):
        va, dMa = v[a], dM[a]
        for c in range(m):
            g = dMa[c]
            w = 0.5 * va * v[c]
            vg = 0.0
            for j in range(m):
                b[j] += w * g[j]
                vg += v[j] * g[j]
            b[a] -= vg * v[c]
    return ldl_solve(ldl_factor(M, q), b), M, V


def accel(sys: SystemSpec, s: State) -> np.ndarray:
    """Explicit second-order form of the dissipative Lagrange equations."""
    sm = sys.model
    q, v = s.q.tolist(), s.v.tolist()
    try:
        gR = sm.dissipation.D_R_grad(q, v, sm.params)[2]
        return np.array(_accel(sm, q, v, gR)[0])
    except MassMatrixError as e:
        raise MassMatrixError(f"{e} (t={s.t})") from None


def diagnostics(sys: SystemSpec, s: State, e_diss: float = 0.0) -> Diagnostics:
    sm = sys.model
    q, v = s.q.tolist(), s.v.tolist()
    return _diagnostics(s, e_diss, (sm.mass(q), sm.grad_V(q, v, sm.params)[0])
                        + sm.dissipation.D_R_grad(q, v, sm.params))


def _diagnostics(s, e_diss, evals):
    """Diagnostics at s, given (M, V, D, R, dR/dv) at s."""
    M, V, D, R, gR = evals
    T = 0.5 * float(s.v @ M @ s.v)
    W = float(np.dot(s.v, gR))  # on-shell W = v.dR/dv
    return Diagnostics(H=T + V, T_kin=T, V_pot=V, D_val=D, R_val=R,
                       W=W, E_diss=e_diss)


# ---------------------------------------------------------------------------
# Steppers. Internal RK state is y = [q, v, E] with E' = D(q, v).


def _rhs(sys, t, y):
    """(f(t, y), (M, V, D, R, dR/dv) at the state of y)."""
    m = sys.dof
    sm = sys.model
    q, v = y[:m], y[m:2 * m]
    D, R, gR = sm.dissipation.D_R_grad(q, v, sm.params)
    qdd, M, V = _accel(sm, q, v, gR)
    return v + qdd + [D], (M, V, D, R, gR)


def _pack(s: State, e_diss: float):
    return s.q.tolist() + s.v.tolist() + [e_diss]


def _unpack(sys, t, y):
    m = sys.dof
    return State(t, y[:m], y[m:2 * m]), y[2 * m]


def _check_finite(y, t):
    if not all(map(math.isfinite, y)):
        raise DivergenceError(f"non-finite state at t={t}")


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


def _step(attempt, sys, s, dt, cfg):
    """One attempt from s with a fresh k1: (state, dt_next, accepted)."""
    y = _pack(s, 0.0)
    ynew, ok, dt_next, _ = attempt(sys, s.t, y, dt, cfg, _rhs(sys, s.t, y)[0])
    return (_unpack(sys, s.t + dt, ynew)[0] if ok else s), dt_next, ok


def step_rk4(sys: SystemSpec, s: State, dt: float) -> State:
    """One classical RK4 step; local error O(dt^5)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _step(_rk4_raw, sys, s, dt, None)[0]


# Dormand-Prince 5(4) tableau. Row 6 of _DP_A is the 5th-order weights
# b5, so stage 7 is evaluated at the new state (FSAL).
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40]  # b5 - b4


def _lincomb(y, h, coeffs, K):
    """[y_c + h * fsum_j(coeffs[j] * K[j][c]) for each entry c of y]."""
    return [c + h * math.fsum(map(mul, coeffs, col))
            for c, col in zip(y, zip(*K))]


def _rk45_raw(sys, t, y, dt, cfg, k1):
    """One Dormand-Prince attempt from (t, y) with k1 = f(t, y), in six
    RHS calls. Returns (ynew, accepted, dt_next, last), where ynew is the
    exact stage-7 argument and last = _rhs(sys, t + dt, ynew)."""
    nmech = 2 * sys.dof
    K = [k1]
    for i in range(1, 6):
        K.append(_rhs(sys, t + _DP_C[i] * dt,
                      _lincomb(y, dt, _DP_A[i], K))[0])
    ynew = _lincomb(y, dt, _DP_A[6], K)
    _check_finite(ynew, t + dt)
    last = _rhs(sys, t + dt, ynew)
    K.append(last[0])
    errvec = _lincomb([0.0] * nmech, dt, _DP_E, K)  # q and v entries only
    err = math.sqrt(math.fsum((e / (cfg.abs_tol + cfg.rel_tol * abs(c))) ** 2
                              for e, c in zip(errvec, y)) / nmech)
    # the step-size controller shared by step_rk45 and integrate
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return ynew, err <= 1.0, dt * factor, last


def step_rk45(sys: SystemSpec, s: State, dt_try: float,
              cfg: IntegratorConfig):
    """One embedded 5(4) step. Returns (state, dt_next, accepted)."""
    if dt_try <= 0:
        raise ValueError("dt_try must be positive")
    if not s.is_finite():
        raise DivergenceError(f"non-finite state at t={s.t}")
    return _step(_rk45_raw, sys, s, dt_try, cfg)


# ---------------------------------------------------------------------------
# Driver


# Per method: the attempt, its stages, the first step size, the time after
# the n-th accepted step h, and the step-size floor relative to 1 + |t|.
# RK4 times are exact multiples of dt: no rounding-made sliver step at the end.
_METHODS = {
    "rk4": (_rk4_raw, 4, lambda cfg, span: cfg.dt,
            lambda cfg, t0, n, t, h, t_end: min(t0 + n * cfg.dt, t_end), 0.0),
    "rk45": (_rk45_raw, 6, lambda cfg, span: min(1e-2 * span, 0.1),
             lambda cfg, t0, n, t, h, t_end: t + h, 1e-14),
}


def integrate(sys: SystemSpec, init: State, t_end: float,
              cfg: IntegratorConfig) -> Trajectory:
    """Integrate from init.t to t_end; the final step lands exactly on
    t_end. Deterministic for identical inputs."""
    if not init.is_finite():
        raise DivergenceError("initial state is not finite")
    if not (np.isfinite(t_end) and t_end > init.t):
        raise ValueError("t_end must be finite and exceed the initial time")
    attempt, stages, first_dt, advance, floor = _METHODS[cfg.method]
    y, t = _pack(init, 0.0), init.t
    f1 = _rhs(sys, t, y)  # k1 of the next attempt, and (M, V, D, R, dR/dv)
    traj = Trajectory(samples=[(init, _diagnostics(init, 0.0, f1[1]))],
                      method=cfg.method)
    dt = first_dt(cfg, t_end - init.t)
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
            t = advance(cfg, init.t, accepted, t, h, t_end)
            if accepted % cfg.sample_every == 0 or t >= end:
                s, e = _unpack(sys, t, y)
                traj.samples.append((s, _diagnostics(s, e, f1[1])))
    traj.steps_taken = accepted
    traj.steps_rejected = attempts - accepted
    traj.rhs_calls = 1 + stages * attempts  # k1, then the stages
    return traj
