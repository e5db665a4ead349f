"""Equations of motion and time integration.

The motion solves M(q) qdd = b with

    b_j = dT/dq_j - (sum_k v_k dM/dq_k) v - dV/dq_j - dR/dv_j,
    dT/dq_j = 0.5 * v . (dM/dq_j) . v,

obtained by expanding d/dt(dT/dv) = M qdd + Mdot v for T = 0.5 v.M(q)v.
Only first derivatives of the mass-matrix entries are needed.

The right-hand side f(t, y) of the stepper state y = [q, v, E], E' = D,
is stated once, as the generated lines of _f_lines: one call of the
system model's (sys.model) straight-line rhs, on the coordinates and
velocities as scalar arguments, gives qdd, D, R, dR/dv, M and V (D, R
and dR/dv from the dissipation model's lines, b in Python floats, solved
by an unrolled LDL^T; see raymodel.SystemModel). A MassMatrixError from
it gains the stage time t.

Integrators: classical fixed-step RK4 and the Dormand-Prince 5(4) pair
with standard step-size control. Every attempt ends with an RHS call at
its new state, which the next attempt takes as its 1st stage (for the
pair, its 7th stage: "first same as last", FSAL; Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.6), so Trajectory.rhs_calls is
1 + stages * attempts (4 stages for RK4, 6 for the pair). Each stage sum
is a left-to-right float sum (RK4's in textbook order, the pair's over its
nonzero tableau terms), which IEEE-754 fixes on every host. Both carry
the integral E of D alongside q and v, so the energy-balance audit runs
at full integrator accuracy.

The code that runs is generated on first use and shared by every system
of a dof: _loop(method, dof) evaluates f at the first point and runs
every attempt of an integrate call, with the controller, the FSAL
hand-over, the sample rows and the counters in locals; _point(dof), behind
accel and diagnostics, gives f and the sample row at one state. integrate
keeps only its checks and knows nothing that differs per method. Once a
system's code has made native.THRESHOLD Python RHS calls in the process,
integrate runs the loop's C transliteration (native.kernel), which gives
the same rows and counters bit for bit; where it stops on a status (any
point where the Python loop raises), integrate reruns the Python loop
from the start, which raises the error. One RK4 step of size dt is
integrate(sys, s, s.t + dt, IntegratorConfig("rk4", dt=dt)). The Python
right-hand side, attempts, loop and sample row that these replaced are
the test oracle, tests/stepper_oracle.py, bit for bit.

A sample is the row t, q, v, H, T, V, D, R, W, E (the columns(dof),
then E), of doubles in Trajectory.data. Sampling calls no compiled code:
the rhs call of f at the state gave M, V, D, R and dR/dv, and the
generated row (_sample_lines) forms T = 0.5 (v.M).v and W = v.dR/dv as
left-to-right sums in raymodel._dot's order, which, unlike BLAS, do not
depend on the host. State and Diagnostics exist only at the API edge:
accel, diagnostics and the Trajectory accessors build them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import exprcore as xc
from .raymodel import MassMatrixError, SystemSpec


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
        if not (self.dt > 0 and self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("dt, rel_tol and abs_tol must be positive")
        if self.max_steps < 1 or self.sample_every < 1:
            raise ValueError("max_steps and sample_every must be >= 1")


def columns(dof):
    """Names of a sample's entries in row order; E (integral of D) follows."""
    return (["t"] + [f"q{i + 1}" for i in range(dof)]
            + [f"v{i + 1}" for i in range(dof)]
            + ["H", "T", "V", "D", "R", "W"])


@dataclass
class Trajectory:
    data: array  # the samples' doubles, row after row: columns(dof) + [E]
    dof: int
    steps_taken: int = 0
    steps_rejected: int = 0
    rhs_calls: int = 0  # set by integrate: 1 + stages * attempts
    width = property(lambda self: 2 * self.dof + 8)  # entries in a row

    @classmethod
    def from_rows(cls, rows, dof):
        """Hand-built rows, of columns(dof) + [E] each, as doubles."""
        traj = cls(array("d", [x for r in rows for x in r]), dof)
        if any(len(r) != traj.width for r in rows) or any(
                b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ValueError(f"trajectory rows must be {traj.width} numbers "
                             "each, at strictly increasing times")
        return traj

    @property
    def rows(self):  # a new list of the rows, for the API and the tests
        x, w = self.data.tolist(), self.width
        return [x[k:k + w] for k in range(0, len(x), w)]

    def __len__(self):
        return len(self.data) // self.width

    def column(self, name):
        """Entry `name` (of columns(dof), or "E") of every sample."""
        j = (columns(self.dof) + ["E"]).index(name)
        return self.data[j::self.width].tolist()

    def times(self):
        return np.array(self.column("t"))

    def state(self, k):
        k, m = range(len(self))[k] * self.width, self.dof
        r = self.data[k:k + 1 + 2 * m].tolist()
        return State(r[0], r[1:1 + m], r[1 + m:])

    def states(self):
        return [self.state(k) for k in range(len(self))]

    def diagnostics(self):  # H to E, each row's last seven entries
        x, w = self.data, self.width
        return [Diagnostics(*x[k - 7:k]) for k in range(w, len(x) + 1, w)]


# ---------------------------------------------------------------------------
# Force assembly


def accel(sys: SystemSpec, s: State) -> np.ndarray:
    """Explicit second-order form of the dissipative Lagrange equations."""
    m = sys.dof
    return np.array(_point(m)(s.t, _pack(s, 0.0), sys.model)[0][m:2 * m])


def diagnostics(sys: SystemSpec, s: State, e_diss: float = 0.0) -> Diagnostics:
    return Diagnostics(
        *_point(sys.dof)(s.t, _pack(s, e_diss), sys.model)[1][-7:])


# ---------------------------------------------------------------------------
# Stepping. Internal RK state is y = [q, v, E] with E' = D(q, v).


def _pack(s: State, e_diss: float):
    return s.q.tolist() + s.v.tolist() + [e_diss]


def _diverged(t):
    raise DivergenceError(f"non-finite state at t={t}") from None


def check_span(t0, t_end):
    """Return the loop's end guard (it steps while t is below it); raise
    ValueError unless t_end is finite and t0 is below the guard."""
    end = t_end - 1e-15 * (1.0 + abs(t_end))
    if not (math.isfinite(t_end) and t0 < end):
        raise ValueError(f"t_end ({t_end}) must be finite and exceed t0 "
                         f"({t0}) by more than 1e-15 (1 + |t_end|)")
    return end


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


def _f_lines(x, t, i):
    """(lines, f): the lines of f at time t and the state named x (q, v
    and possibly E, which f does not read), and f's entries there: x's v
    names, then k{i}_m.. for qdd and k{i}_2m for D. The lines set ts = t,
    the time that a MassMatrixError names, and make one call of the
    model's rhs with the params p and constants c, which leaves R, g0..
    (dR/dv), M{a}_{b} and V bound."""
    m = len(x) // 2
    k = x[m:2 * m] + [f"k{i}_{c}" for c in range(m, 2 * m + 1)]
    out = k[m:] + ["R"] + [f"g{a}" for a in range(m)] + [
        f"M{a}_{b}" for a in range(m) for b in range(m)] + ["V"]
    return [f"ts = {t}", f"{', '.join(out)} = rhs({', '.join(x[:2 * m])}, "
            "p, c)"], k


def _stages(method, m, k0):
    """(lines, stages, new, last, accepted, dt_next): the lines of one
    attempt of `method` for m coordinates, from the state y0.. and its f
    k0 at time t with step h, the number of RHS calls they make, and the
    sources of the new state's entries, of f there (_f_lines' names), of
    the verdict and of the next step size. The lines read atol and rtol
    for the pair. No stage sum raises: a non-finite value flows on into
    the model or the new state's check, and a non-finite error norm is
    that check's error.
    """
    n = 2 * m + 1
    K = [k0]
    body = []

    def stage(h, t, terms, width=2 * m):
        # the stage input y_c + h * terms(c), then f there at time t: its
        # entries become K[-1]. f does not read E, so only the new state
        # (width n, which is checked) forms its E entry
        x = [f"s{len(K)}_{c}" for c in range(width)]
        body.extend(f"{x[c]} = y{c} + {h} * {terms(c)}" for c in range(width))
        if width == n:
            body.extend(["if not (%s):" % " and ".join(
                f"isfinite({e})" for e in x), "    _diverged(t + h)"])
        lines, k = _f_lines(x, t, len(K))
        body.extend(lines)
        K.append(k)
        return x

    def tableau_sum(coeffs, c):
        # the nonzero terms, in tableau order
        return "(%s)" % " + ".join(
            f"{a!r} * {k[c]}" for a, k in zip(coeffs, K) if a)

    if method == "rk4":
        body.append("h2 = 0.5 * h")
        stage("h2", "t + 0.5 * h", lambda c: K[0][c])
        stage("h2", "t + 0.5 * h", lambda c: K[1][c])
        stage("h", "t + h", lambda c: K[2][c])
        body.append("h6 = h / 6.0")
        new = stage("h6", "t + h", lambda c: "(%s + 2.0 * %s + 2.0 * %s + %s)"
                    % tuple(k[c] for k in K), n)
        return body, len(K) - 1, new, K[-1], "True", "h"
    for i in range(1, 7):
        new = stage("h", f"t + {_DP_C[i]!r} * h",
                    partial(tableau_sum, _DP_A[i]), n if i == 6 else 2 * m)
    # the weighted error entries of q and v
    body += [f"e{c} = h * {tableau_sum(_DP_E, c)} / (atol + rtol * abs(y{c}))"
             for c in range(2 * m)]
    body += ["err = math.sqrt((%s) / %d)" % (" + ".join(
                 f"e{c} * e{c}" for c in range(2 * m)), 2 * m),
             "if not isfinite(err):", "    _diverged(t + h)",
             "factor = 5.0 if err == 0.0 else "
             "min(5.0, max(0.2, 0.9 * err ** -0.2))"]
    return body, len(K) - 1, new, K[-1], "err <= 1.0", "h * factor"


def _sample_lines(m, D):
    """(lines, row): lines that form T = 0.5 (v.M).v and W = v.dR/dv at
    the state y0.. from the names M{a}_{b} and g0.. that _f_lines binds,
    as left-to-right sums in _dot's order, and the source of the sample
    row there, with t, V, R and D (named D) bound."""
    y = [f"y{c}" for c in range(2 * m + 1)]
    v = y[m:2 * m]
    cols = ["(%s)" % " + ".join(f"{v[a]} * M{a}_{b}" for a in range(m))
            for b in range(m)]
    lines = ["T = 0.5 * (%s)" % " + ".join(
                 f"{u} * {x}" for u, x in zip(cols, v)),
             "W = " + " + ".join(f"{x} * g{a}" for a, x in enumerate(v))]
    return lines, f"[t, {', '.join(y[:-1])}, T + V, T, V, {D}, R, W, {y[-1]}]"


def _define(signature, m, body, tail):
    """The generated function `signature`, of t, y = [q, v, E] and model
    among its arguments: it unpacks y into y0.. and the model into rhs, p
    and c, runs body, where a MassMatrixError gains the time ts of its
    stage, then tail."""
    return xc.define(signature, [
        ", ".join(f"y{c}" for c in range(2 * m + 1)) + ", = y",
        "rhs, p, c = model.rhs, model.params, model.c",
        "try:", *[f"    {x}" for x in body], "except MassMatrixError as e:",
        "    raise MassMatrixError(f'{e} (t={ts})') from None", *tail],
        isfinite=math.isfinite,
        MassMatrixError=MassMatrixError, MaxStepsError=MaxStepsError,
        StiffnessError=StiffnessError, _diverged=_diverged,
        check_span=check_span)


@lru_cache(maxsize=16)
def _point(dof):
    """The generated point(t, y, model) -> (f, row) of `dof`: f(t, y) and
    the sample row at t of y = [q, v, E]."""
    lines, f = _f_lines([f"y{c}" for c in range(2 * dof + 1)], "t", 0)
    sample, row = _sample_lines(dof, f[-1])
    return _define("_point(t, y, model)", dof, lines,
                   [*sample, f"return [{', '.join(f)}], {row}"])


@lru_cache(maxsize=16)
def _loop(method, dof):
    """The generated integration loop of `method` for `dof`:

        loop(t, y, t_end, cfg, model, rows)
            -> (steps_taken, steps_rejected, rhs_calls)

    evaluates f at (t, y) and extends the array rows by the sample row
    there, then runs every attempt while t is below the end guard
    check_span(t, t_end), and adds the sample row of every sample_every-th
    accepted step, and of the last. Each attempt is _stages' lines with
    step h = min(dt, t_end - t). The first dt is cfg.dt for RK4; for the
    pair, min(1e-2 (t_end - t), 0.1), but at least its step-size floor 1e-14
    (1 + |t|). RK4 times are t0 + n * cfg.dt, capped at t_end: exact
    multiples, so no rounding-made sliver step at the end; its floor is 0,
    which h > 0 never reaches, so it has no check. In locals: the state,
    the next attempt's f (the accepted attempt's last stage: FSAL), the
    step size and the counters. The model comes in at each call, so the
    function depends only on (method, dof) and is built once per pair.
    """
    y = [f"y{c}" for c in range(2 * dof + 1)]
    first, k0 = _f_lines(y, "t", 0)
    sample, row = _sample_lines(dof, k0[-1])
    body, stages, new, last, ok, dt_next = _stages(method, dof, k0)
    if method == "rk4":
        head, floor = ["t0 = t", "dt = step = cfg.dt"], []
        advance = "t = min(t0 + accepted * step, t_end)"
    else:
        head = ["dt = max(min(1e-2 * (t_end - t), 0.1), "
                "1e-14 * (1.0 + abs(t)))",
                "atol, rtol = cfg.abs_tol, cfg.rel_tol"]
        floor = ["if dt < 1e-14 * (1.0 + abs(t)):",
                 "    raise StiffnessError(f'step size underflow (dt={dt:.3e})"
                 " at t={t}; the problem is likely too stiff for an explicit "
                 "pair')"]
        advance = "t = t + h"
    # f's v entries are the state's own, so the hand-over is qdd and D
    accept = ["accepted += 1", f"{', '.join(y)}, = {', '.join(new)}",
              f"{', '.join(k0[dof:])}, = {', '.join(last[dof:])}", advance,
              "if accepted % every == 0 or t >= end:",
              *[f"    {x}" for x in sample], f"    append({row})"]
    if ok != "True":
        accept = [f"if {ok}:"] + [f"    {x}" for x in accept]
    step = [
        "if attempts >= max_steps:",
        "    raise MaxStepsError(f'max_steps={max_steps} exceeded at t={t}')",
        *floor, "h = min(dt, t_end - t)", *body, "attempts += 1",
        f"dt = {dt_next}", *accept]
    return _define(
        f"_{method}_loop(t, y, t_end, cfg, model, rows)", dof,
        [*head, "end = check_span(t, t_end)",
         "max_steps, every = cfg.max_steps, cfg.sample_every",
         "append = rows.extend", "attempts = accepted = 0",
         *first, *sample, f"append({row})",
         "while t < end:", *[f"    {x}" for x in step]],
        [f"return accepted, attempts - accepted, 1 + {stages} * attempts"])


# ---------------------------------------------------------------------------
# Driver


def integrate(sys: SystemSpec, init: State, t_end: float,
              cfg: IntegratorConfig) -> Trajectory:
    """Integrate from init.t to t_end; the final step lands exactly on
    t_end. Deterministic for identical inputs. A span that the loop
    would not step (check_span) is a ValueError."""
    y = _pack(init, 0.0)
    if not all(map(math.isfinite, [init.t] + y)):
        _diverged(init.t)
    check_span(init.t, t_end)
    # imported here, so that a start that integrates nothing never loads it
    from . import native
    traj = Trajectory(array("d"), sys.dof)
    loop = _loop(cfg.method, sys.dof)
    args = (float(init.t), y, float(t_end), cfg, sys.model, traj.data)
    run = native.kernel(loop, sys.model)
    counts = run and run(*args)
    if not counts:  # no kernel, or a status: the Python loop decides
        counts = loop(*args)
        native.count(sys.model, counts[2])
    traj.steps_taken, traj.steps_rejected, traj.rhs_calls = counts
    return traj
