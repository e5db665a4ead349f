"""Trajectory audits for the structural laws of dissipative dynamics.

Three independent families of checks:

* energy balance: Hdot = -D, verified as the running defect
  H(t) - H(t0) + integral of D. The integral is the dissipation channel
  the integrator carries, so the check runs at full integrator accuracy.
* generalized-force reconstruction: F = dL/dq - d/dt(dL/dv) along the
  trajectory with the momentum time-derivative taken by finite
  differences of the stored samples. This path is independent of the
  equation-of-motion assembly, so F ~ dR/dv is a genuine cross check.
* reduced-dissipation stationarity: with F frozen, R(v) - v.F is
  stationary at the true velocity. Verified as (a) a small gradient
  residual and (b) quadratic growth of probe perturbations after the
  linear part from the residual is removed.

The last two are one call of a function generated once per dissipation
model (_stationarity_pass): from the trajectory's rows, the system's
statics (M, dM/dq, V, dV/dq) at the sample and its mass alone at the two
neighbours the force, one D_R_grad call, and R's own value lines
(DissipationModel.R_lines, no gradient code) inline at every probe;
generalized_force is that call without probes. Each small dot
product is a left-to-right sum of Python float products, as
raymodel._dot, which, unlike BLAS, does not depend on the host. The
probe-growth slope is the closed-form least-squares slope in Python
floats, not a LAPACK fit, for the same reason. The residual norm and
the audited sample indices are Python float and int arithmetic too,
which on these few numbers costs less than numpy's calls; a NaN still
makes a maximum NaN, as np.max does (_max). The energy defect is one
numpy expression on strided views of H and E in the trajectory's array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import exprcore as xc
from .dynamics import Trajectory
from .raymodel import CheckReport, SystemSpec, _direction


class AuditError(Exception):
    pass


@dataclass(frozen=True)
class AuditTolerances:
    energy: float = 1e-6          # relative on 1 + |H(t0)|
    stationarity: float = 1e-5    # gradient residual at sample spacing 1e-3
    slope_window: tuple = (1.8, 2.2)
    check_samples: int = 100
    check_seed: int = 20260823

    def __post_init__(self):
        if not (self.energy > 0 and self.stationarity > 0):
            raise ValueError("energy and stationarity must be positive")
        lo, hi = self.slope_window
        if not lo < hi:
            raise ValueError(f"slope_window must be (lo, hi) with lo < hi, "
                             f"got {self.slope_window}")
        if self.check_samples < 1 or self.check_seed < 0:
            raise ValueError("check_samples must be >= 1 and check_seed "
                             ">= 0")


@dataclass(frozen=True)
class ForceBreakdown:
    conservative: np.ndarray  # Q = -dV/dq
    inertial: np.ndarray      # dT/dq - d/dt(dT/dv)
    dissipative: np.ndarray   # -dR/dv
    generalized: np.ndarray   # conservative + inertial


@dataclass(frozen=True)
class EnergyBalanceResult:
    max_defect: float
    passed: bool
    tol: float

    def to_dict(self):
        # "method" says how the integral of D was formed
        return {"max_defect": self.max_defect, "pass": self.passed,
                "tol": self.tol, "method": "accumulated"}


@dataclass(frozen=True)
class ReducedDissipationReport:
    sample_index: int
    state_t: float
    frozen_force: np.ndarray
    gradient_residual: np.ndarray
    probe_deltas: list            # (delta_norm, rtilde_change) sorted by norm
    slope: float | None
    slope_skipped_reason: str | None
    spacing: float                # local finite-difference spacing

    @property
    def residual_norm(self):
        return _max([abs(x) for x in self.gradient_residual.tolist()])

    def to_dict(self):
        return {
            "sample_index": self.sample_index,
            "t": self.state_t,
            "frozen_force": list(self.frozen_force),
            "gradient_residual": list(self.gradient_residual),
            "probe_deltas": [[float(a), float(b)] for a, b in self.probe_deltas],
            "slope": self.slope,
            "slope_skipped_reason": self.slope_skipped_reason,
            "spacing": self.spacing,
        }


@dataclass(frozen=True)
class StationarityResult:
    max_gradient_residual: float
    quadratic_growth_verified: bool
    passed: bool
    reports: tuple = ()
    error: str | None = None

    def to_dict(self):
        return {"max_gradient_residual": self.max_gradient_residual,
                "quadratic_growth_verified": self.quadratic_growth_verified,
                "pass": self.passed,
                "error": self.error,
                "reports": [r.to_dict() for r in self.reports]}


_SECTIONS = ("energy_balance", "euler_identity", "positivity", "stationarity",
             "conservative_limit")


@dataclass(frozen=True)
class AuditReport:
    energy_balance: EnergyBalanceResult | None
    euler_identity: CheckReport | None
    positivity: CheckReport | None
    stationarity: StationarityResult | None
    conservative_limit: dict | None
    tolerances: AuditTolerances
    errors: dict = field(default_factory=dict)  # section -> message

    @property
    def passed(self):
        # a section that did not run (None) does not fail the report
        return not self.errors and all(
            s is None or (s["pass"] if isinstance(s, dict) else s.passed)
            for s in (getattr(self, name) for name in _SECTIONS))

    def to_dict(self):
        return _json_data({
            "pass": self.passed,
            **{name: getattr(self, name) for name in _SECTIONS},
            "tolerances": {
                "energy": self.tolerances.energy,
                "stationarity": self.tolerances.stationarity,
                "slope_window": list(self.tolerances.slope_window),
            },
            "errors": dict(self.errors),
        })


def _json_data(x):
    """x with each section (an object with to_dict) as its dict, and each
    non-finite number as None (null), as JSON has no NaN or Infinity."""
    if hasattr(x, "to_dict"):
        x = x.to_dict()
    if isinstance(x, dict):
        return {k: _json_data(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_data(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


# ---------------------------------------------------------------------------
# Energy balance


def energy_balance_audit(traj: Trajectory, tol: float) -> EnergyBalanceResult:
    """Max over samples of |H(t) - H(t0) + integral of D|, relative to
    1 + |H(t0)|, with the integral of D that the integrator carries as a
    state channel (column E), at full integrator accuracy."""
    if len(traj) < 3:
        raise AuditError("energy balance audit needs at least 3 samples")
    # H is the seventh entry from the end of a row, and E the last: numpy
    # rounds (H - H0) + E as Python floats do, silently, keeping a NaN
    w, x = traj.width, np.frombuffer(traj.data)
    H0 = float(x[w - 7])
    with np.errstate(all="ignore"):
        defect = float(np.max(np.abs(x[w - 7::w] - H0 + x[w - 1::w])))
    return EnergyBalanceResult(max_defect=defect,
                               passed=defect <= tol * (1.0 + abs(H0)),
                               tol=tol)


def _max(xs):
    """The largest of the non-negative floats xs, or NaN if any is NaN, as
    np.max: Python's max keeps a NaN only when it comes first. The test
    is their sum, NaN exactly when some x is, as no sum of non-negative
    numbers makes a NaN (compensated or not); only its NaN-ness is read."""
    return math.nan if math.isnan(sum(xs)) else float(max(xs))


# ---------------------------------------------------------------------------
# Reduced-dissipation stationarity


# the probe magnitudes, each probe direction's in this order; the slope
# fit's abscissae are their logs, _DX less their mean, with Sxx _SXX
_MAGS = (1e-1, 1e-2, 1e-3)
_X = [math.log(mag) for mag in _MAGS]
_XM = math.fsum(_X) / len(_X)
_DX = [a - _XM for a in _X]
_SXX = math.fsum(a ** 2 for a in _DX)


@lru_cache(maxsize=16)
def _probe_directions(dof, probes, seed):
    """The seeded unit probe directions of stationarity_audit, tuples of
    Python floats drawn once per (dof, probes, seed): every sample of an
    audit probes the same ones."""
    rng = np.random.default_rng(seed)
    draws = [_direction(rng, dof) for _ in range(probes)]
    return tuple(tuple(x / n for x in d) for d, n in draws)


@lru_cache(maxsize=16)
def _stationarity_pass(model):
    """The generated pass(rows, dirs, statics, mass, D_R_grad, p, c) ->
    (F, residual, base, probe_deltas, per-magnitude lists, dR/dv, dV/dq, I)
    of one sample of the dissipation model `model` (one per value). rows
    are the samples k-1, k, k+1. From statics at sample k and the mass
    alone at the other two it forms the force F = -dV/dq + I, with
    I = dT/dq - dp/dt, where dp/dt is the 3-point derivative of the
    momenta p = M(q) v on the rows' own times. One D_R_grad call at sample
    k gives dR/dv. With probe directions, R's constant lines
    (model.R_consts) read the params once; base = R - v.F takes R from
    that call, or R's value lines (model.R_lines) at v when R has a rest;
    then, direction by direction, the R_lines run inline at v + mag * d
    for each mag of _MAGS. Without
    directions base is None. Every sum is left to right, as _dot, so the
    numbers are tests/audit_oracle.py's, bit for bit. The functions come
    in at each call, so the cache keeps no system alive."""
    m, n = len(model.g), 1 + len(model.g)
    q, v, u, F, I, s, e, d = ([f"{x}{i}" for i in range(m)]
                              for x in "qvuFIsed")
    J = range(m)

    def dot(x, y):
        return " + ".join(f"{a} * {b}" for a, b in zip(x, y))

    def R_at(w):  # the R_lines at velocity w
        return [f"{', '.join(v)}, = {', '.join(w)},", *(
            [f"v = [{', '.join(v)}]"] if model.lists else []), *model.R_lines]
    body = ["ya, yb, yc = rows", f"q, v = yb[1:{n}], yb[{n}:{n + m}]",
            f"{', '.join(q)}, = q", f"{', '.join(u)}, = v",
            f"Ma = mass(ya[1:{n}], c)", "Mb, dM, _, gV = statics(q, c)",
            f"Mc = mass(yc[1:{n}], c)", "h1 = yb[0] - ya[0]",
            "h2 = yc[0] - yb[0]", "wa = -h2 / (h1 * (h1 + h2))",
            "wb = (h2 - h1) / (h1 * h2)", "wc = h1 / (h2 * (h1 + h2))"]
    for j in J:  # 0.5 v.(dM/dq_j).v over a, then b; dp_j/dt
        dT = dot([f"{u[a]} * dM[{a}][{b}][{j}]" for a in J for b in J],
                 [u[b] for _ in J for b in J])
        dp = " + ".join("w%s * (%s)" % (r, dot(
            [f"M{r}[{j}][{b}]" for b in J], [f"y{r}[{n + b}]" for b in J]))
            for r in "abc")
        body += [f"{I[j]} = 0.5 * ({dT}) - ({dp})",
                 f"{F[j]} = -gV[{j}] + {I[j]}"]
    # base, R - v.F at v, only for probes: R is D_R_grad's, or with a
    # rest R's lines at v
    body += ["_, R, g = D_R_grad(q, v, p)",
             *[f"{s[j]} = g[{j}] - {F[j]}" for j in J],
             "base = None", "if dirs:", *[f"    {x}" for x in [
                 *model.R_consts,
                 *(R_at(u) if model.rest is not None else []),
                 f"base = R - ({dot(u, F)})"]],
             "a1, a2, a3, b1, b2, b3 = [], [], [], [], [], []",
             f"for {', '.join(d)}, in dirs:"]
    # a{i}: (mag, change of R - w.F); b{i}: |change - e.residual|
    for i, mag in enumerate(_MAGS, 1):
        body += [f"    {x}" for x in [f"{e[j]} = {mag!r} * {d[j]}" for j in J]
                 + R_at([f"{u[j]} + {e[j]}" for j in J]) + [
                 f"x = R - ({dot(v, F)}) - base", f"a{i}.append(({mag!r}, x))",
                 f"b{i}.append(abs(x - ({dot(e, s)})))"]]
    body.append(f"return [{', '.join(F)}], [{', '.join(s)}], base, "
                f"a3 + a2 + a1, (b1, b2, b3), g, gV, [{', '.join(I)}]")
    return xc.define("_stationarity_pass(rows, dirs, statics, mass, "
                     "D_R_grad, p, c)", body, **model.names)


def _sample(sys, traj, k, probes=0, seed=0):
    """(samples k - 1, k and k + 1 as lists, from one slice, the generated
    pass's output there), probed along _probe_directions(dof, probes, seed)."""
    if not (1 <= k <= len(traj) - 2):
        raise IndexError(
            f"sample index {k} needs interior position 1..{len(traj) - 2}")
    w, sm = traj.width, sys.model
    x = traj.data[(k - 1) * w:(k + 2) * w].tolist()
    rows = x[:w], x[w:2 * w], x[2 * w:]
    return rows, _stationarity_pass(sm.dissipation)(
        rows, _probe_directions(sys.dof, probes, seed), sm.statics, sm.mass,
        sm.dissipation.D_R_grad, sm.params, sm.c)


def generalized_force(sys: SystemSpec, traj: Trajectory,
                      k: int) -> ForceBreakdown:
    """Force breakdown at interior sample k with d/dt(dL/dv) from finite
    differences of the stored momentum p = M(q) v: the generated pass's
    force, without probes."""
    F, *_, g, gV, inertial = _sample(sys, traj, k)[1]
    return ForceBreakdown(-np.array(gV), np.array(inertial), -np.array(g),
                          np.array(F))


def stationarity_audit(sys: SystemSpec, traj: Trajectory, k: int,
                       probes: int = 8,
                       seed: int = 0) -> ReducedDissipationReport:
    """Stationarity of R(v) - v.F at frozen F, audited at sample k.

    The gradient residual dR/dv - F is the discrete shadow of the
    equation of motion; probe growth checks that the change of the
    reduced potential is quadratic once the residual's linear part is
    subtracted. F is generalized_force's, and one call of the generated
    pass (_stationarity_pass) evaluates the sample.
    """
    rows, (F, residual, base, probe_deltas, per_mag, *_) = _sample(
        sys, traj, k, probes, seed)
    slope = None
    skipped = None if probes else "no probes requested"
    d = sys.dissipation
    if skipped is None and d.uses_abs_or_sign:
        eps = max([1e-3] + [10.0 * t.smooth_eps for t in d.terms
                            if t.smooth_eps])
        if min(map(abs, rows[1][1 + sys.dof:1 + 2 * sys.dof])) < eps:
            skipped = ("dissipation is non-smooth (abs/sign) and a "
                       "velocity component sits near the kink")
    if skipped is None:
        means = [math.fsum(x) / len(x) for x in per_mag]
        floor = 1e-14 * (1.0 + abs(base))
        if all([x <= floor for x in means]):
            skipped = ("probe changes below floating-point floor; "
                       "reduced potential is locally flat beyond the "
                       "linear term")
        else:
            # the least-squares slope Sxy/Sxx of log mean over log
            # magnitude, in Python floats: no LAPACK fit, whose kernel
            # the host's BLAS picks
            y = [math.log(max(mean, 1e-300)) for mean in means]
            ym = math.fsum(y) / len(y)
            slope = math.fsum([a * (b - ym) for a, b in zip(_DX, y)]) / _SXX
    return ReducedDissipationReport(
        sample_index=k, state_t=rows[1][0], frozen_force=np.array(F),
        gradient_residual=np.array(residual), probe_deltas=probe_deltas,
        slope=slope, slope_skipped_reason=skipped,
        spacing=0.5 * (rows[2][0] - rows[0][0]))


# ---------------------------------------------------------------------------
# Aggregate


def _stationarity_threshold(tol, spacing):
    # tolerance is stated at spacing 1e-3; the residual is O(h^2)
    return tol * max(1.0, (spacing / 1e-3) ** 2)


def _audited_indices(n):
    """The interior samples that _stationarity audits of n >= 5, sorted
    and distinct: np.linspace(1, n - 2, 5).astype(int), by numpy's own
    arithmetic (1.0 + i * step for i < 4, the last exactly n - 2)."""
    step = (n - 3) / 4
    return sorted({*(int(i * step + 1.0) for i in range(4)), n - 2})


def _stationarity(sys, traj, tol):
    """Stationarity at five interior samples, each probed 8 ways."""
    n = len(traj)
    if n < 5:
        return StationarityResult(
            max_gradient_residual=float("nan"),
            quadratic_growth_verified=False, passed=False,
            error="too few samples for the stationarity audit")
    reports = [stationarity_audit(sys, traj, k, probes=8,
                                  seed=tol.check_seed)
               for k in _audited_indices(n)]
    worst = _max([r.residual_norm for r in reports])
    lo, hi = tol.slope_window
    slopes = [r.slope for r in reports if r.slope is not None]
    # decay faster than quadratic (degenerate velocity Hessian) still
    # witnesses stationarity; only sub-quadratic decay fails
    slope_ok = all(s >= lo for s in slopes)
    in_window = all(lo <= s <= hi for s in slopes)
    thresh = max(_stationarity_threshold(tol.stationarity, r.spacing)
                 for r in reports)
    return StationarityResult(
        max_gradient_residual=worst,
        quadratic_growth_verified=in_window and bool(slopes),
        passed=bool(worst <= thresh and slope_ok), reports=tuple(reports))


def full_audit(sys: SystemSpec, traj: Trajectory,
               tol: AuditTolerances = AuditTolerances()) -> AuditReport:
    """Run every audit section; sections fail independently: one that
    raises is None, with its message in `errors`. The Euler identity and
    positivity sections depend on the system alone, so they are the
    system's stored reports (SystemSpec.sampled_check)."""
    sampled = partial(sys.sampled_check, samples=tol.check_samples,
                      seed=tol.check_seed)
    sections, errors = {}, {}
    for name, run in (
            ("energy_balance",
             partial(energy_balance_audit, traj, tol.energy)),
            ("euler_identity", partial(sampled, "euler_identity")),
            ("positivity", partial(sampled, "positivity")),
            ("stationarity", partial(_stationarity, sys, traj, tol))):
        try:
            sections[name] = run()
        except Exception as e:
            sections[name] = None
            errors[name] = str(e)
    # with no D the carried integral stays exactly 0.0, so the energy
    # defect is the drift of H
    energy = sections["energy_balance"]
    sections["conservative_limit"] = (
        {"H_drift": energy.max_defect, "pass": energy.passed}
        if sys.dissipation.is_null and energy is not None else None)
    return AuditReport(**sections, tolerances=tol, errors=errors)
