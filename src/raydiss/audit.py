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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import raymodel as rm
from .dynamics import Trajectory
from .raymodel import CheckReport, SystemSpec


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
        return float(np.max(np.abs(self.gradient_residual)))

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
        sections = [
            self.energy_balance is None or self.energy_balance.passed,
            self.euler_identity is None or self.euler_identity.passed,
            self.positivity is None or self.positivity.passed,
            self.stationarity is None or self.stationarity.passed,
            self.conservative_limit is None or self.conservative_limit["pass"],
        ]
        return all(sections) and not self.errors

    def to_dict(self):
        return _json_data({
            "pass": self.passed,
            "energy_balance": self.energy_balance,
            "euler_identity": self.euler_identity,
            "positivity": self.positivity,
            "stationarity": self.stationarity,
            "conservative_limit": self.conservative_limit,
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
    state channel (Diagnostics.E_diss), at full integrator accuracy."""
    if len(traj) < 3:
        raise AuditError("energy balance audit needs at least 3 samples")
    diags = traj.diagnostics()
    H = np.array([d.H for d in diags])
    integral = np.array([d.E_diss for d in diags])
    defect = float(np.max(np.abs(H - H[0] + integral)))
    thresh = tol * (1.0 + abs(H[0]))
    return EnergyBalanceResult(max_defect=defect,
                               passed=bool(defect <= thresh), tol=tol)


# ---------------------------------------------------------------------------
# Generalized force along a trajectory


def _central_diff(t0, t1, t2, f0, f1, f2):
    """3-point derivative at t1 on a possibly nonuniform stencil."""
    h1 = t1 - t0
    h2 = t2 - t1
    return (-h2 / (h1 * (h1 + h2)) * f0
            + (h2 - h1) / (h1 * h2) * f1
            + h1 / (h2 * (h1 + h2)) * f2)


def generalized_force(sys: SystemSpec, traj: Trajectory,
                      k: int) -> ForceBreakdown:
    """Force breakdown at interior sample k with d/dt(dL/dv) from finite
    differences of the stored momentum p = M(q) v."""
    if not (1 <= k <= len(traj) - 2):
        raise IndexError(
            f"sample index {k} needs interior position 1..{len(traj) - 2}")
    sm = sys.model
    states = traj.states()
    s0, s1, s2 = states[k - 1], states[k], states[k + 1]
    p = [sm.mass(s.q) @ s.v for s in (s0, s1, s2)]
    dp_dt = _central_diff(s0.t, s1.t, s2.t, *p)
    qt, vt = tuple(s1.q), tuple(s1.v)
    dV_dq = np.array(sm.grad_V(qt, vt, sm.params)[1])
    if sm.mass_const:
        dT_dq = np.zeros(sys.dof)
    else:
        dM = sm.mass_grad(qt)
        dT_dq = 0.5 * np.einsum("a,jab,b->j", s1.v, dM, s1.v)
    conservative = -dV_dq
    inertial = dT_dq - dp_dt
    dissipative = -np.array(sm.dissipation.D_R_grad(qt, vt, sm.params)[2])
    return ForceBreakdown(conservative=conservative, inertial=inertial,
                          dissipative=dissipative,
                          generalized=conservative + inertial)


# ---------------------------------------------------------------------------
# Reduced-dissipation stationarity


def stationarity_audit(sys: SystemSpec, traj: Trajectory, k: int,
                       probes: int = 8, seed: int = 0,
                       frozen_force=None) -> ReducedDissipationReport:
    """Stationarity of R(v) - v.F at frozen F, audited at sample k.

    The gradient residual dR/dv - F is the discrete shadow of the
    equation of motion; probe growth checks that the change of the
    reduced potential is quadratic once the residual's linear part is
    subtracted. `frozen_force` overrides the finite-difference F (used
    by tests with an analytic force).
    """
    if not (1 <= k <= len(traj) - 2):
        raise IndexError(
            f"sample index {k} needs interior position 1..{len(traj) - 2}")
    sm = sys.model
    dissipation = sm.dissipation
    states = traj.states()
    s = states[k]
    spacing = 0.5 * (states[k + 1].t - states[k - 1].t)
    if frozen_force is None:
        frozen_force = generalized_force(sys, traj, k).generalized
    frozen_force = np.asarray(frozen_force, dtype=float)
    qt, vt = tuple(s.q), tuple(s.v)
    v = np.asarray(s.v, dtype=float)
    grad_R = np.array(dissipation.D_R_grad(qt, vt, sm.params)[2])
    residual = grad_R - frozen_force

    def rtilde(w):
        return (dissipation.R(qt, tuple(w), sm.params)
                - float(np.dot(w, frozen_force)))

    base = rtilde(v)
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(probes):
        d = rng.normal(size=sys.dof)
        n = np.linalg.norm(d)
        dirs.append(d / n if n else np.eye(sys.dof)[0])
    mags = (1e-1, 1e-2, 1e-3)
    probe_deltas = []
    per_mag = {m: [] for m in mags}
    for d in dirs:
        for mag in mags:
            delta = mag * d
            change = rtilde(v + delta) - base
            probe_deltas.append((mag, change))
            # remove the linear part contributed by the gradient residual
            per_mag[mag].append(abs(change - float(np.dot(delta, residual))))
    probe_deltas.sort(key=lambda p: p[0])
    slope = None
    skipped = None
    if probes == 0:
        skipped = "no probes requested"
    else:
        eps_thresh = 1e-3
        if sys.dissipation.uses_abs_or_sign():
            eps_list = [t.smooth_eps for t in sys.dissipation.terms
                        if t.smooth_eps]
            if eps_list:
                eps_thresh = max(eps_thresh, 10.0 * max(eps_list))
            if np.min(np.abs(v)) < eps_thresh:
                skipped = ("dissipation is non-smooth (abs/sign) and a "
                           "velocity component sits near the kink")
        if skipped is None:
            means = np.array([np.mean(per_mag[m]) for m in mags])
            floor = 1e-14 * (1.0 + abs(base))
            if np.all(means <= floor):
                skipped = ("probe changes below floating-point floor; "
                           "reduced potential is locally flat beyond the "
                           "linear term")
            else:
                logm = np.log(np.maximum(means, 1e-300))
                logd = np.log(np.array(mags))
                slope = float(np.polyfit(logd, logm, 1)[0])
    return ReducedDissipationReport(
        sample_index=k, state_t=s.t, frozen_force=frozen_force,
        gradient_residual=residual, probe_deltas=probe_deltas,
        slope=slope, slope_skipped_reason=skipped, spacing=spacing)


# ---------------------------------------------------------------------------
# Aggregate


def _stationarity_threshold(tol, spacing):
    # tolerance is stated at spacing 1e-3; the residual is O(h^2)
    return tol * max(1.0, (spacing / 1e-3) ** 2)


def full_audit(sys: SystemSpec, traj: Trajectory,
               tol: AuditTolerances = AuditTolerances()) -> AuditReport:
    """Run every audit section; sections fail independently."""
    errors = {}
    energy = euler = positivity = stationarity = None
    conservative = None

    try:
        energy = energy_balance_audit(traj, tol.energy)
    except Exception as e:
        errors["energy_balance"] = str(e)

    try:
        euler = rm.euler_identity_check(
            sys.dissipation, sys.dof, sys.params,
            samples=tol.check_samples, seed=tol.check_seed)
    except Exception as e:
        errors["euler_identity"] = str(e)

    try:
        positivity = rm.positivity_scan(
            sys.dissipation, sys.dof, sys.params,
            samples=tol.check_samples, seed=tol.check_seed)
    except Exception as e:
        errors["positivity"] = str(e)

    try:
        n = len(traj)
        if n >= 5:
            idx = sorted(set(np.linspace(1, n - 2, 5).astype(int)))
            reports = [stationarity_audit(sys, traj, int(k),
                                          probes=8, seed=tol.check_seed)
                       for k in idx]
            worst = max(r.residual_norm for r in reports)
            lo, hi = tol.slope_window
            slopes = [r.slope for r in reports if r.slope is not None]
            # decay faster than quadratic (degenerate velocity Hessian)
            # still witnesses stationarity; only sub-quadratic decay fails
            slope_ok = all(s >= lo for s in slopes)
            in_window = all(lo <= s <= hi for s in slopes)
            thresh = max(_stationarity_threshold(tol.stationarity, r.spacing)
                         for r in reports)
            stationarity = StationarityResult(
                max_gradient_residual=worst,
                quadratic_growth_verified=in_window and bool(slopes),
                passed=bool(worst <= thresh and slope_ok),
                reports=tuple(reports))
        else:
            stationarity = StationarityResult(
                max_gradient_residual=float("nan"),
                quadratic_growth_verified=False, passed=False,
                error="too few samples for the stationarity audit")
    except Exception as e:
        errors["stationarity"] = str(e)

    try:
        if sys.dissipation.is_null:
            diags = traj.diagnostics()
            H0 = diags[0].H
            drift = float(max(abs(d.H - H0) for d in diags))
            conservative = {
                "H_drift": drift,
                "pass": bool(drift <= tol.energy * (1.0 + abs(H0))),
            }
    except Exception as e:
        errors["conservative_limit"] = str(e)

    return AuditReport(energy_balance=energy, euler_identity=euler,
                       positivity=positivity, stationarity=stationarity,
                       conservative_limit=conservative, tolerances=tol,
                       errors=errors)
