import dataclasses
import json

import numpy as np
import pytest

from raydiss import audit as au
from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import BUILTIN_NAMES, get_builtin


def run_builtin(name, t_end=None, cfg=None, overrides=None):
    b = get_builtin(name, overrides)
    return b, dy.integrate(b.system, b.initial, t_end or b.t_end,
                           cfg or b.integrator)


def rk4_run(name, dt, t_end, overrides=None):
    b = get_builtin(name, overrides)
    cfg = dy.IntegratorConfig(method="rk4", dt=dt)
    return b, dy.integrate(b.system, b.initial, t_end, cfg)


# ---------------------------------------------------------------------------
# Energy balance


def test_energy_balance_damped_sho():
    _, traj = run_builtin("damped_sho")
    res = au.energy_balance_audit(traj, tol=1e-7)
    assert res.to_dict()["method"] == "accumulated"
    assert res.passed
    assert res.max_defect <= 1e-7 * 1.5  # H(0) = 0.5


def test_energy_balance_initial_energy():
    b, traj = run_builtin("damped_sho")
    assert traj.diagnostics()[0].H == pytest.approx(0.5)


def test_energy_balance_conservative_is_pure_drift():
    _, traj = run_builtin("sho")
    res = au.energy_balance_audit(traj, tol=1e-9)
    assert res.passed  # D = 0, defect is the integrator's H drift


def test_energy_balance_reads_the_carried_integral():
    # without the carried integral of D the defect is the energy dissipated
    _, traj = run_builtin("damped_sho", t_end=10.0)
    zeroed = dataclasses.replace(traj, samples=[
        (s, dataclasses.replace(d, E_diss=0.0)) for s, d in traj.samples])
    res = au.energy_balance_audit(zeroed, tol=1e-7)
    H = [d.H for d in traj.diagnostics()]
    assert not res.passed
    assert res.max_defect == H[0] - H[-1]
    assert au.energy_balance_audit(traj, tol=1e-7).passed


def test_energy_balance_too_few_samples():
    b = get_builtin("sho")
    d = dy.diagnostics(b.system, b.initial)
    traj = dy.Trajectory(samples=[(b.initial, d)], method="rk4")
    with pytest.raises(au.AuditError):
        au.energy_balance_audit(traj, tol=1e-6)


# ---------------------------------------------------------------------------
# Generalized force reconstruction


def test_generalized_force_vanishes_for_conservative_motion():
    _, traj = rk4_run("sho", dt=1e-3, t_end=2.0)
    k = len(traj) // 2
    fb = au.generalized_force(get_builtin("sho").system, traj, k)
    # the Lagrange equations make F identically zero on-shell; the
    # reconstruction error is the O(h^2) finite-difference defect
    assert np.max(np.abs(fb.generalized)) <= 1e-6


def test_generalized_force_matches_drag():
    b, traj = rk4_run("damped_sho", dt=1e-3, t_end=2.0)
    k = len(traj) // 2
    s = traj.states()[k]
    fb = au.generalized_force(b.system, traj, k)
    c = b.system.params["c"]
    assert fb.generalized == pytest.approx([c * s.v[0]], abs=1e-6)
    assert fb.dissipative == pytest.approx([-c * s.v[0]], abs=1e-12)


def test_generalized_force_boundary_index_error():
    b, traj = rk4_run("damped_sho", dt=1e-2, t_end=0.1)
    with pytest.raises(IndexError):
        au.generalized_force(b.system, traj, 0)
    with pytest.raises(IndexError):
        au.generalized_force(b.system, traj, len(traj) - 1)


# ---------------------------------------------------------------------------
# Reduced-dissipation stationarity


def test_stationarity_residual_shrinks_quadratically():
    residuals = []
    for dt in (1e-3, 5e-4):
        b, traj = rk4_run("damped_sho", dt=dt, t_end=2.0)
        k = len(traj) // 2
        rep = au.stationarity_audit(b.system, traj, k, probes=4, seed=1)
        residuals.append(rep.residual_norm)
    assert residuals[0] <= 1e-6
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5


def test_stationarity_with_exact_force_quadratic_expansion():
    b, traj = rk4_run("damped_sho", dt=1e-3, t_end=1.0)
    k = len(traj) // 2
    s = traj.states()[k]
    c = b.system.params["c"]
    exact = np.array([c * s.v[0]])  # analytic F = dR/dv for R = c v^2 / 2
    rep = au.stationarity_audit(b.system, traj, k, probes=4, seed=0,
                                frozen_force=exact)
    assert rep.residual_norm <= 1e-14
    # with zero residual the change of the reduced potential is exactly
    # (c/2) * delta^2 for every probe
    for mag, change in rep.probe_deltas:
        assert change == pytest.approx(0.5 * c * mag * mag, rel=1e-9)
    assert rep.slope == pytest.approx(2.0, abs=1e-6)


def test_stationarity_zero_probes_reports_residual_only():
    b, traj = rk4_run("damped_sho", dt=1e-3, t_end=1.0)
    rep = au.stationarity_audit(b.system, traj, len(traj) // 2, probes=0)
    assert rep.slope is None
    assert rep.slope_skipped_reason == "no probes requested"
    assert np.isfinite(rep.residual_norm)


def test_stationarity_boundary_index_error():
    b, traj = rk4_run("damped_sho", dt=1e-2, t_end=0.1)
    with pytest.raises(IndexError):
        au.stationarity_audit(b.system, traj, 0)


# ---------------------------------------------------------------------------
# Full audit


def test_full_audit_damped_sho_all_sections_pass():
    b, traj = run_builtin("damped_sho")
    report = au.full_audit(b.system, traj)
    assert report.errors == {}
    assert report.energy_balance.passed
    assert report.euler_identity.passed
    assert report.positivity.passed
    assert report.stationarity.passed
    assert report.conservative_limit is None  # D != 0
    assert report.passed


def test_full_audit_conservative_section():
    b, traj = run_builtin("sho")
    report = au.full_audit(b.system, traj)
    assert report.conservative_limit is not None
    assert report.conservative_limit["pass"]
    assert report.conservative_limit["H_drift"] <= 1e-9
    assert report.passed


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_full_audit_every_builtin_passes_at_defaults(name):
    b, traj = run_builtin(name)
    report = au.full_audit(b.system, traj)
    assert report.passed, report.to_dict()


def test_full_audit_adversarial_negative_d_mixed_results():
    sys = rm.SystemSpec(
        dof=1, mass_matrix=[[xc.parse("1")]], potential=xc.parse("0.5*q1^2"),
        dissipation=rm.DissipationSpec(
            "homogeneous_sum", [rm.DissipationTerm(xc.parse("-v1^2"), 2.0)]),
        params={})
    cfg = dy.IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    traj = dy.integrate(sys, dy.State(0.0, [1.0], [0.0]), 5.0, cfg)
    report = au.full_audit(sys, traj)
    # the Euler identity and energy law hold for any D; only the sign
    # hypothesis is violated, so the sections disagree
    assert report.euler_identity.passed
    assert report.energy_balance.passed
    assert not report.positivity.passed
    assert not report.passed
    d = report.to_dict()
    assert d["pass"] is False and d["positivity"]["passed"] is False


def test_full_audit_sections_fail_independently():
    b, traj = rk4_run("damped_sho", dt=0.1, t_end=0.3)  # 4 samples
    report = au.full_audit(b.system, traj)
    assert report.energy_balance is not None  # still computed
    assert report.stationarity.error is not None
    assert not report.passed
    # the NaN residual of the skipped section is written as null: strict JSON
    d = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert d["stationarity"]["max_gradient_residual"] is None


def test_stationarity_threshold_scales_with_spacing():
    assert au._stationarity_threshold(1e-5, 1e-3) == pytest.approx(1e-5)
    assert au._stationarity_threshold(1e-5, 2e-3) == pytest.approx(4e-5)
    assert au._stationarity_threshold(1e-5, 1e-4) == pytest.approx(1e-5)
