import dataclasses
import json
import math

import numpy as np
import pytest

import audit_oracle
from conftest import clear_model_caches, count_array_calls
from raydiss import audit as au
from raydiss import config as cf
from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import BUILTIN_NAMES, DOCS, get_builtin


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
    zeroed = dy.Trajectory.from_rows(
        [r[:-1] + [0.0] for r in traj.rows], traj.dof)  # E is last
    res = au.energy_balance_audit(zeroed, tol=1e-7)
    H = [d.H for d in traj.diagnostics()]
    assert not res.passed
    assert res.max_defect == H[0] - H[-1]
    assert au.energy_balance_audit(traj, tol=1e-7).passed


def test_energy_balance_too_few_samples():
    _, traj = rk4_run("sho", 0.5, 0.5)
    for n in (1, 2):
        short = dy.Trajectory.from_rows(traj.rows[:n], traj.dof)
        with pytest.raises(au.AuditError):
            au.energy_balance_audit(short, tol=1e-6)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("column", [-7, -1], ids=["H", "E"])
def test_energy_balance_propagates_a_nan_in_any_row(where, column):
    # a NaN H or E in any row makes the defect NaN, which fails the
    # section, as np.max returns a NaN wherever it sits; Python's max
    # would drop one that does not come first
    _, traj = run_builtin("damped_sho")
    k = {"first": 0, "middle": len(traj) // 2, "last": len(traj) - 1}[where]
    rows = [list(r) for r in traj.rows]
    rows[k][column] = math.nan
    res = au.energy_balance_audit(dy.Trajectory.from_rows(rows, traj.dof),
                                  tol=1e-7)
    assert math.isnan(res.max_defect)
    assert res.passed is False


@pytest.mark.parametrize("residual", [[math.nan, 1e-3], [1e-3, math.nan],
                                      [math.inf, math.nan]])
def test_residual_norm_propagates_a_nan(residual):
    rep = au.ReducedDissipationReport(
        sample_index=1, state_t=0.0, frozen_force=np.zeros(2),
        gradient_residual=np.array(residual), probe_deltas=[], slope=None,
        slope_skipped_reason=None, spacing=1e-3)
    assert math.isnan(rep.residual_norm)


def test_stationarity_section_fails_on_a_nan_residual_of_any_sample(
        monkeypatch):
    # a NaN residual norm at the third of the five samples makes the
    # section's worst residual NaN, and fails it, where Python's max
    # over the samples would keep the largest finite one
    b, traj = run_builtin("damped_sho")
    real, seen = au.stationarity_audit, []

    def nan_at_third(sys, traj, k, **kwargs):
        rep = real(sys, traj, k, **kwargs)
        seen.append(k)
        return rep if len(seen) != 3 else dataclasses.replace(
            rep, gradient_residual=np.array([math.nan]))
    monkeypatch.setattr(au, "stationarity_audit", nan_at_third)
    res = au._stationarity(b.system, traj, au.AuditTolerances())
    assert len(seen) == 5
    assert math.isnan(res.max_gradient_residual)
    assert res.passed is False


@pytest.mark.parametrize("residual", [[-3e-4, 1e-3], [-2.0, 1e-3],
                                      [-math.inf, 0.0]])
def test_residual_norm_is_the_largest_magnitude(residual):
    rep = au.ReducedDissipationReport(
        sample_index=1, state_t=0.0, frozen_force=np.zeros(2),
        gradient_residual=np.array(residual), probe_deltas=[], slope=None,
        slope_skipped_reason=None, spacing=1e-3)
    assert rep.residual_norm == max(map(abs, residual))
    assert type(rep.residual_norm) is float


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


def test_generalized_force_forms_fixed_order_sums():
    # p = M.v and dT/dq_j = 0.5 v.(dM/dq_j).v (over a, then b) are
    # left-to-right sums of Python float products, pinned at a sample
    # where numpy's M @ v rounds differently
    b, traj = run_builtin("pendulum_drag_2dof", t_end=1.0)
    sys = b.system

    def momentum(k):
        q, v = traj.rows[k][1:3], traj.rows[k][3:5]
        (m00, m01), (m10, m11) = sys.mass(q).tolist()
        return [m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1]], q, v

    for k in range(2, len(traj) - 1):
        p, q, v = momentum(k)
        if p != (sys.mass(q) @ np.array(v)).tolist():
            break
    else:
        pytest.fail("no sample where numpy's M @ v differs")
    (p0, _, _), (p2, _, _) = momentum(k - 1), momentum(k + 1)
    t0, t1, t2 = (traj.rows[i][0] for i in (k - 1, k, k + 1))
    dM = sys.mass_grad(q).tolist()  # [j][a][b]
    inertial = [0.5 * (v[0] * d[0][0] * v[0] + v[0] * d[0][1] * v[1]
                       + v[1] * d[1][0] * v[0] + v[1] * d[1][1] * v[1])
                - audit_oracle.central_diff(t0, t1, t2, p0[j], p[j], p2[j])
                for j, d in enumerate(dM)]
    assert au.generalized_force(sys, traj, k).inertial.tolist() == inertial


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
    # R = c v^2 / 2 is quadratic, so the change of R(w) - w.F along a probe
    # delta = mag * d is exactly delta.(dR/dv - F) + (c/2) mag^2 for any F:
    # here the finite-difference force, whose residual is not zero
    b, traj = rk4_run("damped_sho", dt=1e-3, t_end=1.0)
    k = len(traj) // 2
    c = b.system.params["c"]
    rep = au.stationarity_audit(b.system, traj, k, probes=4, seed=0)
    (residual,) = rep.gradient_residual.tolist()
    assert 0.0 < abs(residual) <= 1e-6
    dirs = au._probe_directions(1, 4, 0)
    # probe_deltas holds the probes by magnitude, each in direction order
    expected = [(mag, mag * d * residual + 0.5 * c * mag * mag)
                for mag in (1e-3, 1e-2, 1e-1) for (d,) in dirs]
    assert [m for m, _ in rep.probe_deltas] == [m for m, _ in expected]
    for (_, change), (_, law) in zip(rep.probe_deltas, expected):
        assert change == pytest.approx(law, rel=1e-9)
    assert rep.slope == pytest.approx(2.0, abs=1e-6)


def test_stationarity_slope_is_a_closed_form_fit(monkeypatch):
    # the probe-growth slope is Sxy/Sxx in Python floats: no numpy or
    # LAPACK least-squares fit, whose kernel the host's BLAS picks
    def fit(*args, **kwargs):
        raise AssertionError("least-squares fit through numpy")
    monkeypatch.setattr(np, "polyfit", fit)
    monkeypatch.setattr(np.linalg, "lstsq", fit)
    b, traj = run_builtin("pendulum_drag_2dof", t_end=1.0)
    rep = au.stationarity_audit(b.system, traj, len(traj) // 2)
    assert type(rep.slope) is float and 1.8 <= rep.slope <= 2.2


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


def test_stationarity_probes_are_drawn_once_per_dof_probes_and_seed():
    # every sample of an audit probes the same seeded unit directions: the
    # five samples of a full audit draw them once, and they are the
    # normalised normal draws of default_rng(seed), one per probe
    b, traj = run_builtin("pendulum_drag_2dof", t_end=1.0)
    au._probe_directions.cache_clear()
    assert au.full_audit(b.system, traj).stationarity.passed
    info = au._probe_directions.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    rng = np.random.default_rng(0)
    for d in au._probe_directions(2, 8, 0):
        x = rng.normal(size=2)
        assert d == tuple((x / math.sqrt(x[0] * x[0] + x[1] * x[1])).tolist())


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
    # with no D the conservative limit is the energy balance, bit for bit
    energy = report.energy_balance
    assert report.conservative_limit == {"H_drift": energy.max_defect,
                                         "pass": energy.passed}
    b, traj = rk4_run("sho", 0.5, 1.0)  # 3 coarse samples: both fail
    coarse = au.full_audit(b.system, traj)
    assert len(traj) == 3 and not coarse.energy_balance.passed
    assert coarse.conservative_limit == {
        "H_drift": coarse.energy_balance.max_defect, "pass": False}
    # too few samples for the energy balance: no conservative section
    b, traj = rk4_run("sho", 1.0, 1.0)
    short = au.full_audit(b.system, traj)
    assert short.conservative_limit is None and not short.passed


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_full_audit_every_builtin_passes_at_defaults(name):
    b, traj = run_builtin(name)
    report = au.full_audit(b.system, traj)
    assert report.passed, report.to_dict()


def test_constant_mass_with_a_potential_singular_at_zero_is_audited():
    # the constant mass and its factor come from the mass entries alone:
    # the statics at q = 0 would divide by zero in V = -k/q1, a point the
    # run never reaches
    sys = rm.SystemSpec(
        dof=1, mass_matrix=[[xc.parse("m")]], potential=xc.parse("-k/q1"),
        dissipation=rm.DissipationSpec(
            "homogeneous_sum", [rm.DissipationTerm(xc.parse("c*v1^2"), 2.0)]),
        params={"m": 1.0, "k": 0.5, "c": 0.2})
    with pytest.raises(xc.EvalDomainError, match="division by zero"):
        sys.model.statics((0.0,), sys.model.c)
    traj = dy.integrate(sys, dy.State(0.0, [1.0], [0.5]), 2.0,
                        dy.IntegratorConfig())
    assert len(traj) > 20
    report = au.full_audit(sys, traj)
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


def test_stationarity_skips_the_slope_near_a_friction_kink():
    # past the stop at t = 10/3 the regularised Coulomb block creeps with
    # |v| under the kink threshold max(1e-3, 10 * smooth_eps): the last
    # four sampled reports skip the slope fit there, the first finds no
    # growth above the float floor, and the audit passes. A new rule for
    # non-smooth D must change this on purpose.
    b, traj = run_builtin("coulomb_block", t_end=3.5)
    assert len(traj) == 235
    report = au.full_audit(b.system, traj)
    assert report.passed and not report.errors
    st = report.stationarity
    assert st.passed and not st.quadratic_growth_verified
    assert [r.slope for r in st.reports] == [None] * 5
    assert [r.slope_skipped_reason for r in st.reports] == [
        "probe changes below floating-point floor; reduced potential is "
        "locally flat beyond the linear term"] + [
        "dissipation is non-smooth (abs/sign) and a velocity component "
        "sits near the kink"] * 4


def test_stationarity_threshold_scales_with_spacing():
    assert au._stationarity_threshold(1e-5, 1e-3) == pytest.approx(1e-5)
    assert au._stationarity_threshold(1e-5, 2e-3) == pytest.approx(4e-5)
    assert au._stationarity_threshold(1e-5, 1e-4) == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# One evaluation path for D and R, one D_R_grad call per stationarity sample


# damped_sho with its D split into three terms, as CI's "Output digests"
# step runs it: a compensated sum of the term values (the builtin sum of
# Python 3.12 and later) differs from D_R_grad's left-to-right sum at many
# states; at v1 = 1 it gives D = 0.6, where D_R_grad gives
# 0.6000000000000001
THREE_TERM_SHO = {
    "dof": 1, "params": {"m": 1.0, "k": 1.0}, "mass_matrix": [["m"]],
    "potential": "0.5*k*q1^2",
    "dissipation": {"mode": "homogeneous_sum", "terms": [
        {"expr": "0.1*v1^2", "degree": 2}, {"expr": "0.2*v1^2", "degree": 2},
        {"expr": "0.3*v1^2", "degree": 2}]},
    "initial": {"q": [1.0], "v": [0.0]}, "t_end": 10}


def _recording(model, monkeypatch):
    """The (D, R) of every D_R_grad call of `model` from now on."""
    seen = []

    def recorded(q, v, p, fn=model.D_R_grad):
        out = fn(q, v, p)
        seen.append(out[:2])
        return out
    monkeypatch.setattr(model, "D_R_grad", recorded)
    return seen


def test_homogeneous_sum_d_and_r_are_d_r_grads_bit_for_bit(monkeypatch):
    cfg = cf.config_from_dict(THREE_TERM_SHO)
    sys, p = cfg.system, cfg.system.params
    spec, model = sys.dissipation, sys.model.dissipation
    assert model.D_R_grad((0.0,), (1.0,), p)[:2] == (0.6000000000000001,
                                                     0.30000000000000004)
    for q, v in [((0.0,), (1.0,)), *rm.sample_states(1, 50, seed=0)]:
        d, r, _ = model.D_R_grad(q, v, p)
        c = xc.EvalContext(q, v, p)
        assert [x.hex() for x in (rm.eval_D(spec, c), rm.eval_R(spec, c),
                                  rm.eval_R_closed(spec, c))] == [
            d.hex(), r.hex(), r.hex()], (q, v)
    # positivity's D is D_R_grad's, one call per state; a stationarity
    # sample makes one call, for its force and R there, and its 24 probes
    # run D_R_grad's own lines inline (audit._stationarity_pass)
    seen = _recording(model, monkeypatch)
    rep = rm.positivity_scan(model, 1, p, samples=20)
    assert len(seen) == 20
    assert rep.max_violation == max(0.0, *(-d for d, _ in seen))
    traj = dy.integrate(sys, cfg.initial, 1.0, cfg.integrator)
    seen.clear()
    au.stationarity_audit(sys, traj, 5)
    assert len(seen) == 1


def test_checks_and_audit_evaluate_the_systems_own_model(monkeypatch):
    # once _dissipation_model has evicted a system's dissipation model,
    # DissipationSpec.model(dof) builds another, equal one; the system's
    # hypotheses, its sampled sections and every other audit section still
    # evaluate the model its rhs runs, and never the other. Here all of D
    # takes the graded rule, so D, R and D_R_grad are generated functions
    clear_model_caches()
    cfg = cf.config_from_dict({
        "dof": 1, "params": {"c": 0.1}, "mass_matrix": [["1"]],
        "potential": "0.5*q1^2",
        "dissipation": {"mode": "general", "raw": "c*v1*tanh(v1/0.01)"},
        "initial": {"q": [0.0], "v": [1.0]}, "t_end": 0.2})
    system = dataclasses.replace(cfg.system)  # a new spec of equal fields
    own = system.model.dissipation
    assert system.dissipation.model(1) is own
    rm._dissipation_model.cache_clear()
    other = system.dissipation.model(1)
    assert other is not own
    seen = {"own": [], "other": []}
    for key, model in (("own", own), ("other", other)):
        for name in ("D", "R", "D_R_grad"):
            def counted(*args, fn=getattr(model, name), name=name, key=key):
                seen[key].append(name)
                return fn(*args)
            monkeypatch.setattr(model, name, counted)
    assert system.failed_hypothesis is None
    assert seen["own"] == ["D"] * 20  # the rest value at its 20 states
    traj = dy.integrate(system, cfg.initial, cfg.t_end, cfg.integrator)
    report = au.full_audit(system, traj, cfg.tolerances)
    assert report.errors == {}
    n = cfg.tolerances.check_samples
    assert seen["own"].count("D") == 20 + n
    assert seen["own"].count("D_R_grad") >= n
    assert seen["other"] == []


def test_stationarity_takes_one_d_r_grad_call_per_sample(monkeypatch):
    # in general mode with a graded-rule addend, whose R does not call
    # D_R_grad, the sample's force and dR/dv take one call per sample
    b = get_builtin("pendulum_drag_2dof")
    sys = dataclasses.replace(
        b.system, params={**b.system.params, "c": 0.05},
        dissipation=rm.DissipationSpec("general", raw=xc.parse(
            "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)")))
    assert sys.dissipation.split[1] is not None
    traj = dy.integrate(sys, b.initial, 1.0, b.integrator)
    seen = _recording(sys.model.dissipation, monkeypatch)
    au.stationarity_audit(sys, traj, 5)
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# The generated stationarity pass against the Python oracle
# (tests/audit_oracle.py), bit for bit


# the CI pendulums: the builtin with D in general mode
_PENDULUM = {**DOCS["pendulum_drag_2dof"], "t_end": 3, "dissipation": {
    "mode": "general", "raw": "A*(v1^2+v2^2)^1.5"}}
# the same pendulum with an addend of no velocity degree: R has a rest,
# which the graded rule integrates
_PENDULUM_TANH = {
    **_PENDULUM, "params": {**_PENDULUM["params"], "c": 0.05},
    "dissipation": {"mode": "general",
                    "raw": "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)"}}
_RK4 = {"method": "rk4", "dt": 3e-3, "sample_every": 7}
# a full, coordinate-dependent 3x3 mass matrix and a D that couples the
# velocities
_FULL_MASS_3DOF = {
    "dof": 3, "params": {"c": 0.3, "k": 1.0},
    "mass_matrix": [["2 + 0.5*cos(q2)", "0.3*cos(q1-q3)", "0.1*q2"],
                    ["0.3*cos(q1-q3)", "1.5", "0.2*sin(q2)"],
                    ["0.1*q2", "0.2*sin(q2)", "1 + 0.1*q1^2"]],
    "potential": "0.5*k*(q1^2 + q2^2 + q3^2) + 0.1*q1*q3",
    "dissipation": {"mode": "homogeneous_sum", "terms": [
        {"expr": "c*(v1^2 + v1*v2 + v2^2 + v3^2)", "degree": 2},
        {"expr": "0.05*(v1^2 + v3^2)^1.5", "degree": 3}]},
    "initial": {"q": [0.5, -0.2, 0.3], "v": [0.0, 0.4, -0.1]}, "t_end": 2}
# a sign term under smooth_eps: D_R_grad calls its value code on the
# lists q and v
_SIGN_EPS = {
    "dof": 1, "params": {"mu": 0.2}, "mass_matrix": [["1"]],
    "potential": "0.5*q1^2",
    "dissipation": {"mode": "homogeneous_sum", "terms": [
        {"expr": "mu*v1*sign(v1)", "degree": 1, "smooth_eps": 0.01}]},
    "initial": {"q": [1.0], "v": [0.0]}, "t_end": 2}
_ORACLE_CASES = {
    **{name: {"system": name} for name in BUILTIN_NAMES},
    "pendulum_drag_2dof_rk4": {"system": "pendulum_drag_2dof",
                               "integrator": _RK4},
    "damped_sho_rk4": {"system": "damped_sho", "integrator": _RK4},
    "pendulum_general": _PENDULUM,
    "pendulum_general_rk4": {**_PENDULUM, "integrator": _RK4},
    "pendulum_tanh": _PENDULUM_TANH,
    "pendulum_tanh_rk4": {**_PENDULUM_TANH, "integrator": _RK4},
    "three_term_sho": THREE_TERM_SHO,
    "full_mass_3dof": _FULL_MASS_3DOF,
    "sign_under_smooth_eps": _SIGN_EPS,
    "coulomb_block_near_the_kink": {"system": "coulomb_block", "t_end": 3.5},
}


def _run(doc):
    cfg = cf.config_from_dict(doc)
    return cfg.system, dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                                    cfg.integrator)


def _same_report(sys, traj, k, **kwargs):
    new = au.stationarity_audit(sys, traj, k, **kwargs)
    old = audit_oracle.stationarity_audit(sys, traj, k, **kwargs)
    assert repr(new.to_dict()) == repr(old.to_dict()), (k, kwargs)
    assert repr(new.slope) == repr(old.slope)
    return new


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_stationarity_pass_is_the_oracle_bit_for_bit(name):
    # the audit's five samples, each with its force, residual, base value
    # and 24 probes, and the report built from them
    sys, traj = _run(_ORACLE_CASES[name])
    idx = sorted(set(np.linspace(1, len(traj) - 2, 5).astype(int)))
    reports = [_same_report(sys, traj, int(k), probes=8, seed=20260823)
               for k in idx]
    if name == "coulomb_block_near_the_kink":
        assert reports[-1].slope_skipped_reason.startswith(
            "dissipation is non-smooth")


@pytest.mark.parametrize("name", ["damped_sho", "pendulum_general",
                                  "pendulum_tanh", "full_mass_3dof"])
def test_stationarity_pass_without_probes_and_with_a_frozen_force(name):
    # without probes the report still holds its frozen force, which is
    # generalized_force's, bit for bit
    sys, traj = _run(_ORACLE_CASES[name])
    k = len(traj) // 2
    rep = _same_report(sys, traj, k, probes=0)
    assert rep.probe_deltas == [] and rep.slope is None
    force = au.generalized_force(sys, traj, k).generalized
    assert repr(rep.frozen_force.tolist()) == repr(force.tolist())


def test_generalized_force_runs_no_value_pass_of_the_rule(monkeypatch):
    # without probe directions the pass forms no base: with a rest, the
    # force's one D_R_grad call is the rule's one array call (its gradient
    # pass), and no value pass (_quad(..., False)) runs for a base that
    # nothing reads
    sys, traj = _run(_ORACLE_CASES["pendulum_tanh"])
    assert sys.dissipation.split[1] is not None
    calls = count_array_calls(sys.model.dissipation, monkeypatch)
    au.generalized_force(sys, traj, len(traj) // 2)
    assert calls == ["_D_grad_nodes"]
    calls.clear()
    rep = au.stationarity_audit(sys, traj, len(traj) // 2, probes=0)
    assert calls == ["_D_grad_nodes"]
    assert rep.slope_skipped_reason == "no probes requested"
    calls.clear()
    au.stationarity_audit(sys, traj, len(traj) // 2, probes=1)
    assert calls == ["_D_grad_nodes"] + ["_D_nodes"] * 4  # base, 3 probes


def test_audited_indices_are_numpys_linspace():
    # the five audited samples, by numpy's own linspace arithmetic
    for n in range(5, 20001):
        assert au._audited_indices(n) == sorted(
            set(np.linspace(1, n - 2, 5).astype(int).tolist())), n


def _bits(breakdown):
    return {f.name: [x.hex() for x in getattr(breakdown, f.name).tolist()]
            for f in dataclasses.fields(breakdown)}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_generalized_force_is_the_oracles_bit_for_bit(name):
    # the generated pass's force breakdown is the Python force's at every
    # interior sample, each part hex-equal
    sys, traj = _run(_ORACLE_CASES[name])
    for k in range(1, len(traj) - 1):
        assert _bits(au.generalized_force(sys, traj, k)) == _bits(
            audit_oracle.generalized_force(sys, traj, k)), k


def _same_error(sys, traj, k):
    errors = []
    for audit in (au.stationarity_audit, audit_oracle.stationarity_audit):
        with pytest.raises(Exception) as info:
            audit(sys, traj, k)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    return errors[0]


def test_stationarity_pass_raises_the_oracles_errors():
    # a two-panel rule converges at the sample's own velocity and fails at
    # one of its probes: the QuadratureError names that probe's v
    _, traj = _run({"system": "damped_sho", "t_end": 10})
    coarse = cf.config_from_dict({
        "dof": 1, "params": {"c": 0.1}, "mass_matrix": [["1"]],
        "potential": "0.5*q1^2",
        "dissipation": {"mode": "general", "raw": "c*v1*tanh(v1/0.001)",
                        "quadrature": {"panels": 2}},
        "initial": {"q": [0.0], "v": [1.0]}, "t_end": 0.01}).system
    q, v = traj.rows[1][1:2], traj.rows[1][2:3]
    coarse.model.dissipation.D_R_grad(q, v, coarse.params)
    kind, message = _same_error(coarse, traj, 1)
    assert kind is rm.QuadratureError
    assert f"v={v}" not in message
    # a mass matrix that is not symmetric off the run: the force's statics
    # at sample k - 1 raise, naming its q
    _, traj = run_builtin("pendulum_drag_2dof", t_end=1.0)
    mm = DOCS["pendulum_drag_2dof"]["mass_matrix"]
    doc = {**_PENDULUM, "mass_matrix": [
        mm[0], [f"{mm[1][0]} + 0.1*q1", mm[1][1]]]}
    skew = cf.config_from_dict({**doc, "t_end": 0.01}).system
    kind, message = _same_error(skew, traj, 5)
    assert kind is rm.MassMatrixError
    assert message == ("mass matrix not symmetric at "
                       f"q={traj.rows[4][1:3]}")


def test_stationarity_pass_reads_statics_once_and_each_param_twice(
        monkeypatch):
    # a sample takes statics at itself and the mass alone at its two
    # neighbours, and reads each parameter of D once in its D_R_grad call
    # and once in R's constant lines, which its 24 probes share; the
    # output stays the oracle's
    traj = run_builtin("pendulum_drag_2dof", t_end=1.0)[1]
    sys = get_builtin("pendulum_drag_2dof").system
    sm = sys.model
    expected = au.stationarity_audit(sys, traj, 5, probes=8).to_dict()
    calls = {"statics": 0, "mass": 0}
    for name in calls:
        def counted(*args, fn=getattr(sm, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sm, name, counted)
    reads = []

    class Params(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)
    monkeypatch.setattr(sm, "params", Params(sm.params))
    assert au.stationarity_audit(sys, traj, 5, probes=8).to_dict() == expected
    assert calls == {"statics": 1, "mass": 2}
    assert reads == ["A", "A"]
