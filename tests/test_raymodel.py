import numpy as np
import pytest

from raydiss import exprcore as xc
from raydiss import raymodel as rm


def ctx(q, v, **params):
    return xc.EvalContext(tuple(q), tuple(v), params)


def homsum(*pairs):
    return rm.DissipationSpec(
        "homogeneous_sum",
        [rm.DissipationTerm(xc.parse(src), deg) for src, deg in pairs])


def general(src, **quad):
    return rm.DissipationSpec("general", raw=xc.parse(src),
                              quadrature=rm.QuadratureConfig(**quad))


# ---------------------------------------------------------------------------
# Spec types


def test_degree_must_be_positive():
    with pytest.raises(rm.ModelError):
        rm.DissipationTerm(xc.parse("v1^2"), 0.0)
    with pytest.raises(rm.ModelError):
        rm.DissipationTerm(xc.parse("v1^2"), -1.0)


def test_mode_field_consistency():
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("squiggly")
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("general")  # missing raw
    with pytest.raises(rm.ModelError):
        rm.DissipationSpec("homogeneous_sum", raw=xc.parse("v1^2"))


def test_system_rejects_velocity_in_mass_and_potential():
    with pytest.raises(rm.ModelError):
        rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1+v1")]],
                      potential=xc.parse("0"),
                      dissipation=rm.null_dissipation())
    with pytest.raises(rm.ModelError):
        rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("1")]],
                      potential=xc.parse("v1^2"),
                      dissipation=rm.null_dissipation())


def test_system_mass_symmetry_enforced():
    sys = rm.SystemSpec(
        dof=2,
        mass_matrix=[[xc.parse("1"), xc.parse("q1")],
                     [xc.parse("0"), xc.parse("1")]],
        potential=xc.parse("0"), dissipation=rm.null_dissipation())
    with pytest.raises(rm.ModelError):
        sys.mass((1.0, 0.0))


def test_constant_mass_cannot_be_corrupted_through_mass():
    sys = rm.SystemSpec(dof=1, mass_matrix=[[xc.parse("m")]],
                        potential=xc.parse("0"),
                        dissipation=rm.null_dissipation(), params={"m": 2.0})
    M = sys.mass((0.0,))
    try:
        M[0, 0] = 99.0
    except ValueError:
        pass  # read-only
    assert sys.mass((0.5,))[0, 0] == 2.0
    assert sys.model.Minv0[0, 0] == 0.5


# ---------------------------------------------------------------------------
# Compiled models


def test_general_quadrature_rule_built_once_per_spec(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    spec = general("v1^2 + abs(v2)^3")
    for q, v in rm.sample_states(2, 3, seed=4):
        c = ctx(q, v)
        rm.grad_R_v(spec, c)
        rm.eval_R(spec, c)
        rm.eval_R_quadrature(spec, c)
    assert calls == [64]


def test_runs_do_not_grow_the_expression_compile_cache():
    from raydiss import audit as au
    from raydiss import config as cf
    from raydiss import dynamics as dy

    def run(cfg):
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        assert au.full_audit(cfg.system, traj, cfg.tolerances).passed

    base = cf.config_from_dict({"system": "damped_sho", "t_end": 0.5})
    inline = {
        "dof": 2, "params": {"a": 1.0, "A": 0.1},
        "mass_matrix": [["2", "a*cos(q1-q2)"], ["a*cos(q1-q2)", "2"]],
        "potential": "-cos(q1) - cos(q2)",
        "dissipation": {"mode": "homogeneous_sum",
                        "terms": [{"expr": "A*(v1^2+v2^2)^1.5",
                                   "degree": 3}]},
        "initial": {"q": [0.6, -0.3], "v": [0.0, 0.0]}, "t_end": 0.2,
    }
    before = len(xc._COMPILE_CACHE)
    for c in (0.1, 0.2, 0.3):
        run(base.with_params({"c": c}))
    for _ in range(2):
        run(cf.config_from_dict(inline))
    assert len(xc._COMPILE_CACHE) == before


def test_with_params_shares_the_builtin_dissipation_model():
    from raydiss import config as cf

    base = cf.config_from_dict({"system": "damped_sho"})
    a = base.with_params({"c": 0.1})
    b = base.with_params({"c": 0.3})
    assert a.system.dissipation is base.system.dissipation
    assert a.system.dissipation.model(1) is b.system.dissipation.model(1)
    assert a.system.params["c"] == 0.1 and b.system.params["c"] == 0.3
    assert a.reference is not None


# ---------------------------------------------------------------------------
# Homogeneity


def test_homogeneity_quadratic_passes():
    rep = rm.homogeneity_check(rm.DissipationTerm(xc.parse("c*v1^2"), 2.0),
                               1, {"c": 0.3})
    assert rep.passed and rep.max_violation <= 1e-12


def test_homogeneity_degree_three_norm_passes():
    rep = rm.homogeneity_check(
        rm.DissipationTerm(xc.parse("A*(v1^2+v2^2)^1.5"), 3.0),
        2, {"A": 0.7})
    assert rep.passed


def test_homogeneity_wrong_degree_fails():
    # direct oracle: |lam^3 v^2 - lam^2 v^2| / (lam^3 v^2) at lam=2 is 1/2
    e = xc.parse("c*v1^2")
    c = {"c": 1.0}
    base = xc.evaluate(e, ctx([0.0], [1.3], **c))
    scaled = xc.evaluate(e, ctx([0.0], [2.6], **c))
    assert abs(2.0 ** 3 * base - scaled) / (2.0 ** 3 * base) == \
        pytest.approx(0.5)
    rep = rm.homogeneity_check(rm.DissipationTerm(e, 3.0), 1, c)
    assert not rep.passed
    assert rep.max_violation > 0.4
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# Closed-form R


def test_r_closed_classical_quadratic():
    spec = homsum(("c*v1^2", 2.0))
    assert rm.eval_R_closed(spec, ctx([0.0], [2.0], c=1.0)) == 2.0


def test_r_closed_degree_three():
    spec = homsum(("A*(v1^2+v2^2)^1.5", 3.0))
    assert rm.eval_R_closed(
        spec, ctx([0.0, 0.0], [1.0, 0.0], A=3.0)) == pytest.approx(1.0)


def test_r_closed_null_dissipation():
    assert rm.eval_R_closed(rm.null_dissipation(), ctx([1.0], [1.0])) == 0.0


def test_r_ratio_is_reciprocal_degree():
    for src, deg in (("abs(v1)", 1.0), ("v1^2", 2.0), ("abs(v1)^3", 3.0)):
        spec = homsum((src, deg))
        for q, v in rm.sample_states(1, 30, seed=5):
            c = ctx(q, v)
            d = rm.eval_D(spec, c)
            if d > 1e-10:
                assert rm.eval_R_closed(spec, c) / d == pytest.approx(
                    1.0 / deg, rel=1e-12)


def test_r_vanishes_at_rest():
    spec = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    assert rm.eval_R_closed(spec, ctx([1.7], [0.0])) == 0.0
    gspec = general("v1^2 + abs(v1)^3")
    val, _ = rm.eval_R_quadrature(gspec, ctx([1.7], [0.0]))
    assert val == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Quadrature R


def test_quadrature_quadratic():
    val, warning = rm.eval_R_quadrature(general("v1^2"), ctx([0.0], [2.0]))
    assert val == pytest.approx(2.0, rel=1e-10)
    assert warning is None


def test_quadrature_cubic():
    val, _ = rm.eval_R_quadrature(general("abs(v1)^3"), ctx([0.0], [1.0]))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_quadrature_sum_rule():
    val, _ = rm.eval_R_quadrature(general("v1^2 + abs(v1)^3"),
                                  ctx([0.0], [1.0]))
    assert val == pytest.approx(5.0 / 6.0, rel=1e-10)
    closed = rm.eval_R_closed(homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0)),
                              ctx([0.0], [1.0]))
    assert val == pytest.approx(closed, rel=1e-10)


def test_quadrature_matches_closed_on_samples():
    spec_c = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    spec_g = general("v1^2 + abs(v1)^3")
    for q, v in rm.sample_states(1, 25, seed=9):
        c = ctx(q, v)
        a = rm.eval_R_quadrature(spec_g, c)[0]
        b = rm.eval_R_closed(spec_c, c)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_quadrature_diverges_for_rest_nonvanishing_d():
    # D(q, 0) = 1 makes the integral of D/u diverge at u -> 0
    with pytest.raises(rm.QuadratureError):
        rm.eval_R_quadrature(general("v1^2 + 1"), ctx([0.0], [1.0]))


def test_quadrature_coarse_settings_still_converge_on_polynomials():
    # integrand u^3 v^4 is polynomial, exact even on the coarsest rule
    val, warning = rm.eval_R_quadrature(
        general("v1^4", node_count=8, panels=1, tolerance=1e-12),
        ctx([0.0], [2.0]))
    assert val == pytest.approx(4.0, rel=1e-12)  # D/4 = 16/4
    assert warning is None


# ---------------------------------------------------------------------------
# Vectorised quadrature against the per-node scalar loop it replaced


def _scalar_loop_refined(spec, dof, q, v, p, with_grad):
    """Reference: the model's quadrature before array mode, one scalar
    compiled call per node. Returns ((R, dR/dv), warning)."""
    qc = spec.quadrature
    nodes, weights = np.polynomial.legendre.leggauss(qc.node_count)
    fn = (xc.compile_expr(spec.raw, dof, "v") if with_grad
          else xc.compile_expr(spec.raw))

    def quad_once(panels):
        acc_val = 0.0
        acc_g = np.zeros(dof)
        va = np.asarray(v, dtype=float)
        edges = np.linspace(0.0, 1.0, panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            for x, w in zip(nodes, weights):
                u = mid + half * x
                vs = tuple(u * va)
                if with_grad:
                    val, g = fn(q, vs, p)
                    acc_g += (w * half) * np.array(g)
                else:
                    val = fn(q, vs, p)
                acc_val += (w * half / u) * val
        return acc_val, acc_g

    prev = quad_once(qc.panels)
    panels = qc.panels
    for attempt in range(2):
        panels *= 2
        cur = quad_once(panels)
        if abs(cur[0] - prev[0]) <= qc.tolerance * (1.0 + abs(cur[0])):
            warning = None
            if attempt > 0:
                warning = (f"quadrature needed {panels} panels "
                           f"(configured {qc.panels}) to converge")
            return cur, warning
        prev = cur
    raise rm.QuadratureError("did not converge")


def _rel_close(a, b):
    """|a - b| <= 1e-13 |b| elementwise, so exact zeros must match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.all(np.abs(a - b) <= 1e-13 * np.abs(b))


QUAD_ORACLE_D = [
    "A*(v1^2+v2^2)^1.5",
    "v1^2 + abs(v2)^3",
    "mu*abs(v1 - v2)",
    "sign(v1)*v1^2 + abs(v2)",
    "v1*tanh(v1/0.001) + v2^2",     # needs 16 panels near |v1| = 1
    "exp(v1^2 + v2^2) - 1 + (1 + q1^2)*v2^4",
]


def test_vectorised_quadrature_matches_scalar_loop():
    p = {"A": 1.3, "mu": 0.7}
    states = [(q, v) for q, v in rm.sample_states(2, 12, seed=21,
                                                  v_norm_range=(0.1, 2.0))]
    states += [((0.3, -1.0), v) for v in
               ((0.0, 0.0), (0.0, 0.8), (-1.1, 0.0), (1.0, 0.3))]
    warned = 0
    for src in QUAD_ORACLE_D:
        spec = general(src)
        model = spec.model(2)
        for q, v in states:
            q, v = tuple(q), tuple(v)
            (ref_r, _), ref_w = _scalar_loop_refined(spec, 2, q, v, p, False)
            (_, ref_g), ref_gw = _scalar_loop_refined(spec, 2, q, v, p, True)
            r, w = model.R_with_warning(q, v, p)
            assert _rel_close(r, ref_r), (src, v)
            assert w == ref_w, (src, v)
            assert _rel_close(model.grad_R(q, v, p), ref_g), (src, v)
            assert model._refined(q, v, p, True)[1] == ref_gw, (src, v)
            warned += ref_w is not None
    assert warned > 0


def test_refined_evaluations_are_counted_on_the_model():
    model = general("v1*tanh(v1/0.001)").model(1)
    assert model.refinements == 0
    model.R((0.0,), (0.5,), {})  # converges on the first doubling
    assert model.refinements == 0
    assert rm.eval_R_quadrature(general("v1*tanh(v1/0.001)"),
                                ctx([0.0], [1.0]))[1] == (
        "quadrature needed 16 panels (configured 4) to converge")
    model.R((0.0,), (1.0,), {})
    model.grad_R((0.0,), (1.0,), {})
    assert model.refinements == 2
    assert homsum(("v1^2", 2.0)).model(1).refinements == 0


@pytest.mark.parametrize("src, v, with_grad", [
    ("v1^1.5", (-0.8,), False),
    ("v1^1.5", (-0.8,), True),
    ("ln(v1)", (-0.5,), False),
    ("ln(v1)", (0.0,), True),
    ("v1^2 + ln(1 - v1)", (1.5,), False),  # fails from u = 2/3 on
    ("v1^2 + ln(1 - v1)", (1.5,), True),
    ("sqrt(v1)*v1^2", (0.0,), True),
])
def test_vectorised_quadrature_domain_error_matches_scalar_loop(
        src, v, with_grad):
    spec = general(src)
    with pytest.raises(xc.EvalDomainError) as ref:
        _scalar_loop_refined(spec, 1, (0.0,), v, {}, with_grad)
    model = spec.model(1)
    call = model.grad_R if with_grad else model.R
    with pytest.raises(xc.EvalDomainError) as got:
        call((0.0,), v, {})
    assert str(got.value) == str(ref.value)


def test_sqrt_derivative_at_zero_fails_only_the_gradient():
    spec = general("sqrt(v2)*v1^2")
    q, v = (0.0, 0.0), (1.2, 0.0)
    (ref_r, _), _ = _scalar_loop_refined(spec, 2, q, v, {}, False)
    assert _rel_close(spec.model(2).R(q, v, {}), ref_r)
    with pytest.raises(xc.EvalDomainError, match="sqrt derivative at zero"):
        spec.model(2).grad_R(q, v, {})


def test_vectorised_quadrature_still_diverges_for_rest_nonvanishing_d():
    spec = general("v1^2 + 1")
    for call in (spec.model(1).R, spec.model(1).grad_R):
        with pytest.raises(rm.QuadratureError):
            call((0.0,), (1.0,), {})


# ---------------------------------------------------------------------------
# Dissipative force dR/dv


def test_force_linear_drag():
    g = rm.grad_R_v(homsum(("c*v1^2", 2.0)), ctx([0.0], [3.0], c=1.0))
    assert g == pytest.approx([3.0])


def test_force_quadratic_drag():
    spec = homsum(("A*abs(v1)^3", 3.0))
    c = ctx([0.0], [-2.0], A=1.0)
    g = rm.grad_R_v(spec, c)
    # oracle: finite differences of R = |v|^3 / 3
    fd = xc.fd_gradient(xc.parse("A*abs(v1)^3/3"), c, "velocities", 1e-6)
    assert g == pytest.approx([-4.0], abs=1e-12)
    assert g == pytest.approx(fd, abs=1e-5)


def test_force_null_dissipation():
    g = rm.grad_R_v(rm.null_dissipation(), ctx([1.0, 2.0], [3.0, 4.0]))
    assert np.array_equal(g, np.zeros(2))


def test_force_general_matches_closed():
    spec_c = homsum(("v1^2", 2.0), ("abs(v1)^3", 3.0))
    spec_g = general("v1^2 + abs(v1)^3")
    for q, v in rm.sample_states(1, 10, seed=2):
        c = ctx(q, v)
        assert rm.grad_R_v(spec_g, c) == pytest.approx(
            rm.grad_R_v(spec_c, c), rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# Euler identity and positivity


def test_euler_identity_quadratic_exact():
    rep = rm.euler_identity_check(homsum(("c*v1^2", 2.0)), 1, {"c": 0.4})
    assert rep.passed and rep.max_violation <= 1e-12


def test_euler_identity_two_dof_cubic():
    rep = rm.euler_identity_check(homsum(("A*(v1^2+v2^2)^1.5", 3.0)),
                                  2, {"A": 0.8})
    assert rep.passed


def test_euler_identity_null():
    rep = rm.euler_identity_check(rm.null_dissipation(), 1, {})
    assert rep.passed and rep.max_violation == 0.0


def test_positivity_quadratic_passes():
    rep = rm.positivity_scan(homsum(("c*v1^2", 2.0)), 1, {"c": 1.0})
    assert rep.passed


def test_positivity_negative_fails_with_witness():
    rep = rm.positivity_scan(homsum(("-v1^2", 2.0)), 1, {})
    assert not rep.passed
    assert rep.witness is not None
    q, v = rep.witness
    assert -(v[0] ** 2) < 0.0


def test_positivity_configuration_coefficient():
    # D = A(q) |v|^3 with A(q) = q1^2 >= 0
    rep = rm.positivity_scan(homsum(("q1^2*abs(v1)^3", 3.0)), 1, {})
    assert rep.passed


def test_rest_value_check():
    good = rm.rest_value_check(general("v1^2"), 1, {})
    assert good.passed
    bad = rm.rest_value_check(general("v1^2 + q1"), 1, {})
    assert not bad.passed


def test_sample_states_reproducible():
    a = rm.sample_states(2, 5, seed=42)
    b = rm.sample_states(2, 5, seed=42)
    for (qa, va), (qb, vb) in zip(a, b):
        assert np.array_equal(qa, qb) and np.array_equal(va, vb)
    speeds = [np.linalg.norm(v) for _, v in rm.sample_states(2, 200, seed=1)]
    assert 0.1 <= min(speeds) and max(speeds) <= 10.0
