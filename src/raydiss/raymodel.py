"""Mechanical system description and dissipation-potential construction.

A system is (M(q), V(q), D(q, v)): a configuration-dependent mass matrix,
a potential, and a dissipation function that is the sole constitutive input
for nonconservative forces. The dissipation potential R is built from D:

* homogeneous_sum mode: D = sum of terms, each velocity-homogeneous of a
  declared degree n > 0; then R = sum(term / n) exactly.
* general mode: R(q, v) = integral over u in (0, 1] of D(q, u*v)/u du,
  computed by composite Gauss-Legendre quadrature with panel-doubling
  refinement. The arbitrary additive constant is fixed by R(q, 0) = 0.
  Each quadrature pass evaluates D (or D and dD/dv) at all of its nodes in
  one array-mode call (exprcore.compile_array); the model counts the
  evaluations that needed the second panel doubling.

Each spec compiles its evaluators once, on first use, and keeps them for
its own lifetime: a DissipationSpec owns D, R and dR/dv (per dof), a
SystemSpec owns M, dM/dq, V and dV/dq. Evaluators take (q, v, params); the
eval_* functions below are adapters over them. Point evaluations (D in the
equations of motion, diagnostics, the sampled checks, homogeneous_sum R)
use the scalar compiled code.

Structural checks (homogeneity, Euler identity v.dR/dv = D, positivity)
are seeded and reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import exprcore as xc
from .exprcore import EvalContext, ExprNode


class ModelError(Exception):
    """System or dissipation spec violates a structural hypothesis."""


class QuadratureError(ModelError):
    """Panel-doubling refinement of the R integral failed to converge."""


class MassMatrixError(ModelError):
    """M(q) is not symmetric or failed the positive-definite factorization."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class QuadratureConfig:
    node_count: int = 64
    panels: int = 4
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class DissipationTerm:
    """One velocity-homogeneous contribution to D, with declared degree."""

    expr: ExprNode
    degree: float
    smooth_eps: float | None = None  # optional tanh regularization of sign/abs kinks

    def __post_init__(self):
        if self.degree <= 0:
            raise ModelError(
                f"dissipation term degree must be > 0, got {self.degree}; "
                "a degree-0 or rest-nonvanishing part makes the "
                "dissipation-potential integral diverge")

    @cached_property
    def evaluate(self):
        """Compiled term value, called as evaluate(q, v, params)."""
        return xc.compile_expr(self.expr)


@dataclass(frozen=True)
class DissipationSpec:
    mode: str  # 'homogeneous_sum' | 'general'
    terms: tuple = ()
    raw: ExprNode | None = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.mode not in ("homogeneous_sum", "general"):
            raise ModelError(f"unknown dissipation mode '{self.mode}'")
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.mode == "homogeneous_sum" and self.raw is not None:
            raise ModelError("homogeneous_sum mode must not set 'raw'")
        if self.mode == "general":
            if self.raw is None:
                raise ModelError("general mode requires 'raw'")
            if self.terms:
                raise ModelError("general mode must not set 'terms'")
        object.__setattr__(self, "_models", {})

    def model(self, dof):
        """Compiled D, R and dR/dv for `dof` coordinates, built on first
        use. A racing thread may build a duplicate; only a complete model
        is ever stored."""
        hit = self._models.get(dof)
        if hit is None:
            cls = (_GeneralModel if self.mode == "general"
                   else _HomogeneousSumModel)
            hit = self._models[dof] = cls(self, dof)
        return hit

    @property
    def is_null(self):
        return self.mode == "homogeneous_sum" and not self.terms

    def uses_abs_or_sign(self):
        if self.mode == "general":
            return xc.uses_abs_or_sign(self.raw)
        return any(xc.uses_abs_or_sign(t.expr) for t in self.terms)


def null_dissipation():
    return DissipationSpec(mode="homogeneous_sum", terms=())


@dataclass(frozen=True)
class SystemSpec:
    """Complete mechanical system: T via M(q), potential V(q), dissipation D."""

    dof: int
    mass_matrix: tuple  # dof x dof nested tuple of ExprNode, q-only
    potential: ExprNode
    dissipation: DissipationSpec
    params: dict = field(default_factory=dict)
    labels: tuple | None = None

    def __post_init__(self):
        m = self.dof
        if m < 1:
            raise ModelError("dof must be >= 1")
        mm = tuple(tuple(row) for row in self.mass_matrix)
        object.__setattr__(self, "mass_matrix", mm)
        if len(mm) != m or any(len(row) != m for row in mm):
            raise ModelError(f"mass_matrix must be {m}x{m}")
        for row in mm:
            for e in row:
                xc.bind_check(e, m, self.params)
                if xc.uses_velocity(e):
                    raise ModelError(
                        "mass_matrix entries must not reference velocities")
        xc.bind_check(self.potential, m, self.params)
        if xc.uses_velocity(self.potential):
            raise ModelError("potential must not reference velocities")
        d = self.dissipation
        exprs = [d.raw] if d.mode == "general" else [t.expr for t in d.terms]
        for e in exprs:
            xc.bind_check(e, m, self.params)

    def ctx(self, q, v):
        return EvalContext(tuple(q), tuple(v), self.params)

    @cached_property
    def model(self) -> SystemModel:
        """Compiled evaluators of this system, built on first use."""
        return SystemModel(self)

    def mass(self, q):
        """Evaluate M(q); checks symmetry to 1e-12. Read-only when M is
        constant."""
        return self.model.mass(q)

    def mass_grad(self, q):
        """dM/dq_j for all j: array of shape (dof, dof, dof), [j, a, b]."""
        return self.model.mass_grad(tuple(q))


# ---------------------------------------------------------------------------
# Compiled models


class SystemModel:
    """M, dM/dq, V and dV/dq of one SystemSpec plus its dissipation model.
    V and grad_V are compiled f(q, v, params); grad_V returns (V, dV/dq)."""

    def __init__(self, sys: SystemSpec):
        m = sys.dof
        mm = sys.mass_matrix
        self.params = sys.params
        self.dissipation = sys.dissipation.model(m)
        self.V = xc.compile_expr(sys.potential)
        self.grad_V = xc.compile_expr(sys.potential, m, "q")
        self._mass_fns = [[xc.compile_expr(e) for e in row] for row in mm]
        self._mass_grad_fns = [[xc.compile_expr(e, m, "q") for e in row]
                               for row in mm]
        # identical ASTs compile to identical code and return identical
        # doubles, so only pairs whose expressions differ can be asymmetric
        self._asym_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)
                            if mm[a][b] != mm[b][a]]
        self.mass_const = not any(
            any(isinstance(n, xc.Coord) for n in xc.walk(e))
            for row in mm for e in row)
        if self.mass_const:
            self._q0 = (0.0,) * m
            self.M0 = self._mass_at(self._q0)
            self.M0.setflags(write=False)

    def _mass_at(self, q):
        p = self.params
        M = np.array([[fn(q, q, p) for fn in row] for row in self._mass_fns])
        if self._asym_pairs:
            atol = 1e-12 * (1.0 + np.abs(M).max())
            for a, b in self._asym_pairs:
                if not abs(M[a, b] - M[b, a]) <= atol:
                    raise MassMatrixError(
                        f"mass matrix not symmetric at q={list(q)}")
        return M

    def mass(self, q):
        return self.M0 if self.mass_const else self._mass_at(tuple(q))

    def mass_grad(self, q):
        m = len(self._mass_grad_fns)
        p = self.params
        dM = np.empty((m, m, m))
        for a, row in enumerate(self._mass_grad_fns):
            for b, fn in enumerate(row):
                dM[:, a, b] = fn(q, q, p)[1]
        return dM

    @cached_property
    def Minv0(self):
        """Inverse of the constant mass matrix."""
        return self.inv_mass(self._q0)

    def inv_mass(self, q):
        """M(q)^-1 at a tuple q, after a positive-definiteness check."""
        M = self._mass_at(q)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise MassMatrixError(
                f"mass matrix not positive definite at q={list(q)}") from None
        return np.linalg.inv(M)


class _HomogeneousSumModel:
    """R = sum of term/degree, exact for velocity-homogeneous terms."""

    refinements = 0  # closed form: nothing to refine

    def __init__(self, spec, dof):
        self.dof = dof
        self.terms = [(t.evaluate, xc.compile_expr(t.expr, dof, "v",
                                                   t.smooth_eps), t.degree)
                      for t in spec.terms]

    def D(self, q, v, p):
        return sum(fn(q, v, p) for fn, _, _ in self.terms)

    def R(self, q, v, p):
        return sum(fn(q, v, p) / deg for fn, _, deg in self.terms)

    def grad_R(self, q, v, p):
        out = np.zeros(self.dof)
        for _, gfn, deg in self.terms:
            _, g = gfn(q, v, p)
            out += np.array(g) / deg
        return out


class _GeneralModel:
    """R(q, v) = integral over u in (0, 1] of D(q, u*v)/u du by composite
    Gauss-Legendre quadrature with panel-doubling refinement.

    A quadrature pass is one array-mode call of D, or of D and dD/dv, at
    the nodes of every panel (panel-major order), reduced with np.dot.
    The node and weight vectors for the configured panel count and its
    two doublings are built here from one leggauss rule. Point values of D
    use the scalar compiled code. `refinements` counts the evaluations
    that needed the second doubling.
    """

    def __init__(self, spec, dof):
        self.dof = dof
        self.refinements = 0
        self.quadrature = qc = spec.quadrature
        x, w = np.polynomial.legendre.leggauss(qc.node_count)
        self._rules = [_composite_rule(x, w, qc.panels << k)
                       for k in range(3)]
        self.D = xc.compile_expr(spec.raw)
        self._D_nodes = xc.compile_array(spec.raw)
        self._D_grad_nodes = xc.compile_array(spec.raw, dof, "v")
        self._lock = threading.Lock()

    def _quad_once(self, q, v, p, rule, with_grad):
        """Composite Gauss-Legendre estimate of integral over (0,1] of
        D(q, u*v)/u du, and its velocity gradient when with_grad.

        d/dv_j of D(q, u*v) is u * (dD/dv_j)(q, u*v); the 1/u weight
        cancels the chain factor, so the gradient integrand is just dD/dv
        at u*v.
        """
        u, w, w_over_u = rule
        vs = np.asarray(v, dtype=float)[:, None] * u
        if not with_grad:
            return np.dot(w_over_u, self._D_nodes(q, vs, p)), None
        val, g = self._D_grad_nodes(q, vs, p)
        return np.dot(w_over_u, val), g @ w

    def _refined(self, q, v, p, with_grad):
        qc = self.quadrature
        prev = self._quad_once(q, v, p, self._rules[0], with_grad)
        for attempt in (1, 2):
            cur = self._quad_once(q, v, p, self._rules[attempt], with_grad)
            change = abs(cur[0] - prev[0])
            if change <= qc.tolerance * (1.0 + abs(cur[0])):
                warning = None
                if attempt > 1:
                    warning = (f"quadrature needed {qc.panels << attempt} "
                               f"panels (configured {qc.panels}) to converge")
                    with self._lock:
                        self.refinements += 1
                return cur, warning
            prev = cur
        raise QuadratureError(
            f"R quadrature did not converge after doubling panels twice "
            f"(last change {change:.3e} > tolerance {qc.tolerance:.3e}); "
            f"check that D(q, 0) = 0 and D has velocity degree > 0")

    def R_with_warning(self, q, v, p):
        """(R, refinement warning or None)."""
        (val, _), warning = self._refined(q, v, p, False)
        return float(val), warning

    def R(self, q, v, p):
        return self.R_with_warning(q, v, p)[0]

    def grad_R(self, q, v, p):
        (_, g), _ = self._refined(q, v, p, True)
        return g


def _composite_rule(x, w, panels):
    """(u, w, w/u) over all nodes of `panels` equal panels of (0, 1],
    panel-major, from the Gauss-Legendre rule (x, w) on [-1, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    u = (mid + half * x).ravel()
    wh = (w * half).ravel()
    return u, wh, wh / u


# ---------------------------------------------------------------------------
# Check reports


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    max_violation: float
    samples: int
    detail: str = ""
    witness: tuple | None = None  # (q, v) of the worst sample

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_violation": float(self.max_violation),
            "samples": self.samples,
            "detail": self.detail,
            "witness": None if self.witness is None else
                       [list(self.witness[0]), list(self.witness[1])],
        }


def sample_states(dof, samples, seed, v_norm_range=(0.1, 10.0)):
    """Seeded reproducible state sampler: q uniform in [-2,2]^m, speed
    log-uniform in v_norm_range, uniform direction."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(v_norm_range[0]), np.log(v_norm_range[1])
    out = []
    for _ in range(samples):
        q = rng.uniform(-2.0, 2.0, dof)
        d = rng.normal(size=dof)
        n = np.linalg.norm(d)
        if n == 0.0:
            d[0] = 1.0
            n = 1.0
        speed = np.exp(rng.uniform(lo, hi))
        out.append((q, speed * d / n))
    return out


# ---------------------------------------------------------------------------
# D and R evaluation


def eval_D(spec: DissipationSpec, ctx: EvalContext) -> float:
    return spec.model(ctx.dof).D(ctx.q, ctx.v, ctx.params)


def eval_R_closed(spec: DissipationSpec, ctx: EvalContext) -> float:
    """R = sum over terms of term/degree (exact for homogeneous terms)."""
    if spec.mode != "homogeneous_sum":
        raise ModelError("eval_R_closed requires homogeneous_sum mode")
    return spec.model(ctx.dof).R(ctx.q, ctx.v, ctx.params)


def eval_R_quadrature(spec: DissipationSpec, ctx: EvalContext):
    """General-mode R via the u-integral; returns (value, warning|None)."""
    if spec.mode != "general":
        raise ModelError("eval_R_quadrature requires general mode")
    return spec.model(ctx.dof).R_with_warning(ctx.q, ctx.v, ctx.params)


def eval_R(spec: DissipationSpec, ctx: EvalContext) -> float:
    return spec.model(ctx.dof).R(ctx.q, ctx.v, ctx.params)


def grad_R_v(spec: DissipationSpec, ctx: EvalContext) -> np.ndarray:
    """dR/dv, the (negated) dissipative generalized force."""
    return spec.model(ctx.dof).grad_R(ctx.q, ctx.v, ctx.params)


# ---------------------------------------------------------------------------
# Structural checks


def homogeneity_check(term: DissipationTerm, dof: int, params: dict,
                      samples: int = 50, seed: int = 0) -> CheckReport:
    """Verify expr(q, lam*v) = lam^n * expr(q, v) on sampled states."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    worst = 0.0
    witness = None
    fn = term.evaluate
    for q, v in sample_states(dof, samples, seed):
        qt = tuple(q)
        base = fn(qt, tuple(v), params)
        for lam in (0.5, 2.0, 3.0):
            scaled = fn(qt, tuple(lam * v), params)
            expected = lam ** term.degree * base
            rel = abs(scaled - expected) / (1.0 + abs(expected))
            if rel > worst:
                worst = rel
                witness = (tuple(q), tuple(v))
    passed = worst <= 1e-9
    return CheckReport(
        name="homogeneity", passed=bool(passed), max_violation=float(worst),
        samples=samples,
        detail=f"declared degree {term.degree}",
        witness=None if passed else witness)


def euler_identity_check(spec: DissipationSpec, dof: int, params: dict,
                         samples: int = 50, seed: int = 0) -> CheckReport:
    """Verify v . dR/dv = D, the defining relation of the R construction."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    worst = 0.0
    witness = None
    for q, v in sample_states(dof, samples, seed):
        ctx = EvalContext(q, v, params)
        lhs = float(np.dot(v, grad_R_v(spec, ctx)))
        d = eval_D(spec, ctx)
        rel = abs(lhs - d) / (1.0 + abs(d))
        if rel > worst:
            worst = rel
            witness = (tuple(q), tuple(v))
    passed = worst <= 1e-8
    return CheckReport(
        name="euler_identity", passed=bool(passed), max_violation=float(worst),
        samples=samples, detail="v . dR/dv vs D",
        witness=None if passed else witness)


def positivity_scan(spec: DissipationSpec, dof: int, params: dict,
                    samples: int = 50, seed: int = 0) -> CheckReport:
    """Report the minimum of D over sampled states; pass iff >= -1e-12."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dmin = 0.0
    witness = None
    for q, v in sample_states(dof, samples, seed):
        d = eval_D(spec, EvalContext(q, v, params))
        if d < dmin:
            dmin = d
            witness = (tuple(q), tuple(v))
    passed = dmin >= -1e-12
    return CheckReport(
        name="positivity", passed=bool(passed), max_violation=float(max(0.0, -dmin)),
        samples=samples, detail=f"min D = {dmin:.6g}",
        witness=None if passed else witness)


def rest_value_check(spec: DissipationSpec, dof: int, params: dict,
                     samples: int = 20, seed: int = 0) -> CheckReport:
    """D(q, 0) must vanish, else the R integral diverges."""
    worst = 0.0
    witness = None
    zeros = np.zeros(dof)
    for q, _ in sample_states(dof, samples, seed):
        d = abs(eval_D(spec, EvalContext(q, zeros, params)))
        if d > worst:
            worst = d
            witness = (tuple(q), tuple(zeros))
    passed = worst <= 1e-12
    return CheckReport(
        name="rest_value", passed=bool(passed), max_violation=float(worst),
        samples=samples, detail="D(q, 0) = 0 hypothesis",
        witness=None if passed else witness)
