"""Mechanical system description and dissipation-potential construction.

A system is (M(q), V(q), D(q, v)): a configuration-dependent mass matrix,
a potential, and a dissipation function that is the sole constitutive input
for nonconservative forces. The dissipation potential R is built from D:

* homogeneous_sum mode: D = sum of terms, each velocity-homogeneous of a
  declared degree n > 0; then R = sum(term / n) exactly.
* general mode: R(q, v) = integral over u in (0, 1] of D(q, u*v)/u du,
  computed by one graded Gauss-Legendre rule whose panels shrink
  geometrically towards u = 0, where D(q, u*v)/u need not be smooth, with
  an error estimate from a cheaper rule on the same mesh. The arbitrary
  additive constant is fixed by R(q, 0) = 0. Each evaluation of R, or of
  R and dR/dv together, evaluates D (or D and dD/dv) at the nodes of both
  rules in one array-mode call (exprcore.compile_array).

Each spec compiles its evaluators once, on first use, and keeps them for
its own lifetime: a DissipationSpec owns D, R and dR/dv (per dof), a
SystemSpec owns M with dM/dq, and V with dV/dq. Evaluators take
(q, v, params); the eval_* functions below are adapters over them. D, R
and dR/dv at one state come from one call, D_R_grad, in either mode, so
v.dR/dv = D compares values of one evaluation. Point evaluations (D,
homogeneous_sum R and dR/dv) use the scalar compiled code.

Structural checks (homogeneity, Euler identity v.dR/dv = D, positivity)
are seeded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import exprcore as xc
from .exprcore import EvalContext, ExprNode


class ModelError(Exception):
    """System or dissipation spec violates a structural hypothesis."""


class QuadratureError(ModelError):
    """R from the graded rule and from its estimate rule disagree beyond
    the tolerance; the message names q, v, both values and the tolerance."""


class MassMatrixError(ModelError):
    """M(q) is not symmetric or failed the positive-definite factorization."""


# ---------------------------------------------------------------------------
# Types


# Ratio of neighbouring edges of the graded mesh: 0, s^(P-1), ..., s, 1.
GRADING = 0.15


@dataclass(frozen=True)
class QuadratureConfig:
    """General-mode rule: `panels` graded panels of `node_count` Gauss
    nodes, and an estimate rule of `estimate_nodes` (3/4 of node_count) on
    the same panels; R passes when the two agree to tolerance*(1 + |R|)."""

    node_count: int = 16
    panels: int = 13
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def estimate_nodes(self):
        return self.node_count * 3 // 4


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
        use and kept for the life of this spec."""
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
    grad_V is one compiled f(q, v, params) that returns (V, dV/dq).

    Each distinct mass entry is one compiled q-gradient function, which
    returns the entry and its q-gradient in one call. A mirrored entry
    with the same expression is not evaluated again: identical ASTs
    compile to identical code and return identical doubles, so only pairs
    whose expressions differ are evaluated twice and checked for symmetry.
    """

    def __init__(self, sys: SystemSpec):
        m = sys.dof
        mm = sys.mass_matrix
        self.dof = m
        self.params = sys.params
        self.dissipation = sys.dissipation.model(m)
        self.grad_V = xc.compile_expr(sys.potential, m, "q")
        self._asym_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)
                            if mm[a][b] != mm[b][a]]
        self._entries = [(a, b, xc.compile_expr(mm[a][b], m, "q"))
                         for a in range(m) for b in range(m)
                         if a <= b or (b, a) in self._asym_pairs]
        self._mirrored = [(a, b) for a in range(m) for b in range(a + 1, m)
                          if (a, b) not in self._asym_pairs]
        self.mass_const = not any(
            any(isinstance(n, xc.Coord) for n in xc.walk(e))
            for row in mm for e in row)
        if self.mass_const:
            self._q0 = (0.0,) * m
            self.M0 = np.array(self.mass_and_grad(self._q0)[0])
            self.M0.setflags(write=False)

    def mass_and_grad(self, q):
        """(M, dM) at q as nested lists of floats, M[a][b] and
        dM[a][b][j] = dM_ab/dq_j, after the symmetry check."""
        m, p = self.dof, self.params
        M = [[0.0] * m for _ in range(m)]
        dM = [[None] * m for _ in range(m)]
        for a, b, fn in self._entries:
            M[a][b], dM[a][b] = fn(q, q, p)
        for a, b in self._mirrored:
            M[b][a] = M[a][b]
            dM[b][a] = dM[a][b]
        if self._asym_pairs:
            atol = 1e-12 * (1.0 + max(abs(x) for row in M for x in row))
            for a, b in self._asym_pairs:
                if not abs(M[a][b] - M[b][a]) <= atol:
                    raise MassMatrixError(
                        f"mass matrix not symmetric at q={list(q)}")
        return M, dM

    def mass(self, q):
        return self.M0 if self.mass_const else np.array(
            self.mass_and_grad(tuple(q))[0])

    def mass_grad(self, q):
        """dM/dq_j for all j: array of shape (dof, dof, dof), [j, a, b]."""
        return np.array(self.mass_and_grad(tuple(q))[1]).transpose(2, 0, 1)

    @cached_property
    def factor0(self):
        """LDL^T factor of the constant mass matrix."""
        return ldl_factor(self.M0.tolist(), self._q0)


def ldl_factor(M, q):
    """Square-root-free LDL^T factor (L, d) of the symmetric matrix M
    (nested lists; only the lower triangle is read). L is unit lower
    triangular and stored below its diagonal. Raises MassMatrixError,
    naming q, unless every pivot d_i > 0, which also fails on NaN."""
    m = len(M)
    L = [[0.0] * m for _ in range(m)]
    d = [0.0] * m
    for i in range(m):
        Li, Mi = L[i], M[i]
        for j in range(i):
            Lj = L[j]
            s = Mi[j]
            for k in range(j):
                s -= Li[k] * Lj[k] * d[k]
            Li[j] = s / d[j]
        di = Mi[i]
        for k in range(i):
            di -= Li[k] * Li[k] * d[k]
        if not di > 0.0:
            raise MassMatrixError(
                f"mass matrix not positive definite at q={list(q)}")
        d[i] = di
    return L, d


def ldl_solve(factor, b):
    """x with L D L^T x = b, as a list; a 1x1 factor gives exactly b/m."""
    L, d = factor
    m = len(d)
    x = list(b)
    for i in range(1, m):
        Li = L[i]
        for k in range(i):
            x[i] -= Li[k] * x[k]
    for i in range(m):
        x[i] /= d[i]
    for i in range(m - 2, -1, -1):
        for k in range(i + 1, m):
            x[i] -= L[k][i] * x[k]
    return x


class _HomogeneousSumModel:
    """R = sum of term/degree, exact for velocity-homogeneous terms."""

    def __init__(self, spec, dof):
        self.dof = dof
        self.terms = [(t.evaluate, xc.compile_expr(t.expr, dof, "v",
                                                   t.smooth_eps), t.degree)
                      for t in spec.terms]

    def D(self, q, v, p):
        return sum(fn(q, v, p) for fn, _, _ in self.terms)

    def R(self, q, v, p):
        return sum(fn(q, v, p) / deg for fn, _, deg in self.terms)

    def D_R_grad(self, q, v, p):
        """(D, R, dR/dv as a list of floats) from one loop over the terms;
        D and R equal self.D and self.R bit for bit."""
        D = R = 0.0
        g = [0.0] * self.dof
        for fn, gfn, deg in self.terms:
            d = fn(q, v, p)
            D += d
            R += d / deg
            g = [o + x / deg for o, x in zip(g, gfn(q, v, p)[1])]
        return D, R, g


class _GeneralModel:
    """R(q, v) = integral over u in (0, 1] of D(q, u*v)/u du by one graded
    Gauss-Legendre rule, built once per model: hp-quadrature's geometric
    mesh (Schwab, p- and hp-FEM, 1998) puts short panels where u*v is small,
    so a sharp feature of D near rest or a non-integer power of the speed
    needs no refinement. The main and then the estimate nodes, each
    panel-major, go through one array-mode call of D, or of D and dD/dv;
    R is the same np.dot over the main nodes either way, so bit-identical.
    Point values of D use the scalar compiled code.
    """

    def __init__(self, spec, dof):
        self.dof = dof
        self.quadrature = qc = spec.quadrature
        edges = [0.0] + [GRADING ** k for k in range(qc.panels - 1, -1, -1)]
        half = (0.5 * np.diff(edges))[:, None]
        mid = (0.5 * np.add(edges[:-1], edges[1:]))[:, None]
        rules = [np.polynomial.legendre.leggauss(n)
                 for n in (qc.node_count, qc.estimate_nodes)]
        # main nodes first, then estimate nodes, each panel-major
        self._u = np.concatenate([(mid + half * x).ravel() for x, _ in rules])
        w = np.concatenate([(half * wx).ravel() for _, wx in rules])
        self._n = n = qc.panels * qc.node_count
        self._w = w[:n]
        self._w_over_u, self._w_over_u_est = np.split(w / self._u, [n])
        self.D = xc.compile_expr(spec.raw)
        self._D_nodes = xc.compile_array(spec.raw)
        self._D_grad_nodes = xc.compile_array(spec.raw, dof, "v")

    def _quad(self, q, v, p, with_grad):
        """R, and dR/dv when with_grad (else None), from one array call.

        d/dv_j of D(q, u*v) is u * (dD/dv_j)(q, u*v); the 1/u weight
        cancels the chain factor, so the gradient integrand is just dD/dv
        at u*v.
        """
        n = self._n
        vs = np.asarray(v, dtype=float)[:, None] * self._u
        if with_grad:
            val, g = self._D_grad_nodes(q, vs, p)
        else:
            val, g = self._D_nodes(q, vs, p), None
        r = float(np.dot(self._w_over_u, val[:n]))
        est = float(np.dot(self._w_over_u_est, val[n:]))
        tol = self.quadrature.tolerance
        if not abs(r - est) <= tol * (1.0 + abs(r)):
            raise QuadratureError(
                f"R quadrature did not converge at q={[float(x) for x in q]}"
                f", v={[float(x) for x in v]}: R = {r!r}, estimate {est!r} "
                f"(tolerance {tol:g}); check that D(q, 0) = 0; a D of "
                f"velocity degree below 1 may need more quadrature panels")
        return r, None if g is None else g[:, :n] @ self._w

    def R(self, q, v, p):
        return self._quad(q, v, p, False)[0]

    def D_R_grad(self, q, v, p):
        """(D, R, dR/dv as a list of floats): the gradient pass, then D at
        the point. R equals self.R bit for bit."""
        r, g = self._quad(q, v, p, True)
        return self.D(q, v, p), r, g.tolist()


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
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
    """General-mode R via the u-integral, as (value, None): no warnings."""
    if spec.mode != "general":
        raise ModelError("eval_R_quadrature requires general mode")
    return spec.model(ctx.dof).R(ctx.q, ctx.v, ctx.params), None


def eval_R(spec: DissipationSpec, ctx: EvalContext) -> float:
    return spec.model(ctx.dof).R(ctx.q, ctx.v, ctx.params)


def grad_R_v(spec: DissipationSpec, ctx: EvalContext) -> np.ndarray:
    """dR/dv, the (negated) dissipative generalized force."""
    return np.array(spec.model(ctx.dof).D_R_grad(ctx.q, ctx.v, ctx.params)[2])


# ---------------------------------------------------------------------------
# Structural checks


def _sampled_check(name, states, violations, tol, detail=""):
    """CheckReport of the largest value that violations(q, v) yields over
    `states`, a NaN (say inf - inf) counting as inf; it passes iff that is
    <= tol, and a failing report names the worst state as its witness."""
    worst = 0.0
    witness = None
    for q, v in states:
        for x in violations(q, v):
            if math.isnan(x):
                x = math.inf
            if x > worst:
                worst = x
                witness = (tuple(q), tuple(v))
    passed = worst <= tol
    return CheckReport(
        name=name, passed=bool(passed), max_violation=float(worst),
        samples=len(states), detail=detail,
        witness=None if passed else witness)


def homogeneity_check(term: DissipationTerm, dof: int, params: dict,
                      samples: int = 50, seed: int = 0) -> CheckReport:
    """Verify expr(q, lam*v) = lam^n * expr(q, v) on sampled states."""
    fn = term.evaluate

    def violations(q, v):
        qt = tuple(q)
        base = fn(qt, tuple(v), params)
        for lam in (0.5, 2.0, 3.0):
            try:
                expected = lam ** term.degree * base
            except OverflowError:  # a huge declared degree
                yield math.inf
                continue
            yield (abs(fn(qt, tuple(lam * v), params) - expected)
                   / (1.0 + abs(expected)))
    return _sampled_check("homogeneity", sample_states(dof, samples, seed),
                          violations, 1e-9, f"declared degree {term.degree}")


def euler_identity_check(spec: DissipationSpec, dof: int, params: dict,
                         samples: int = 50, seed: int = 0) -> CheckReport:
    """Verify v . dR/dv = D, the defining relation of the R construction."""
    model = spec.model(dof)

    def violations(q, v):
        d, _, g = model.D_R_grad(tuple(q), tuple(v), params)
        yield abs(float(np.dot(v, g)) - d) / (1.0 + abs(d))
    return _sampled_check("euler_identity", sample_states(dof, samples, seed),
                          violations, 1e-8, "v . dR/dv vs D")


def positivity_scan(spec: DissipationSpec, dof: int, params: dict,
                    samples: int = 50, seed: int = 0) -> CheckReport:
    """Report the minimum of D over sampled states; pass iff >= -1e-12."""
    rep = _sampled_check(
        "positivity", sample_states(dof, samples, seed),
        lambda q, v: (-eval_D(spec, EvalContext(q, v, params)),), 1e-12)
    # 0.0 - x, not -x: with no negative D the detail reads "min D = 0"
    return replace(rep, detail=f"min D = {0.0 - rep.max_violation:.6g}")


def rest_value_check(spec: DissipationSpec, dof: int, params: dict,
                     samples: int = 20, seed: int = 0) -> CheckReport:
    """D(q, 0) must vanish, else the R integral diverges."""
    zeros = np.zeros(dof)
    states = [(q, zeros) for q, _ in sample_states(dof, samples, seed)]
    return _sampled_check(
        "rest_value", states,
        lambda q, v: (abs(eval_D(spec, EvalContext(q, v, params))),), 1e-12,
        "D(q, 0) = 0 hypothesis")
