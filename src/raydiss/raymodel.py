"""Mechanical system description and dissipation-potential construction.

A system is (M(q), V(q), D(q, v)): a configuration-dependent mass matrix,
a potential, and a dissipation function that is the sole constitutive input
for nonconservative forces. The dissipation potential R is built from D as
R(q, v) = integral over u in (0, 1] of D(q, u*v)/u du, with R(q, 0) = 0:
exactly D_n/n for an addend of velocity degree n > 0, and for the rest of
D one graded Gauss-Legendre rule whose panels shrink geometrically towards
u = 0, with an error estimate from a cheaper rule on the same mesh, in one
array-mode call (exprcore.compile_array). A dissipation `mode` is config
syntax for where the degrees come from: homogeneous_sum declares terms and
their degrees (checked on samples), general gives one expression, `raw`,
whose addends of known degree (exprcore.velocity_degree) take D_n/n.
eval_R_quadrature integrates the whole D by the rule.

Generated code is cached by the values it comes from, never by object: a
DissipationModel by D's split, quadrature and dof, and a system model's
rhs, statics, constants and dissipation model in one entry by those, M
and V (_code); the model computes its constants c on first use. So
systems of equal expressions share code, and a spec copies and pickles
as its fields. A config load takes the SystemSpec itself from one more
such cache (system), so it checks and builds each system value once.
Evaluators take (q, v, params); the eval_* functions below are adapters
over them. D, R and dR/dv at one state come from one call, D_R_grad, one
generated function for every D, so v.dR/dv = D compares values of one
evaluation; a system's generated rhs runs D_R_grad's lines inline.

Structural checks (homogeneity, Euler identity v.dR/dv = D, positivity)
are seeded and reproducible, with left-to-right dot products (_dot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial, reduce
from operator import add, mul
from types import MappingProxyType

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
# Smallest edge GRADING^(panels-1) a normal double; leggauss(n) is n x n.
MAX_PANELS = 1 + int(math.log(np.finfo(float).tiny) / math.log(GRADING))
MAX_NODES = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """General-mode rule: `panels` graded panels of `node_count` Gauss
    nodes, and an estimate rule of `estimate_nodes` (3/4 of node_count) on
    the same panels; R passes when the two agree to tolerance*(1 + |R|)."""

    node_count: int = 16
    panels: int = 13
    tolerance: float = 1e-10

    def __post_init__(self):
        if not 8 <= self.node_count <= MAX_NODES:
            raise ValueError(f"node_count must be in 8..{MAX_NODES}")
        if not 1 <= self.panels <= MAX_PANELS:
            raise ValueError(f"panels must be in 1..{MAX_PANELS}")
        if not self.tolerance > 0:
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
        if not self.degree > 0:
            raise ModelError(
                f"dissipation term degree must be > 0, got {self.degree}; "
                "a degree-0 or rest-nonvanishing part makes the "
                "dissipation-potential integral diverge")
        if not (self.smooth_eps is None or self.smooth_eps > 0):
            raise ModelError(
                f"smooth_eps must be > 0, got {self.smooth_eps}; a negative "
                "width turns the regularised friction force around")

    @property
    def evaluate(self):
        """Compiled term value, called as evaluate(q, v, params)."""
        return xc.compiled(self.expr)


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

    def model(self, dof):
        """Compiled D, R and dR/dv for `dof` coordinates, shared by every
        spec of the same split and quadrature. After _dissipation_model
        evicts it, the eval_*/grad_R_v adapters may hold another, equal
        model; a built system keeps its own (SystemModel.dissipation)."""
        return _dissipation_model(*self.split, self.quadrature, dof)

    def quadrature_model(self, dof):
        """The graded rule over the whole of raw: the model itself when no
        addend of raw has a closed form (the key is the same)."""
        return _dissipation_model((), self.raw, self.quadrature, dof)

    @cached_property
    def split(self):
        """(terms, rest): the DissipationTerms whose R is D_n/n and the
        expression the graded rule integrates, or None. With raw set the
        terms are raw's addends of known velocity degree n > 0, and rest
        sums the others (raw itself when there are no terms)."""
        if self.raw is None:
            return self.terms, None
        parts = [(a, xc.velocity_degree(a) or 0.0)
                 for a in xc.addends(self.raw)]
        terms = tuple(DissipationTerm(a, n) for a, n in parts if n > 0)
        rest = [a for a, n in parts if n <= 0]
        if not terms:
            return (), self.raw
        return terms, reduce(partial(xc.BinOp, "+"), rest) if rest else None

    @cached_property
    def exprs(self):
        """D's expressions as written: (raw,), or the declared terms'."""
        if self.raw is not None:
            return (self.raw,)
        return tuple(t.expr for t in self.terms)

    @property
    def is_null(self):
        return not self.exprs

    @cached_property
    def uses_abs_or_sign(self):
        return any(map(xc.uses_abs_or_sign, self.exprs))


def null_dissipation():
    return DissipationSpec(mode="homogeneous_sum", terms=())


@dataclass(frozen=True)
class SystemSpec:
    """Complete mechanical system: T via M(q), potential V(q), dissipation D,
    at read-only params: a new value makes a new system, checked anew. An
    expression that names an unknown parameter or index (BindError), or a
    velocity in M or V (ModelError), raises with `path`, its field."""

    dof: int
    mass_matrix: tuple  # dof x dof nested tuple of ExprNode, q-only
    potential: ExprNode
    dissipation: DissipationSpec
    params: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        m = self.dof
        if m < 1:
            raise ModelError("dof must be >= 1")
        mm = tuple(tuple(row) for row in self.mass_matrix)
        object.__setattr__(self, "mass_matrix", mm)
        if len(mm) != m or any(len(row) != m for row in mm):
            raise ModelError(f"mass_matrix must be {m}x{m}")
        # (path, expression, what must not reference velocities)
        d = self.dissipation
        exprs = [(f"mass_matrix[{i}][{j}]", e, "mass_matrix entries")
                 for i, row in enumerate(mm) for j, e in enumerate(row)]
        exprs.append(("potential", self.potential, "potential"))
        exprs += [(f"dissipation.terms[{i}].expr", t.expr, None)
                  for i, t in enumerate(d.terms)]
        if d.raw is not None:
            exprs.append(("dissipation.raw", d.raw, None))
        for path, e, what in exprs:
            try:
                xc.bind_check(e, m, self.params)
                if what and xc.uses_velocity(e):
                    raise ModelError(f"{what} must not reference velocities")
            except (ModelError, xc.BindError) as err:
                err.path = path  # the field, as a config names it
                raise

    def __reduce__(self):  # copies are new systems, checked as any other
        return SystemSpec, (self.dof, self.mass_matrix, self.potential,
                            self.dissipation, dict(self.params))

    def ctx(self, q, v):
        return EvalContext(tuple(q), tuple(v), self.params)

    @cached_property
    def failed_hypothesis(self):
        """The first failing (term index or None, CheckReport) of
        hypothesis_checks at these params, or None: run once per spec."""
        return next((c for c in hypothesis_checks(self) if not c[1].passed),
                    None)

    def sampled_check(self, name, samples, seed):
        """The CheckReport of euler_identity_check or positivity_scan
        (`name` "euler_identity" or "positivity") of this system, run on
        first use per (name, samples, seed) and stored, as
        failed_hypothesis is: no run changes it. A check that raises stores
        nothing, so it raises again; another name raises KeyError."""
        key = (name, samples, seed)
        done = self._sampled
        if key not in done:
            check = {"euler_identity": euler_identity_check,
                     "positivity": positivity_scan}[name]
            report = check(self.model.dissipation, self.dof, self.params,
                           samples=samples, seed=seed)
            if len(done) >= _SAMPLED_KEPT:
                done.pop(next(iter(done)), None)
            done[key] = report
        return done[key]

    @cached_property
    def _sampled(self):
        return {}

    @cached_property
    def model(self) -> SystemModel:
        """Compiled evaluators of this system, built on first use."""
        return SystemModel(self)

    def mass(self, q):
        """M(q) as a new array, from statics: checks symmetry, needs V(q)."""
        sm = self.model
        return np.array(sm.statics(tuple(q), sm.c)[0])

    def mass_grad(self, q):
        """dM/dq_j for all j: array of shape (dof, dof, dof), [j, a, b]."""
        sm = self.model
        return np.moveaxis(sm.statics(tuple(q), sm.c)[1], 2, 0)


# ---------------------------------------------------------------------------
# Compiled models


class SystemModel:
    """The right-hand side of one SystemSpec, its statics and its
    dissipation model, from one entry of _code per system's expressions.

    Its three straight-line functions and the mechanics lines of rhs are
    unrolled for the dof from the same lines of the expressions' own
    compiled code (partial evaluation). constants(p) computes every
    parameter-only subexpression of V and M, each in its expression's own
    overflow guard, and returns them as a tuple; the model calls it on
    first use of c, which every entry point reads (the params of a
    SystemSpec are read-only), and keeps no c that raised. statics(q, c)
    gives (M, dM, V, dV/dq), M[a][b] and dM[a][b][j] = dM_ab/dq_j as
    nested lists, after the symmetry check; it never checks definiteness.
    mass(q, c) gives statics' M and its symmetry check alone, from the
    entries' value code, the same doubles.

    rhs(q0.., v0.., p, c) -> (qdd0.., D, R, dR/dv_0.., M00, M01, .., V),
    on scalar coordinates, is the dissipation model's D_R_grad lines, then
    the mechanics lines, which read dR/dv as g0.. and no params. They
    evaluate V, dV/dq and the mass entries, form b = -dV/dq - dR/dv,
    add the dM terms in the loop order of tests/mechanics_oracle.py, every
    accumulator starting at 0.0 as there, and solve by an unrolled
    square-root-free LDL^T factorisation that raises MassMatrixError
    naming q unless every pivot is > 0 (NaN fails too), so a 1-dof solve
    is exactly b/m. dM_ac/dq_j adds terms only where the entry M_ac
    references q_j, so a constant M adds none.

    A mirrored entry with an equal expression (a Const equal by repr) is
    not evaluated again: equal ASTs compile to identical code and return
    identical doubles, so only pairs whose expressions differ are
    evaluated twice and checked for symmetry.
    """

    def __init__(self, sys: SystemSpec):
        self.params = sys.params
        d = sys.dissipation
        (self.rhs, self.dissipation, self._constants, self.statics,
         self.mass) = _code(
            sys.dof, sys.mass_matrix, sys.potential, *d.split, d.quadrature)

    @cached_property
    def c(self):
        return self._constants(self.params)


def system(dof, mass_matrix, potential, dissipation, params):
    """The SystemSpec of these values, one per value per process, so that a
    repeat load reads the checks and the model of the first. Params are
    keyed by repr, as Const is: -0.0 and 0.0 make different systems."""
    return _system(dof, tuple(map(tuple, mass_matrix)), potential,
                   dissipation, tuple((k, repr(v), v)
                                      for k, v in params.items()))


@lru_cache(maxsize=16)
def _system(dof, mm, potential, dissipation, params):
    return SystemSpec(dof, mm, potential, dissipation,
                      {k: v for k, _, v in params})


@lru_cache(maxsize=16)
def _code(m, mm, potential, terms, rest, quadrature):
    """(rhs, dissipation, constants, statics, mass) of SystemModel: rhs
    runs the D_R_grad lines of that dissipation model, so the two never
    differ, and builds the lists q and v only for D_R_grad lines that read
    them."""
    dissipation = _dissipation_model(terms, rest, quadrature, m)
    pairs = [(a, b) for a in range(m) for b in range(m)
             if a <= b or mm[a][b] != mm[b][a]]
    # the gradient code, and the value code of the mass: the parameter-only
    # subexpressions of both are the same constant lines and names
    exprs = [potential] + [mm[a][b] for a, b in pairs]
    blocks, (consts, names) = xc.compile_blocks(exprs, m, "q", hoist=True)
    (head, V, gV), *blocks = blocks
    entries, M, dM = _entries(pairs, blocks, m)
    names = "".join(f"{x}, " for x in names)
    constants = _define("_constants(p)", consts + [f"return ({names})"])
    unpack_c = [f"{names}= c"] if names else []
    unpack = unpack_c + ["".join(f"q{i}, " for i in range(m)) + "= q"]
    statics = _define("_statics(q, c)", unpack + head + entries
                      + [f"return {_list(M)}, {_list(dM)}, {V}, {_list(gV)}"])
    values, Mv, _ = _entries(pairs, xc.compile_blocks(
        exprs, m, None, hoist=True)[0][1:], m)
    mass = _define("_mass(q, c)", unpack + values + [f"return {_list(Mv)}"])
    mech = unpack_c + head + [f"b{j} = -({gV[j]}) - g{j}" for j in range(m)]
    mech += entries + _b_lines(mm, dM) + _ldl_lines(M)
    mech += [f"y{i} = b{i}" + "".join(
        f" - L{i}_{k} * y{k}" for k in range(i)) for i in range(m)]
    mech += [f"x{i} = y{i} / d{i}" + "".join(
        f" - L{k}_{i} * x{k}" for k in range(i + 1, m))
        for i in reversed(range(m))]
    q, v = [f"q{i}" for i in range(m)], [f"v{i}" for i in range(m)]
    lists = [f"q = {_list(q)}", f"v = {_list(v)}"] if dissipation.lists else []
    out = [f"x{i}" for i in range(m)] + ["D", "R"] + dissipation.g
    out += [x for row in M for x in row] + [V]
    # the mechanics lines come last: their temporaries reuse the names of
    # the D_R_grad lines' own, which only D, R and g0.. outlive
    rhs = _define(f"_rhs({', '.join(q + v)}, p, c)", [
        *lists, *dissipation.lines, *mech, f"return {', '.join(out)}"],
        **dissipation.names)
    return rhs, dissipation, constants, statics, mass


def _entries(pairs, blocks, m):
    """(lines, M, dM): the lines of the mass entries' blocks (of `pairs`,
    the upper triangle and each lower entry whose expression differs from
    its mirror's), then the symmetry check of each such pair, and the
    names of the entries and of their gradients, mirrored."""
    M = [[None] * m for _ in range(m)]
    dM = [[None] * m for _ in range(m)]
    lines = []
    for (a, b), (block, val, g) in zip(pairs, blocks):
        lines += block
        M[a][b], dM[a][b] = val, g
        if (b, a) not in pairs:
            M[b][a], dM[b][a] = val, g
    asym = [(a, b) for a, b in pairs if a < b and (b, a) in pairs]
    if asym:
        lines.append("atol = 1e-12 * (1.0 + max(%s))" % ", ".join(
            f"abs({x})" for row in M for x in row))
    for a, b in asym:
        lines += [f"if not abs({M[a][b]} - {M[b][a]}) <= atol:",
                  "    " + _raise("symmetric", m)]
    return lines, M, dM


def _define(signature, body, **names):
    return xc.define(signature, body, MassMatrixError=MassMatrixError, **names)


def _list(x):
    """Source of the nested list of the expressions in x."""
    return x if isinstance(x, str) else f"[{', '.join(map(_list, x))}]"


def _raise(what, m):
    return (f"raise MassMatrixError(f'mass matrix not {what} "
            f"at q={{{_list([f'q{i}' for i in range(m)])}}}')")


def _b_lines(mm, dM):
    """b_j += 0.5 v_a v_c dM_ac/dq_j and b_a -= (v . dM_ac/dq) v_c, over
    a, then c, then j: the loop order of the tests' oracle. Only the j
    whose q_j the mass entry mm[a][c] references add terms, so a pair
    whose entry references no coordinate adds nothing."""
    lines, m = [], len(dM)
    for a in range(m):
        for c in range(m):
            js = sorted({n.index - 1 for n in xc.walk(mm[a][c])
                         if isinstance(n, xc.Coord)})
            if not js:
                continue
            g = dM[a][c]
            lines.append(f"w = 0.5 * v{a} * v{c}")
            lines += [f"b{j} += w * {g[j]}" for j in js]
            lines.append(f"b{a} -= (0.0 + %s) * v{c}" % " + ".join(
                f"v{j} * {g[j]}" for j in js))
    return lines


def _ldl_lines(M):
    """Unrolled square-root-free LDL^T factor (L{i}_{k}, d{i}) of the
    symmetric matrix whose entries are the expressions M[a][b] (only the
    lower triangle is read), each pivot checked as soon as it is formed."""
    lines = []
    for i in range(len(M)):
        for j in range(i):
            lines.append(f"L{i}_{j} = ({M[i][j]}" + "".join(
                f" - L{i}_{k} * L{j}_{k} * d{k}" for k in range(j))
                + f") / d{j}")
        lines += [f"d{i} = {M[i][i]}" + "".join(
            f" - L{i}_{k} * L{i}_{k} * d{k}" for k in range(i)),
            f"if not d{i} > 0.0:",
            "    " + _raise("positive definite", len(M))]
    return lines


class DissipationModel:
    """D, R and dR/dv of D = the sum of `terms` (DissipationTerms, R =
    D_n/n) plus `rest` (an expression, or None), whose R is the graded
    rule's integral of D(q, u*v)/u over u in (0, 1].

    D_R_grad(q, v, p) -> (D, R, dR/dv as a list of floats) is generated
    straight-line code: the terms' gradient code unrolled in term order,
    each with its own smooth_eps, summing D, R and dR/dv from 0.0 left to
    right (a term whose value differs from its gradient code's, sign
    under smooth_eps, calls its value code). With no rest, D is
    D_R_grad's value. With a rest, the generated D_R_grad and D add its
    part after the terms' sums: a gradient pass of the rule, and its
    scalar value at the point. D_R_grad's body is `lines`, which bind D, R
    and the names `g` (dR/dv) from q{i}, v{i} and the params p, and read
    the lists q and v if `lists`; their globals are `names`. A system's
    rhs runs the same lines (SystemModel).

    R's body is `R_consts`, then `R_lines`, R's own value code, generated
    on first use: the constant lines bind every parameter-only
    subexpression of the terms (in its term's guard), and the lines sum
    the terms' value code as R = 0.0, R += value / degree in term order,
    then with a rest the rule's value pass. They bind R from the same
    names as `lines`, and give D_R_grad's R bit for bit, but raise none of
    the errors that only gradient code raises (a sqrt or power derivative
    at a zero base, a derivative that overflows). R runs them, and the
    stationarity audit runs the constant lines once per sample and the
    lines inline at each probe.

    The rule is hp-quadrature's geometric mesh (Schwab, p- and hp-FEM,
    1998): short panels where u*v is small, so a sharp feature of D near
    rest or a non-integer power of the speed needs no refinement. Its main
    then estimate nodes, each panel-major, go through one array-mode call;
    R is the same np.dot over the main nodes in both passes.
    """

    def __init__(self, terms, rest, quadrature, dof):
        self.terms, self.rest, self.dof = terms, rest, dof
        exprs = [t.expr for t in terms]
        blocks, _ = xc.compile_blocks(exprs, dof, "v",
                                      [t.smooth_eps for t in terms])
        self.g = g = [f"g{j}" for j in range(dof)]
        body, names = [" = ".join(["D", "R", *g, "0.0"])], {"inf": math.inf}
        self.lists = rest is not None
        for i, (t, (lines, val, dv)) in enumerate(zip(terms, blocks)):
            if t.smooth_eps and any(isinstance(n, xc.Call) and n.fn == "sign"
                                    for n in xc.walk(t.expr)):
                names[f"_value{i}"] = t.evaluate
                val = f"_value{i}(q, v, p)"
                self.lists = True
            deg = repr(float(t.degree))
            body += lines + [f"d = {val}", "D += d", f"R += d / {deg}"]
            body += [f"{x} += {y} / {deg}" for x, y in zip(g, dv)]
        self.lines = body
        self.names = names
        self._head = head = xc.unpack(exprs)
        ret = f"return D, R, {_list(g)}"
        if rest is None:
            self.D_R_grad = xc.define("_D_R_grad(q, v, p)",
                                      head + body + [ret], **names)
            return
        self.quadrature = qc = quadrature
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
        self._D_nodes = xc.compile_array(rest)
        self._D_grad_nodes = xc.compile_array(rest, dof, "v")
        names.update(_quad=self._quad, _rest=xc.compiled(rest))
        body, d = body if terms else [], _plus(terms, "D", "_rest(q, v, p)")
        self.lines = body + ["r, gq = _quad(q, v, p, True)", f"D = {d}",
                             f"R = {_plus(terms, 'R', 'r')}"] + [
            f"{x} = {_plus(terms, x, f'gq[{j}]')}" for j, x in enumerate(g)]
        for name, lines in (("D_R_grad", self.lines + [ret]),
                            ("D", body + [f"return {d}"])):
            setattr(self, name, xc.define(f"_{name}(q, v, p)", head + lines,
                                          **names))

    def D(self, q, v, p):
        return self.D_R_grad(q, v, p)[0]

    @cached_property
    def _R_code(self):
        terms = self.terms
        blocks, (consts, _) = xc.compile_blocks(
            [t.expr for t in terms], self.dof, None,
            [t.smooth_eps for t in terms], hoist=True)
        body = ["R = 0.0"]
        for i, (t, (lines, val, _)) in enumerate(zip(terms, blocks)):
            if f"_value{i}" in self.names:  # sign under smooth_eps
                lines, val = [], f"_value{i}(q, v, p)"
            body += lines + [f"R += {val} / {float(t.degree)!r}"]
        if self.rest is not None:
            body = (body if terms else []) + [
                "r = _quad(q, v, p, False)[0]",
                f"R = {_plus(terms, 'R', 'r')}"]
        return consts, body

    @cached_property
    def R_lines(self):
        return self._R_code[1]

    @property
    def R_consts(self):
        return self._R_code[0]

    @cached_property
    def R(self):
        """R(q, v, p): R_consts and R_lines, generated on first use."""
        return xc.define("_R(q, v, p)", self._head + self.R_consts
                         + self.R_lines + ["return R"], **self.names)

    def _quad(self, q, v, p, with_grad):
        """The rest's R, and its dR/dv as a list when with_grad (else
        None), from one array call. d/dv_j of D(q, u*v) is u * (dD/dv_j)
        at u*v; the 1/u weight cancels the chain factor, so the gradient
        integrand is just dD/dv at u*v."""
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
        return r, None if g is None else (g[:, :n] @ self._w).tolist()


def _plus(terms, x, y):
    """Source of the rest's part y added to the terms' sum x, or y alone
    when there are no terms."""
    return f"{x} + {y}" if terms else y


# one model per (terms, rest, quadrature, dof), for every spec of that split
_dissipation_model = lru_cache(maxsize=16)(DissipationModel)


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


def _dot(x, y):
    """x.y from the first product on (so a 1-entry dot keeps its sign)."""
    return reduce(add, map(mul, x, y))


# (name, samples, seed) reports that SystemSpec.sampled_check keeps per
# system: an audit's tolerances name one
_SAMPLED_KEPT = 8

# seeded draws kept by sample_states: every config load and audit of a
# system draws the same few
_SAMPLE_CACHE = 16
# the speeds of sample_states are log-uniform between these
V_NORM_RANGE = (0.1, 10.0)


def sample_states(dof, samples, seed):
    """Seeded reproducible state sampler: q uniform in [-2,2]^m, speed
    log-uniform in V_NORM_RANGE, uniform direction. States are pairs of
    tuples of Python floats, so the checks evaluate in Python floats. The
    draw is a tuple, shared between the callers of the same arguments."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return _draw(dof, samples, seed)


@lru_cache(maxsize=_SAMPLE_CACHE)
def _draw(dof, samples, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.log(V_NORM_RANGE[0]), np.log(V_NORM_RANGE[1])
    out = []
    for _ in range(samples):
        q = rng.uniform(-2.0, 2.0, dof)
        d, n = _direction(rng, dof)
        speed = float(np.exp(rng.uniform(lo, hi)))
        out.append((tuple(q.tolist()), tuple(speed * x / n for x in d)))
    return tuple(out)


def _direction(rng, dof):
    """A normal draw d of rng, as Python floats, and its norm n, so that
    d / n is a seeded unit direction; e_1 and 1 for a draw of norm 0."""
    d = rng.normal(size=dof).tolist()
    n = math.sqrt(_dot(d, d))
    return (d, n) if n else ([1.0] + [0.0] * (dof - 1), 1.0)


# ---------------------------------------------------------------------------
# D and R evaluation


def eval_D(spec: DissipationSpec, ctx: EvalContext) -> float:
    return spec.model(ctx.dof).D(ctx.q, ctx.v, ctx.params)


def eval_R_closed(spec: DissipationSpec, ctx: EvalContext) -> float:
    """R = sum over terms of term/degree (exact for homogeneous terms)."""
    if spec.raw is not None:
        raise ModelError("eval_R_closed requires homogeneous_sum mode")
    return spec.model(ctx.dof).R(ctx.q, ctx.v, ctx.params)


def eval_R_quadrature(spec: DissipationSpec, ctx: EvalContext):
    """General-mode R as the graded rule's u-integral of the whole D, also
    where D's addends have closed forms, as (value, None): no warnings."""
    if spec.raw is None:
        raise ModelError("eval_R_quadrature requires general mode")
    return spec.quadrature_model(ctx.dof).R(ctx.q, ctx.v, ctx.params), None


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
                witness = (q, v)
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
        base = fn(q, v, params)
        for lam in (0.5, 2.0, 3.0):
            try:
                expected = lam ** term.degree * base
            except OverflowError:  # a huge declared degree
                yield math.inf
                continue
            yield (abs(fn(q, tuple(lam * x for x in v), params) - expected)
                   / (1.0 + abs(expected)))
    return _sampled_check("homogeneity", sample_states(dof, samples, seed),
                          violations, 1e-9, f"declared degree {term.degree}")


def euler_identity_check(model: DissipationModel, dof: int, params: dict,
                         samples: int = 50, seed: int = 0) -> CheckReport:
    """Verify v . dR/dv = D, the defining relation of the R construction,
    on the dissipation model `model` (a system's: sys.model.dissipation)."""

    def violations(q, v):
        d, _, g = model.D_R_grad(q, v, params)
        yield abs(_dot(v, g) - d) / (1.0 + abs(d))
    return _sampled_check("euler_identity", sample_states(dof, samples, seed),
                          violations, 1e-8, "v . dR/dv vs D")


def positivity_scan(model: DissipationModel, dof: int, params: dict,
                    samples: int = 50, seed: int = 0) -> CheckReport:
    """Report the minimum of D over sampled states; pass iff >= -1e-12."""
    D = model.D
    rep = _sampled_check(
        "positivity", sample_states(dof, samples, seed),
        lambda q, v: (-D(q, v, params),), 1e-12)
    # 0.0 - x, not -x: with no negative D the detail reads "min D = 0"
    return replace(rep, detail=f"min D = {0.0 - rep.max_violation:.6g}")


def rest_value_check(model: DissipationModel, dof: int, params: dict,
                     samples: int = 20, seed: int = 0) -> CheckReport:
    """D(q, 0) must vanish, else the R integral diverges."""
    D = model.D
    zeros = (0.0,) * dof
    states = [(q, zeros) for q, _ in sample_states(dof, samples, seed)]
    return _sampled_check("rest_value", states,
                          lambda q, v: (abs(D(q, v, params)),), 1e-12,
                          "D(q, 0) = 0 hypothesis")


def hypothesis_checks(sys: SystemSpec, **sampling):
    """The sampled hypotheses on D, as (term index or None, CheckReport):
    each declared term's homogeneity, then D(q, 0) = 0 when raw is set,
    each check with `sampling` (samples, seed) if given, the rest value
    on the system's own dissipation model."""
    d, args = sys.dissipation, (sys.dof, sys.params)
    for i, term in enumerate(d.terms):
        yield i, homogeneity_check(term, *args, **sampling)
    if d.raw is not None:
        yield None, rest_value_check(sys.model.dissipation, *args, **sampling)
