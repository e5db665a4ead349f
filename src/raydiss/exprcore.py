"""Scalar-field expressions over coordinates, velocities and parameters.

Grammar (infix, right-associative '^', unary minus looser than '^'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers ``q1..qN`` are coordinates, ``v1..vN`` velocities; anything else
is a named parameter. Supported functions: sin, cos, exp, ln, sqrt, abs,
sign, tanh, pow.

Evaluation is plain IEEE double arithmetic; first derivatives come from a
forward-mode dual pass (one pass, one tangent direction per variable).
Central finite differences are provided as an independent cross-check only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "ln": 1, "sqrt": 1, "abs": 1,
             "sign": 1, "tanh": 1, "pow": 2}

_BINOPS = {"+", "-", "*", "/", "^"}


class ExprError(Exception):
    """Base for all expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class BindError(ExprError):
    """Expression references a variable the system does not define."""


class EvalDomainError(ExprError):
    def __init__(self, message, node=None, src=None):
        self.node = node
        if src is None and node is not None:
            src = to_source(node)
        super().__init__(f"{message} in subexpression '{src}'")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 1-based


@dataclass(frozen=True)
class Vel:
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


ExprNode = Const | Coord | Vel | Param | Neg | BinOp | Call


@dataclass(frozen=True)
class EvalContext:
    """Point of evaluation: coordinates, velocities, parameter table."""

    q: tuple
    v: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "v", tuple(self.v))
        if len(self.q) != len(self.v):
            raise ValueError("q and v must have equal length")

    @property
    def dof(self):
        return len(self.q)


# ---------------------------------------------------------------------------
# Lexer / parser

_NUM_START = set("0123456789.")


def _tokenize(source):
    """Yield (kind, text, offset) triples; kind in {num, ident, op, eof}."""
    toks = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            toks.append(("op", c, i))
            i += 1
            continue
        if c in _NUM_START:
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i)
            toks.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, source):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.next()
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off,
                         expected=(f"'{op}'",))

    def parse(self):
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input '{text}'", off,
                             expected=("operator", "end of input"))
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                left = BinOp(text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                left = BinOp(text, left, self.factor())
            else:
                return left

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", off)
                self.next()
                args = [self.expr()]
                while True:
                    k2, t2, o2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.next()
                        args.append(self.expr())
                    elif k2 == "op" and t2 == ")":
                        self.next()
                        break
                    else:
                        raise ParseError(
                            f"unexpected token '{t2 or 'end of input'}'", o2,
                            expected=("','", "')'"))
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"function '{text}' takes {FUNCTIONS[text]} "
                        f"argument(s), got {len(args)}", off)
                if text == "pow":
                    return BinOp("^", args[0], args[1])
                return Call(text, tuple(args))
            return _classify_ident(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off,
                         expected=("expression",))


def _classify_ident(name):
    if len(name) > 1 and name[0] in "qv" and name[1:].isdigit():
        idx = int(name[1:])
        return Coord(idx) if name[0] == "q" else Vel(idx)
    return Param(name)


def parse(source: str) -> ExprNode:
    """Parse source text into an AST. Raises ParseError with offset."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Pretty printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(node: ExprNode) -> str:
    """Render an AST back to parseable source text."""
    return _print(node, 0)


def _print(node, parent_prec):
    if isinstance(node, Const):
        s = repr(node.value)
        return f"({s})" if s.startswith("-") and parent_prec >= _PREC["neg"] else s
    if isinstance(node, Coord):
        return f"q{node.index}"
    if isinstance(node, Vel):
        return f"v{node.index}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        s = "-" + _print(node.child, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        if node.op == "^":  # right-associative
            s = f"{_print(node.left, p + 1)} ^ {_print(node.right, p)}"
        else:
            s = f"{_print(node.left, p)} {node.op} {_print(node.right, p + 1)}"
        return f"({s})" if p < parent_prec or (p == parent_prec and parent_prec > 0) else s
    raise TypeError(f"not an ExprNode: {node!r}")


# ---------------------------------------------------------------------------
# Binding / inspection helpers


def walk(node):
    yield node
    if isinstance(node, Neg):
        yield from walk(node.child)
    elif isinstance(node, BinOp):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Call):
        for a in node.args:
            yield from walk(a)


def uses_velocity(node) -> bool:
    return any(isinstance(n, Vel) for n in walk(node))


def uses_abs_or_sign(node) -> bool:
    return any(isinstance(n, Call) and n.fn in ("abs", "sign") for n in walk(node))


def bind_check(node, dof, params):
    """Validate variable references against a system of `dof` coordinates
    and the given parameter table. Raises BindError on any violation."""
    for n in walk(node):
        if isinstance(n, (Coord, Vel)) and not (1 <= n.index <= dof):
            kind = "coordinate" if isinstance(n, Coord) else "velocity"
            raise BindError(
                f"{kind} index {n.index} out of range 1..{dof}")
        if isinstance(n, Param) and n.name not in params:
            raise BindError(f"unresolved parameter '{n.name}'")


# ---------------------------------------------------------------------------
# Dual arithmetic


class Dual:
    """First-order dual number: value plus a tangent vector."""

    __slots__ = ("val", "tan")

    def __init__(self, val, tan):
        self.val = val
        self.tan = tan

    def __repr__(self):
        return f"Dual({self.val}, {self.tan})"


def _val(x):
    return x.val if isinstance(x, Dual) else x


def _is_dual(*xs):
    return any(isinstance(x, Dual) for x in xs)


class _Evaluator:
    """Recursive AST evaluator over floats or duals.

    `smooth_eps`, when set, regularizes abs/sign derivatives with
    tanh(x/eps); used only on the dissipative-force path.
    """

    def __init__(self, q, v, params, ndir=0, smooth_eps=None):
        self.q = q
        self.v = v
        self.params = params
        self.smooth_eps = smooth_eps
        self.zero = np.zeros(ndir) if ndir else 0.0

    def run(self, node):
        return self.ev(node)

    def tan(self, x):
        return x.tan if isinstance(x, Dual) else self.zero

    def ev(self, node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Coord):
            return self.q[node.index - 1]
        if isinstance(node, Vel):
            return self.v[node.index - 1]
        if isinstance(node, Param):
            try:
                return self.params[node.name]
            except KeyError:
                raise BindError(f"unresolved parameter '{node.name}'") from None
        if isinstance(node, Neg):
            x = self.ev(node.child)
            return Dual(-x.val, -x.tan) if isinstance(x, Dual) else -x
        if isinstance(node, BinOp):
            a = self.ev(node.left)
            b = self.ev(node.right)
            return self.binop(node, a, b)
        if isinstance(node, Call):
            return self.call(node, [self.ev(a) for a in node.args])
        raise TypeError(f"not an ExprNode: {node!r}")

    def binop(self, node, a, b):
        op = node.op
        if op == "+":
            if _is_dual(a, b):
                return Dual(_val(a) + _val(b), self.tan(a) + self.tan(b))
            return a + b
        if op == "-":
            if _is_dual(a, b):
                return Dual(_val(a) - _val(b), self.tan(a) - self.tan(b))
            return a - b
        if op == "*":
            if _is_dual(a, b):
                return Dual(_val(a) * _val(b),
                            _val(a) * self.tan(b) + _val(b) * self.tan(a))
            return a * b
        if op == "/":
            bv = _val(b)
            if bv == 0.0:
                raise EvalDomainError("division by zero", node)
            if _is_dual(a, b):
                val = _val(a) / bv
                return Dual(val, (self.tan(a) - val * self.tan(b)) / bv)
            return a / b
        if op == "^":
            return self.power(node, a, b)
        raise AssertionError(op)

    def power(self, node, a, b):
        bv = _val(b)
        av = _val(a)
        is_int = float(bv).is_integer() and abs(bv) < 1e9
        if not is_int and av < 0.0:
            raise EvalDomainError(
                f"non-integer exponent {bv} requires nonnegative base, "
                f"got {av}", node)
        if av == 0.0:
            if bv < 0.0:
                raise EvalDomainError("zero base with negative exponent", node)
            if not _is_dual(a, b):
                return 1.0 if bv == 0.0 else 0.0
            val = 1.0 if bv == 0.0 else 0.0
            # d(x^n)/dx at 0: n>1 -> 0; n==1 -> 1; 0<n<1 kink -> 0 by the
            # same convention as sign(0)=0.
            if bv == 1.0:
                dv = self.tan(a)
            else:
                dv = self.zero
            return Dual(val, dv)
        val = av ** bv
        if not _is_dual(a, b):
            return val
        # d(a^b) = b*a^(b-1)*a' + a^b*ln(a)*b'
        dv = bv * av ** (bv - 1.0) * self.tan(a)
        tb = self.tan(b)
        if isinstance(b, Dual):
            if av <= 0.0:
                raise EvalDomainError(
                    "derivative w.r.t. exponent needs positive base", node)
            dv = dv + val * math.log(av) * tb
        return Dual(val, dv)

    def call(self, node, args):
        fn = node.fn
        x = args[0]
        xv = _val(x)
        if fn == "sin":
            f, d = math.sin(xv), math.cos(xv)
        elif fn == "cos":
            f, d = math.cos(xv), -math.sin(xv)
        elif fn == "exp":
            f = math.exp(xv)
            d = f
        elif fn == "tanh":
            f = math.tanh(xv)
            d = 1.0 - f * f
        elif fn == "ln":
            if xv <= 0.0:
                raise EvalDomainError(f"ln of non-positive value {xv}", node)
            f, d = math.log(xv), 1.0 / xv
        elif fn == "sqrt":
            if xv < 0.0:
                raise EvalDomainError(f"sqrt of negative value {xv}", node)
            f = math.sqrt(xv)
            if isinstance(x, Dual) and xv == 0.0:
                raise EvalDomainError("sqrt derivative at zero", node)
            d = 0.5 / f if f else 0.0
        elif fn == "abs":
            f = abs(xv)
            d = self._sign(xv)
        elif fn == "sign":
            if self.smooth_eps:
                t = math.tanh(xv / self.smooth_eps)
                f = t
                d = (1.0 - t * t) / self.smooth_eps
            else:
                f = self._sign(xv)
                d = 0.0
        else:
            raise AssertionError(fn)
        if isinstance(x, Dual):
            return Dual(f, d * x.tan)
        return f

    def _sign(self, xv):
        if self.smooth_eps:
            return math.tanh(xv / self.smooth_eps)
        return 0.0 if xv == 0.0 else math.copysign(1.0, xv)


# ---------------------------------------------------------------------------
# Compiled forward-mode path.
#
# The dual interpreter above is the reference engine; the hot paths
# (dynamics, quadrature, sampled checks) go through code generated from the
# AST: straight-line arithmetic that propagates the value and the tangent
# components of one forward-mode pass. The one generator, _CodeGen, emits
# calls to `math.*` and to the _c* helpers, which hold every branch and
# domain check. compile_expr runs that source on floats (scalar mode, for
# point evaluations); compile_array runs the same source against numpy
# (array mode), where `math.*` resolves to ufuncs and each _c* name to an
# array helper whose domain check reports the first offending element in
# flat order, with the scalar text. Its one consumer is the general-mode R
# quadrature, one call per pass over every node. Systems compile their own
# expressions and keep the result; the expression-level helpers below
# (evaluate, grad_v, grad_q) cache scalar code per AST object.


def _csgn(x):
    return 0.0 if x == 0.0 else math.copysign(1.0, x)


def _cdiv0(b, src):
    if b == 0.0:
        raise EvalDomainError("division by zero", src=src)


def _cln(x, src):
    if x <= 0.0:
        raise EvalDomainError(f"ln of non-positive value {x}", src=src)
    return math.log(x)


def _csqrt(x, src):
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative value {x}", src=src)
    return math.sqrt(x)


def _cdsqrt(val, src):
    if val == 0.0:
        raise EvalDomainError("sqrt derivative at zero", src=src)
    return 0.5 / val


def _cpowi(a, n, src):
    if a == 0.0 and n < 0:
        raise EvalDomainError("zero base with negative exponent", src=src)
    return a ** n


def _cdpowi(a, n):
    # d(a^n)/da for integer n; 0 at a=0 unless n==1 (kink convention)
    if a == 0.0:
        return 1.0 if n == 1 else 0.0
    return n * a ** (n - 1)


def _cpowf(a, p, src):
    if a < 0.0:
        raise EvalDomainError(
            f"non-integer exponent {p} requires nonnegative base, got {a}",
            src=src)
    return a ** p


def _cdpowf(a, p):
    return p * a ** (p - 1.0) if a > 0.0 else 0.0


def _cpow3(a, b, need_db, src):
    """General a^b with partials, replicating the interpreter semantics."""
    is_int = float(b).is_integer() and abs(b) < 1e9
    if not is_int and a < 0.0:
        raise EvalDomainError(
            f"non-integer exponent {b} requires nonnegative base, got {a}",
            src=src)
    if a == 0.0:
        if b < 0.0:
            raise EvalDomainError("zero base with negative exponent", src=src)
        val = 1.0 if b == 0.0 else 0.0
        return val, (1.0 if b == 1.0 else 0.0), 0.0
    val = a ** b
    da = b * a ** (b - 1.0)
    db = 0.0
    if need_db:
        if a <= 0.0:
            raise EvalDomainError(
                "derivative w.r.t. exponent needs positive base", src=src)
        db = val * math.log(a)
    return val, da, db


_COMPILE_GLOBALS = {
    "math": math, "_csgn": _csgn, "_cdiv0": _cdiv0, "_cln": _cln,
    "_csqrt": _csqrt, "_cdsqrt": _cdsqrt, "_cpowi": _cpowi,
    "_cdpowi": _cdpowi, "_cpowf": _cpowf, "_cdpowf": _cdpowf,
    "_cpow3": _cpow3,
}


# Array versions of the helpers above. Arguments are scalars or arrays of
# one shape; a masked branch is computed only on elements where it is
# defined, so no divide or invalid warning leaks from the discarded side.


def _aany(bad):
    # ndarray.any skips np.any's dispatch; scalars come as (numpy) bools
    return bad.any() if isinstance(bad, np.ndarray) else bool(bad)


def _afirst(x, bad):
    """x at the first element (flat order) where bad holds."""
    return float(np.broadcast_to(x, np.shape(bad)).flat[np.argmax(bad)])


def _asgn(x):
    return np.where(x == 0.0, 0.0, np.copysign(1.0, x))


def _adiv0(b, src):
    if _aany(b == 0.0):
        raise EvalDomainError("division by zero", src=src)


def _aln(x, src):
    bad = x <= 0.0
    if _aany(bad):
        raise EvalDomainError(
            f"ln of non-positive value {_afirst(x, bad)}", src=src)
    return np.log(x)


def _asqrt(x, src):
    bad = x < 0.0
    if _aany(bad):
        raise EvalDomainError(
            f"sqrt of negative value {_afirst(x, bad)}", src=src)
    return np.sqrt(x)


def _adsqrt(val, src):
    if _aany(val == 0.0):
        raise EvalDomainError("sqrt derivative at zero", src=src)
    return 0.5 / val


def _apowi(a, n, src):
    if n < 0 and _aany(a == 0.0):
        raise EvalDomainError("zero base with negative exponent", src=src)
    return a ** n


def _adpowi(a, n):
    # n >= 1 gives the kink convention at a = 0 unmasked (0, or 1 for
    # n == 1); n < 0 never sees a = 0 after _apowi; n == 0 is flat
    return n * a ** (n - 1) if n else 0.0


def _apowf(a, p, src):
    bad = a < 0.0
    if _aany(bad):
        raise EvalDomainError(
            f"non-integer exponent {p} requires nonnegative base, got "
            f"{_afirst(a, bad)}", src=src)
    return a ** p


def _adpowf(a, p):
    if p > 1.0:  # a >= 0 after _apowf, and 0 ** (p - 1) is already 0
        return p * a ** (p - 1.0)
    pos = a > 0.0
    return np.where(pos, p * np.where(pos, a, 1.0) ** (p - 1.0), 0.0)


def _apow3(a, b, need_db, src):
    """_cpow3 over arrays: each element raises what _cpow3 would."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    neg = a < 0.0
    zero = a == 0.0
    nonint = ~((np.floor(b) == b) & (np.abs(b) < 1e9))
    bad_base = nonint & neg
    bad_zero = zero & (b < 0.0)
    bad = bad_base | bad_zero | (neg if need_db else False)
    if _aany(bad):
        k = np.argmax(bad)
        if bad_base.flat[k]:
            raise EvalDomainError(
                f"non-integer exponent {float(b.flat[k])} requires "
                f"nonnegative base, got {float(a.flat[k])}", src=src)
        if bad_zero.flat[k]:
            raise EvalDomainError("zero base with negative exponent",
                                  src=src)
        raise EvalDomainError(
            "derivative w.r.t. exponent needs positive base", src=src)
    safe = np.where(zero, 1.0, a)
    val = np.where(zero, np.where(b == 0.0, 1.0, 0.0), safe ** b)
    da = np.where(zero, np.where(b == 1.0, 1.0, 0.0),
                  b * safe ** (b - 1.0))
    db = np.where(zero, 0.0, val * np.log(safe)) if need_db else 0.0
    return val, da, db


_ARRAY_GLOBALS = {
    "math": SimpleNamespace(sin=np.sin, cos=np.cos, exp=np.exp,
                            tanh=np.tanh),
    "_csgn": _asgn, "_cdiv0": _adiv0, "_cln": _aln, "_csqrt": _asqrt,
    "_cdsqrt": _adsqrt, "_cpowi": _apowi, "_cdpowi": _adpowi,
    "_cpowf": _apowf, "_cdpowf": _adpowf, "_cpow3": _apow3,
}


class _CodeGen:
    def __init__(self, dof, wrt, smooth_eps):
        self.dof = dof
        self.wrt = wrt  # 'q' | 'v' | None
        self.smooth_eps = smooth_eps
        self.lines = []
        self.n = 0

    def temp(self, expr):
        name = f"t{self.n}"
        self.n += 1
        self.lines.append(f"    {name} = {expr}")
        return name

    def zeros(self):
        return ["0.0"] * (self.dof if self.wrt else 0)

    def any_grad(self, g):
        return any(x != "0.0" for x in g)

    def gen(self, node):
        """Return (value expression, list of tangent expressions)."""
        if isinstance(node, Const):
            return repr(node.value), self.zeros()
        if isinstance(node, Coord):
            g = self.zeros()
            if self.wrt == "q":
                g[node.index - 1] = "1.0"
            return f"q[{node.index - 1}]", g
        if isinstance(node, Vel):
            g = self.zeros()
            if self.wrt == "v":
                g[node.index - 1] = "1.0"
            return f"v[{node.index - 1}]", g
        if isinstance(node, Param):
            return self.temp(f"p[{node.name!r}]"), self.zeros()
        if isinstance(node, Neg):
            a, ga = self.gen(node.child)
            val = self.temp(f"-({a})")
            g = [x if x == "0.0" else self.temp(f"-({x})") for x in ga]
            return val, g
        if isinstance(node, BinOp):
            return self.gen_binop(node)
        if isinstance(node, Call):
            return self.gen_call(node)
        raise TypeError(f"not an ExprNode: {node!r}")

    def gen_binop(self, node):
        op = node.op
        if op == "^":
            return self.gen_pow(node)
        a, ga = self.gen(node.left)
        b, gb = self.gen(node.right)
        if op in "+-":
            val = self.temp(f"{a} {op} {b}")
            g = []
            for x, y in zip(ga, gb):
                if x == "0.0" and y == "0.0":
                    g.append("0.0")
                elif x == "0.0":
                    g.append(y if op == "+" else self.temp(f"-({y})"))
                elif y == "0.0":
                    g.append(x)
                else:
                    g.append(self.temp(f"{x} {op} {y}"))
            return val, g
        if op == "*":
            val = self.temp(f"{a} * {b}")
            g = []
            for x, y in zip(ga, gb):
                terms = []
                if x != "0.0":
                    terms.append(f"{b} * {x}")
                if y != "0.0":
                    terms.append(f"{a} * {y}")
                g.append(self.temp(" + ".join(terms)) if terms else "0.0")
            return val, g
        if op == "/":
            src = to_source(node)
            self.lines.append(f"    _cdiv0({b}, {src!r})")
            val = self.temp(f"{a} / {b}")
            g = []
            for x, y in zip(ga, gb):
                if x == "0.0" and y == "0.0":
                    g.append("0.0")
                elif y == "0.0":
                    g.append(self.temp(f"{x} / {b}"))
                elif x == "0.0":
                    g.append(self.temp(f"-{val} * {y} / {b}"))
                else:
                    g.append(self.temp(f"({x} - {val} * {y}) / {b}"))
            return val, g
        raise AssertionError(op)

    def gen_pow(self, node):
        src = to_source(node)
        a, ga = self.gen(node.left)
        if isinstance(node.right, Const):
            p = node.right.value
            if float(p).is_integer() and abs(p) < 1e9:
                n = int(p)
                val = self.temp(f"_cpowi({a}, {n}, {src!r})")
                if not self.any_grad(ga):
                    return val, self.zeros()
                d = self.temp(f"_cdpowi({a}, {n})")
            else:
                val = self.temp(f"_cpowf({a}, {p!r}, {src!r})")
                if not self.any_grad(ga):
                    return val, self.zeros()
                d = self.temp(f"_cdpowf({a}, {p!r})")
            g = [x if x == "0.0" else self.temp(f"{d} * {x}") for x in ga]
            return val, g
        b, gb = self.gen(node.right)
        need_db = self.any_grad(gb)
        val = self.temp(f"_cpow3({a}, {b}, {need_db}, {src!r})")
        da = self.temp(f"{val}[1]")
        db = self.temp(f"{val}[2]") if need_db else "0.0"
        val = self.temp(f"{val}[0]")
        g = []
        for x, y in zip(ga, gb):
            terms = []
            if x != "0.0":
                terms.append(f"{da} * {x}")
            if y != "0.0":
                terms.append(f"{db} * {y}")
            g.append(self.temp(" + ".join(terms)) if terms else "0.0")
        return val, g

    def gen_call(self, node):
        fn = node.fn
        src = to_source(node)
        a, ga = self.gen(node.args[0])
        active = self.any_grad(ga)
        eps = self.smooth_eps
        d = None
        if fn == "sin":
            val = self.temp(f"math.sin({a})")
            if active:
                d = self.temp(f"math.cos({a})")
        elif fn == "cos":
            val = self.temp(f"math.cos({a})")
            if active:
                d = self.temp(f"-math.sin({a})")
        elif fn == "exp":
            val = self.temp(f"math.exp({a})")
            d = val
        elif fn == "tanh":
            val = self.temp(f"math.tanh({a})")
            if active:
                d = self.temp(f"1.0 - {val} * {val}")
        elif fn == "ln":
            val = self.temp(f"_cln({a}, {src!r})")
            if active:
                d = self.temp(f"1.0 / {a}")
        elif fn == "sqrt":
            val = self.temp(f"_csqrt({a}, {src!r})")
            if active:
                d = self.temp(f"_cdsqrt({val}, {src!r})")
        elif fn == "abs":
            val = self.temp(f"abs({a})")
            if active:
                if eps:
                    d = self.temp(f"math.tanh({a} / {eps!r})")
                else:
                    d = self.temp(f"_csgn({a})")
        elif fn == "sign":
            if eps:
                val = self.temp(f"math.tanh({a} / {eps!r})")
                if active:
                    d = self.temp(f"(1.0 - {val} * {val}) / {eps!r}")
            else:
                val = self.temp(f"_csgn({a})")
                d = None  # derivative 0 by convention
        else:
            raise AssertionError(fn)
        if d is None:
            return val, self.zeros()
        g = [x if x == "0.0" else self.temp(f"{d} * {x}") for x in ga]
        return val, g


def _load(node, dof, wrt, smooth_eps, namespace):
    """Generate the source of _f(q, v, p) and execute it in namespace."""
    cg = _CodeGen(dof, wrt, smooth_eps)
    val, g = cg.gen(node)
    body = "\n".join(cg.lines) or "    pass"
    if wrt:
        ret = f"    return {val}, ({', '.join(g)}{',' if g else ''})"
    else:
        ret = f"    return {val}"
    source = f"def _f(q, v, p):\n{body}\n{ret}\n"
    ns = dict(namespace)
    exec(source, ns)
    return ns["_f"]


def compile_expr(node, dof=0, wrt=None, smooth_eps=None):
    """Uncached compiled evaluator: f(q, v, params) -> value, or
    (value, tangent tuple) when wrt is 'q' or 'v'."""
    return _load(node, dof, wrt, smooth_eps, _COMPILE_GLOBALS)


def compile_array(node, dof=0, wrt=None, smooth_eps=None):
    """Uncached array-mode evaluator: compile_expr's code evaluated at many
    points in one call. f(q, v, params) takes q and v each as a sequence
    of scalars, shared by all points, or as an array of shape (dof,) + S
    for points of shape S. Returns the value as an array of shape S, or
    (value, tangents of shape (dof,) + S) when wrt is 'q' or 'v'; parts
    that do not depend on the points are broadcast. A domain error names
    the first offending element in flat order, in the scalar text.
    """
    fn = _load(node, dof, wrt, smooth_eps, _ARRAY_GLOBALS)

    def f(q, v, p):
        shape = v.shape[1:] if isinstance(v, np.ndarray) else ()
        if isinstance(q, np.ndarray) and q.shape[1:] != shape:
            shape = np.broadcast_shapes(q.shape[1:], shape)
        if not wrt:
            return _abroadcast(fn(q, v, p), shape)
        val, g = fn(q, v, p)
        tan = np.empty((len(g),) + shape)
        for i, x in enumerate(g):
            tan[i] = x
        return _abroadcast(val, shape), tan

    return f


def _abroadcast(x, shape):
    return x if np.shape(x) == shape else np.broadcast_to(x, shape)


# Keyed by AST object identity; the AST is kept alive by the cache entry.
_COMPILE_CACHE = {}


def compiled(node, dof=0, wrt=None, smooth_eps=None):
    """compile_expr, cached per AST object."""
    key = (id(node), dof, wrt, smooth_eps)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None:
        return hit[1]
    fn = compile_expr(node, dof, wrt, smooth_eps)
    _COMPILE_CACHE[key] = (node, fn)
    return fn


# ---------------------------------------------------------------------------
# Public evaluation API


def evaluate(e: ExprNode, ctx: EvalContext) -> float:
    """Evaluate e at ctx in IEEE doubles."""
    return compiled(e)(ctx.q, ctx.v, ctx.params)


def evaluate_interpreted(e: ExprNode, ctx: EvalContext) -> float:
    """Reference tree-walking evaluation (oracle for the compiled path)."""
    return _Evaluator(ctx.q, ctx.v, ctx.params).run(e)


def eval_dual(e, q, v, params, smooth_eps=None):
    """Evaluate with caller-supplied (possibly dual) q and v entries."""
    ndir = 0
    for x in list(q) + list(v):
        if isinstance(x, Dual):
            ndir = len(x.tan)
            break
    return _Evaluator(q, v, params, ndir=ndir, smooth_eps=smooth_eps).run(e)


def _seeded(values, ndir, offset):
    out = []
    for i, x in enumerate(values):
        tan = np.zeros(ndir)
        tan[offset + i] = 1.0
        out.append(Dual(float(x), tan))
    return out


def grad_v(e: ExprNode, ctx: EvalContext, smooth_eps=None) -> np.ndarray:
    """Exact forward-mode gradient of e w.r.t. all velocity components."""
    _, g = compiled(e, ctx.dof, "v", smooth_eps)(ctx.q, ctx.v, ctx.params)
    return np.array(g)


def grad_q(e: ExprNode, ctx: EvalContext) -> np.ndarray:
    """Exact forward-mode gradient of e w.r.t. all coordinates."""
    _, g = compiled(e, ctx.dof, "q", None)(ctx.q, ctx.v, ctx.params)
    return np.array(g)


def grad_v_interpreted(e, ctx, smooth_eps=None):
    """One dual pass with dof tangent directions (oracle for grad_v)."""
    m = ctx.dof
    v = _seeded(ctx.v, m, 0)
    r = _Evaluator(ctx.q, v, ctx.params, ndir=m, smooth_eps=smooth_eps).run(e)
    return r.tan.copy() if isinstance(r, Dual) else np.zeros(m)


def grad_q_interpreted(e, ctx):
    """One dual pass with dof tangent directions (oracle for grad_q)."""
    m = ctx.dof
    q = _seeded(ctx.q, m, 0)
    r = _Evaluator(q, ctx.v, ctx.params, ndir=m).run(e)
    return r.tan.copy() if isinstance(r, Dual) else np.zeros(m)


def fd_gradient(e: ExprNode, ctx: EvalContext, wrt: str,
                step: float) -> np.ndarray:
    """Central-difference gradient; independent oracle, not a hot path.

    wrt is 'coords' or 'velocities'.
    """
    if step <= 0:
        raise ValueError("fd_gradient step must be > 0")
    if wrt not in ("coords", "velocities"):
        raise ValueError("wrt must be 'coords' or 'velocities'")
    base = list(ctx.q if wrt == "coords" else ctx.v)
    out = np.zeros(ctx.dof)
    for j in range(ctx.dof):
        hi = list(base)
        lo = list(base)
        hi[j] += step
        lo[j] -= step
        if wrt == "coords":
            fhi = evaluate(e, EvalContext(hi, ctx.v, ctx.params))
            flo = evaluate(e, EvalContext(lo, ctx.v, ctx.params))
        else:
            fhi = evaluate(e, EvalContext(ctx.q, hi, ctx.params))
            flo = evaluate(e, EvalContext(ctx.q, lo, ctx.params))
        out[j] = (fhi - flo) / (2.0 * step)
    return out
