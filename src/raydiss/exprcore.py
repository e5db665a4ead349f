"""Scalar-field expressions over coordinates, velocities and parameters.

Grammar (infix, right-associative '^', unary minus looser than '^'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    number := (digit+ '.'? | '.') digit* (('e'|'E') ('+'|'-')? digit+)?

A digit is ASCII 0-9; a number has one before any exponent. An ident is
letters, digits and '_', not led by a digit of any script: ``q1..qN`` are
coordinates, ``v1..vN`` velocities, any other ident a named parameter.
Functions: sin, cos, exp, ln, sqrt, abs, sign, tanh, pow.

Evaluation is plain IEEE double arithmetic; first derivatives come from a
forward-mode dual pass (one pass, one tangent direction per variable).
Central finite differences are provided as an independent cross-check only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "ln": 1, "sqrt": 1, "abs": 1,
             "sign": 1, "tanh": 1, "pow": 2}


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
    """A point outside an expression's domain; `src` is the source text of
    the offending subexpression."""

    def __init__(self, message, src):
        super().__init__(f"{message} in subexpression '{src}'")


# ---------------------------------------------------------------------------
# AST
#
# A node is a frozen dataclass whose hash is computed once and kept in the
# node: caches keyed by trees (the system of a load, compiled code) hash a
# tree that parse returns again and again, and its children need not be
# visited each time. The kept hash stays out of a node's pickled or copied
# state, as a string's hash differs between processes.


def _node(cls):
    cls = dataclass(frozen=True)(cls)
    fresh = cls.__hash__  # of the fields, or the class's own

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = fresh(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}
    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_node
class Const:
    value: float

    # equal, and hashed alike, only where the literal compiles to the same
    # code: 0.0 and -0.0 differ, and so do 1 and 1.0
    def __eq__(self, other):
        return (isinstance(other, Const)
                and repr(self.value) == repr(other.value))

    def __hash__(self):
        return hash(repr(self.value))


@_node
class Coord:
    index: int  # 1-based


@_node
class Vel:
    index: int  # 1-based


@_node
class Param:
    name: str


@_node
class Neg:
    child: "ExprNode"


@_node
class BinOp:
    op: str
    left: "ExprNode"
    right: "ExprNode"


@_node
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
#
# _DIGIT is the one digit rule, of numbers and of q<i> and v<i>: ASCII,
# where str.isdigit and int() also take '٣' and '²'.

_DIGIT = "[0-9]"
_WORD = re.compile(rf"""
    (?P<num>(?:{_DIGIT}+\.?|\.){_DIGIT}*(?:[eE][+-]?{_DIGIT}+)?)
    | (?P<ident>[^\W\d]\w*)""", re.X)
_INDEX = re.compile(rf"[qv]({_DIGIT}+)")


def _tokenize(source):
    """(kind, text, offset) triples, the last ("eof", "end of input", n)."""
    toks, i, n = [], 0, len(source)
    while i < n:
        c = source[i]
        if c in "+-*/^(),":
            toks.append(("op", c, i))
            i += 1
        elif c.isspace():
            i += 1
        else:
            word = _WORD.match(source, i)
            if word is None:
                raise ParseError(f"unexpected character '{c}'", i)
            kind, text = word.lastgroup, word[0]
            if kind == "num" and c == "." and text[1:2] in "eE":
                # a lone '.', or one with an exponent: no mantissa digit
                raise ParseError(f"malformed number '{text}'", i)
            toks.append((kind, text, i))
            i += len(text)
    toks.append(("eof", "end of input", n))
    return toks


class _Parser:
    """Recursive descent, one method per rule. The hot rules (expr, factor
    and an atom that is no call) peek at the next token inline."""

    def __init__(self, source):
        self.toks = _tokenize(source)
        self.pos = 0

    def take(self, op):
        """Consume the next token if it is the operator op."""
        if self.toks[self.pos][1] == op:
            self.pos += 1
            return True
        return False

    def fail(self, *expected):
        _, text, off = self.toks[self.pos]
        raise ParseError(f"unexpected token '{text}'", off, expected)

    def parse(self):
        e = self.expr()
        kind, text, off = self.toks[self.pos]
        if kind != "eof":
            raise ParseError(f"trailing input '{text}'", off,
                             ("operator", "end of input"))
        return e

    def expr(self, ops="+-"):
        """Operands joined left to right by ops: terms by '+' and '-', and
        factors by '*' and '/'."""
        toks, left = self.toks, None
        while True:
            right = self.factor() if ops == "*/" else self.expr("*/")
            left = right if left is None else BinOp(op, left, right)
            op = toks[self.pos][1]
            if op not in ops:
                return left
            self.pos += 1

    def factor(self):
        toks = self.toks
        if toks[self.pos][1] == "-":
            self.pos += 1
            return Neg(self.factor())
        base = self.atom()
        if toks[self.pos][1] == "^":
            self.pos += 1
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, off = self.toks[self.pos]
        if kind == "eof" or (kind == "op" and text != "("):
            self.fail("expression")
        self.pos += 1
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number '{text}' overflows a double", off)
            return Const(value)
        if text == "(":
            e = self.expr()
            if not self.take(")"):
                self.fail("')'")
            return e
        if self.toks[self.pos][1] != "(":
            index = _INDEX.fullmatch(text)
            if index is None:
                return Param(text)
            try:
                return (Coord if text[0] == "q" else Vel)(int(index[1]))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"index of '{text[0]}' has too many digits",
                                 off) from None
        if text not in FUNCTIONS:
            raise ParseError(f"unknown function '{text}'", off)
        self.pos += 1
        args = [self.expr()]
        while self.take(","):
            args.append(self.expr())
        if not self.take(")"):
            self.fail("','", "')'")
        if len(args) != FUNCTIONS[text]:
            raise ParseError(f"function '{text}' takes {FUNCTIONS[text]} "
                             f"argument(s), got {len(args)}", off)
        return BinOp("^", *args) if text == "pow" else Call(text, tuple(args))


# The deepest tree parse returns: the caches hash trees and the code
# generators walk them recursively, so a deeper one could exhaust the stack
_MAX_DEPTH = 200


@lru_cache(maxsize=256)
def parse(source: str) -> ExprNode:
    """Parse source text into an AST of at most _MAX_DEPTH levels. Raises
    ParseError with offset, and nothing else, whatever the text. A repeat
    text returns the same (frozen) tree, so caches keyed by trees compare
    it by identity; a ParseError is never stored, so it is raised again."""
    parser = _Parser(source)
    try:
        node = parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply",
                         parser.toks[parser.pos][2]) from None
    level, depth = [node], 0
    while level:  # level by level, so that no depth exhausts the stack
        depth += 1
        level = [c for n in level for c in (
            (n.child,) if isinstance(n, Neg) else (n.left, n.right)
            if isinstance(n, BinOp) else getattr(n, "args", ()))]
    if depth > _MAX_DEPTH:
        raise ParseError("expression nests too deeply", 0)
    return node


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


def addends(node):
    """The top-level addends of node, in order; a - b gives a and -b."""
    if isinstance(node, BinOp) and node.op in "+-":
        right = node.right if node.op == "+" else Neg(node.right)
        return addends(node.left) + [right]
    return [node]


def _literal(node):
    """The value of a number or a negated number, else None."""
    if isinstance(node, Neg):
        c = _literal(node.child)
        return None if c is None else -c
    return node.value if isinstance(node, Const) else None


def velocity_degree(node):
    """n with node(q, lam*v) = lam^n node(q, v) for every lam > 0, read
    from the syntax, or None where these rules give no finite n: v_j has
    1; q, parameters and numbers 0; negation and abs keep the degree; a
    product adds degrees, a quotient subtracts them, a sum needs them
    equal; x ^ c with a literal c has c * deg(x); sign of a known degree,
    a function of degree 0 and x ^ e with both of degree 0 have 0."""
    if isinstance(node, Vel):
        return 1.0
    if isinstance(node, (Coord, Param, Const)):
        return 0.0
    if isinstance(node, Neg):
        return velocity_degree(node.child)
    if isinstance(node, Call):  # every function takes one argument
        d = velocity_degree(node.args[0])
        if node.fn == "abs" or d is None:
            return d
        return 0.0 if d == 0.0 or node.fn == "sign" else None
    a, b = velocity_degree(node.left), velocity_degree(node.right)
    if a is None or b is None:
        return None
    if node.op == "^":
        c = _literal(node.right)
        n = c * a if c is not None else 0.0 if a == b == 0.0 else None
    else:
        n = {"*": a + b, "/": a - b}.get(node.op, a if a == b else None)
    return n if n is not None and math.isfinite(n) else None


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
# Compiled forward-mode path.
#
# Every evaluation (dynamics, quadrature, sampled checks, the helpers
# below) goes through code generated from the AST: straight-line
# arithmetic that propagates the value and the tangent components of one
# forward-mode pass. The one generator, _CodeGen, states the tangent rule
# once (combine: a node's tangent is the sum of partial * child tangent)
# and each function's value and derivative once (_FUNCTION_RULES);
# division keeps its own rule, and `^` has one rule for every exponent,
# literal or not: _cpow for the value, _cdpow and _cdbpow for the partials
# in base and exponent. Scalar code partially evaluates that rule for a
# literal exponent (_literal_pow): it keeps only the checks that can fire
# for it, and calls _cpow only for a base that one of them could reject.
# It emits calls to `math.*` and to the _c* helpers, which hold every
# branch and domain check. compile_expr runs that source on floats (scalar
# mode, for point evaluations); compile_blocks hands the scalar code of
# several expressions to one generated function, each expression still in
# its own overflow guard, and can hoist every parameter-only subexpression
# into separate lines, run once per parameter set (loop-invariant code
# motion). compile_array runs it against numpy (array mode), where `math.*`
# resolves to ufuncs and each _c* name to plain numpy arithmetic; its one
# consumer is the general-mode R quadrature. The scalar code decides every
# domain error and kink: a numpy flag in array mode only hands the points
# to it. An overflow raises EvalDomainError naming the whole expression:
# an OverflowError (math.exp, float **) in scalar mode, and in array mode
# any overflow that no domain error at an earlier point precedes; so does
# the ValueError of math.sin or math.cos at an infinite value. Generated
# code is cached by the values it is generated from, never by object:
# compiled() keeps the scalar code of equal ASTs once, and the models that
# raymodel generates are cached by their expressions in the same way. The
# code reads coordinate i and velocity i as the names q{i} and v{i}:
# scalar arguments of a generated function, or bound once at its head from
# the sequences q and v (unpack).


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


def _cpow(a, b, src):
    if a <= 0.0:
        # b % 1 is nonzero for a fractional b, NaN for a NaN or infinite b
        if a < 0.0 and (b % 1 or abs(b) >= 1e9):
            raise EvalDomainError(
                f"non-integer exponent {b} requires nonnegative base, "
                f"got {a}", src=src)
        if a == 0.0 and b < 0.0:
            raise EvalDomainError("zero base with negative exponent",
                                  src=src)
    return a ** b


def _cdpow(a, b):
    # d(a^b)/da; 0 at a = 0 unless b == 1 (kink convention)
    if a == 0.0:
        return 1.0 if b == 1 else 0.0
    return b * a ** (b - 1)


def _cdbpow(val, a, src):
    # d(a^b)/db, where val is a^b
    if a < 0.0:
        raise EvalDomainError(
            "derivative w.r.t. exponent needs positive base", src=src)
    return 0.0 if a == 0.0 else val * math.log(a)


def _coverflow(src):
    raise EvalDomainError("floating-point overflow", src=src) from None


def _cdomain(src):
    # the one ValueError the scalar helpers let through: math.sin and
    # math.cos of an infinite argument
    raise EvalDomainError("math domain error (sin or cos of an infinite "
                          "value)", src=src) from None


_COMPILE_GLOBALS = {
    "math": math, "_csgn": _csgn, "_cdiv0": _cdiv0, "_cln": _cln,
    "_csqrt": _csqrt, "_cdsqrt": _cdsqrt, "_cpow": _cpow, "_cdpow": _cdpow,
    "_cdbpow": _cdbpow, "_coverflow": _coverflow, "_cdomain": _cdomain,
}


# Array versions of the helpers above. They state no domain rule: array
# mode runs them under np.errstate, and a divide, invalid or overflow flag
# (or a ZeroDivisionError from Python floats) sends the points to the
# scalar code, which decides. A masked branch is computed only on elements
# where it is defined, so the zero-speed conventions raise no flag.


def _aany(bad):
    # ndarray.any skips np.any's dispatch; scalars come as (numpy) bools
    return bad.any() if isinstance(bad, np.ndarray) else bool(bad)


def _asgn(x):
    return np.where(x == 0.0, 0.0, np.copysign(1.0, x))


def _apow(a, b, src):
    # a NaN b or |b| >= 1e9 is non-integer to the scalar code, but numpy
    # raises a negative base to it without a flag; a Python float base
    # would turn complex, so it becomes a np.float64
    if isinstance(b, np.ndarray) or not abs(b) < 1e9:
        if _aany((a < 0.0) & ~(np.abs(b) < 1e9)):
            raise FloatingPointError
    return (a if isinstance(a, np.ndarray) else np.float64(a)) ** b


def _adpow(a, b):
    # a scalar b >= 1 gives the kink convention at a = 0 unmasked (0, or 1
    # for b == 1); any other b would flag 0 ** (b - 1), so a zero base is
    # masked. A negative base never gets here unless b is whole
    if not isinstance(b, np.ndarray) and b >= 1:
        return b * a ** (b - 1)
    zero = a == 0.0
    return np.where(zero, np.where(b == 1, 1.0, 0.0),
                    b * np.where(zero, 1.0, a) ** (b - 1))


def _adbpow(val, a, src):
    zero = a == 0.0
    return np.where(zero, 0.0, val * np.log(np.where(zero, 1.0, a)))


_ARRAY_GLOBALS = {
    "math": SimpleNamespace(sin=np.sin, cos=np.cos, exp=np.exp,
                            tanh=np.tanh),
    "_csgn": _asgn, "_cdiv0": lambda b, src: None,
    "_cln": lambda x, src: np.log(x), "_csqrt": lambda x, src: np.sqrt(x),
    "_cdsqrt": lambda val, src: 0.5 / val,
    "_cpow": _apow, "_cdpow": _adpow, "_cdbpow": _adbpow,
    "_coverflow": _coverflow,
}


# Value and derivative source of each function ({a} argument, {v} value,
# {src} source, {eps} smooth_eps; a derivative None is 0 by convention).
# With smooth_eps set, the "_eps" entries replace abs and sign.
_FUNCTION_RULES = {
    "sin": ("math.sin({a})", "math.cos({a})"),
    "cos": ("math.cos({a})", "-math.sin({a})"),
    "exp": ("math.exp({a})", "{v}"),
    "tanh": ("math.tanh({a})", "1.0 - {v} * {v}"),
    "ln": ("_cln({a}, {src})", "1.0 / {a}"),
    "sqrt": ("_csqrt({a}, {src})", "_cdsqrt({v}, {src})"),
    "abs": ("abs({a})", "_csgn({a})"),
    "sign": ("_csgn({a})", None),
    "abs_eps": ("abs({a})", "math.tanh({a} / {eps})"),
    "sign_eps": ("math.tanh({a} / {eps})", "(1.0 - {v} * {v}) / {eps}"),
}


class _CodeGen:
    def __init__(self, dof, wrt, smooth_eps, scalar=True, hoist=False,
                 prefix="t"):
        self.dof = dof
        self.wrt = wrt  # 'q' | 'v' | None
        self.smooth_eps = smooth_eps
        self.scalar = scalar  # False for array mode: no literal-power forms
        self.lines = []
        self.n = 0
        self.prefix = prefix  # of the temporaries' names
        # with hoist: the generator of the parameter-only subexpressions,
        # whose temporaries c0.. count apart, so that their lines and names
        # depend on the nodes alone, not on wrt; each block's constant
        # lines (in the block's own guard), and their value names
        self.hoisted = (_CodeGen(0, None, None, scalar, prefix="c") if hoist
                        else None)
        self.constants = []
        self.names = []

    def temp(self, expr):
        """Name of expr's value: expr itself when it is a lone name or a
        nonzero literal, else a new temporary."""
        if _NAME.fullmatch(expr) or _LITERAL.fullmatch(expr) and float(expr):
            return expr
        name = f"{self.prefix}{self.n}"
        self.n += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def block(self, node):
        """(lines, value, tangents) of node: the lines of gen(node) in a try
        statement that turns an OverflowError (math.exp or float **), and
        in scalar code a ValueError, into an EvalDomainError naming node
        (_guard). When hoisting, the lines of its
        parameter-only subexpressions go to self.constants instead, in a
        guard of their own that names node too."""
        self.lines = []
        if self.hoisted is not None:
            self.hoisted.lines = []
            self.hoisted.smooth_eps = self.smooth_eps
        val, g = self.gen(node)
        if self.hoisted is not None:
            self.constants += _guard(self.hoisted.lines, node, self.scalar)
        return _guard(self.lines, node, self.scalar), val, g

    def zeros(self):
        return ["0.0"] * (self.dof if self.wrt else 0)

    def any_grad(self, g):
        return any(x != "0.0" for x in g)

    def combine(self, *terms):
        """The forward-mode rule: tangent i of a node is the sum over the
        terms (op, factor, g) of factor * g[i], added (op '+') or subtracted
        ('-'), factor None standing for 1. A child tangent "0.0" is a
        structural zero, skipped: it never marks a tangent with a value."""
        out = []
        for xs in zip(*(g for _, _, g in terms)):
            parts = [(op, x if f is None else _times(f, x))
                     for (op, f, _), x in zip(terms, xs) if x != "0.0"]
            if not parts:
                out.append("0.0")
                continue
            (op, s), rest = parts[0], parts[1:]
            if op == "-" and not rest and _LITERAL.fullmatch(s):
                out.append(repr(-float(s)))  # -(1.0) is the literal -1.0
                continue
            out.append(self.temp((s if op == "+" else f"-({s})") + "".join(
                f" {o} {t}" for o, t in rest)))
        return out

    def gen(self, node):
        """Return (value expression, list of tangent expressions)."""
        if (self.hoisted is not None and not isinstance(node, Const)
                and not any(isinstance(n, (Coord, Vel)) for n in walk(node))):
            # a parameter-only subexpression: the hoisted generator's lines
            # (its tangents are all "0.0"), whose value name is read by the
            # lines that use it
            val, _ = self.hoisted.gen(node)
            self.names.append(val)
            return val, self.zeros()
        if isinstance(node, Const):
            return repr(node.value), self.zeros()
        if isinstance(node, (Coord, Vel)):
            x, g = "q" if isinstance(node, Coord) else "v", self.zeros()
            if self.wrt == x:  # the seed
                g[node.index - 1] = "1.0"
            return f"{x}{node.index - 1}", g
        if isinstance(node, Param):
            return self.temp(f"p[{node.name!r}]"), self.zeros()
        if isinstance(node, Neg):
            a, ga = self.gen(node.child)
            return self.temp(f"-({a})"), self.combine(("-", None, ga))
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
            return (self.temp(f"{a} {op} {b}"),
                    self.combine(("+", None, ga), (op, None, gb)))
        if op == "*":
            return (self.temp(f"{a} * {b}"),
                    self.combine(("+", b, ga), ("+", a, gb)))
        if op == "/":
            src = to_source(node)
            self.lines.append(f"_cdiv0({b}, {src!r})")
            val = self.temp(f"{a} / {b}")
            g = []
            for x, y in zip(ga, gb):
                if x == "0.0" and y == "0.0":
                    g.append("0.0")
                elif y == "0.0":
                    g.append(self.temp(f"{x} / {b}"))
                elif x == "0.0":
                    g.append(self.temp(f"-{_times(val, y)} / {b}"))
                else:
                    g.append(self.temp(f"({x} - {_times(val, y)}) / {b}"))
            return val, g
        raise AssertionError(op)

    def gen_pow(self, node):
        src = repr(to_source(node))
        a, ga = self.gen(node.left)
        b, gb = self.gen(node.right)
        p = node.right.value if isinstance(node.right, Const) else None
        if p is not None and float(p).is_integer() and abs(p) < 1e9:
            # numpy's integer fast path (arr ** 2); a float to an int is
            # the same double
            p = int(p)
            b = repr(p)
        if self.scalar and p is not None:
            val, da = _literal_pow(a, p, src)
        else:
            val, da = f"_cpow({a}, {b}, {src})", f"_cdpow({a}, {b})"
        val = self.temp(val)
        # a child without a tangent needs no partial: combine skips it
        da = self.temp(da) if self.any_grad(ga) else "0.0"
        db = (self.temp(f"_cdbpow({val}, {a}, {src})") if self.any_grad(gb)
              else "0.0")
        return val, self.combine(("+", da, ga), ("+", db, gb))

    def gen_call(self, node):
        a, ga = self.gen(node.args[0])
        eps = self.smooth_eps
        value, deriv = (eps and _FUNCTION_RULES.get(f"{node.fn}_eps")
                        or _FUNCTION_RULES[node.fn])
        fill = {"a": a, "src": repr(to_source(node)), "eps": repr(eps)}
        val = self.temp(value.format(**fill))
        if deriv is None or not self.any_grad(ga):
            return val, self.zeros()
        d = self.temp(deriv.format(v=val, **fill))
        return val, self.combine(("+", d, ga))


# the source of a lone name (a temporary, q{i} or v{i}) or a float's repr
_NAME = re.compile(r"[tcqv]\d+")
_LITERAL = re.compile(r"-?\d[\d.]*(e[-+]\d+)?")


def _times(a, x):
    """Source of the partial a times the tangent x, a term of combine's sum
    (or of division's rule): a itself when x is the seed 1.0, the same
    double bit for bit."""
    return a if x == "1.0" else f"{a} * {x}"


def _literal_pow(a, p, src):
    """Sources of _cpow(a, p, src) and _cdpow(a, p) for the literal
    exponent p (an int when whole and below 1e9), equal to them bit for bit
    with only the checks that can fire for p: a whole p >= 0 has none, a
    whole p < 0 rejects a zero base, and any other p calls _cpow for a base
    that is not > 0 (p < 0) or not >= 0 (a negative base or NaN). The
    partial keeps _cdpow's value at a zero base of either sign."""
    base = f"({a})" if a.startswith("-") else a
    power = f"{base} ** {p!r}"
    general = f"_cpow({a}, {p!r}, {src})"
    if isinstance(p, int):
        val = power if p >= 0 else f"{general} if {a} == 0.0 else {power}"
    else:
        val = f"{power} if {a} {'>' if p < 0 else '>='} 0.0 else {general}"
    pm1 = p - 1
    da = (f"{1.0 if p == 1 else 0.0!r} if {a} == 0.0 else {p!r} * "
          + (a if pm1 == 1 else f"{base} ** {pm1!r}"))
    return val, da


def _guard(lines, node, scalar=True):
    """lines in a try statement that turns an OverflowError (math.exp or
    float **), and in scalar code a ValueError (math.sin or math.cos of an
    infinite value), into an EvalDomainError naming node; no lines, no
    guard. Array mode meets those points as numpy flags instead."""
    if not lines:
        return []
    src = repr(to_source(node))
    return (["try:"] + [f"    {x}" for x in lines]
            + ["except OverflowError:", f"    _coverflow({src})"]
            + (["except ValueError:", f"    _cdomain({src})"] if scalar
               else []))


def _load(node, dof, wrt, smooth_eps, namespace, scalar=True):
    """Generate the source of _f(q, v, p) and execute it in namespace;
    scalar False gives array mode's source (no literal-power forms)."""
    lines, val, g = _CodeGen(dof, wrt, smooth_eps, scalar).block(node)
    if wrt:
        ret = f"return {val}, ({', '.join(g)}{',' if g else ''})"
    else:
        ret = f"return {val}"
    return define("_f(q, v, p)", unpack([node]) + lines + [ret], namespace)


def unpack(nodes):
    """The lines that bind q{i} and v{i}, the names by which the generated
    code reads a coordinate and a velocity, for each one that the nodes
    reference, from the sequences q and v: a generated function that takes
    sequences runs them once, at its head."""
    refs = sorted({("v" if isinstance(n, Vel) else "q", n.index - 1)
                   for node in nodes for n in walk(node)
                   if isinstance(n, (Coord, Vel))})
    return [f"{x}{i} = {x}[{i}]" for x, i in refs]


def define(signature, body, namespace=None, **names):
    """The function `def <signature>:` with the given body lines, executed
    with the scalar helpers (or namespace) and `names` as globals; its
    `source` attribute is the source text (for raydiss.native)."""
    ns = dict(_COMPILE_GLOBALS if namespace is None else namespace, **names)
    source = "\n    ".join([f"def {signature}:"] + body)
    exec(source, ns)
    fn = ns[signature.split("(")[0]]
    fn.source = source
    return fn


def compile_blocks(nodes, dof, wrt, smooth_eps=None, hoist=False):
    """(blocks, (constant lines, names)) for define(): the (lines, value,
    tangents) of each node's scalar code, with temporaries unique across
    all of the nodes, each node's code with smooth_eps[i] if given. With
    hoist, the lines of every parameter-only subexpression are left out of
    the blocks and make up the constant lines instead, which bind `names`,
    the values that the blocks read; each node's constant lines keep its
    own overflow guard. Without hoist both are empty."""
    cg = _CodeGen(dof, wrt, None, hoist=hoist)
    blocks = []
    for i, node in enumerate(nodes):
        cg.smooth_eps = smooth_eps[i] if smooth_eps else None
        blocks.append(cg.block(node))
    return blocks, (cg.constants, cg.names)


def compile_expr(node, dof=0, wrt=None, smooth_eps=None):
    """Uncached compiled evaluator: f(q, v, params) -> value, or
    (value, tangent tuple) when wrt is 'q' or 'v'."""
    return _load(node, dof, wrt, smooth_eps, _COMPILE_GLOBALS)


def compile_array(node, dof=0, wrt=None, smooth_eps=None):
    """Uncached array-mode evaluator: compile_expr's code evaluated at many
    points in one call. f(q, v, params) takes q as a sequence of scalars,
    shared by all points, and v as an array of shape (dof,) + S for points
    of shape S. Returns the value as an array of shape S, or (value,
    tangents of shape (dof,) + S) when wrt is 'q' or 'v'; parts that do
    not depend on the points are broadcast. The scalar code decides every
    domain error and kink: a numpy divide, invalid or overflow flag only
    hands the points to it (_scalar_pass), so an error is the scalar
    code's at the first offending point in flat order.
    """
    fn = _load(node, dof, wrt, smooth_eps, _ARRAY_GLOBALS, scalar=False)

    def f(q, v, p):
        shape = v.shape[1:]
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out = fn(q, v, p)
        except (FloatingPointError, ZeroDivisionError):
            out = _scalar_pass(node, dof, wrt, smooth_eps, q, v, p)
        if not wrt:
            return _abroadcast(out, shape)
        val, g = out
        tan = np.empty((len(g),) + shape)
        for i, x in enumerate(g):
            tan[i] = x
        return _abroadcast(val, shape), tan

    return f


def _scalar_pass(node, dof, wrt, smooth_eps, q, v, p):
    """Array mode's output from the scalar code, one point at a time in
    flat order, so the scalar code raises its own error at the first bad
    point. A non-finite result of finite points is an overflow."""
    fn = compiled(node, dof, wrt, smooth_eps)
    q, shape = tuple(float(x) for x in q), v.shape[1:]
    out = [fn(q, tuple(x), p) for x in v.reshape(len(v), -1).T.tolist()]
    val = np.reshape([o[0] if wrt else o for o in out], shape)
    tan = (np.moveaxis(np.reshape([o[1] for o in out], shape + (dof,)),
                       -1, 0) if wrt else 0.0)
    if not (np.isfinite(val).all() and np.isfinite(tan).all()):
        _coverflow(to_source(node))
    return (val, tan) if wrt else val


def _abroadcast(x, shape):
    return x if np.shape(x) == shape else np.broadcast_to(x, shape)


# compile_expr of equal ASTs (Const compares by repr), kept for the last
# 256 keys: the helpers below and the scalar passes share it.
compiled = lru_cache(maxsize=256)(compile_expr)


# ---------------------------------------------------------------------------
# Public evaluation API


def evaluate(e: ExprNode, ctx: EvalContext) -> float:
    """Evaluate e at ctx in IEEE doubles."""
    return compiled(e)(ctx.q, ctx.v, ctx.params)


def grad_v(e: ExprNode, ctx: EvalContext, smooth_eps=None) -> np.ndarray:
    """Exact forward-mode gradient of e w.r.t. all velocity components."""
    _, g = compiled(e, ctx.dof, "v", smooth_eps)(ctx.q, ctx.v, ctx.params)
    return np.array(g)


def grad_q(e: ExprNode, ctx: EvalContext) -> np.ndarray:
    """Exact forward-mode gradient of e w.r.t. all coordinates."""
    _, g = compiled(e, ctx.dof, "q", None)(ctx.q, ctx.v, ctx.params)
    return np.array(g)


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
