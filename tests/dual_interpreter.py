"""Tree-walking dual-number interpreter: the test oracle for the compiled
expression code.

It states the expression domain rules and the kink conventions a second
time, independently of `raydiss.exprcore._CodeGen`, by walking the AST over
floats or first-order dual numbers. The tests compare the scalar compiled
code and array mode against it, at valid points and at domain errors.
"""

import math

import numpy as np

from raydiss.exprcore import (BinOp, BindError, Call, Const, Coord,
                              EvalDomainError, Neg, Param, Vel, to_source)


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


def _domain_error(message, node):
    return EvalDomainError(message, to_source(node))


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
                raise _domain_error("division by zero", node)
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
            raise _domain_error(
                f"non-integer exponent {bv} requires nonnegative base, "
                f"got {av}", node)
        if av == 0.0 and bv < 0.0:
            raise _domain_error("zero base with negative exponent", node)
        val = av ** bv
        if not _is_dual(a, b):
            return val
        if av == 0.0:
            # d(x^n)/dx at 0: n>1 -> 0; n==1 -> 1; 0<n<1 kink -> 0 by the
            # same convention as sign(0)=0.
            return Dual(val, self.tan(a) if bv == 1.0 else self.zero)
        # d(a^b) = b*a^(b-1)*a' + a^b*ln(a)*b', each partial formed only
        # when its operand carries a tangent
        dv = bv * av ** (bv - 1.0) * a.tan if isinstance(a, Dual) \
            else self.zero
        if isinstance(b, Dual):
            if av <= 0.0:
                raise _domain_error(
                    "derivative w.r.t. exponent needs positive base", node)
            dv = dv + val * math.log(av) * b.tan
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
                raise _domain_error(f"ln of non-positive value {xv}", node)
            f, d = math.log(xv), 1.0 / xv
        elif fn == "sqrt":
            if xv < 0.0:
                raise _domain_error(f"sqrt of negative value {xv}", node)
            f = math.sqrt(xv)
            if isinstance(x, Dual) and xv == 0.0:
                raise _domain_error("sqrt derivative at zero", node)
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


def evaluate_interpreted(e, ctx):
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
