"""The generated integration loop compiled to C, bit for bit, and repr of
many floats compiled to C, byte for byte.

kernel() transliterates the syntax trees of dynamics' generated loop and
of a system model's generated rhs, statement by statement, into one C
function per (system code, method), builds it with the host's C compiler
(`cc` on PATH) under CFLAGS and loads it with ctypes. It takes the loop's
arguments and appends the same rows: each float operation in the Python
code's order, each correctly rounded, and the C library's sin, cos, tanh,
exp, log, sqrt and pow, as CPython's math module and float ** call them.
-fno-builtin keeps each call a call (GCC folds pow(x, 2.0) into x * x,
which differs in the last bit at some x), -ffp-contract=off rounds each
product before its sum, float literals are C99 hex floats, ** is
CPython's float_pow with its special cases, and exprcore's _c* helpers
are restated in C. Params and constants go in as arrays: no text of a
config reaches the C source.

Where the Python code raises, C has a status: a raise, _diverged, a
helper's domain check, a division by zero, or an FE_OVERFLOW, FE_INVALID
or FE_DIVBYZERO flag (how C meets an overflow of exp or pow, or a sine of
an infinity). On a status the kernel returns None and integrate reruns
the Python loop from the start, which raises the error with its type and
message, or, where a flag was harmless, makes the same rows. A sign term
under smooth_eps (_value{i}) or a graded-rule rest (_quad) calls Python,
so its system keeps the Python loop, as every system does on a host
whose compiler is missing or fails.

A build costs about BUILD_S and saves about SAVED_S per RHS call, so a
system code (its rhs source) gets its kernel once it has made THRESHOLD
Python RHS calls in the process (count()): a shorter process never
compiles.

formatter() writes rows of doubles as cli's trajectory CSV and plot-data
files join their repr: the shortest digits that read back to each double,
the nearest of those and on a tie the even one, by Ryu (Adams, PLDI
2018), whose 128-bit tables of powers of five are computed with Python's
integers when the C is built, and repr's layout. It follows the kernel's
rules: one build per process, once the process has formatted
FORMAT_THRESHOLD values by repr (count_values()), and without a compiler
repr writes every file.
"""

from __future__ import annotations

import ast

# measured with gcc 12 on a 2-core x86-64 host: a build takes 0.1-0.17 s,
# and an RHS call of a pendulum costs 3.3 us in the Python loop and 0.3 us
# in the kernel, rows included (damped_sho: 0.85 and 0.16 us)
BUILD_S = 0.15
SAVED_S = 2e-6
THRESHOLD = round(BUILD_S / SAVED_S)
CFLAGS = ("-O2", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC")

_calls = {}    # rhs source -> Python RHS calls made in this process
_kernels = {}  # (rhs source, loop source) -> kernel, or None


class Untranslatable(Exception):
    """Source outside the subset that translates to C."""


def count(model, calls):
    """Add `calls` Python RHS calls to the count of model's code."""
    code = getattr(model.rhs, "source", None)
    if code is not None:
        _calls[code] = _calls.get(code, 0) + calls


def kernel(loop, model):
    """The compiled generated `loop` on model's code, called as the loop,
    which returns None on a status; built on first use once the code has
    made THRESHOLD Python RHS calls. None before that, and where the code
    does not translate or no compiler builds it."""
    code = getattr(model.rhs, "source", None)
    if code is None or _calls.get(code, 0) < THRESHOLD:
        return None
    key = (code, loop.source)
    if key not in _kernels:
        try:
            _kernels[key] = _build(translate(loop, model.rhs), loop)
        except (Untranslatable, OSError):
            _kernels[key] = None
    return _kernels[key]


# CPython's float_pow and exprcore's helpers, each error a status (*st),
# and min and max as Python's, which keep the first of equals and NaNs
_PRELUDE = r"""#include <fenv.h>
#include <math.h>
#include <stdlib.h>
#define FLAGS (FE_OVERFLOW | FE_INVALID | FE_DIVBYZERO)
#define ABS __builtin_fabs
typedef long long i64;
static inline double py_pow(double x, double y, int *st) {
    int odd, neg = 0;
    if (y == 0.0) return 1.0;
    if (isnan(x)) return x;
    if (isnan(y)) return x == 1.0 ? 1.0 : y;
    if (isinf(y)) {
        if (ABS(x) == 1.0) return 1.0;
        return (y > 0.0) == (ABS(x) > 1.0) ? ABS(y) : 0.0;
    }
    odd = __builtin_fmod(ABS(y), 2.0) == 1.0;
    if (isinf(x)) return y > 0.0 ? (odd ? x : ABS(x))
                                 : (odd ? __builtin_copysign(0.0, x) : 0.0);
    if (x == 0.0) { if (y < 0.0) *st = 1; return odd ? x : 0.0; }
    if (x < 0.0) {
        if (y != __builtin_floor(y)) { *st = 1; return 0.0; }
        x = -x; neg = odd;
    }
    if (x == 1.0) return neg ? -1.0 : 1.0;
    x = pow(x, y);
    return neg ? -x : x;
}
static inline double py_div(double a, double b, int *st)
{ if (b == 0.0) *st = 1; return a / b; }
static inline i64 py_mod(i64 a, i64 b, int *st)
{ if (b == 0) { *st = 1; return 0; } return ((a % b) + b) % b; }
static inline double py_min(double a, double b) { return b < a ? b : a; }
static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double c_sgn(double x)
{ return x == 0.0 ? 0.0 : __builtin_copysign(1.0, x); }
static inline void c_div0(double b, int *st) { if (b == 0.0) *st = 1; }
static inline double c_ln(double x, int *st)
{ if (x <= 0.0) { *st = 1; return 0.0; } return log(x); }
static inline double c_sqrt(double x, int *st)
{ if (x < 0.0) { *st = 1; return 0.0; } return sqrt(x); }
static inline double c_dsqrt(double v, int *st)
{ if (v == 0.0) *st = 1; return 0.5 / v; }
static inline double c_pow(double a, double b, int *st) {
    if ((a < 0.0 && (!isfinite(b) || b != __builtin_floor(b)
                     || ABS(b) >= 1e9)) || (a == 0.0 && b < 0.0)) *st = 1;
    return *st ? 0.0 : py_pow(a, b, st);
}
static inline double c_dpow(double a, double b, int *st)
{ return a == 0.0 ? (b == 1.0 ? 1.0 : 0.0) : b * py_pow(a, b - 1.0, st); }
static inline double c_dbpow(double val, double a, int *st)
{ if (a < 0.0) *st = 1; return a < 0.0 || a == 0.0 ? 0.0 : val * log(a); }
static double *row(double **rows, i64 *n, i64 *cap, int width) {
    double *grown;
    if (*n == *cap) {
        grown = realloc(*rows, (*cap * 2 + 64) * width * sizeof(double));
        if (!grown) return 0;
        *rows = grown;
        *cap = *cap * 2 + 64;
    }
    return *rows + (*n)++ * width;
}
void rd_free(double *rows) { free(rows); }
"""

# Python callee -> C function; a trailing * passes the status
_CALLS = {"math.sin": "sin", "math.cos": "cos", "math.tanh": "tanh",
          "math.exp": "exp", "math.sqrt": "sqrt", "math.log": "log",
          "abs": "ABS", "isfinite": "isfinite", "_csgn": "c_sgn",
          "_cdiv0": "c_div0*", "_cln": "c_ln*", "_csqrt": "c_sqrt*",
          "_cdsqrt": "c_dsqrt*", "_cpow": "c_pow*", "_cdpow": "c_dpow*",
          "_cdbpow": "c_dbpow*", "min": "py_min", "max": "py_max"}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Eq: "==",
        ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
        ast.GtE: ">=", ast.And: " && ", ast.Or: " || "}
_C_TYPES = {"d": "double", "i": "i64"}
# the loop's arguments, and which of its inputs (expressions of them that
# the caller evaluates) are ints; the others are floats
_LOOP_ARGS = ["t", "y", "t_end", "cfg", "model", "rows"]
_MODEL = ["model.rhs", "model.params", "model.c"]  # the loop binds them
_INT_INPUTS = ("cfg.max_steps", "cfg.sample_every")


class _Function:
    """The C body of one generated function: a Python local x is the C
    local _x, of kind "d" (double) or "i" (i64) by its first assignment,
    a float argument is one too, and a raise is the C statement `fail`."""

    def __init__(self, fn, fail):
        self.tree = ast.parse(fn.source).body[0]
        self.fail = fail
        self.types = {}
        self.assigned, self.loops = set(), 0
        self.arrays = {}  # Python name -> C array
        self.params, self.inputs = [], []  # p[...] names; input sources
        self.rhs = self.push = self.width = self.outputs = None

    def lines(self, args):
        """The C body; args are the float arguments, which take no
        declaration."""
        self.types.update(dict.fromkeys(args, "d"))
        body = self.block(self.tree.body, "    ")
        return ["    %s _%s = 0;" % (_C_TYPES[k], x)
                for x, k in self.types.items() if x not in args] + body

    def block(self, stmts, indent):
        return [indent + x for s in stmts for x in self.stmt(s)]

    def set(self, name, kind):
        if self.types.setdefault(name, kind) != kind:
            raise Untranslatable(f"{name} changes type")
        self.assigned.add(name)
        return f"_{name}"

    def stmt(self, s):
        if isinstance(s, ast.Assign):
            return self.assign(s.targets, s.value)
        if isinstance(s, ast.AugAssign) and type(s.op) in _OPS:
            value, kind = self.expr(s.value)
            x = s.target.id
            if self.types.get(x) != kind:
                raise Untranslatable(ast.unparse(s))
            return [f"_{x} {_OPS[type(s.op)]}= {value};"]
        if isinstance(s, ast.If):
            orelse = self.block(s.orelse, "    ")
            return [f"if ({self.expr(s.test)[0]}) {{",
                    *self.block(s.body, "    "),
                    *(["} else {", *orelse] if orelse else []), "}"]
        if isinstance(s, ast.While) and not s.orelse:
            self.loops += 1
            body = self.block(s.body, "    ")
            self.loops -= 1
            return [f"while ({self.expr(s.test)[0]}) {{", *body,
                    "    if (st || fetestexcept(FLAGS)) goto fail;", "}"]
        if isinstance(s, ast.Try) and not (s.orelse or s.finalbody):
            # its handlers turn one error into another: a status either way
            return self.block(s.body, "")
        if isinstance(s, ast.Raise):
            return [self.fail]
        if isinstance(s, ast.Return):
            values = [self.expr(e)[0] for e in s.value.elts]
            if self.fail == "goto fail;":  # the loop's counters
                return ["if (st || fetestexcept(FLAGS)) goto fail;",
                        *[f"counts[{i}] = {v};" for i, v in enumerate(values)],
                        "return 0;"]
            self.outputs = len(values)
            return [f"o[{i}] = {v};" for i, v in enumerate(values)] + [
                "return st;"]
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call):
            name = ast.unparse(s.value.func)
            if name == "_diverged":
                return [self.fail]
            if name == self.push:
                return self.append([self.expr(e)[0]
                                    for e in s.value.args[0].elts])
            return [self.expr(s.value)[0] + ";"]
        raise Untranslatable(ast.unparse(s))

    def assign(self, targets, value):
        src = ast.unparse(value)
        if src == "rows.append":
            self.push = targets[0].id
            return []
        if isinstance(value, ast.Tuple) and [ast.unparse(x) for x in
                                             value.elts] == _MODEL:
            self.rhs, p, c = (x.id for x in targets[0].elts)
            self.arrays.update({p: "p", c: "c"})
            return []
        if not isinstance(targets[0], ast.Tuple):  # x = value, x = y = value
            value, kind = self.expr(value)
            return ["".join(self.set(x.id, kind) + " = " for x in targets)
                    + value + ";"]
        names = [x.id for x in targets[0].elts]
        if isinstance(value, ast.Name) and value.id in self.arrays:
            return [f"{self.set(x, 'd')} = {self.arrays[value.id]}[{i}];"
                    for i, x in enumerate(names)]
        if isinstance(value, ast.Call) and ast.unparse(value.func) == self.rhs:
            args = [self.arrays.get(getattr(a, "id", None)) or self.expr(a)[0]
                    for a in value.args]
            return [f"if (rhs({', '.join(args)}, o)) goto fail;"] + [
                f"{self.set(x, 'd')} = o[{i}];" for i, x in enumerate(names)]
        # a parallel assignment: every value before any name changes
        values = [self.expr(e) for e in value.elts]
        return ["{ " + " ".join(
            f"{_C_TYPES[k]} p{i} = {v};" for i, (v, k) in enumerate(values))
            + " " + " ".join(f"{self.set(x, k)} = p{i};" for i, (x, (_, k))
                             in enumerate(zip(names, values))) + " }"]

    def expr(self, n):
        """(C source, kind) of the expression n."""
        if isinstance(n, ast.Constant) and type(n.value) is int:
            return f"{n.value}LL", "i"
        if isinstance(n, ast.Constant) and type(n.value) is float:
            return float.hex(n.value), "d"
        if isinstance(n, ast.Name) and n.id in self.types:
            return f"_{n.id}", self.types[n.id]
        if isinstance(n, ast.UnaryOp) and type(n.op) in (ast.USub, ast.Not):
            value, kind = self.expr(n.operand)
            return ((f"(-{value})", kind) if isinstance(n.op, ast.USub)
                    else (f"(!{value})", "i"))
        if isinstance(n, ast.BoolOp):
            return "(%s)" % _OPS[type(n.op)].join(
                self.expr(x)[0] for x in n.values), "i"
        if isinstance(n, ast.Compare) and len(n.ops) == 1:
            a, b = self.expr(n.left)[0], self.expr(n.comparators[0])[0]
            return f"({a} {_OPS[type(n.ops[0])]} {b})", "i"
        if isinstance(n, ast.IfExp):
            (a, ka), (b, kb) = self.expr(n.body), self.expr(n.orelse)
            return (f"({self.expr(n.test)[0]} ? {a} : {b})",
                    "i" if ka == kb == "i" else "d")
        if isinstance(n, ast.BinOp):
            return self.binop(n)
        if (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and self.arrays.get(n.value.id) == "p"
                and isinstance(n.slice, ast.Constant)):
            if n.slice.value not in self.params:
                self.params.append(n.slice.value)
            return f"p[{self.params.index(n.slice.value)}]", "d"
        src = ast.unparse(n)
        if src.startswith(("cfg.", "check_span(")):
            return self.input(n, src)
        fn = _CALLS.get(ast.unparse(n.func)) if isinstance(
            n, ast.Call) else None
        if fn is None:
            raise Untranslatable(src)
        # exprcore's helpers take the source text last: C does not
        args = [self.expr(a) for a in n.args
                if not isinstance(a, ast.Constant) or type(a.value) is not str]
        if fn in ("py_min", "py_max"):  # of floats, folded left
            if any(k != "d" for _, k in args):
                raise Untranslatable(src)
            value = args[0][0]
            for b, _ in args[1:]:
                value = f"{fn}({value}, {b})"
            return value, "d"
        out = [a for a, _ in args] + (["&st"] if fn.endswith("*") else [])
        return (f"{fn.rstrip('*')}({', '.join(out)})",
                "i" if fn == "isfinite" else "d")

    def binop(self, n):
        (a, ka), (b, kb) = self.expr(n.left), self.expr(n.right)
        op, ints = type(n.op), ka == kb == "i"
        if op in _OPS:
            return f"({a} {_OPS[op]} {b})", "i" if ints else "d"
        if op is ast.Mod and ints:
            return f"py_mod({a}, {b}, &st)", "i"
        if op is ast.Pow and not ints:
            return f"py_pow({a}, {b}, &st)", "d"
        if op is ast.Div and not ints:
            if isinstance(n.right, ast.Constant) and n.right.value:
                return f"({a} / {b})", "d"
            return f"py_div({a}, {b}, &st)", "d"
        raise Untranslatable(ast.unparse(n))

    def input(self, n, src):
        """The C slot (fin[i] or iin[i]) of src's value, which the caller
        evaluates first: the same value here only for an expression of the
        loop's t, t_end and cfg, read before any is assigned and, unless
        of cfg alone, outside the while loop."""
        names = {x.id for a in getattr(n, "args", [n]) for x in ast.walk(a)
                 if isinstance(x, ast.Name)}
        if (not names <= {"cfg", "t", "t_end"} or names & self.assigned
                or self.loops and names != {"cfg"}):
            raise Untranslatable(src)
        if src not in self.inputs:
            self.inputs.append(src)
        ints = src in _INT_INPUTS
        slots = [x for x in self.inputs if (x in _INT_INPUTS) == ints]
        return (f"iin[{slots.index(src)}]", "i") if ints else (
            f"fin[{slots.index(src)}]", "d")

    def append(self, values):
        if self.width not in (None, len(values)):
            raise Untranslatable("rows of two widths")
        self.width = len(values)
        return [f"if (!(r = row(rows, nrows, &cap, {self.width}))) goto fail;",
                *[f"r[{i}] = {v};" for i, v in enumerate(values)]]


def translate(loop, rhs):
    """(C source, rhs's params, the loop's inputs, row width) of the
    generated `loop` calling the model's generated `rhs`; raises
    Untranslatable on code outside the subset."""
    f = _Function(rhs, "return 1;")
    *scalars, p, c = [a.arg for a in f.tree.args.args]
    f.arrays.update({p: "p", c: "c"})
    rhs_body = f.lines(scalars)
    g = _Function(loop, "goto fail;")
    if [a.arg for a in g.tree.args.args] != _LOOP_ARGS:
        raise Untranslatable(loop.source.split(":")[0])
    g.arrays["y"] = "y"
    loop_body = g.lines(["t", "t_end"])
    if not (g.width and f.outputs):
        raise Untranslatable("no rows or no rhs call")
    return "\n".join([
        _PRELUDE, "static int rhs(%s, const double *p, const double *c, "
        "double *o) {" % ", ".join(f"double _{x}" for x in scalars),
        "    int st = 0;", *rhs_body, "}",
        "int rd_loop(double _t, const double *y, double _t_end, const double"
        " *fin, const i64 *iin, const double *p, const double *c, double "
        "**rows, i64 *nrows, i64 *counts) {",
        "    int st = 0;", "    i64 cap = 0;", "    double *r;",
        f"    double o[{f.outputs}];", "    *rows = 0;", "    *nrows = 0;",
        "    feclearexcept(FE_ALL_EXCEPT);", *loop_body, "fail:",
        "    free(*rows);", "    *rows = 0;", "    return 1;", "}", ""]
    ), f.params, g.inputs, g.width


def _compile(source):
    """source built with CFLAGS and loaded, or None where no compiler
    builds it."""
    import ctypes
    import os
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return None
    tmp = tempfile.mkdtemp(prefix="raydiss-")
    try:
        c_file, lib_file = (os.path.join(tmp, x) for x in ("k.c", "k.so"))
        with open(c_file, "w", encoding="utf-8") as f:
            f.write(source)
        if subprocess.run([cc, *CFLAGS, "-o", lib_file, c_file, "-lm"],
                          capture_output=True, timeout=300,
                          check=False).returncode:
            return None
        return ctypes.CDLL(lib_file)  # stays mapped once its file is gone
    except subprocess.SubprocessError:
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _build(translation, loop):
    """The kernel of a translation, or None where no compiler builds it."""
    import ctypes

    source, params, inputs, width = translation
    lib = _compile(source)
    if lib is None:
        return None
    d, i = ctypes.c_double, ctypes.c_longlong
    dp, ip = ctypes.POINTER(d), ctypes.POINTER(i)
    run, free = lib.rd_loop, lib.rd_free
    run.argtypes = [d, dp, d, dp, ip, dp, dp, ctypes.POINTER(dp), ip, ip]
    run.restype, free.argtypes, free.restype = ctypes.c_int, [dp], None
    ints = [x for x in inputs if x in _INT_INPUTS]
    read = eval("lambda t, t_end, cfg: ([%s], [%s])" % (", ".join(
        x for x in inputs if x not in ints), ", ".join(ints)),
        loop.__globals__)

    def compiled(t, y, t_end, cfg, model, rows):
        # model.c raises where the Python loop's first line would
        fin, iin = read(t, t_end, cfg)
        p, c = [model.params[x] for x in params], model.c
        if not (all(type(x) is float for x in [t, t_end, *y, *fin, *p, *c])
                and all(type(x) is int for x in iin)):
            return None
        # the counters stay far below 2^62, where a larger int acts the same
        iin = [min(x, 1 << 62) for x in iin]
        out, n, counts = dp(), i(), (i * 3)()
        if run(t, (d * len(y))(*y), t_end, (d * len(fin))(*fin),
               (i * len(iin))(*iin), (d * len(p))(*p), (d * len(c))(*c),
               ctypes.byref(out), ctypes.byref(n), counts):
            return None
        flat = out[:n.value * width]
        free(out)
        rows.extend(flat[k:k + width] for k in range(0, len(flat), width))
        return tuple(counts)
    return compiled


# ---------------------------------------------------------------------------
# The row formatter: repr's text of many floats in one call

# measured with gcc 12 on a 2-core x86-64 host: a build takes about 0.15 s,
# and repr of a double 0.2-1.0 us (0.6 us on a sweep member's rows)
# against about 0.1 us compiled, the flattening into an array included
FORMAT_BUILD_S = 0.15
FORMAT_SAVED_S = 5e-7
FORMAT_THRESHOLD = round(FORMAT_BUILD_S / FORMAT_SAVED_S)
FORMAT_WIDTH = 25  # bytes a value and its separator take at most

_formatted = [0]   # values formatted by repr in this process
_formatter = []    # [the compiled formatter, or None] once built


def count_values(n):
    """Add n values that repr formatted to the count of the process."""
    _formatted[0] += n


def formatter():
    """The compiled formatter, built on first use once the process has
    formatted FORMAT_THRESHOLD values by repr, called as

        fmt(flat, stride, cols, sep) -> str

    on an array('d') of rows of `stride` entries each: one line per row,
    the entries at the indices cols, each as repr writes it, joined by
    the one-character sep. None before that, and where no compiler
    builds it."""
    if _formatted[0] < FORMAT_THRESHOLD:
        return None
    if not _formatter:
        _formatter.append(_build_formatter())
    return _formatter[0]


def _pow5_tables():
    """Ryu's tables as C (Adams, PLDI 2018): 5^i scaled to 125 bits, and
    2^(bits(5^i) + 124) / 5^i rounded up, each as {low, high} 64-bit
    words, computed with exact integers."""
    def table(name, values):
        return "static const unsigned long long %s[%d][2] = {\n%s};\n" % (
            name, len(values), "".join(
                "{%du, %du},\n" % (x & (1 << 64) - 1, x >> 64)
                for x in values))
    powers = [5 ** i for i in range(342)]
    return (table("POW5", [p << 125 >> p.bit_length() for p in powers[:326]])
            + table("POW5_INV", [(1 << p.bit_length() + 124) // p + 1
                                 for p in powers]))


# Ryu's shortest digits (d2d, its general loop for every value) and repr's
# layout: fixed notation for decimal exponents -4 to 15, with .0 on a
# whole number, e+XX or e-XX otherwise
_FORMAT = r"""
typedef unsigned long long u64;
typedef long long i64;
typedef unsigned __int128 u128;
static int pow5bits(int e) { return (int)((unsigned)e * 1217359u >> 19) + 1; }
static int log10_pow2(int e) { return (int)((unsigned)e * 78913u >> 18); }
static int log10_pow5(int e) { return (int)((unsigned)e * 732923u >> 20); }
static u64 mul_shift(u64 m, const u64 *mul, int j) {
    u128 b0 = (u128)m * mul[0], b2 = (u128)m * mul[1];
    return (u64)(((b0 >> 64) + b2) >> (j - 64));
}
static int pow5_factor(u64 v) {
    int n = 0;
    for (; v % 5 == 0; v /= 5) n++;
    return n;
}
/* the shortest digits of the finite nonzero double of bits b that read
   back to it, the nearest to it among those, a tie to the even one; *e10
   is the decimal exponent of their last digit */
static u64 shortest(u64 b, int *e10) {
    u64 mant = b & ((1ULL << 52) - 1), m2, mv, vr, vp, vm;
    int exp = (int)(b >> 52 & 0x7ff), e2, q, i, removed = 0, last = 0;
    int mm_shift = mant != 0 || exp <= 1, even, vm_zeros = 0, vr_zeros = 0;
    e2 = (exp ? exp : 1) - 1077;
    m2 = exp ? mant | 1ULL << 52 : mant;
    even = !(m2 & 1);
    mv = 4 * m2;
    if (e2 >= 0) {
        q = log10_pow2(e2) - (e2 > 3);
        i = -e2 + q + 124 + pow5bits(q);
        *e10 = q;
        vr = mul_shift(mv, POW5_INV[q], i);
        vp = mul_shift(mv + 2, POW5_INV[q], i);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV[q], i);
        if (q <= 21) {
            if (mv % 5 == 0) vr_zeros = pow5_factor(mv) >= q;
            else if (even) vm_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else vp -= pow5_factor(mv + 2) >= q;
        }
    } else {
        q = log10_pow5(-e2) - (-e2 > 1);
        i = -e2 - q;
        *e10 = q + e2;
        vr = mul_shift(mv, POW5[i], q - pow5bits(i) + 125);
        vp = mul_shift(mv + 2, POW5[i], q - pow5bits(i) + 125);
        vm = mul_shift(mv - 1 - mm_shift, POW5[i], q - pow5bits(i) + 125);
        if (q <= 1) {
            vr_zeros = 1;
            if (even) vm_zeros = mm_shift == 1;
            else vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ULL << q) - 1)) == 0;
        }
    }
    for (; vp / 10 > vm / 10; removed++) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10, vp /= 10, vm /= 10;
    }
    if (vm_zeros)
        for (; vm % 10 == 0; removed++) {
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10, vp /= 10, vm /= 10;
        }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* exactly half-way: to the even digit */
    *e10 += removed;
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}
static char *put(char *o, const char *s) {
    while (*s) *o++ = *s++;
    return o;
}
/* repr(x) at o; the end of its text */
static char *repr(char *o, double x) {
    union { double d; u64 u; } b = {x};
    char d[20];
    u64 v;
    int n = 0, k, e;
    if ((b.u >> 52 & 0x7ff) == 0x7ff)
        return put(o, b.u << 12 ? "nan" : b.u >> 63 ? "-inf" : "inf");
    if (b.u >> 63) *o++ = '-';
    if (!(b.u << 1)) return put(o, "0.0");
    for (v = shortest(b.u, &e); v; v /= 10) d[19 - n++] = (char)('0' + v % 10);
    e += n;  /* the digits are 0.d1d2... times 10^e */
    if (e > -4 && e <= 16) {
        if (e <= 0) {
            o = put(o, "0.");
            for (k = e; k < 0; k++) *o++ = '0';
        }
        for (k = 0; k < n || k < e; k++) {
            if (k == e && k) *o++ = '.';
            *o++ = k < n ? d[20 - n + k] : '0';
        }
        if (e >= n) o = put(o, ".0");
        return o;
    }
    *o++ = d[20 - n];
    if (n > 1) *o++ = '.';
    for (k = 1; k < n; k++) *o++ = d[20 - n + k];
    *o++ = 'e';
    *o++ = e > 0 ? '+' : '-';
    e = e > 0 ? e - 1 : 1 - e;
    if (e >= 100) *o++ = (char)('0' + e / 100);
    *o++ = (char)('0' + e / 10 % 10);
    *o++ = (char)('0' + e % 10);
    return o;
}
i64 rd_format(const double *x, i64 rows, i64 stride, const i64 *cols,
              i64 ncols, char sep, char *out) {
    char *o = out;
    i64 r, j;
    for (r = 0; r < rows; r++, x += stride) {
        for (j = 0; j < ncols; j++) {
            if (j) *o++ = sep;
            o = repr(o, x[cols[j]]);
        }
        *o++ = '\n';
    }
    return o - out;
}
"""


def _build_formatter():
    """The compiled formatter (see formatter()), or None where no compiler
    builds it."""
    import ctypes

    lib = _compile(_pow5_tables() + _FORMAT)
    if lib is None:
        return None
    d, i = ctypes.c_double, ctypes.c_longlong
    run = lib.rd_format
    run.argtypes = [ctypes.POINTER(d), i, i, ctypes.POINTER(i), i,
                    ctypes.c_char, ctypes.c_char_p]
    run.restype = i

    def fmt(flat, stride, cols, sep):
        rows, left = divmod(len(flat), stride)
        if (left or not cols or len(sep) != 1
                or not all(0 <= j < stride for j in cols)):
            raise ValueError("rows of another width, or bad columns")
        if not rows:
            return ""
        out = ctypes.create_string_buffer(rows * len(cols) * FORMAT_WIDTH)
        n = run((d * len(flat)).from_buffer(flat), rows, stride,
                (i * len(cols))(*cols), len(cols), sep.encode(), out)
        return ctypes.string_at(out, n).decode("ascii")
    return fmt
