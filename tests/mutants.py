"""Mutant gate: the tests must kill a fixed list of wrong models.

    python tests/mutants.py [NAME ...]

Each mutant is one edit of `src/`: an exact old text, which must occur
exactly once in `src/`, and the new text that replaces it, with the test
files that must then fail. For each mutant (all of them, or the named
ones) the script copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, applies the edit there and runs pytest on the
selection, which imports raydiss from that copy. The unmutated copy must
pass every selection first, so that a broken environment cannot count as
a kill. The exit code is 0 only if every mutant is killed.

A mutant that survives is a missing test: add the test that kills it; do
not drop the mutant. Only the standard library is used; pytest, numpy and
hypothesis must be installed. tests/test_mutants.py checks, in tier-1,
that every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 900

Mutant = namedtuple("Mutant", "name path old new tests")

ACCEPT = ("tests/test_acceptance.py", "tests/test_audit.py")
NATIVE = ("tests/test_native.py",)

MUTANTS = (
    Mutant("grad_R_v scaled by 1.01", "raydiss/raymodel.py",
           'body += [f"{x} += {y} / {deg}" for x, y in zip(g, dv)]',
           'body += [f"{x} += 1.01 * {y} / {deg}" for x, y in zip(g, dv)]',
           ACCEPT),
    Mutant("grad_R_v sign flipped", "raydiss/raymodel.py",
           'body += [f"{x} += {y} / {deg}" for x, y in zip(g, dv)]',
           'body += [f"{x} -= {y} / {deg}" for x, y in zip(g, dv)]',
           ACCEPT),
    Mutant("R = D/(n+1)", "raydiss/raymodel.py",
           'f"R += d / {deg}"', 'f"R += d / ({deg} + 1)"', ACCEPT),
    Mutant("probe R lines divide a term by degree + 1", "raydiss/raymodel.py",
           'f"R += {val} / {float(t.degree)!r}"',
           'f"R += {val} / ({float(t.degree)!r} + 1)"',
           ("tests/test_raymodel.py", "tests/test_audit.py")),
    Mutant("no dM/dq terms in b", "raydiss/raymodel.py",
           "            if not js:\n                continue",
           "            if True:\n                continue", ACCEPT),
    Mutant("velocity degree of a quotient adds", "raydiss/exprcore.py",
           '{"*": a + b, "/": a - b}', '{"*": a + b, "/": a + b}',
           ("tests/test_exprcore.py",)),
    Mutant("DP5 coefficient off in its last digit", "raydiss/dynamics.py",
           "-5103 / 18656", "-5103 / 18657", ("tests/test_dynamics.py",)),
    Mutant("controller exponent -1/4", "raydiss/dynamics.py",
           "0.9 * err ** -0.2", "0.9 * err ** -0.25",
           ("tests/test_dynamics.py",)),
    Mutant("check_span without its margin", "raydiss/dynamics.py",
           "end = t_end - 1e-15 * (1.0 + abs(t_end))", "end = t_end",
           ("tests/test_dynamics.py",)),
    Mutant("Const equal by value", "raydiss/exprcore.py",
           "and repr(self.value) == repr(other.value))",
           "and self.value == other.value)",
           ("tests/test_exprcore.py", "tests/test_raymodel.py")),
    Mutant("energy balance subtracts the integral", "raydiss/audit.py",
           "- H0 + x[w - 1::w]", "- H0 - x[w - 1::w]",
           ("tests/test_acceptance.py",)),
    Mutant("energy balance adds H0 instead of subtracting it",
           "raydiss/audit.py", "x[w - 7::w] - H0",
           "x[w - 7::w] + H0", ("tests/test_audit.py",)),
    Mutant("energy balance reads H at the wrong stride offset",
           "raydiss/audit.py", "x[w - 7::w]", "x[w - 6::w]",
           ("tests/test_audit.py",)),
    Mutant("stationarity threshold grows as spacing", "raydiss/audit.py",
           "(spacing / 1e-3) ** 2", "(spacing / 1e-3) ** 1",
           ("tests/test_audit.py",)),
    Mutant("_cpow without its whole-exponent test", "raydiss/exprcore.py",
           "if a < 0.0 and (b % 1 or abs(b) >= 1e9):",
           "if a < 0.0 and abs(b) >= 1e9:", ("tests/test_exprcore.py",)),
    Mutant("rest-value tolerance 1e-3", "raydiss/raymodel.py",
           "(abs(D(q, v, params)),), 1e-12", "(abs(D(q, v, params)),), 1e-3",
           ("tests/test_cli.py",)),
    Mutant("unary minus binds tighter than ^", "raydiss/exprcore.py",
           "            return Neg(self.factor())\n        base = self.atom()",
           "            base = Neg(self.atom())\n        else:\n"
           "            base = self.atom()", ("tests/test_exprcore.py",)),
    Mutant("a digit of any script", "raydiss/exprcore.py",
           '_DIGIT = "[0-9]"', '_DIGIT = r"\\d"', ("tests/test_exprcore.py",)),
    Mutant("quotient tangent adds", "raydiss/exprcore.py",
           'g.append(self.temp(f"({x} - {_times(val, y)}) / {b}"))',
           'g.append(self.temp(f"({x} + {_times(val, y)}) / {b}"))',
           ("tests/test_exprcore.py",)),
    Mutant("sign under smooth_eps valued by its gradient code",
           "raydiss/raymodel.py", "if t.smooth_eps and any(",
           "if False and any(", ("tests/test_raymodel.py",)),
    Mutant("rhs adds dR/dv to b", "raydiss/raymodel.py",
           'f"b{j} = -({gV[j]}) - g{j}"', 'f"b{j} = -({gV[j]}) + g{j}"',
           ("tests/test_dynamics.py",)),
    Mutant("rhs returns R for D and D for R", "raydiss/raymodel.py",
           '["D", "R"] + dissipation.g', '["R", "D"] + dissipation.g',
           ("tests/test_dynamics.py",)),
    Mutant("system key reads a param's value, not its repr",
           "raydiss/raymodel.py", "tuple((k, repr(v), v)", "tuple((k, v, v)",
           ("tests/test_raymodel.py",)),
    Mutant("stored sampled sections keyed without their seed",
           "raydiss/raymodel.py", "key = (name, samples, seed)",
           "key = (name, samples)", ("tests/test_cli.py",)),
    Mutant("stationarity pass adds the probe's linear part",
           "raydiss/audit.py", "abs(x - ({dot(e, s)}))",
           "abs(x + ({dot(e, s)}))", ("tests/test_audit.py",)),
    Mutant("stationarity pass swaps a central-difference weight",
           "raydiss/audit.py", '"wa = -h2 / (h1 * (h1 + h2))"',
           '"wa = -h1 / (h2 * (h1 + h2))"', ("tests/test_audit.py",)),
    Mutant("stationarity pass force without its dT/dq term",
           "raydiss/audit.py", 'f"{I[j]} = 0.5 * ({dT}) - ({dp})"',
           'f"{I[j]} = -({dp})"', ("tests/test_audit.py",)),
    Mutant("compiled loop built without -fno-builtin", "raydiss/native.py",
           '"-O2", "-fno-builtin", ', '"-O2", ', NATIVE),
    Mutant("compiled loop squares by a product", "raydiss/native.py",
           'return f"py_pow({a}, {b}, &st)", "d"',
           'return (f"({a} * {a})" if b == "2LL" else '
           'f"py_pow({a}, {b}, &st)"), "d"', NATIVE),
    Mutant("compiled loop skips the FP-flag test", "raydiss/native.py",
           "#define FLAGS (FE_OVERFLOW | FE_INVALID | FE_DIVBYZERO)",
           "#define FLAGS 0", NATIVE),
    Mutant("compiled loop writes a tableau coefficient to 15 digits",
           "raydiss/native.py", 'return float.hex(n.value), "d"',
           'return float.hex(float(f"{n.value:.15g}") if n.value == 32 / 9 '
           'else n.value), "d"', NATIVE),
    Mutant("formatter writes e notation from decimal exponent 15",
           "raydiss/native.py", "if (e > -4 && e <= 16) {",
           "if (e > -4 && e <= 15) {", NATIVE),
    Mutant("formatter rounds a tie up", "raydiss/native.py",
           "last = 4;  /* exactly half-way: to the even digit */",
           "last = 5;", NATIVE),
    Mutant("formatter drops the added .0", "raydiss/native.py",
           "return o + e + 2;", "return o + e;", NATIVE),
    Mutant("kernel copies one row short", "raydiss/native.py",
           "rows.itemsize * width * n.value)",
           "rows.itemsize * width * (n.value - 1))", NATIVE),
    Mutant("hand-built rows of any width", "raydiss/dynamics.py",
           "if any(len(r) != traj.width for r in rows) or any(", "if any(",
           NATIVE),
    Mutant("sweep worker leaves without flushing its streams",
           "raydiss/cli.py", "for stream in (_sys.stdout, _sys.stderr):",
           "for stream in ():", ("tests/test_cli.py",)),
    Mutant("sweep worker shares stride by one more than the workers",
           "raydiss/cli.py", "share = indices[w::workers]",
           "share = indices[w::workers + 1]", ("tests/test_cli.py",)),
    Mutant("dead sweep worker's error goes to the member before",
           "raydiss/cli.py", "results[share[len(got)]] = {",
           "results[share[len(got) - 1]] = {", ("tests/test_cli.py",)),
)


def copy_tree(dest):
    """src/, tests/ and pyproject.toml of this checkout, under dest."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def apply(mutant, dest):
    path = os.path.join(dest, "src", mutant.path)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutants: '{mutant.name}': old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))


def first_failure(dest, tests):
    """None if pytest passes on `tests` in the copy at dest, else the id
    of the first test that failed (pytest stops there)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(dest, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
            "-p", "no:cacheprovider", *tests]
    p = subprocess.run(argv, cwd=dest, env=env, capture_output=True,
                       text=True, timeout=RUN_TIMEOUT_S, check=False)
    if p.returncode == 0:
        return None
    failed = [line.split()[1] for line in p.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {p.returncode}"


def imports_copy(dest):
    env = {**os.environ, "PYTHONPATH": os.path.join(dest, "src")}
    p = subprocess.run([sys.executable, "-c",
                        "import raydiss; print(raydiss.__file__)"],
                       cwd=dest, env=env, capture_output=True, text=True,
                       check=True)
    return os.path.realpath(p.stdout.strip()).startswith(
        os.path.realpath(dest) + os.sep)


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"mutants: unknown mutant(s): {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = os.path.join(tmp, "base")
        copy_tree(base)
        if not imports_copy(base):
            raise SystemExit("mutants: raydiss is not imported from the copy")
        selections = sorted({t for m in chosen for t in m.tests})
        failed = first_failure(base, selections)
        if failed is not None:
            raise SystemExit(f"mutants: the unmutated copy fails {failed}")
        survivors = []
        for i, mutant in enumerate(chosen):
            dest = os.path.join(tmp, f"m{i}")
            shutil.copytree(base, dest)
            apply(mutant, dest)
            t0 = time.perf_counter()
            failed = first_failure(dest, mutant.tests)
            took = f"{time.perf_counter() - t0:.1f} s"
            if failed is None:
                survivors.append(mutant.name)
                print(f"SURVIVED {mutant.name}: {' '.join(mutant.tests)} "
                      f"pass ({took})", flush=True)
            else:
                print(f"killed   {mutant.name}: by {failed} ({took})",
                      flush=True)
            shutil.rmtree(dest)
    if survivors:
        print(f"mutants: {len(survivors)} survived: {', '.join(survivors)}",
              file=sys.stderr)
        return 1
    print(f"mutants: all {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
