"""The compiled integration loop (raydiss.native) against the generated
Python loop: bit for bit where it runs, the Python loop's errors where it
stops, and the Python loop alone where it cannot be built."""

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
import textwrap
import warnings
from array import array

import numpy as np
import pytest

import audit_oracle
import test_dynamics
from raydiss import audit as au
from raydiss import cli
from raydiss import config as cf
from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import native
from raydiss import raymodel as rm
from raydiss.builtins import DOCS
from test_audit import THREE_TERM_SHO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler (cc)")

PENDULUM_GENERAL = {**DOCS["pendulum_drag_2dof"], "dissipation": {
    "mode": "general", "raw": "A*(v1^2+v2^2)^1.5"}}
PENDULUM_TANH = {**PENDULUM_GENERAL,
                 "params": {**PENDULUM_GENERAL["params"], "c": 0.05},
                 "dissipation": {"mode": "general", "raw":
                                 "A*(v1^2+v2^2)^1.5 + c*v1*tanh(v1/0.001)"}}


@pytest.fixture
def runs(monkeypatch):
    """Force the compiled loop from the first call on, and list what ran
    each integrate call: "kernel", "status" (the kernel stopped and the
    Python loop ran) or "python" (no kernel)."""
    monkeypatch.setattr(native, "THRESHOLD", 0)
    seen = []

    def spied(loop, model, kernel=native.kernel):
        run = kernel(loop, model)
        if run is None:
            seen.append("python")
            return None

        def call(*args):
            out = run(*args)
            seen.append("kernel" if out else "status")
            return out
        return call
    monkeypatch.setattr(native, "kernel", spied)
    return seen


def _outcome(system, init, t_end, cfg):
    """The bytes of the rows' array of doubles, the number of rows and the
    counters of one run, or its error."""
    try:
        traj = dy.integrate(system, init, t_end, cfg)
    except Exception as e:  # noqa: BLE001 - compared by the tests
        return type(e), str(e)
    return (traj.data.tobytes(), len(traj), traj.steps_taken,
            traj.steps_rejected, traj.rhs_calls)


def _both(monkeypatch, system, init, t_end, cfg):
    """(compiled, Python) outcomes of one run."""
    compiled = _outcome(system, init, t_end, cfg)
    with monkeypatch.context() as m:
        m.setattr(native, "THRESHOLD", math.inf)
        return compiled, _outcome(system, init, t_end, cfg)


def _config(doc):
    cfg = cf.config_from_dict(doc)
    return cfg.system, cfg.initial, cfg.t_end, cfg.integrator


def _rk4(cfg, dt=3e-3):
    return dataclasses.replace(cfg, method="rk4", dt=dt, sample_every=7)


def _method(cfg, method):
    """cfg under `method`: as it is, or rk45 at its tolerances, or _rk4."""
    if method == cfg.method:
        return cfg
    return _rk4(cfg) if method == "rk4" else dataclasses.replace(
        cfg, method="rk45")


# systems whose expressions use every rule of exprcore._FUNCTION_RULES but
# sign under smooth_eps, and whole, negative, fractional and parameter
# exponents
GRAMMAR = [
    {"dof": 1, "params": {"k": 2.0, "a": 1.5, "c": 0.2, "mu": 0.05,
                          "e": 0.01},
     "mass_matrix": [["2 + sin(q1)^2"]],
     "potential": "0.5*k*q1^2 + ln(2 + q1^2) - cos(q1) + exp(-q1^2)"
                  " + (2 + q1^2)^-2 + (1 + q1^2)^a",
     "dissipation": {"mode": "homogeneous_sum", "terms": [
         {"expr": "c*v1^2*sqrt(1 + q1^2)", "degree": 2},
         {"expr": "mu*abs(v1)^3*(1 + tanh(q1)^2)", "degree": 3},
         {"expr": "e*abs(v1)", "degree": 1, "smooth_eps": 1e-3},
         {"expr": "mu*sign(v1)*v1^3", "degree": 3},
         {"expr": "c*abs(v1)^2.5/(1 + q1^2)", "degree": 2.5}]}},
    {"dof": 2, "params": {"m1": 1.0, "m2": 2.0, "A": 0.1, "b": 3.0},
     "mass_matrix": [["m1 + q2^2", "0.1*cos(q1 - q2)"],
                     ["0.1*cos(q1 - q2)", "m2 + exp(-q1^2)"]],
     "potential": "pow(q1, 4)/4 + q2^b/(1 + q2^2)^1.5 - q1*q2"
                  " + (2 + q2^2)^(0.1*q1)",
     "dissipation": {"mode": "general", "raw":
                     "A*(v1^2 + v2^2)^1.25 + A*abs(v1*v2)"}},
]


def _grammar_starts(doc, seed):
    rng = np.random.default_rng(seed)
    m = doc["dof"]
    for _ in range(3):
        yield {**doc, "t_end": 2.0,
               "initial": {"q": rng.uniform(0.2, 1.0, m).tolist(),
                           "v": rng.uniform(-1.0, 1.0, m).tolist()},
               "integrator": {"method": "rk45", "rel_tol": 1e-10,
                              "abs_tol": 1e-12}}


CASES = {
    **{name: _config({"system": name}) for name in DOCS},
    "pendulum_general": _config({**PENDULUM_GENERAL, "t_end": 3.0}),
    "three_term_sho": _config(THREE_TERM_SHO),
    "full_mass_3dof": (test_dynamics.full_mass_3dof(), dy.State(
        0.0, [0.3, -0.2, 0.1], [0.5, -0.4, 0.2]), 2.0, dy.IntegratorConfig(
            rel_tol=1e-10, abs_tol=1e-12)),
    **{f"grammar{i}_{j}": _config(d) for i, doc in enumerate(GRAMMAR)
       for j, d in enumerate(_grammar_starts(doc, seed=i))},
}


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("name", list(CASES))
def test_compiled_loop_is_the_python_loop_bit_for_bit(name, method, runs,
                                                      monkeypatch):
    system, init, t_end, cfg = CASES[name]
    if method == "rk4":
        cfg = _rk4(cfg)
    compiled, python = _both(monkeypatch, system, init, t_end, cfg)
    assert compiled == python
    assert compiled[1] > 3
    assert runs == ["kernel", "python"]


SWEEP_DOC = {"system": "damped_sho", "integrator": {"method": "rk4",
                                                    "dt": 2e-3}, "t_end": 10}
CI_PENDULUM = {**PENDULUM_GENERAL, "t_end": 3.0, "initial": {
    "q": [0.6, -0.3], "v": [0.0, 0.0]}, "integrator": {
        "method": "rk45", "rel_tol": 1e-10, "abs_tol": 1e-12}}
CI_TANH = {**CI_PENDULUM, "params": PENDULUM_TANH["params"],
           "dissipation": PENDULUM_TANH["dissipation"]}
RUNS = {**{name: {"system": name} for name in DOCS},
        "sweep_config": SWEEP_DOC, "ci_pendulum_general": CI_PENDULUM,
        "ci_pendulum_tanh": CI_TANH}


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("name", ["sweep_config", "ci_pendulum_general",
                                  "ci_pendulum_tanh"])
def test_the_runs_of_ci_and_the_benchmark_fill_the_python_loops_array(
        name, method, runs, monkeypatch):
    # the array of doubles, byte for byte, of the runs whose outputs CI
    # digests and of the benchmark's sweep member (the builtins are
    # CASES); the tanh pendulum's graded rule keeps the Python loop
    system, init, t_end, cfg = _config(RUNS[name])
    compiled, python = _both(monkeypatch, system, init, t_end,
                             _method(cfg, method))
    assert compiled == python
    assert compiled[1] > 3
    assert runs == (["python"] * 2 if name == "ci_pendulum_tanh"
                    else ["kernel", "python"])


def _starts(doc, centre, q_half, v_half, t_end, seed, n=60):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = np.add(centre, rng.uniform(-q_half, q_half, 2)).tolist()
        v = rng.uniform(-v_half, v_half, 2).tolist()
        yield {**doc, "initial": {"q": q, "v": v}, "t_end": t_end}


@pytest.mark.parametrize("doc, centre, q_half, v_half, t_end", [
    ({"system": "pendulum_drag_2dof"}, (0.0, 0.0), 1.2, 0.5, 10.0),
    (PENDULUM_GENERAL, (0.6, -0.3), 0.05, 0.05, 1.0)],
    ids=["pendulum_homsum", "pendulum_general"])
def test_audits_of_compiled_runs_are_the_python_runs_with_the_oracle(
        doc, centre, q_half, v_half, t_end, runs, monkeypatch):
    # each start's audit JSON, from the compiled loop and the current
    # audit, is that of the Python loop and the audit as it stood before
    # the stationarity pass evaluated the mass alone at the neighbours
    # (tests/audit_oracle.py)
    reports = []
    for d in _starts(doc, centre, q_half, v_half, t_end, seed=3):
        cfg = cf.config_from_dict(d)
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        reports.append((traj.data.tobytes(), json.dumps(au.full_audit(
            cfg.system, traj, cfg.tolerances).to_dict())))
    assert runs == ["kernel"] * 60
    monkeypatch.setattr(native, "THRESHOLD", math.inf)
    monkeypatch.setattr(au, "stationarity_audit",
                        audit_oracle.stationarity_audit)
    for d, (rows, report) in zip(
            _starts(doc, centre, q_half, v_half, t_end, seed=3), reports):
        cfg = cf.config_from_dict(d)
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        assert traj.data.tobytes() == rows
        assert json.dumps(au.full_audit(
            cfg.system, traj, cfg.tolerances).to_dict()) == report
    assert runs[60:] == ["python"] * 60


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_errors_are_the_python_loops(method, runs):
    # the generated loop's error cases, each run by the kernel, which
    # stops, and then by the Python loop, which raises the oracle's error
    test_dynamics.test_generated_loop_errors_are_the_oracles(method)
    test_dynamics.test_generated_attempt_errors_are_the_oracles(method)
    assert "status" in runs and "python" not in runs


# the stage times of an attempt, as fractions of its step: RK4's and the
# pair's (whose 6th and 7th stages share a time)
STAGES = {"rk4": [0.5, 1.0], "rk45": [0.2, 0.3, 0.8, 8 / 9, 1.0]}


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_mass_error_at_each_stage_is_the_python_loops(method, runs,
                                                        monkeypatch):
    # a mass entry 1 - q2 that stops being positive at q2 = 1, which q2,
    # free of force while v1 = 0, crosses at each stage time of the first
    # attempt (of step 0.1) at a speed that reaches it just then
    t, q0, h = 0.25, 0.5, 0.1
    cfg = dy.IntegratorConfig(method=method, dt=h)
    system = test_dynamics._mass_system([["1 - q2", "0"], ["0", "1"]])
    for c in STAGES[method]:
        v = 1.02 * (1.0 - q0) / (c * h)
        compiled, python = _both(monkeypatch, system, dy.State(
            t, [0.0, q0], [0.0, v]), t + 10.0, cfg)
        assert compiled == python
        assert compiled[0] is rm.MassMatrixError, compiled
        assert compiled[1].endswith(f"(t={t + c * h})"), (c, compiled)
    assert runs == ["status", "python"] * len(STAGES[method])


def test_an_overflow_of_exp_is_the_python_loops(runs, monkeypatch):
    # exp(v1) overflows at v1 = 800, where its sign is still 1: only the
    # overflow flag tells the kernel that the Python code raises there
    term = rm.DissipationTerm(xc.parse("1e-3*v1^2*sign(exp(v1))"), 2.0)
    system = test_dynamics.free_particle(
        rm.DissipationSpec("homogeneous_sum", (term,)))
    for method in ("rk4", "rk45"):
        compiled, python = _both(
            monkeypatch, system, dy.State(0.0, [0.0], [800.0]), 1.0,
            dy.IntegratorConfig(method=method, dt=1e-2))
        assert compiled == python
        assert compiled == (xc.EvalDomainError, "floating-point overflow "
                            "in subexpression '(0.001 * v1 ^ 2.0) * "
                            "sign(exp(v1))'")
    assert runs == ["status", "python"] * 2


def test_a_sine_of_an_infinite_stage_value_is_the_python_loops(
        runs, monkeypatch):
    # a stage position beyond the largest double, in a pendulum's -cos(q1)
    compiled, python = _both(
        monkeypatch, test_dynamics.pendulum(),
        dy.State(0.0, [1.7e308], [1e308]), 10.0,
        dy.IntegratorConfig(method="rk4", dt=4.0))
    assert compiled == python
    assert compiled[0] is xc.EvalDomainError
    assert "sin or cos of an infinite value" in compiled[1]
    assert runs == ["status", "python"]


def _fake_cc(tmp_path, script):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(exist_ok=True)
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    return str(bin_dir)


@pytest.mark.parametrize("case", ["no compiler", "failing compiler",
                                  "sign under smooth_eps", "tanh pendulum"])
def test_without_a_kernel_the_python_loop_runs_silently(case, tmp_path, runs,
                                                        monkeypatch):
    monkeypatch.setattr(native, "_kernels", {})
    doc = {"system": "pendulum_drag_2dof", "t_end": 2.0}
    if case == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path))
    elif case == "failing compiler":
        monkeypatch.setenv("PATH", _fake_cc(tmp_path, "exit 1\n"))
    elif case == "sign under smooth_eps":
        doc = {**DOCS["coulomb_block"], "dissipation": {
            "mode": "homogeneous_sum", "terms": [
                {"expr": "mu*sign(v1)*v1", "degree": 1.0,
                 "smooth_eps": 1e-4}]}}
    else:
        doc = {**PENDULUM_TANH, "t_end": 1.0}
    system, init, t_end, cfg = _config(doc)
    if case.startswith(("sign", "tanh")):
        with pytest.raises(native.Untranslatable):
            native.translate(dy._loop(cfg.method, system.dof),
                             system.model.rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compiled, python = _both(monkeypatch, system, init, t_end, cfg)
    assert compiled == python and len(compiled[0]) > 3
    assert runs == ["python", "python"]


def test_the_kernel_engages_once_its_code_has_paid_for_the_build(
        monkeypatch):
    # the Python loop runs until the code's RHS calls reach the threshold
    # (counted per system code, so a system of new params shares them)
    system, init, t_end, cfg = CASES["pendulum_drag_2dof"]
    monkeypatch.setattr(native, "_calls", {})
    monkeypatch.setattr(native, "THRESHOLD", 3000)
    loop = dy._loop(cfg.method, system.dof)
    calls = dy.integrate(system, init, t_end, cfg).rhs_calls
    assert 1000 < calls < 3000
    assert native.kernel(loop, system.model) is None
    other = dataclasses.replace(system, params={**system.params, "A": 0.2})
    calls += dy.integrate(other, init, t_end, cfg).rhs_calls
    assert native._calls == {system.model.rhs.source: calls}
    assert native.kernel(loop, other.model) is not None


def test_rk4_sweep_builds_the_kernel_once_before_the_fork(tmp_path,
                                                          monkeypatch):
    # 8 members of 5,001 rows of 9 values pay for the formatter, which the
    # parent builds after the kernel
    log = tmp_path / "cc.log"
    monkeypatch.setenv("PATH", _fake_cc(
        tmp_path, f'echo $PPID >> "{log}"\nexec "{CC}" "$@"\n')
        + os.pathsep + os.environ["PATH"])
    monkeypatch.setattr(native, "THRESHOLD", native.BUILD_S / native.SAVED_S)
    monkeypatch.setattr(native, "FORMAT_THRESHOLD",
                        native.FORMAT_BUILD_S / native.FORMAT_SAVED_S)
    monkeypatch.setattr(native, "_calls", {})
    monkeypatch.setattr(native, "_kernels", {})
    monkeypatch.setattr(native, "_formatted", [0])
    monkeypatch.setattr(native, "_formatter", [])
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"system": "damped_sho", "t_end": 10,
                                  "integrator": {"method": "rk4",
                                                 "dt": 2e-3}}))
    values = [0.05 * (i + 1) for i in range(8)]
    outputs = []
    for stem in ("compiled", "python"):
        assert cli.main(["sweep", "--config", str(config), "--param", "c",
                         "--values", ",".join(map(repr, values)), "--jobs",
                         "2", "--out", str(tmp_path / stem)]) == 0
        outputs.append([(tmp_path / f"{stem}_c={x:g}.csv").read_bytes()
                        for x in values])
        monkeypatch.setattr(native, "THRESHOLD", math.inf)
        monkeypatch.setattr(native, "FORMAT_THRESHOLD", math.inf)
    assert log.read_text().split() == [str(os.getpid())] * 2
    assert native._formatter[0] is not None
    assert outputs[0] == outputs[1]


def test_a_load_accel_and_one_run_start_no_compiler(tmp_path):
    # numpy imports ctypes itself, so the check is that no compiler ran
    # and no kernel or formatter was loaded
    log = tmp_path / "cc.log"
    code = textwrap.dedent("""
        import sys
        import raydiss.cli as cli
        import raydiss.config as cf
        import raydiss.dynamics as dy
        from raydiss import native

        cfg = cf.config_from_dict({"system": "pendulum_drag_2dof"})
        dy.accel(cfg.system, cfg.initial)
        assert cli.main(["simulate", "--config", sys.argv[1], "--out",
                         sys.argv[2]]) == 0
        assert native._kernels == {}, native._kernels
        assert native._formatter == [], native._formatter
    """)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"system": "damped_sho"}))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "PATH": _fake_cc(tmp_path, f'echo run >> "{log}"\nexit 1\n')
           + os.pathsep + os.environ["PATH"]}
    p = subprocess.run([sys.executable, "-c", code, str(config),
                        str(tmp_path / "o.csv")], env=env,
                       capture_output=True, text=True, check=False)
    assert p.returncode == 0, p.stderr
    assert not log.exists()


# ---------------------------------------------------------------------------
# The compiled row formatter against repr


@pytest.fixture(scope="session")
def built_formatter():
    fmt = native._build_formatter()
    assert fmt is not None
    return fmt


@pytest.fixture
def compiled_format(built_formatter, monkeypatch):
    """Force the compiled formatter for every CSV and plot-data write."""
    monkeypatch.setattr(native, "FORMAT_THRESHOLD", 0)
    monkeypatch.setattr(native, "_formatter", [built_formatter])
    return built_formatter


def _lines(fmt, values):
    """The formatter's text of values, one a line, as a list."""
    return fmt(array("d", values), 1, [0], ",").split("\n")[:-1]


def _with_neighbours(values):
    return [y for x in values for y in (
        math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


EDGES = [1e-05, 0.0001, 1e+16, 9999999999999998.0, 8 + 2 ** -16, 0.0,
         0.1, 0.5, 1.0, 123.0, 1e15, 1e22, 1e23, 5e-324,
         1.7976931348623157e308]
# the smallest and largest subnormals and some between
SUBNORMALS = [math.ldexp(k, -1074) for k in (
    1, 2, 3, 5, 7, 10, 99, 12345, 123456789, 2 ** 51, 2 ** 52 - 1)]


def test_formatter_is_repr_on_powers_of_two_and_ten_and_their_neighbours(
        built_formatter):
    values = _with_neighbours(
        [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        + [float(f"1e{k}") for k in range(-323, 309)])
    values += SUBNORMALS + EDGES
    values += [-x for x in values] + [math.inf, -math.inf, math.nan]
    assert _lines(built_formatter, values) == list(map(repr, values))


def test_formatter_notation_edges_and_a_tie(built_formatter):
    assert _lines(built_formatter, [1e-05, 0.0001, 1e16, 9999999999999998.0, 123.0,
                        8 + 2 ** -16, -0.0, 0.0, math.inf, -math.inf,
                        math.nan, -math.nan]) == [
        "1e-05", "0.0001", "1e+16", "9999999999999998.0", "123.0",
        "8.000015258789062", "-0.0", "0.0", "inf", "-inf", "nan", "nan"]


def test_formatter_is_repr_on_random_bit_patterns(built_formatter):
    values = array("d")
    values.frombytes(random.Random(43).randbytes(8 * 200_000))
    assert _lines(built_formatter, values) == list(map(repr, values))


@pytest.mark.parametrize("name", list(RUNS))
def test_formatter_is_repr_on_every_row_of_a_trajectory(name,
                                                        built_formatter):
    system, init, t_end, cfg = _config(RUNS[name])
    traj = dy.integrate(system, init, t_end, cfg)
    text = built_formatter(traj.data, traj.width, range(traj.width), ",")
    assert text == "".join(",".join(map(repr, r)) + "\n" for r in traj.rows)


def _files(tmp_path, traj, dof, tag):
    """The bytes of a trajectory's CSV and of its plot-data files."""
    cli.write_trajectory(traj, dof, str(tmp_path / f"{tag}.csv"), "csv")
    cli.write_plot_data(traj, dof, str(tmp_path / tag))
    return {p.name: p.read_bytes() for p in sorted(
        (tmp_path / f"{tag}_plot").iterdir())} | {
        "csv": (tmp_path / f"{tag}.csv").read_bytes()}


def _both_files(tmp_path, traj, dof, monkeypatch):
    """(compiled, repr) bytes of the files of a trajectory."""
    compiled = _files(tmp_path, traj, dof, "compiled")
    with monkeypatch.context() as m:
        m.setattr(native, "FORMAT_THRESHOLD", math.inf)
        return compiled, _files(tmp_path, traj, dof, "repr")


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("name", list(RUNS))
def test_compiled_files_are_the_repr_files_byte_for_byte(
        name, method, compiled_format, tmp_path, monkeypatch):
    system, init, t_end, cfg = _config(RUNS[name])
    traj = dy.integrate(system, init, t_end, _method(cfg, method))
    compiled, python = _both_files(tmp_path, traj, system.dof, monkeypatch)
    assert compiled == python
    assert len(compiled) == 2 * system.dof + 7


def _no_rows(traj):
    raise AssertionError("a list of rows was built")


@pytest.mark.parametrize("name", ["sweep_config", "ci_pendulum_general"])
def test_the_compiled_path_reads_the_array_and_builds_no_rows(
        name, runs, compiled_format, tmp_path, monkeypatch):
    # with Trajectory.rows raising, the kernel's run, its audit, its CSV
    # and plot-data files and a sweep member read the array of doubles
    # alone, and give what the Python loop and repr give
    cfg = cf.config_from_dict(RUNS[name])

    def outputs(tag):
        traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator)
        report = au.full_audit(cfg.system, traj, cfg.tolerances).to_dict()
        member = tmp_path / f"{tag}_member.csv"
        result = cli._run_member(cfg, str(member))
        assert result.pop("file") == str(member)
        return (traj.data.tobytes(), json.dumps(report),
                _files(tmp_path, traj, cfg.system.dof, tag), result,
                member.read_bytes())

    with monkeypatch.context() as m:
        m.setattr(dy.Trajectory, "rows", property(_no_rows))
        compiled = outputs("compiled")
    monkeypatch.setattr(native, "THRESHOLD", math.inf)
    monkeypatch.setattr(native, "FORMAT_THRESHOLD", math.inf)
    assert compiled == outputs("repr")
    assert compiled[3]["status"] == "ok"
    assert runs == ["kernel"] * 2 + ["python"] * 2


def _odd_rows(entry):
    return [[0.0, 1.0, 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [1e-3, entry, -0.0, math.inf, -math.inf, math.nan, 1e300, 1e-7,
             5e-324, 0.0]]


@pytest.mark.parametrize("entry", [math.nan, -0.0, 3, np.float64(0.25),
                                   True])
def test_odd_entries_write_the_repr_text(entry, compiled_format, tmp_path,
                                         monkeypatch):
    # non-finite and signed-zero floats go through the formatter; the
    # constructor stores an entry of another type as its double (3 as 3.0,
    # True as 1.0), which the formatter writes as repr writes it
    traj = dy.Trajectory.from_rows(_odd_rows(entry), 1)
    assert traj.rows[1][1].hex() == float(entry).hex()
    calls = []
    monkeypatch.setattr(native, "_formatter", [
        lambda *a: calls.append(a) or compiled_format(*a)])
    compiled, python = _both_files(tmp_path, traj, 1, monkeypatch)
    assert compiled == python
    assert len(calls) == len(compiled)  # one call per file
    assert compiled["csv"].split(b"\n")[2].startswith(
        b"0.001," + repr(float(entry)).encode()
        + b",-0.0,inf,-inf,nan,1e+300,")


def test_a_row_of_another_width_is_refused_by_the_constructor():
    # an array of doubles has no rows of their own width to fall back on:
    # the constructors refuse them, and an entry that is no number
    rows = _odd_rows(0.5)
    del rows[1][-4:]
    with pytest.raises(ValueError, match="must be 10 numbers each"):
        dy.Trajectory.from_rows(rows, 1)
    with pytest.raises(TypeError):
        dy.Trajectory.from_rows([rows[0][:-1] + ["0.0"]], 1)


@pytest.mark.parametrize("case", ["no compiler", "failing compiler"])
def test_without_a_formatter_repr_writes_the_files(case, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(native, "_formatter", [])
    monkeypatch.setattr(native, "FORMAT_THRESHOLD", 0)
    if case == "no compiler":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    else:
        monkeypatch.setenv("PATH", _fake_cc(tmp_path, "exit 1\n"))
    system, init, t_end, cfg = _config({"system": "pendulum_drag_2dof"})
    traj = dy.integrate(system, init, t_end, cfg)
    compiled, python = _both_files(tmp_path, traj, system.dof, monkeypatch)
    assert native._formatter == [None]
    assert compiled == python


def test_the_formatter_engages_once_repr_has_paid_for_the_build(
        built_formatter, tmp_path, monkeypatch):
    # a lone simulate of damped_sho formats far fewer values than the
    # threshold: repr writes its files, and no formatter is built; the
    # values that repr formats count until they reach the threshold
    builds = []
    monkeypatch.setattr(native, "FORMAT_THRESHOLD",
                        native.FORMAT_BUILD_S / native.FORMAT_SAVED_S)
    monkeypatch.setattr(native, "_formatted", [0])
    monkeypatch.setattr(native, "_formatter", [])
    monkeypatch.setattr(native, "_build_formatter",
                        lambda: builds.append(1) or built_formatter)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"system": "damped_sho"}))
    assert cli.main(["simulate", "--config", str(config), "--out",
                     str(tmp_path / "o.csv"), "--plot-data"]) == 0
    rows = len(cli.read_trajectory_csv(tmp_path / "o.csv")[1])
    assert builds == [] and native._formatter == []
    assert native._formatted == [rows * 9 + 2 * rows * 8]
    assert 0 < native._formatted[0] < native.FORMAT_THRESHOLD / 10
    monkeypatch.setattr(native, "FORMAT_THRESHOLD", native._formatted[0])
    assert cli.main(["simulate", "--config", str(config), "--out",
                     str(tmp_path / "p.csv")]) == 0
    assert builds == [1] and native._formatter == [built_formatter]
    assert native._formatted == [rows * 9 + 2 * rows * 8]
    assert ((tmp_path / "p.csv").read_bytes()
            == (tmp_path / "o.csv").read_bytes())
