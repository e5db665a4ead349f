import concurrent.futures
import dataclasses
import json
import math
import os
import signal

import numpy as np
import pytest

from conftest import clear_model_caches
from raydiss import audit as au
from raydiss import cli
from raydiss import config as cf
from raydiss import dynamics as dy
from raydiss import exprcore as xc
from raydiss import raymodel as rm
from raydiss.builtins import BUILTIN_NAMES, DOCS, get_builtin
from raydiss.cli import main


DSHO_INLINE = {
    "dof": 1,
    "params": {"m": 1.0, "k": 1.0, "c": 0.2},
    "mass_matrix": [["m"]],
    "potential": "0.5*k*q1^2",
    "dissipation": {"mode": "homogeneous_sum",
                    "terms": [{"expr": "c*v1^2", "degree": 2}]},
    "initial": {"q": [1.0], "v": [0.0], "t0": 0.0},
    "t_end": 10.0,
    "integrator": {"method": "rk45", "rel_tol": 1e-10, "abs_tol": 1e-12},
}

NEGATIVE_D = {
    "dof": 1,
    "params": {},
    "mass_matrix": [["1"]],
    "potential": "0.5*q1^2",
    "dissipation": {"mode": "homogeneous_sum",
                    "terms": [{"expr": "-v1^2", "degree": 2}]},
    "initial": {"q": [1.0], "v": [0.0]},
    "t_end": 5.0,
    "integrator": {"method": "rk45", "rel_tol": 1e-10, "abs_tol": 1e-12},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Config loading


def test_load_inline_config(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    assert cfg.system.dof == 1
    assert cfg.t_end == 10.0
    assert cfg.initial.q[0] == 1.0
    assert cfg.integrator.method == "rk45"


def test_load_builtin_with_overrides(workdir):
    doc = {"system": "damped_sho", "overrides": {"c": 0.5}}
    cfg = cf.load_config(write_json(workdir / "b.json", doc))
    assert cfg.builtin_name == "damped_sho"
    assert cfg.system.params["c"] == 0.5
    assert cfg.t_end == 10.0  # builtin default


def test_load_rejects_wrong_declared_degree(workdir):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"]["terms"][0]["degree"] = 3
    with pytest.raises(cf.ConfigError) as exc:
        cf.load_config(write_json(workdir / "bad.json", doc))
    assert "homogeneous" in str(exc.value)


@pytest.mark.parametrize("eps", [-1e-3, 0])
def test_non_positive_smooth_eps_is_a_config_error(eps):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["params"]["mu"] = 0.3
    doc["dissipation"]["terms"] = [
        {"expr": "c*v1^2", "degree": 2},
        {"expr": "mu*abs(v1)", "degree": 1, "smooth_eps": eps}]
    with pytest.raises(cf.ConfigError) as exc:
        cf.config_from_dict(doc)
    assert str(exc.value) == (
        f"config error at 'dissipation.terms[1]': smooth_eps must be > 0, "
        f"got {float(eps)}; a negative width turns the regularised friction "
        "force around")


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_huge_declared_degree_is_a_one_line_config_error(workdir, capsys,
                                                         command):
    # lam ** 1e30 overflows a float for lam > 1: that sample's violation
    # is infinite, not a traceback; the line names that sample, where the
    # term itself is finite
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"]["terms"][0]["degree"] = 1e30
    rc = main([command, "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'dissipation.terms[0]': term is not "
        "homogeneous of declared degree 1e+30 (max relative violation "
        "inf at q=[0.5478467492858172], v=[-0.12076665792328144])\n")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


def test_overflowing_term_is_a_one_line_config_error(workdir, capsys):
    # D = A*|v1|^3 overflows to inf above |v1| ~ 5.6, where the homogeneity
    # violation inf - inf is NaN; the line names the first such sample
    doc = {**DSHO_INLINE, "params": {"m": 1.0, "k": 1.0, "A": 1e306},
           "dissipation": {"mode": "homogeneous_sum",
                           "terms": [{"expr": "A*abs(v1)^3", "degree": 3}]},
           "initial": {"q": [0.0], "v": [0.0]}, "t_end": 0.5,
           "integrator": {"method": "rk4", "dt": 0.01}}
    rc = main(["simulate", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'dissipation.terms[0]': term is not "
        "homogeneous of declared degree 3.0 (max relative violation inf at "
        "q=[-1.9338894578858836], v=[-6.691310059954056], where the term "
        "overflows)\n")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


def test_overflowing_literal_is_a_one_line_config_error(workdir, capsys):
    # float('1e400') is inf, which the generated code cannot spell: the
    # parser rejects the literal at its offset instead of a NameError later
    doc = {**DSHO_INLINE,
           "dissipation": {"mode": "homogeneous_sum",
                           "terms": [{"expr": "1e400*v1^2", "degree": 2}]}}
    rc = main(["check", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'dissipation.terms[0].expr': expression "
        "'1e400*v1^2': number '1e400' overflows a double at offset 0\n")


def test_non_ascii_digit_is_a_one_line_config_error(workdir, capsys):
    # '²' is no index digit, so q² is a parameter name, which the system
    # does not define; the parser once ended here in a ValueError from int()
    doc = {**DSHO_INLINE, "potential": "0.5*q\u00b2"}
    rc = main(["check", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'potential': unresolved parameter "
        "'q\u00b2'\n")


@pytest.mark.parametrize("src", [
    "-" * 600 + "q1^2", "+".join(["0.001*q1^2"] * 700)],
    ids=["600-negations", "700-addends"])
def test_deep_expression_is_a_one_line_config_error(workdir, capsys, src):
    # both parse within the recursion limit, into trees deeper than the
    # parser's bound; hashing such a tree for the caches of generated code
    # once ended in a RecursionError out of cli.main. The line quotes the
    # first 60 characters of the source and its length, not the whole of
    # it (once 7,792 bytes for the 700 addends)
    doc = {**DSHO_INLINE, "potential": src}
    rc = main(["simulate", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        f"raydiss: config error at 'potential': expression '{src[:60]}…' "
        f"({len(src)} characters): expression nests too deeply at offset 0\n")
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


@pytest.mark.parametrize("n", [59, 60, 61])
def test_parse_error_quotes_a_short_source_whole(n):
    # up to 60 characters the source is quoted as written
    src = "(" + "q" * (n - 1)
    with pytest.raises(cf.ConfigError) as e:
        cf._parse_expr(src, "potential")
    quoted = f"'{src}'" if n <= 60 else f"'{src[:60]}…' ({n} characters)"
    assert str(e.value).startswith(
        f"config error at 'potential': expression {quoted}: ")


def test_load_rejects_wrong_initial_length(workdir):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["initial"]["q"] = [1.0, 2.0]
    with pytest.raises(cf.ConfigError) as exc:
        cf.load_config(write_json(workdir / "bad.json", doc))
    assert "initial.q" in str(exc.value)


def test_load_missing_file_and_bad_json(workdir):
    with pytest.raises(cf.ConfigError):
        cf.load_config("nope.json")
    (workdir / "syntax.json").write_text("{")
    with pytest.raises(cf.ConfigError) as exc:
        cf.load_config(str(workdir / "syntax.json"))
    assert "line" in str(exc.value)


def test_load_rejects_unknown_builtin(workdir):
    with pytest.raises(cf.ConfigError):
        cf.load_config(write_json(workdir / "b.json", {"system": "nope"}))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_selection_loads_as_its_document(name):
    assert (cf.config_to_dict(cf.config_from_dict({"system": name}))
            == cf.config_to_dict(cf.config_from_dict(DOCS[name])))


def test_selection_section_replaces_the_whole_builtin_section():
    # the builtin's rel_tol=1e-10 does not survive an integrator section
    cfg = cf.config_from_dict({"system": "damped_sho",
                               "integrator": {"method": "rk4"}})
    assert cfg.integrator == dy.IntegratorConfig(method="rk4")


def test_get_builtin_rejects_unknown_override_and_name():
    with pytest.raises(cf.ConfigError, match="unknown parameter"):
        get_builtin("sho", {"c": 1.0})
    with pytest.raises(KeyError, match="unknown builtin system 'nope'"):
        get_builtin("nope")


def test_with_params_rejects_unknown(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    with pytest.raises(cf.ConfigError):
        cfg.with_params({"zz": 1.0})


def test_general_mode_rest_value_rejected_at_load(workdir):
    # a rest far below 1 is rejected too: the check's tolerance is 1e-12
    for raw in ("v1^2 + 1", "v1^2 + 1e-9"):
        doc = json.loads(json.dumps(DSHO_INLINE))
        doc["dissipation"] = {"mode": "general", "raw": raw}
        with pytest.raises(cf.ConfigError) as exc:
            cf.load_config(write_json(workdir / "bad.json", doc))
        assert "vanish at rest" in str(exc.value)


DSHO = {"system": "damped_sho"}
GENERAL_INLINE = {**DSHO_INLINE,
                  "dissipation": {"mode": "general", "raw": "c*v1^2"}}

# (config, command and flags, path the one-line error names). Each used to
# end in a traceback, or in a run of something other than what was asked.
MALFORMED = [
    ({**DSHO, "audit": {"energy": "x"}}, ["simulate"], "audit.energy"),
    ({**DSHO, "integrator": {"dt": None}}, ["simulate"], "integrator.dt"),
    ({**DSHO, "integrator": "rk4"}, ["simulate"], "integrator"),
    ({**DSHO, "output": "x"}, ["simulate"], "output"),
    ({**DSHO, "audit": {"slope_window": 3}}, ["simulate"],
     "audit.slope_window"),
    ({**DSHO, "overrides": [1]}, ["simulate"], "overrides"),
    ({**DSHO, "overrides": {"c": "x"}}, ["simulate"], "overrides.c"),
    (DSHO, ["simulate", "--t-end", "-1"], "t_end"),
    ({**DSHO, "audit": {"check_samples": 0}}, ["check"], "audit"),
    ({**DSHO, "audit": {"check_seed": -1}}, ["check"], "audit"),
    ({**DSHO, "output": {"plot_data": "false"}}, ["simulate"],
     "output.plot_data"),
    ({**GENERAL_INLINE, "dissipation": {**GENERAL_INLINE["dissipation"],
                                        "quadrature": {"node_count": 8.7}}},
     ["simulate"], "dissipation.quadrature.node_count"),
    ({**DSHO, "integrator": {"max_steps": 2.9}}, ["simulate"],
     "integrator.max_steps"),
    ({**DSHO, "overrides": {"zz": 1}}, ["simulate"], "overrides"),
    ({**DSHO, "integrator": {"rtol": 1e-8}}, ["simulate"], "integrator.rtol"),
    ({**DSHO, "t_end": float("inf")}, ["simulate"], "t_end"),
    (DSHO, ["simulate", "--t-end", "inf"], "t_end"),
    (DSHO, ["simulate", "--t-end", "nan"], "t_end"),
    ({**DSHO, "audit": {"energy": -1}}, ["simulate"], "audit"),
    (DSHO, ["simulate", "--set", "c=nan"], "overrides.c"),
    ({**DSHO, "t_end": 10 ** 400}, ["simulate"], "t_end"),
    ({**DSHO, "initial": "qv"}, ["simulate"], "initial"),
    ({**DSHO, "overide": {"c": 5}}, ["simulate"], "overide"),
    ({**DSHO, "params": {"c": 5}}, ["simulate"], "params"),
    ({**DSHO_INLINE, "dissipation": {
        "mode": "homogeneous_sum",
        "terms": [{"expr": "c*abs(v1)", "degree": 1, "smooth-eps": 1e-4}]}},
     ["simulate"], "dissipation.terms[0].smooth-eps"),
    ({**GENERAL_INLINE, "dissipation": {**GENERAL_INLINE["dissipation"],
                                        "terms": []}},
     ["simulate"], "dissipation.terms"),
    ({**DSHO, "initial": {"q": [1.0], "v": [0.0], "t_0": 1.0}},
     ["simulate"], "initial.t_0"),
    # JSON text, not a document: an integer json.load cannot convert
    ('{"system": "damped_sho", "t_end": ' + "1" * 5000 + "}", ["simulate"],
     ""),
] + [
    ({**DSHO_INLINE, "dissipation": {"mode": "homogeneous_sum",
                                     "terms": terms}},
     ["simulate"], "dissipation.terms")
    for terms in (5, None, "v1^2")
] + [
    # one past each quadrature bound
    ({**GENERAL_INLINE, "dissipation": {**GENERAL_INLINE["dissipation"],
                                        "quadrature": quad}},
     ["check"], "dissipation.quadrature")
    for quad in ({"panels": rm.MAX_PANELS + 1},
                 {"node_count": rm.MAX_NODES + 1})
] + [
    # the checks of IntegratorConfig, AuditTolerances, OutputConfig,
    # QuadratureConfig and DissipationTerm, each named by its section
    ({**DSHO, "integrator": {"method": "euler"}}, ["simulate"], "integrator"),
    ({**DSHO, "integrator": {"sample_every": 0}}, ["simulate"], "integrator"),
    ({**DSHO, "audit": {"slope_window": [2.2, 1.8]}}, ["simulate"], "audit"),
    ({**DSHO, "output": {"format": "xml"}}, ["simulate"], "output"),
    ({**GENERAL_INLINE, "dissipation": {**GENERAL_INLINE["dissipation"],
                                        "quadrature": {"tolerance": 0}}},
     ["simulate"], "dissipation.quadrature"),
    ({**DSHO_INLINE, "dissipation": {"mode": "homogeneous_sum", "terms": [
        {"expr": "c*v1^2", "degree": 0}]}},
     ["simulate"], "dissipation.terms[0]"),
]


@pytest.mark.parametrize("doc, argv, path", MALFORMED, ids=[
    f"{i:02d}-{path}" for i, (_, _, path) in enumerate(MALFORMED)])
def test_malformed_input_is_a_one_line_config_error(workdir, capsys, doc,
                                                    argv, path):
    config = workdir / "c.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if len(argv) == 1:  # the config itself is malformed
        with pytest.raises(cf.ConfigError) as exc:
            cf.load_config(config)
        assert exc.value.path == path
    rc = main([argv[0], "--config", str(config)] + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"raydiss: config error at '{path}': " if path
                          else "raydiss: config error: ")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


# (document, path, message) of each config error that no other test
# raises: the top level, the builtin name, dof, params, the mass_matrix
# grid, the dissipation mode, a SystemSpec error in each kind of field, and
# the _req, _typed and _parse_expr errors
ERROR_PATHS = [
    ([1], "", "top-level document must be a JSON object"),
    ({"system": 5}, "system", "builtin selection must be a name string"),
    ({**DSHO_INLINE, "dof": True}, "dof", "expected an integer, got True"),
    ({**DSHO_INLINE, "dof": "1"}, "dof", "expected an integer, got '1'"),
    ({**DSHO_INLINE, "dof": 1.5}, "dof", "expected an integer, got 1.5"),
    ({**DSHO_INLINE, "dof": 0}, "dof", "dof must be a positive integer"),
    ({**DSHO_INLINE, "params": [1]}, "params", "params must be an object"),
    ({**DSHO_INLINE, "mass_matrix": "m"}, "mass_matrix",
     "expected a list of length 1, got 'm'"),
    ({**DSHO_INLINE, "mass_matrix": [["m"], ["m"]]}, "mass_matrix",
     "expected a list of length 1, got [['m'], ['m']]"),
    ({**DSHO_INLINE, "mass_matrix": [["m", "0"]]}, "mass_matrix[0]",
     "expected a list of length 1, got ['m', '0']"),
    ({**DSHO_INLINE, "mass_matrix": [[1.0]]}, "mass_matrix[0][0]",
     "expected a string, got 1.0"),
    # a stated dof far above the grid's own size fails on the grid's
    # length, before anything of that size is built
    ({**DSHO_INLINE, "dof": 1000000}, "mass_matrix",
     "expected a list of length 1000000, got [['m']]"),
    ({**DSHO_INLINE, "dof": 10 ** 30}, "mass_matrix",
     f"expected a list of length {10 ** 30}, got [['m']]"),
    # dof 2.0 reads as the integer 2, as integrator.max_steps: 8.0 does
    ({**DSHO_INLINE, "dof": 2.0}, "mass_matrix",
     "expected a list of length 2, got [['m']]"),
    ({**DSHO_INLINE, "dissipation": {"mode": "linear"}}, "dissipation.mode",
     "mode must be homogeneous_sum or general, got 'linear'"),
    ({**DSHO_INLINE, "potential": "v1^2"}, "potential",
     "potential must not reference velocities"),
    ({**DSHO_INLINE, "dissipation": 5}, "dissipation",
     "expected an object, got 5"),
    ({**DSHO_INLINE, "dissipation": {"mode": "homogeneous_sum",
                                     "terms": [{"degree": 2}]}},
     "dissipation.terms[0]", "missing required field 'expr'"),
    ({**DSHO_INLINE, "output": {"path": 5}}, "output.path",
     "expected a string, got 5"),
    ({**DSHO_INLINE, "potential": 5}, "potential",
     "expected an expression string, got 5"),
    # a SystemSpec error names the expression's field
    ({**DSHO_INLINE, "mass_matrix": [["m*v1"]]}, "mass_matrix[0][0]",
     "mass_matrix entries must not reference velocities"),
    ({**DSHO_INLINE, "potential": "0.5*k*q2^2"}, "potential",
     "coordinate index 2 out of range 1..1"),
    ({**DSHO_INLINE, "dissipation": {"mode": "homogeneous_sum", "terms": [
        {"expr": "c*v1^2", "degree": 2}, {"expr": "b*v1^2", "degree": 2}]}},
     "dissipation.terms[1].expr", "unresolved parameter 'b'"),
    ({**DSHO_INLINE, "dissipation": {"mode": "general", "raw": "c*v2^2"}},
     "dissipation.raw", "velocity index 2 out of range 1..1"),
]


@pytest.mark.parametrize("doc, path, message", ERROR_PATHS, ids=[
    f"{i:02d}-{path}" for i, (_, path, _) in enumerate(ERROR_PATHS)])
def test_each_config_error_path_is_one_line(workdir, capsys, doc, path,
                                            message):
    rc = main(["simulate", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    where = f" at '{path}'" if path else ""
    assert capsys.readouterr().err == (
        f"raydiss: config error{where}: {message}\n")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


# D = v1^2 + c*v1^3 declared of degree 2: homogeneous at c = 0 only
NOT_HOMOGENEOUS = {
    "dof": 1, "params": {"m": 1.0, "k": 1.0, "c": 0.0},
    "mass_matrix": [["m"]], "potential": "0.5*k*q1^2",
    "dissipation": {"mode": "homogeneous_sum",
                    "terms": [{"expr": "v1^2 + c*v1^3", "degree": 2}]},
    "initial": {"q": [1.0], "v": [0.0]}, "t_end": 1.0}


@pytest.mark.parametrize("argv", [
    ["derive-r", "--set", "c=1", "--q", "0", "--v", "1"],
    ["simulate", "--set", "c=1"],
    ["check", "--set", "c=1"],
    ["sweep", "--param", "c", "--values", "0,1"],
], ids=lambda argv: argv[0])
def test_set_and_sweep_values_are_checked_like_overrides(workdir, capsys,
                                                         argv):
    # --set and each sweep value make their RunConfig as JSON overrides
    # do, so a value that breaks the declared degree is the same config
    # error, before any member runs or any file is written
    overridden = write_json(workdir / "o.json",
                            {**NOT_HOMOGENEOUS, "overrides": {"c": 1}})
    assert main(["check", "--config", overridden]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith(
        "raydiss: config error at 'dissipation.terms[0]': term is not "
        "homogeneous of declared degree 2.0 (")
    config = write_json(workdir / "c.json", NOT_HOMOGENEOUS)
    rc = main([argv[0], "--config", config] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == expected
    assert sorted(p.name for p in workdir.iterdir()) == ["c.json", "o.json"]


def test_overrides_that_repair_the_params_load():
    # the checks see the parameters after overrides, not before
    doc = {**NOT_HOMOGENEOUS, "params": {"m": 1.0, "k": 1.0, "c": 1.0}}
    with pytest.raises(cf.ConfigError, match="not homogeneous"):
        cf.config_from_dict(doc)
    cfg = cf.config_from_dict({**doc, "overrides": {"c": 0.0}})
    assert cfg.system.params["c"] == 0.0
    with pytest.raises(cf.ConfigError, match="not homogeneous"):
        cfg.with_params({"c": 1.0})
    with pytest.raises(cf.ConfigError, match="not homogeneous"):
        dataclasses.replace(cfg, system=dataclasses.replace(
            cfg.system, params={**cfg.system.params, "c": 1.0}))


def test_a_new_parameter_value_is_checked_however_it_is_made():
    # a loaded system's params are read-only, so no value reaches a run
    # unchecked: at c = 1 this D is not of its declared degree 2, and a
    # run would take R = D/2 = 1.0 at v = 1, where the integral gives
    # 0.8333. with_params and a replace of the system raise the same
    # one-line error; a replace that keeps the system runs at c = 0
    cfg = cf.config_from_dict(NOT_HOMOGENEOUS)
    with pytest.raises(TypeError):
        cfg.system.params["c"] = 1.0
    assert cfg.system.params["c"] == 0.0
    errors = []
    for make in (lambda: cfg.with_params({"c": 1.0}),
                 lambda: dataclasses.replace(cfg, system=dataclasses.replace(
                     cfg.system, params={**cfg.system.params, "c": 1.0}))):
        with pytest.raises(cf.ConfigError) as e:
            make()
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "config error at 'dissipation.terms[0]': term is not homogeneous "
        "of declared degree 2.0 (")
    assert "\n" not in errors[0]
    system = dataclasses.replace(cfg, t_end=2.0).system
    assert system.dissipation.model(1).D_R_grad(
        (0.0,), (1.0,), system.params) == (1.0, 0.5, [1.0])


@pytest.mark.parametrize("extra, runs", [
    ([], 1), (["--set", "c=0.5", "--t-end", "0.2"], 2)])
def test_sampled_checks_run_once_per_system(workdir, monkeypatch, extra,
                                            runs):
    # the flags' replace keeps the loaded system, whose checks ran at the
    # load; --set makes a new system, whose params are checked again. A
    # system is checked once per process: start from an empty cache
    clear_model_caches()
    calls = []

    def counted(*args, fn=rm.hypothesis_checks, **kw):
        calls.append(args[0].params)
        return fn(*args, **kw)
    monkeypatch.setattr(rm, "hypothesis_checks", counted)
    config = write_json(workdir / "b.json", {"system": "damped_sho"})
    assert main(["simulate", "--config", config] + extra) == 0
    assert [p["c"] for p in calls] == [0.2, 0.5][:runs]


def test_a_repeat_load_is_the_same_checked_system():
    # a system is built and checked once per value per process: loads of
    # one document, also with other run sections, and a with_params of the
    # values it has give the very system of the first load
    system = cf.config_from_dict(DSHO_INLINE).system
    assert cf.config_from_dict(DSHO_INLINE).system is system
    for change in ({"t_end": 2.0}, {"initial": {"q": [0.5], "v": [0.1]}},
                   {"integrator": {"method": "rk4"}},
                   {"audit": {"check_seed": 1}},
                   {"output": {"format": "jsonl"}}):
        assert cf.config_from_dict({**DSHO_INLINE, **change}).system is system
    cfg = cf.config_from_dict(DSHO_INLINE)
    assert cfg.with_params({"c": 0.2}).system is system
    assert cfg.with_params({"c": 0.3}).system is not system
    # a system that fails its hypotheses fails each load alike
    errors = []
    for _ in range(2):
        with pytest.raises(cf.ConfigError) as e:
            cf.config_from_dict({**NOT_HOMOGENEOUS, "overrides": {"c": 1.0}})
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def _count_checks(monkeypatch):
    """Names of the calls of the sampled checks, from now on."""
    calls = []
    for name in ("hypothesis_checks", "euler_identity_check",
                 "positivity_scan"):
        def counted(*args, fn=getattr(rm, name), name=name, **kw):
            calls.append(name)
            return fn(*args, **kw)
        monkeypatch.setattr(rm, name, counted)
    return calls


def _audited_run(doc):
    cfg = cf.config_from_dict(doc)
    traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end, cfg.integrator)
    return au.full_audit(cfg.system, traj, cfg.tolerances)


def test_audited_runs_of_one_system_sample_it_once(monkeypatch):
    # the hypotheses, the Euler identity and positivity depend on the
    # system (and the audit's sampling), not on a run: 20 audited runs from
    # other starts check it once; a new check_seed samples the two audit
    # sections again, and only them
    clear_model_caches()
    calls = _count_checks(monkeypatch)
    doc = {**DSHO_INLINE, "t_end": 0.2}
    for i in range(20):
        assert _audited_run({**doc, "initial": {"q": [1.0 + i / 64],
                                                "v": [0.0]}}).passed
    assert calls == ["hypothesis_checks", "euler_identity_check",
                     "positivity_scan"]
    calls.clear()
    assert _audited_run({**doc, "audit": {"check_seed": 1}}).passed
    assert calls == ["euler_identity_check", "positivity_scan"]
    system = cf.config_from_dict(doc).system
    for seed in range(20):
        system.sampled_check("positivity", 1, seed)
    assert len(system._sampled) <= rm._SAMPLED_KEPT


def test_a_raising_sampled_section_raises_on_each_audit(monkeypatch):
    # a section that raises is not stored: each audit runs it again and
    # reports the same message
    clear_model_caches()
    calls = []

    def broken(*args, **kw):
        calls.append(args)
        raise rm.ModelError("no positivity today")
    monkeypatch.setattr(rm, "positivity_scan", broken)
    for _ in range(2):
        report = _audited_run({**DSHO_INLINE, "t_end": 0.2})
        assert report.positivity is None
        assert report.errors == {"positivity": "no positivity today"}
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_builtin_exit_zero_and_schema(workdir):
    rc = main(["simulate", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"})])
    assert rc == 0
    header, rows = cli.read_trajectory_csv("damped_sho.csv")
    assert header == ["t", "q1", "v1", "H", "T", "V", "D", "R", "W"]
    assert rows[0][0] == 0.0 and rows[0][1] == 1.0
    report = json.loads((workdir / "damped_sho.audit.json").read_text())
    assert report["pass"] is True
    assert report["energy_balance"]["pass"] is True


def test_simulate_quad_drag_final_velocity(workdir):
    rc = main(["simulate", "--config",
               write_json(workdir / "b.json",
                          {"system": "quad_drag_particle"})])
    assert rc == 0
    _, rows = cli.read_trajectory_csv("quad_drag_particle.csv")
    assert rows[-1][0] == pytest.approx(3.0)
    assert rows[-1][2] == pytest.approx(0.5, abs=1e-8)  # v1 column


def test_simulate_adversarial_negative_d_exit_two(workdir):
    rc = main(["simulate", "--config",
               write_json(workdir / "neg.json", NEGATIVE_D),
               "--out", "neg.csv"])
    assert rc == 2
    report = json.loads((workdir / "neg.audit.json").read_text())
    assert report["pass"] is False
    assert report["positivity"]["passed"] is False
    assert report["euler_identity"]["passed"] is True


def test_general_pendulum_output_is_its_homogeneous_sum_twins(workdir):
    # in general mode, A*(v1^2+v2^2)^1.5 has velocity degree 3 and takes
    # the closed form R = D/3 of its homogeneous_sum twin, the builtin:
    # the same trajectory CSV and audit JSON, byte for byte
    general = {**DOCS["pendulum_drag_2dof"], "t_end": 3.0, "dissipation": {
        "mode": "general", "raw": "A*(v1^2+v2^2)^1.5"}}
    twin = {"system": "pendulum_drag_2dof", "t_end": 3.0}
    for stem, doc in (("g", general), ("h", twin)):
        assert main(["simulate", "--config",
                     write_json(workdir / f"{stem}.json", doc),
                     "--out", f"{stem}.csv"]) == 0
    for ext in (".csv", ".audit.json"):
        assert ((workdir / f"g{ext}").read_bytes()
                == (workdir / f"h{ext}").read_bytes())


# D = c*v1*tanh(v1/0.001), a regularised Coulomb law, from |v1| = 1: the
# former uniform rule needed 16 panels there and warned on stderr
TANH_DOC = {"dof": 1, "params": {"c": 0.1}, "mass_matrix": [["1"]],
            "potential": "0.5*q1^2",
            "dissipation": {"mode": "general", "raw": "c*v1*tanh(v1/0.001)"},
            "initial": {"q": [0.0], "v": [1.0]}, "t_end": 0.2}


def test_simulate_tanh_law_converges_without_quadrature_warning(workdir,
                                                                capsys):
    rc = main(["simulate", "--config",
               write_json(workdir / "g.json", TANH_DOC), "--out", "g.csv"])
    assert rc == 0
    assert json.loads((workdir / "g.audit.json").read_text())["pass"]
    assert capsys.readouterr().err == ""


def test_simulate_quadrature_failure_is_one_error_line(workdir, capsys):
    # D = |v1|^(1/2) vanishes at rest, so the config loads, but D/u ~ u^-1/2
    # on the smallest panel is too steep for 13 panels
    doc = {**TANH_DOC,
           "dissipation": {"mode": "general", "raw": "sqrt(abs(v1))"},
           "initial": {"q": [0.5], "v": [1.0]}}
    rc = main(["simulate", "--config", write_json(workdir / "g.json", doc),
               "--out", "g.csv"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("simulate: error: R quadrature did not converge "
                             "at q=[0.5], v=[1.0]: R = ")
    assert "(tolerance 1e-10)" in err[0]
    assert err[0].endswith("may need more quadrature panels")
    assert sorted(p.name for p in workdir.iterdir()) == ["g.json"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "nodir/x.csv"],
    ["simulate", "--out", "nodir/x.csv", "--plot-data"],
    ["sweep", "--param", "c", "--values", "0.1,0.2", "--out", "nodir/sw"],
], ids=["simulate", "simulate-plot", "sweep"])
def test_output_in_a_missing_directory_is_one_error_line(workdir, capsys,
                                                         argv):
    config = write_json(workdir / "c.json",
                        {"system": "damped_sho", "t_end": 0.5})
    rc = main(argv[:1] + ["--config", config] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"{argv[0]}: error: output directory 'nodir' does not exist\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["c.json"]


@pytest.mark.parametrize("argv, path", [
    (["simulate", "--out", "d"], "d"),
    (["simulate", "--out", "d/"], "d/"),
    (["sweep", "--param", "c", "--values", "0.1,0.2", "--out", "d"],
     "d_sweep.csv"),
    (["simulate", "--out", "x.csv"], "x.audit.json"),
], ids=["simulate", "simulate-slash", "sweep-summary", "simulate-audit"])
def test_output_path_that_is_a_directory_is_one_error_line(workdir, capsys,
                                                           argv, path):
    config = write_json(workdir / "c.json",
                        {"system": "damped_sho", "t_end": 0.5})
    os.mkdir(path)
    rc = main(argv[:1] + ["--config", config] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"{argv[0]}: error: output path '{path}' is a directory\n")
    assert sorted(p.name for p in workdir.iterdir()) == sorted(
        ["c.json", path.rstrip("/")])


def test_plot_directory_that_is_a_file_is_one_error_line(workdir, capsys):
    config = write_json(workdir / "c.json",
                        {"system": "damped_sho", "t_end": 0.5})
    (workdir / "y_plot").write_text("")
    rc = main(["simulate", "--config", config, "--out", "y.csv",
               "--plot-data"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "simulate: error: plot directory 'y_plot' exists and is not a "
        "directory\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["c.json", "y_plot"]


def test_simulate_bad_config_exit_one(workdir):
    assert main(["simulate", "--config", "missing.json"]) == 1


def test_simulate_set_override_and_t_end(workdir):
    rc = main(["simulate", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--set", "c=0", "--t-end", "1.0", "--out", "free.csv"])
    assert rc == 0
    _, rows = cli.read_trajectory_csv("free.csv")
    assert rows[-1][0] == pytest.approx(1.0)
    assert rows[-1][6] == 0.0  # D column vanishes with c = 0


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_parameter_changes_between_runs_take_effect(workdir, method):
    # systems of one dof and method share a generated attempt, and the
    # parameters reach it at each call: a new value, a new system through
    # with_params, --set or replace alike, takes effect in its run. The
    # params of a system are read-only, so a run's values are its own
    doc = {"system": "damped_sho", "t_end": 2.0,
           "integrator": {"method": method, "dt": 1e-2}}

    def rows(cfg):
        return dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                            cfg.integrator).rows

    def fresh(c):
        return rows(cf.config_from_dict({**doc, "overrides": {"c": c}}))

    cfg = cf.config_from_dict(doc)
    base = rows(cfg)
    assert rows(cfg.with_params({"c": 0.5})) == fresh(0.5) != base
    config = write_json(workdir / "b.json", doc)
    for out, extra in (("set.csv", ["--set", "c=0.7"]), ("base.csv", [])):
        assert main(["simulate", "--config", config, "--out", out]
                    + extra) == 0
    assert (cli.read_trajectory_csv("set.csv")[1]
            == [r[:-1] for r in fresh(0.7)]
            != cli.read_trajectory_csv("base.csv")[1])
    with pytest.raises(TypeError):
        cfg.system.params["c"] = 0.9
    assert rows(cfg) == base
    cfg = cfg.with_params({"c": 0.9})
    assert rows(cfg) == fresh(0.9) != base
    # accel, diagnostics and SystemSpec.mass of a system with a new mass
    # read it: the new system's model computes its own constants
    new = cf.config_from_dict({**doc, "overrides": {"c": 0.9, "m": 2.0}})
    s = dy.State(0.0, [0.5], [1.0])
    before = dy.accel(cfg.system, s).tolist()
    with pytest.raises(TypeError):
        cfg.system.params["m"] = 2.0
    old, cfg = cfg, dataclasses.replace(cfg, system=dataclasses.replace(
        cfg.system, params={**cfg.system.params, "m": 2.0}))
    assert (dy.accel(cfg.system, s).tolist()
            == dy.accel(new.system, s).tolist() != before)
    assert dy.accel(old.system, s).tolist() == before
    assert dy.diagnostics(cfg.system, s) == dy.diagnostics(new.system, s)
    assert dy.diagnostics(cfg.system, s).T_kin == 1.0
    assert cfg.system.mass([0.5]).tolist() == [[2.0]]
    assert rows(cfg) == rows(new)


def test_simulate_jsonl_and_plot_data(workdir):
    rc = main(["simulate", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--format", "jsonl", "--out", "run.jsonl", "--plot-data"])
    assert rc == 0
    lines = (workdir / "run.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"t", "q1", "v1", "H", "T", "V", "D", "R", "W"}
    assert (workdir / "run_plot" / "H.dat").exists()
    doc = {"system": "damped_sho", "t_end": 1.0,
           "output": {"path": "cfg.csv", "plot_data": True}}
    rc = main(["simulate", "--config", write_json(workdir / "p.json", doc)])
    assert rc == 0
    assert (workdir / "cfg_plot" / "H.dat").exists()


OVERFLOWING_H = {
    # a free particle whose finite speed squares past the largest double
    "dof": 1, "params": {"m": 1.0}, "mass_matrix": [["m"]], "potential": "0",
    "dissipation": {"mode": "homogeneous_sum", "terms": []},
    "initial": {"q": [0.0], "v": [1e155]}, "t_end": 1e-3,
    "integrator": {"method": "rk4", "dt": 1e-4},
    "output": {"format": "jsonl"},
}


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def test_jsonl_writes_a_non_finite_diagnostic_as_null(workdir):
    # H and T overflow at a finite state; a parser that rejects NaN and
    # Infinity reads every line, with null where the audit file has it
    rc = main(["simulate", "--config",
               write_json(workdir / "o.json", OVERFLOWING_H),
               "--format", "jsonl", "--out", "o.jsonl"])
    assert rc == 2
    rows = [json.loads(x, parse_constant=_reject)
            for x in (workdir / "o.jsonl").read_text().splitlines()]
    assert rows[0] == {"t": 0.0, "q1": 0.0, "v1": 1e155, "H": None,
                       "T": None, "V": 0.0, "D": 0.0, "R": 0.0, "W": 0.0}
    json.loads((workdir / "o.audit.json").read_text(),
               parse_constant=_reject)


def test_csv_round_trips_to_identical_doubles(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    traj, _ = cli.run_simulation(cfg)
    cli.write_trajectory(traj, 1, "out.csv", "csv")
    _, rows = cli.read_trajectory_csv("out.csv")
    assert len(rows) == len(traj)
    for row, orig in zip(rows, traj.rows):
        assert row == orig[:-1]  # exact, not approximate; E is not written


# ---------------------------------------------------------------------------
# check


def test_check_damped_sho_passes(workdir, capsys):
    rc = main(["check", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"})])
    assert rc == 0
    out = capsys.readouterr().out
    assert "homogeneity" in out and "pass" in out
    assert "R/D = 0.5" in out


def test_check_cubic_reports_degree_and_ratio(workdir, capsys):
    rc = main(["check", "--config",
               write_json(workdir / "b.json",
                          {"system": "quad_drag_particle"})])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degree 3" in out
    assert "R/D = 0.333333" in out


def test_check_rows_use_the_audit_sampling(workdir, monkeypatch):
    calls = []
    for name in ("rest_value_check", "positivity_scan",
                 "euler_identity_check"):
        def spy(*args, _fn=getattr(cli.rm, name), _name=name, **kw):
            calls.append((_name, kw.get("samples"), kw.get("seed")))
            return _fn(*args, **kw)
        monkeypatch.setattr(cli.rm, name, spy)
    doc = {**GENERAL_INLINE, "audit": {"check_samples": 7, "check_seed": 3}}
    rc = main(["check", "--config", write_json(workdir / "g.json", doc)])
    assert rc == 0
    assert calls[-3:] == [("rest_value_check", 7, 3),
                          ("positivity_scan", 7, 3),
                          ("euler_identity_check", 7, 3)]


def test_check_negative_d_fails(workdir, capsys):
    rc = main(["check", "--config",
               write_json(workdir / "neg.json", NEGATIVE_D)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# derive-r


def test_derive_r_sum_rule_table(workdir, capsys):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["params"] = {"m": 1.0, "k": 1.0}
    doc["dissipation"] = {"mode": "homogeneous_sum",
                          "terms": [{"expr": "v1^2", "degree": 2},
                                    {"expr": "abs(v1)^3", "degree": 3}]}
    rc = main(["derive-r", "--config", write_json(workdir / "c.json", doc),
               "--q", "0", "--v", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.5" in out and "0.33333" in out
    assert "total R      = 0.8333333333333333" in out
    assert "total D      = 2.0" in out


def test_derive_r_at_rest(workdir, capsys):
    rc = main(["derive-r", "--config",
               write_json(workdir / "c.json", DSHO_INLINE),
               "--q", "0", "--v", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total D      = 0.0" in out
    assert "total R      = 0.0" in out
    assert "dR/dv        = [0.0]" in out


def test_derive_r_null_dissipation(workdir, capsys):
    rc = main(["derive-r", "--config",
               write_json(workdir / "b.json", {"system": "sho"}),
               "--q", "1", "--v", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total R      = 0" in out


DERIVE_R_HEADER = ("term                             degree            D_n"
                   "          D_n/n")
QUADRATURE_LINE = ("quadrature: 13 graded panels (ratio 0.15) x 16 Gauss "
                   "nodes, estimate rule 12 nodes, tolerance 1e-10")


def _derive_r_general(workdir, capsys, raw, v):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["params"] = {"m": 1.0, "k": 1.0, "c": 0.3}
    doc["dissipation"] = {"mode": "general", "raw": raw}
    rc = main(["derive-r", "--config", write_json(workdir / "c.json", doc),
               "--q", "0", "--v", v])
    assert rc == 0
    return capsys.readouterr().out.splitlines()


def test_derive_r_general_mode_reports_quadrature(workdir, capsys):
    # v1^2 has velocity degree 2: one row with D_n/n, R = D/2 exactly and
    # no quadrature line
    out = _derive_r_general(workdir, capsys, "v1^2", "2")
    row = ("v1 ^ 2.0                              2              4"
           "              2")
    assert out[:3] == [DERIVE_R_HEADER, row, "total D      = 4.0"]
    assert "total R      = 2.0" in out
    assert not any(ln.startswith("quadrature") for ln in out)
    # c v tanh(v/eps) has none: the graded rule integrates it, R = c eps
    # ln cosh(v/eps), after the rows of any closed-form addends
    c, eps, v = 0.3, 0.001, 2.0
    tanh_r = c * (v + eps * (math.log1p(math.exp(-2.0 * v / eps))
                             - math.log(2.0)))
    for raw, rows, exact in [
            ("c*v1*tanh(v1/0.001)", [], tanh_r),
            ("v1^2 + c*v1*tanh(v1/0.001)", [DERIVE_R_HEADER, row],
             tanh_r + 2.0)]:
        out = _derive_r_general(workdir, capsys, raw, "2")
        assert out[:len(rows) + 1] == rows + [QUADRATURE_LINE]
        assert not any("refinement" in ln for ln in out)
        total_r, = [float(ln.split("=")[1]) for ln in out
                    if ln.startswith("total R")]
        assert abs(total_r - exact) <= 1e-10 * (1.0 + abs(exact))


def test_derive_r_evaluates_the_systems_own_model(workdir, capsys,
                                                  monkeypatch):
    # once _dissipation_model has evicted a system's dissipation model,
    # DissipationSpec.model(dof) builds another, equal one; derive-r on
    # the same document still evaluates the model the system's rhs runs,
    # never the other, and prints what it printed before
    clear_model_caches()
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"] = {"mode": "general",
                          "raw": "v1^2 + c*v1*tanh(v1/0.001)"}
    path = write_json(workdir / "c.json", doc)
    argv = ["derive-r", "--config", path, "--q", "0.5", "--v", "2"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    system = cf.load_config(path).system
    own = system.model.dissipation
    rm._dissipation_model.cache_clear()
    other = system.dissipation.model(1)
    assert other is not own
    seen = []
    for key, model in (("own", own), ("other", other)):
        def counted(*args, fn=model.D_R_grad, key=key):
            seen.append(key)
            return fn(*args)
        monkeypatch.setattr(model, "D_R_grad", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == before
    assert seen == ["own"]


@pytest.mark.parametrize("dissipation, q, v, expr", [
    ({"mode": "general", "raw": "exp(v1^2) - 1"}, "0", "30",
     "exp(v1 ^ 2.0) - 1.0"),
    ({"mode": "homogeneous_sum",
      "terms": [{"expr": "v1^2*exp(q1^2)", "degree": 2}]}, "30", "1",
     "v1 ^ 2.0 * exp(q1 ^ 2.0)"),
])
def test_derive_r_overflow_is_a_one_line_error(workdir, capsys, dissipation,
                                               q, v, expr):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"] = dissipation
    rc = main(["derive-r", "--config", write_json(workdir / "c.json", doc),
               "--q", q, "--v", v])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("derive-r: error at ")
    assert f"floating-point overflow in subexpression '{expr}'" in err
    assert "Warning" not in err and "Traceback" not in err


def test_derive_r_non_finite_result_is_a_one_line_error(workdir, capsys):
    # exp(400) is finite, but D = exp(400)^2 overflows to inf without an
    # error from the subexpression that does it
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"]["terms"] = [{"expr": "v1^2*exp(q1)*exp(q1)",
                                    "degree": 2}]
    rc = main(["derive-r", "--config", write_json(workdir / "c.json", doc),
               "--q", "400", "--v", "1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("derive-r: error at q=[400.0], v=[1.0]: non-finite "
                   "result: D = inf, R = inf, dR/dv = [inf]\n")


def test_derive_r_wrong_arity(workdir):
    rc = main(["derive-r", "--config",
               write_json(workdir / "c.json", DSHO_INLINE),
               "--q", "0,1", "--v", "0"])
    assert rc == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_damping_values(workdir):
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", "0,0.1,0.2", "--jobs", "2"])
    assert rc == 0
    lines = (workdir / "damped_sho_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("c,status,final_q1,final_v1,")
    assert len(lines) == 4
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0 and row0[1] == "ok"
    assert float(row0[4]) <= 1e-9  # c = 0: defect is pure drift
    for c in ("0", "0.1", "0.2"):
        assert (workdir / f"damped_sho_c={c}.csv").exists()


def test_sweep_singleton_matches_simulate(workdir):
    base = write_json(workdir / "b.json", {"system": "damped_sho"})
    assert main(["sweep", "--config", base, "--param", "c",
                 "--values", "0.2", "--out", "sw"]) == 0
    assert main(["simulate", "--config", base, "--out", "direct.csv"]) == 0
    assert (workdir / "sw_c=0.2.csv").read_text() == \
        (workdir / "direct.csv").read_text()


def test_sweep_unknown_param_fails_before_running(workdir):
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "zz", "--values", "1,2"])
    assert rc == 1
    assert not list(workdir.glob("*_sweep.csv"))


def test_sweep_rejects_values_with_colliding_file_names(workdir, capsys):
    # only a repeated value repeats a file name
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", "0.2,0.1,0.1"])
    assert rc == 1
    assert "0.1, 0.1 would write the same c=... file names" in (
        capsys.readouterr().err)
    assert not list(workdir.glob("damped_sho_*"))


def test_sweep_names_distinct_values_apart(workdir):
    # 0.27401004760221975 and 0.274009676442738 are both 0.27401 by {:g}:
    # their names take the seventh significant digit, while values that
    # {:g} already tells apart keep its names
    base = write_json(workdir / "b.json", {
        "system": "damped_sho", "t_end": 0.5,
        "integrator": {"method": "rk4", "dt": 1e-2}})
    assert main(["sweep", "--config", base, "--param", "c", "--values",
                 "0.27401004760221975,0.274009676442738", "--out", "w"]) == 0
    assert {p.name for p in workdir.glob("w_c=*")} == {
        "w_c=0.27401.csv", "w_c=0.2740097.csv"}
    rows = (workdir / "w_sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == [
        "w_c=0.27401.csv", "w_c=0.2740097.csv"]
    assert main(["sweep", "--config", base, "--param", "c", "--values",
                 "0.1,0.274009676442738", "--out", "g"]) == 0
    assert {p.name for p in workdir.glob("g_c=*")} == {
        "g_c=0.1.csv", "g_c=0.27401.csv"}


@pytest.mark.parametrize("values, names", [
    ([0.1, 0.3], ["0.1", "0.3"]),
    ([0.27401004760221975, 0.274009676442738], ["0.27401", "0.2740097"]),
    ([1.0, 1.0 + 2 ** -52], ["1", "1.0000000000000002"]),
    ([0.0, -0.0], ["0", "-0"]),
    ([0.1, 0.1, 0.2], ["0.1", "0.1", "0.2"])])
def test_sweep_member_names_take_the_fewest_digits_that_differ(values,
                                                              names):
    assert cli._member_names(values) == names


def test_sweep_bad_values_exit_one(workdir):
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", "0.1,squid"])
    assert rc == 1


@pytest.fixture
def time_limit():
    """Fail, rather than hang, a test that waits on worker processes."""
    def expire(signum, frame):
        signal.alarm(5)  # again, in case the executor's cleanup waits too
        raise TimeoutError("sweep did not finish within 120 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_sweep_jobs_must_be_a_positive_integer(workdir, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "b.json", "--param", "c",
              "--values", "0.1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs: invalid positive_int value" in \
        capsys.readouterr().err


@pytest.mark.parametrize("values", ["", ","])
def test_sweep_without_values_is_a_config_error(workdir, capsys, values):
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", values])
    assert rc == 1
    assert capsys.readouterr().err == \
        "raydiss: config error: --values needs at least one number\n"
    assert [p.name for p in workdir.iterdir()] == ["b.json"]


def test_sweep_builds_the_members_code_before_the_fork(workdir,
                                                     monkeypatch):
    # the workers inherit every function a member runs: the members run
    # here, where the fork would start them, generate no code at all
    clear_model_caches()
    dy._loop.cache_clear()
    defined = []

    def run_here(members, indices, workers):
        def counted(signature, *args, fn=xc.define, **names):
            defined.append(signature)
            return fn(signature, *args, **names)
        monkeypatch.setattr(xc, "define", counted)
        return [cli._run_member(*members[i]) for i in indices]
    monkeypatch.setattr(cli, "_run_forked", run_here)
    doc = {"system": "damped_sho", "t_end": 0.2,
           "integrator": {"method": "rk4", "dt": 1e-2}}
    assert main(["sweep", "--config", write_json(workdir / "s.json", doc),
                 "--param", "c", "--values", "0.1,0.3"]) == 0
    assert defined == []


@pytest.mark.parametrize("jobs, values, workers", [
    ("8", "0.1,0.2", 2), ("1", "0.1,0.2,0.3", 1), (None, "0.1,0.2", 2),
    (None, "0.1", 1)])
def test_sweep_workers_are_capped_at_the_value_count(workdir, monkeypatch,
                                                     time_limit, jobs, values,
                                                     workers):
    seen = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["sweep", "--config",
            write_json(workdir / "b.json", {"system": "damped_sho"}),
            "--param", "c", "--values", values]
    assert main(argv + (["--jobs", jobs] if jobs else [])) == 0
    assert seen == [workers]


@pytest.mark.parametrize("doc, argv", [
    ({"system": "damped_sho"}, ["--param", "c", "--values", "0,0.1,0.2"]),
    ({"system": "pendulum_drag_2dof"},
     ["--param", "A", "--values", "0.05,0.2", "--set", "g=1.2"])],
    ids=["damped_sho", "pendulum_set"])
def test_sweep_files_do_not_depend_on_jobs(workdir, monkeypatch, time_limit,
                                           doc, argv):
    config = write_json(workdir / "b.json", {**doc, "t_end": 1.0})
    files = {}
    for jobs in ("1", "2"):
        (workdir / jobs).mkdir()
        monkeypatch.chdir(workdir / jobs)
        assert main(["sweep", "--config", config, "--jobs", jobs,
                     "--out", "sw"] + argv) == 0
        files[jobs] = {p.name: p.read_bytes()
                       for p in (workdir / jobs).iterdir()}
    assert len(files["1"]) == len(argv[3].split(",")) + 1
    assert files["1"] == files["2"]


def _failing_run(monkeypatch, how):
    """Make the member with c = 0.2 raise, or kill its worker process."""
    real = cli.run_simulation

    def run(c):
        if c.system.params["c"] == 0.2:
            if how == "die":
                os._exit(3)
            raise cli.dy.DynamicsError("step size underflow (forced)")
        return real(c)

    monkeypatch.setattr(cli, "run_simulation", run)


@pytest.mark.parametrize("how", ["raise", "die"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_member_failure_is_an_error_row(workdir, capsys, monkeypatch,
                                              time_limit, how, jobs):
    _failing_run(monkeypatch, how)
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", "0.1,0.2,0.3,0.4",
               "--jobs", jobs])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = (workdir / "damped_sho_sweep.csv").read_text().splitlines()[1:]
    status = [row.split(",")[1] for row in rows]
    assert status[0] == status[2] == status[3] == "ok"
    assert status[1].startswith('"error: ')
    if how == "raise":
        assert "step size underflow (forced)" in status[1]
    assert sorted(p.name for p in workdir.glob("damped_sho_c=*")) == [
        "damped_sho_c=0.1.csv", "damped_sho_c=0.3.csv",
        "damped_sho_c=0.4.csv"]


def test_sweep_tanh_law_converges_without_quadrature_warning(
        workdir, capsys, time_limit):
    # the simulate test's law: every member converges, with no warning;
    # three members on two workers, so one worker runs two of them
    config = write_json(workdir / "g.json", TANH_DOC)
    rc = main(["sweep", "--config", config, "--param", "c",
               "--values", "0.1,0.2,0.3", "--jobs", "2", "--out", "g"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = (workdir / "g_sweep.csv").read_text().splitlines()
    assert rows[0] == "c,status,final_q1,final_v1,max_energy_defect,file"
    assert [row.split(",")[1] for row in rows[1:]] == ["ok"] * 3


# ---------------------------------------------------------------------------
# Round trips


def test_config_round_trip_same_simulation(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    cf.save_config(cfg, str(workdir / "saved.json"))
    cfg2 = cf.load_config(str(workdir / "saved.json"))
    cli.write_trajectory(cli.run_simulation(cfg)[0], 1, "a.csv", "csv")
    cli.write_trajectory(cli.run_simulation(cfg2)[0], 1, "b.csv", "csv")
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


FULL_INLINE = {
    **GENERAL_INLINE,
    "dissipation": {"mode": "general", "raw": "c*v1^2",
                    "quadrature": {"node_count": 32, "panels": 2,
                                   "tolerance": 1e-9}},
    "t_end": 3.5,
    "integrator": {"method": "rk4", "dt": 2e-3, "rel_tol": 1e-8,
                   "abs_tol": 1e-11, "max_steps": 5000, "sample_every": 2},
    "audit": {"energy": 1e-5, "stationarity": 1e-4, "slope_window": [1.7, 2.3],
              "check_samples": 40, "check_seed": 7},
    "output": {"path": "x.jsonl", "format": "jsonl", "plot_data": True},
}


@pytest.mark.parametrize("doc", [{"system": n} for n in BUILTIN_NAMES]
                         + [FULL_INLINE], ids=list(BUILTIN_NAMES) + ["full"])
def test_config_dict_round_trip_keeps_every_section(doc):
    def sections(c):
        return (c.integrator, c.tolerances, c.output,
                c.system.dissipation.quadrature)
    cfg = cf.config_from_dict(doc)
    back = cf.config_from_dict(cf.config_to_dict(cfg))
    assert sections(back) == sections(cfg)
    assert back.t_end == cfg.t_end
    if doc is FULL_INLINE:  # every field differs from its default
        assert all(getattr(s, f.name) != f.default
                   for s in sections(cfg) for f in dataclasses.fields(s))


def test_exit_codes_are_limited_to_contract(workdir):
    base = write_json(workdir / "b.json", {"system": "damped_sho"})
    neg = write_json(workdir / "neg.json", NEGATIVE_D)
    codes = {
        main(["simulate", "--config", base, "--out", "x.csv"]),
        main(["simulate", "--config", neg, "--out", "y.csv"]),
        main(["simulate", "--config", "missing.json"]),
        main(["check", "--config", base]),
        main(["check", "--config", neg]),
    }
    assert codes == {0, 1, 2}
