import concurrent.futures
import dataclasses
import json
import math
import os
import signal

import numpy as np
import pytest

from raydiss import cli
from raydiss import config as cf
from raydiss import dynamics as dy
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


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_huge_declared_degree_is_a_one_line_config_error(workdir, capsys,
                                                         command):
    # lam ** 1e30 overflows a float for lam > 1: that sample's violation
    # is infinite, not a traceback
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"]["terms"][0]["degree"] = 1e30
    rc = main([command, "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'dissipation.terms[0]': term is not "
        "homogeneous of declared degree 1e+30 (max relative violation "
        "inf)\n")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


# numpy's overflow warnings from the sampled checks are a separate matter;
# this test is about the verdict
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_term_is_a_one_line_config_error(workdir, capsys):
    # D = A*|v1|^3 overflows to inf above |v1| ~ 5.6, where the homogeneity
    # violation inf - inf is NaN
    doc = {**DSHO_INLINE, "params": {"m": 1.0, "k": 1.0, "A": 1e306},
           "dissipation": {"mode": "homogeneous_sum",
                           "terms": [{"expr": "A*abs(v1)^3", "degree": 3}]},
           "initial": {"q": [0.0], "v": [0.0]}, "t_end": 0.5,
           "integrator": {"method": "rk4", "dt": 0.01}}
    rc = main(["simulate", "--config", write_json(workdir / "c.json", doc)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "raydiss: config error at 'dissipation.terms[0]': term is not "
        "homogeneous of declared degree 3.0 (max relative violation inf)\n")
    assert [p.name for p in workdir.iterdir()] == ["c.json"]


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
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["dissipation"] = {"mode": "general", "raw": "v1^2 + 1"}
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
], ids=["simulate", "simulate-slash", "sweep-summary"])
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


def test_csv_round_trips_to_identical_doubles(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    traj, _ = cli.run_simulation(cfg)
    cli.write_trajectory(traj, 1, "out.csv", "csv")
    _, rows = cli.read_trajectory_csv("out.csv")
    for row, orig in zip(rows, cli._rows(traj)):
        assert row == [float(x) for x in orig]  # exact, not approximate


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


def test_derive_r_general_mode_reports_quadrature(workdir, capsys):
    doc = json.loads(json.dumps(DSHO_INLINE))
    doc["params"] = {"m": 1.0, "k": 1.0}
    doc["dissipation"] = {"mode": "general", "raw": "v1^2"}
    rc = main(["derive-r", "--config", write_json(workdir / "c.json", doc),
               "--q", "0", "--v", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("quadrature: 13 graded panels (ratio 0.15) x 16 Gauss "
                      "nodes, estimate rule 12 nodes, tolerance 1e-10")
    assert not any("refinement" in ln for ln in out)
    # R = v1^2/2 = 2; the weighted sum over 208 nodes rounds to within a
    # few ulps of it (it prints 1.9999999999999996, one ulp of 2 below)
    total_r, = [float(ln.split("=")[1]) for ln in out
                if ln.startswith("total R")]
    assert abs(total_r - 2.0) <= 4 * math.ulp(2.0)


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
    rc = main(["sweep", "--config",
               write_json(workdir / "b.json", {"system": "damped_sho"}),
               "--param", "c", "--values", "0.2,0.1,0.1000001"])
    assert rc == 1
    assert "0.1, 0.1000001" in capsys.readouterr().err
    assert not list(workdir.glob("damped_sho_*"))


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
