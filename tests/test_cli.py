import json

import numpy as np
import pytest

from raydiss import cli
from raydiss import config as cf
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


def test_simulate_reports_refined_quadrature_evaluations(workdir, capsys):
    # D = c*v1*tanh(v1/0.001) needs 16 panels for |v1| near 1
    doc = {"dof": 1, "params": {"c": 0.1}, "mass_matrix": [["1"]],
           "potential": "0.5*q1^2",
           "dissipation": {"mode": "general",
                           "raw": "c*v1*tanh(v1/0.001)"},
           "initial": {"q": [0.0], "v": [1.0]}, "t_end": 0.2}
    rc = main(["simulate", "--config", write_json(workdir / "g.json", doc),
               "--out", "g.csv"])
    report = json.loads((workdir / "g.audit.json").read_text())
    assert rc == (0 if report["pass"] else 2)
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if "quadrature" in ln]
    assert len(lines) == 1
    count = int(lines[0].split("warning: ")[1].split()[0])
    assert count > 0
    assert lines[0].endswith("needed 16 panels (configured 4) to converge")

    rc = main(["simulate", "--config", write_json(workdir / "b.json",
                                                  {"system": "damped_sho"})])
    assert rc == 0 and "quadrature" not in capsys.readouterr().err


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
    out = capsys.readouterr().out
    assert "quadrature" in out
    assert "total R      = 2.0" in out


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


# ---------------------------------------------------------------------------
# Round trips


def test_config_round_trip_same_simulation(workdir):
    cfg = cf.load_config(write_json(workdir / "c.json", DSHO_INLINE))
    cf.save_config(cfg, str(workdir / "saved.json"))
    cfg2 = cf.load_config(str(workdir / "saved.json"))
    cli.write_trajectory(cli.run_simulation(cfg)[0], 1, "a.csv", "csv")
    cli.write_trajectory(cli.run_simulation(cfg2)[0], 1, "b.csv", "csv")
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


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
