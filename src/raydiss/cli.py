"""Command-line workflow: simulate, check, derive-r, sweep.

Exit codes: 0 success, 1 error, 2 audit/check failure. Trajectory files
are CSV (header t,q1..qm,v1..vm,H,T,V,D,R,W) or JSONL; audit results are
written as JSON next to the trajectory. Float formatting uses Python's
shortest-round-trip repr so files parse back to identical doubles.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys as _sys
from dataclasses import replace

import numpy as np

from . import audit as au
from . import dynamics as dy
from . import exprcore as xc
from . import raymodel as rm
from .builtins import BUILTIN_NAMES
from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2


def _fmt(x):
    return repr(float(x))


def _columns(dof):
    return (["t"] + [f"q{i + 1}" for i in range(dof)]
            + [f"v{i + 1}" for i in range(dof)]
            + ["H", "T", "V", "D", "R", "W"])


def _rows(traj):
    for s, d in traj.samples:
        yield ([s.t] + list(s.q) + list(s.v)
               + [d.H, d.T_kin, d.V_pot, d.D_val, d.R_val, d.W])


def write_trajectory(traj, dof, path, fmt):
    cols = _columns(dof)
    with open(path, "w", encoding="utf-8") as f:
        if fmt == "csv":
            f.write(",".join(cols) + "\n")
            for row in _rows(traj):
                f.write(",".join(_fmt(x) for x in row) + "\n")
        else:
            for row in _rows(traj):
                f.write(json.dumps({c: float(x) for c, x in zip(cols, row)})
                        + "\n")


def write_plot_data(traj, dof, stem):
    """One two-column (t, value) series file per trajectory column."""
    cols = _columns(dof)
    outdir = stem + "_plot"
    os.makedirs(outdir, exist_ok=True)
    series = {c: [] for c in cols[1:]}
    ts = []
    for row in _rows(traj):
        ts.append(row[0])
        for c, x in zip(cols[1:], row[1:]):
            series[c].append(x)
    for c, ys in series.items():
        with open(os.path.join(outdir, f"{c}.dat"), "w",
                  encoding="utf-8") as f:
            for t, y in zip(ts, ys):
                f.write(f"{_fmt(t)} {_fmt(y)}\n")
    return outdir


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into (header, rows of floats)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [[float(x) for x in line.strip().split(",")]
                for line in f if line.strip()]
    return header, rows


# ---------------------------------------------------------------------------
# Commands


def _default_out(cfg):
    if cfg.output.path:
        return cfg.output.path
    return f"{cfg.builtin_name or 'run'}.{cfg.output.format}"


def run_simulation(cfg: RunConfig):
    traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end, cfg.integrator)
    report = au.full_audit(cfg.system, traj, cfg.tolerances)
    return traj, report


def cmd_simulate(cfg: RunConfig) -> int:
    out = _default_out(cfg)
    model = cfg.system.dissipation.model(cfg.system.dof)
    refined_before = model.refinements
    try:
        traj, report = run_simulation(cfg)
    except (dy.DynamicsError, rm.ModelError, xc.ExprError) as e:
        print(f"simulate: error: {e}", file=_sys.stderr)
        return EXIT_ERROR
    refined = model.refinements - refined_before
    if refined:
        print(f"simulate: warning: {refined} R quadrature evaluations "
              f"needed {model.refined_panels} panels (configured "
              f"{model.quadrature.panels}) to converge", file=_sys.stderr)
    write_trajectory(traj, cfg.system.dof, out, cfg.output.format)
    audit_path = os.path.splitext(out)[0] + ".audit.json"
    with open(audit_path, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    if cfg.output.plot_data:
        write_plot_data(traj, cfg.system.dof, os.path.splitext(out)[0])
    print(f"simulate: wrote {out} ({len(traj)} samples) and {audit_path}")
    if not report.passed:
        print("simulate: audit FAILED (see audit JSON)", file=_sys.stderr)
        return EXIT_AUDIT_FAIL
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    sys = cfg.system
    d = sys.dissipation
    rows = []
    ok = True
    if d.mode == "homogeneous_sum":
        for i, term in enumerate(d.terms):
            rep = rm.homogeneity_check(term, sys.dof, sys.params,
                                       samples=cfg.tolerances.check_samples,
                                       seed=cfg.tolerances.check_seed)
            rows.append((f"homogeneity[{i}] (degree {term.degree:g}, "
                         f"R/D = {1.0 / term.degree:.6g})",
                         rep.passed, rep.max_violation))
            ok &= rep.passed
    else:
        rep = rm.rest_value_check(d, sys.dof, sys.params,
                                  samples=cfg.tolerances.check_samples,
                                  seed=cfg.tolerances.check_seed)
        rows.append(("rest value D(q,0)=0", rep.passed, rep.max_violation))
        ok &= rep.passed
    for fn in (rm.positivity_scan, rm.euler_identity_check):
        rep = fn(d, sys.dof, sys.params,
                 samples=cfg.tolerances.check_samples,
                 seed=cfg.tolerances.check_seed)
        rows.append((rep.name + (f" ({rep.detail})" if rep.detail else ""),
                     rep.passed, rep.max_violation))
        ok &= rep.passed
    width = max((len(r[0]) for r in rows), default=10) + 2
    print(f"{'check':<{width}} {'result':<8} max violation")
    for name, passed, viol in rows:
        print(f"{name:<{width}} {'pass' if passed else 'FAIL':<8} {viol:.3e}")
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_derive_r(cfg: RunConfig, q, v) -> int:
    sys = cfg.system
    if len(q) != sys.dof or len(v) != sys.dof:
        print(f"derive-r: error: q and v must have {sys.dof} components",
              file=_sys.stderr)
        return EXIT_ERROR
    qt, vt, p = tuple(q), tuple(v), sys.params
    d = sys.dissipation
    try:
        model = d.model(sys.dof)
        if d.mode == "homogeneous_sum":
            total_d = total_r = 0.0
            print(f"{'term':<30} {'degree':>8} {'D_n':>14} {'D_n/n':>14}")
            for term in d.terms:
                dn = term.evaluate(qt, vt, p)
                print(f"{xc.to_source(term.expr):<30} {term.degree:>8g} "
                      f"{dn:>14.8g} {dn / term.degree:>14.8g}")
                total_d += dn
                total_r += dn / term.degree
        else:
            total_d = model.D(qt, vt, p)
            total_r, warning = model.R_with_warning(qt, vt, p)
            qc = d.quadrature
            print(f"quadrature: {qc.node_count} nodes x {qc.panels} panels, "
                  f"refinement tolerance {qc.tolerance:g}")
            print("refinement: " + (warning or "converged on first doubling"))
        force = model.grad_R(qt, vt, p)
    except (rm.ModelError, xc.ExprError) as e:
        print(f"derive-r: error at q={list(q)}, v={list(v)}: {e}",
              file=_sys.stderr)
        return EXIT_ERROR
    print(f"total D      = {total_d!r}")
    print(f"total R      = {total_r!r}")
    ratio = total_r / total_d if total_d else float("nan")
    print(f"R/D          = {ratio!r}")
    print(f"dR/dv        = {[float(x) for x in force]!r}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, param, values, out_stem=None, jobs=None) -> int:
    members = [cfg.with_params({param: x}) for x in values]
    names = [f"{x:g}" for x in values]  # file names below use {value:g}
    clash = [repr(x) for x, n in zip(values, names) if names.count(n) > 1]
    if clash:
        print(f"sweep: error: values {', '.join(clash)} would write the "
              f"same {param}=... file names", file=_sys.stderr)
        return EXIT_ERROR
    stem = out_stem or os.path.splitext(_default_out(cfg))[0]
    jobs = jobs or os.cpu_count() or 1

    def one(value, c):
        out = f"{stem}_{param}={value:g}.{c.output.format}"
        try:
            traj, report = run_simulation(c)
        except Exception as e:
            return {"value": value, "status": f"error: {e}"}
        write_trajectory(traj, c.system.dof, out, c.output.format)
        s = traj.states()[-1]
        defect = (report.energy_balance.max_defect
                  if report.energy_balance else float("nan"))
        return {"value": value, "status": "ok" if report.passed
                else "audit_fail", "final_q": list(s.q), "final_v": list(s.v),
                "max_energy_defect": defect, "file": out}

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        results = list(ex.map(one, values, members))
    summary = f"{stem}_sweep.csv"
    m = cfg.system.dof
    with open(summary, "w", encoding="utf-8") as f:
        qcols = ",".join(f"final_q{i + 1}" for i in range(m))
        vcols = ",".join(f"final_v{i + 1}" for i in range(m))
        f.write(f"{param},status,{qcols},{vcols},max_energy_defect,file\n")
        for r in results:
            if "final_q" in r:
                f.write(",".join(
                    [_fmt(r["value"]), r["status"]]
                    + [_fmt(x) for x in r["final_q"]]
                    + [_fmt(x) for x in r["final_v"]]
                    + [_fmt(r["max_energy_defect"]), r["file"]]) + "\n")
            else:
                f.write(f"{_fmt(r['value'])},\"{r['status']}\""
                        + "," * (2 * m + 2) + "\n")
    print(f"sweep: {len(results)} runs, summary in {summary}")
    bad = [r for r in results if r["status"] != "ok"]
    if any(r["status"].startswith("error") for r in results):
        return EXIT_ERROR
    return EXIT_AUDIT_FAIL if bad else EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling


def _parse_set(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects name=value, got '{item}'")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--set {name}: '{val}' is not a number") \
                from None
    return out


def _parse_floats(text, flag):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, "
                          f"got '{text}'") from None


def build_parser():
    p = argparse.ArgumentParser(
        prog="raydiss",
        description="Simulate and audit dissipative mechanical systems "
                    "driven by a generalized Rayleigh dissipation potential.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True,
                        help="path to a JSON run configuration; builtins: "
                             + ", ".join(BUILTIN_NAMES))
        sp.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="override a system parameter (repeatable)")

    sp = sub.add_parser("simulate", help="integrate and audit a trajectory")
    common(sp)
    sp.add_argument("--t-end", type=float)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("csv", "jsonl"))
    sp.add_argument("--plot-data", action="store_true")

    sp = sub.add_parser("check", help="static dissipation checks, no "
                                      "integration")
    common(sp)

    sp = sub.add_parser("derive-r", help="report R construction at a state")
    common(sp)
    sp.add_argument("--q", required=True, help="comma-separated coordinates")
    sp.add_argument("--v", required=True, help="comma-separated velocities")

    sp = sub.add_parser("sweep", help="run simulate across parameter values")
    common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated parameter values")
    sp.add_argument("--out")
    sp.add_argument("--jobs", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        overrides = _parse_set(args.set)
        if overrides:
            cfg = cfg.with_params(overrides)
        if args.command == "simulate":
            if args.t_end is not None:
                cfg = replace(cfg, t_end=args.t_end)
            out = cfg.output
            cfg = replace(cfg, output=replace(
                out, path=args.out or out.path,
                format=args.format or out.format,
                plot_data=args.plot_data or out.plot_data))
            return cmd_simulate(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "derive-r":
            return cmd_derive_r(cfg, _parse_floats(args.q, "--q"),
                                _parse_floats(args.v, "--v"))
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param,
                             _parse_floats(args.values, "--values"),
                             out_stem=args.out, jobs=args.jobs)
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"raydiss: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except (rm.ModelError, xc.ExprError, dy.DynamicsError) as e:
        print(f"raydiss: error: {e}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
