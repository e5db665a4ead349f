"""Command-line workflow: simulate, check, derive-r, sweep.

Exit codes: 0 success, 1 error, 2 audit/check failure. Trajectory files
are CSV (header t,q1..qm,v1..vm,H,T,V,D,R,W) or JSONL; audit results are
written as JSON next to the trajectory. Float formatting uses Python's
shortest-round-trip repr so files parse back to identical doubles; the
CSV and plot-data files of a process that has written enough values are
formatted by raydiss.native's compiled formatter, which reads the
trajectory's array of doubles in place and writes the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _repr_text(data, width, cols, sep):
    """native's formatter text by repr: the entries at cols of each row of
    `width` in the array data, joined by sep, a line per row."""
    return "".join([sep.join([repr(data[k + j]) for j in cols]) + "\n"
                    for k in range(0, len(data), width)])


def _formatter(values):
    """native's compiled formatter where it is built; otherwise _repr_text,
    after counting the `values` that it formats."""
    from . import native  # here, as in integrate: loaded once there are rows
    return native.formatter() or native.count_values(values) or _repr_text


def write_trajectory(traj, dof, path, fmt):
    cols = dy.columns(dof)
    with open(path, "w", encoding="utf-8") as f:
        if fmt == "csv":
            f.write(",".join(cols) + "\n")
            text = _formatter(len(traj) * len(cols))
            f.write(text(traj.data, traj.width, range(len(cols)), ","))
        else:
            # a non-finite entry (say an H that overflows at a finite
            # state) is null, as in the audit file: JSON has no NaN or
            # Infinity
            for row in traj.rows:
                f.write(json.dumps(au._json_data(dict(zip(cols, row))),
                                   allow_nan=False) + "\n")


def write_plot_data(traj, dof, stem):
    """One two-column (t, value) series file per trajectory column."""
    cols = dy.columns(dof)
    outdir = stem + "_plot"
    os.makedirs(outdir, exist_ok=True)
    text = _formatter(2 * len(traj) * (len(cols) - 1))
    for j, c in enumerate(cols[1:], 1):
        with open(os.path.join(outdir, f"{c}.dat"), "w",
                  encoding="utf-8") as f:
            f.write(text(traj.data, traj.width, (0, j), " "))
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


def _bad_output(command, path):
    """True, after one error line, when the directory of the output file
    `path` is missing or `path` is itself a directory."""
    d = os.path.dirname(path)
    if d and not os.path.isdir(d):
        msg = f"output directory '{d}' does not exist"
    elif os.path.isdir(path):
        msg = f"output path '{path}' is a directory"
    else:
        return False
    print(f"{command}: error: {msg}", file=_sys.stderr)
    return True


def run_simulation(cfg: RunConfig):
    traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end, cfg.integrator)
    report = au.full_audit(cfg.system, traj, cfg.tolerances)
    return traj, report


def cmd_simulate(cfg: RunConfig) -> int:
    out = _default_out(cfg)
    stem = os.path.splitext(out)[0]
    audit_path = stem + ".audit.json"
    if _bad_output("simulate", out) or _bad_output("simulate", audit_path):
        return EXIT_ERROR
    plot_dir = stem + "_plot"
    if (cfg.output.plot_data and os.path.exists(plot_dir)
            and not os.path.isdir(plot_dir)):
        print(f"simulate: error: plot directory '{plot_dir}' exists and is "
              f"not a directory", file=_sys.stderr)
        return EXIT_ERROR
    try:
        traj, report = run_simulation(cfg)
    except (dy.DynamicsError, rm.ModelError, xc.ExprError) as e:
        print(f"simulate: error: {e}", file=_sys.stderr)
        return EXIT_ERROR
    write_trajectory(traj, cfg.system.dof, out, cfg.output.format)
    with open(audit_path, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2, allow_nan=False)
        f.write("\n")
    if cfg.output.plot_data:
        write_plot_data(traj, cfg.system.dof, stem)
    print(f"simulate: wrote {out} ({len(traj)} samples) and {audit_path}")
    if not report.passed:
        print("simulate: audit FAILED (see audit JSON)", file=_sys.stderr)
        return EXIT_AUDIT_FAIL
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    sys = cfg.system
    d = sys.dissipation
    sampling = {"samples": cfg.tolerances.check_samples,
                "seed": cfg.tolerances.check_seed}
    rows = []
    for i, rep in rm.hypothesis_checks(sys, **sampling):
        n = None if i is None else d.terms[i].degree
        rows.append((f"homogeneity[{i}] (degree {n:g}, R/D = {1.0 / n:.6g})"
                     if n else "rest value D(q,0)=0", rep))
    for name in ("positivity", "euler_identity"):
        rep = sys.sampled_check(name, **sampling)
        rows.append((rep.name + (f" ({rep.detail})" if rep.detail else ""),
                     rep))
    width = max(len(name) for name, _ in rows) + 2
    print(f"{'check':<{width}} {'result':<8} max violation")
    for name, rep in rows:
        print(f"{name:<{width}} {'pass' if rep.passed else 'FAIL':<8} "
              f"{rep.max_violation:.3e}")
    return EXIT_OK if all(rep.passed for _, rep in rows) else EXIT_AUDIT_FAIL


def cmd_derive_r(cfg: RunConfig, q, v) -> int:
    sys = cfg.system
    if len(q) != sys.dof or len(v) != sys.dof:
        print(f"derive-r: error: q and v must have {sys.dof} components",
              file=_sys.stderr)
        return EXIT_ERROR
    qt, vt, p = tuple(q), tuple(v), sys.params
    d = sys.dissipation
    try:
        total_d, total_r, force = sys.model.dissipation.D_R_grad(qt, vt, p)
        force = [float(x) for x in force]
        if not np.all(np.isfinite([total_d, total_r, *force])):
            raise rm.ModelError(
                f"non-finite result: D = {float(total_d)!r}, R = "
                f"{float(total_r)!r}, dR/dv = {force!r}")
        terms, rest = d.split
        if terms or rest is None:
            print(f"{'term':<30} {'degree':>8} {'D_n':>14} {'D_n/n':>14}")
            for term in terms:
                dn = term.evaluate(qt, vt, p)
                print(f"{xc.to_source(term.expr):<30} {term.degree:>8g} "
                      f"{dn:>14.8g} {dn / term.degree:>14.8g}")
        if rest is not None:
            qc = d.quadrature
            print(f"quadrature: {qc.panels} graded panels (ratio "
                  f"{rm.GRADING:g}) x {qc.node_count} Gauss nodes, estimate "
                  f"rule {qc.estimate_nodes} nodes, tolerance {qc.tolerance:g}")
    except (rm.ModelError, xc.ExprError) as e:
        print(f"derive-r: error at q={list(q)}, v={list(v)}: {e}",
              file=_sys.stderr)
        return EXIT_ERROR
    print(f"total D      = {total_d!r}")
    print(f"total R      = {total_r!r}")
    ratio = total_r / total_d if total_d else float("nan")
    print(f"R/D          = {ratio!r}")
    print(f"dR/dv        = {force!r}")
    return EXIT_OK


def _run_member(c, out):
    """Run the sweep member of config `c` and write its file `out`. A
    forked worker inherits the config; the result holds only numbers,
    lists and strings, so it pickles back to the parent."""
    try:
        traj, report = run_simulation(c)
        write_trajectory(traj, c.system.dof, out, c.output.format)
    except Exception as e:
        return {"status": f"error: {e}"}
    s = traj.state(-1)
    defect = (report.energy_balance.max_defect
              if report.energy_balance else float("nan"))
    return {"status": "ok" if report.passed else "audit_fail",
            "final_q": [float(x) for x in s.q],
            "final_v": [float(x) for x in s.v],
            "max_energy_defect": float(defect), "file": out}


def _work(members, share, fd):
    """A forked worker's whole life: run the members at `share`, pickle
    each result onto the pipe `fd` as soon as it is known, flush the
    streams it inherited and leave by os._exit, with status 0 once every
    result is written."""
    import pickle

    code = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            for i in share:
                pickle.dump(_run_member(*members[i]), pipe)
                pipe.flush()
        code = 0
    finally:
        try:
            for stream in (_sys.stdout, _sys.stderr):
                stream.flush()
        finally:
            os._exit(code)


def _run_forked(members, indices, workers):
    """Results of the members at `indices`, run on `workers` forked
    processes: worker w runs indices[w::workers] from the members list it
    inherits, so no config is pickled. Where a worker dies, the first
    member of its share without a result gets an error that names the
    exit status, and the rest of its share run again, so that only the
    member that died keeps the error."""
    import io
    import pickle
    import selectors
    import signal

    _sys.stdout.flush()  # or each child would print the parent's text too
    _sys.stderr.flush()
    children, results, again = [], {}, []  # children: not yet reaped
    try:
        for w in range(workers):
            share = indices[w::workers]
            r, fd = os.pipe()
            pid = os.fork()
            if not pid:
                os.close(r)
                _work(members, share, fd)
            os.close(fd)
            children.append((pid, share, r, bytearray()))
        # every pipe is read as it fills, so that no worker waits on a
        # full pipe while another one's is read
        with selectors.DefaultSelector() as sel:
            for _, _, r, data in children:
                sel.register(r, selectors.EVENT_READ, data)
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 16)
                    key.data.extend(chunk)
                    if not chunk:
                        sel.unregister(key.fd)
        while children:
            pid, share, r, data = children[0]
            _, status = os.waitpid(pid, 0)
            del children[0]
            os.close(r)
            got, stream = [], io.BytesIO(data)
            try:
                while stream.tell() < len(data):
                    got.append(pickle.load(stream))
            except (EOFError, pickle.UnpicklingError):
                pass  # the worker died while writing a result
            results.update(zip(share, got))
            if len(got) < len(share):
                code = os.waitstatus_to_exitcode(status)
                results[share[len(got)]] = {
                    "status": f"error: sweep worker exited with status "
                              f"{code}"}
                again += share[len(got) + 1:]
    finally:
        for pid, _, r, _ in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if again:
        results.update(zip(again, _run_forked(members, again, 1)))
    return [results[i] for i in indices]


def _member_names(values):
    """Each value as its member's file names show it: {value:g}, with the
    fewest significant digits from 6 on at which values of distinct repr
    get distinct names (17 digits tell every two doubles apart), so only
    a repeated value repeats a name."""
    distinct = len(set(map(repr, values)))
    for digits in range(6, 18):
        names = [f"{x:.{digits}g}" for x in values]
        if len(set(names)) == distinct:
            return names
    return names


def cmd_sweep(cfg: RunConfig, param, values, out_stem=None, jobs=None) -> int:
    if not values:
        raise ConfigError("--values needs at least one number")
    names = _member_names(values)
    clash = [repr(x) for x, n in zip(values, names) if names.count(n) > 1]
    if clash:
        print(f"sweep: error: values {', '.join(clash)} would write the "
              f"same {param}=... file names", file=_sys.stderr)
        return EXIT_ERROR
    stem = out_stem or os.path.splitext(_default_out(cfg))[0]
    summary = f"{stem}_sweep.csv"
    if _bad_output("sweep", summary):
        return EXIT_ERROR
    members = [(cfg.with_params({param: x}),
                f"{stem}_{param}={name}.{cfg.output.format}")
               for x, name in zip(values, names)]
    # members share the expressions, so their generated code, the
    # integration loop, its compiled form and the stationarity pass: build
    # them once, before the fork, for the workers to inherit, and so the
    # CSV formatter. The compiled loop and the formatter are built when the
    # members' RHS calls and values pay for them, as integrate and
    # write_trajectory decide; an RK4 member's are known before it runs:
    # 1 + 4 calls a step, and a row of values every sample_every steps
    from . import native  # here, as in _run_forked: no other command

    au._stationarity_pass(cfg.system.model.dissipation)
    ic, n, m = cfg.integrator, len(members), cfg.system.dof
    loop = dy._loop(ic.method, m)
    if ic.method == "rk4":
        steps = math.ceil((cfg.t_end - float(cfg.initial.t)) / ic.dt)
        native.count(cfg.system.model, n * (1 + 4 * steps))
        if cfg.output.format == "csv":
            rows = 1 + math.ceil(steps / ic.sample_every)
            native.count_values(n * rows * len(dy.columns(m)))
            native.formatter()
    native.kernel(loop, cfg.system.model)
    results = _run_forked(members, range(n),
                          min(jobs or os.cpu_count() or 1, n))
    with open(summary, "w", encoding="utf-8") as f:
        qcols = ",".join(f"final_q{i + 1}" for i in range(m))
        vcols = ",".join(f"final_v{i + 1}" for i in range(m))
        f.write(f"{param},status,{qcols},{vcols},max_energy_defect,file\n")
        for x, r in zip(values, results):
            if "final_q" in r:
                f.write(",".join(
                    [_fmt(x), r["status"]]
                    + [_fmt(y) for y in r["final_q"]]
                    + [_fmt(y) for y in r["final_v"]]
                    + [_fmt(r["max_energy_defect"]), r["file"]]) + "\n")
            else:
                f.write(f"{_fmt(x)},\"{r['status']}\""
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


def positive_int(text):
    n = int(text)
    if n < 1:
        raise ValueError(text)  # argparse: "invalid positive_int value"
    return n


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
    sp.add_argument("--jobs", type=positive_int, default=None,
                    help="worker processes (default: CPU count, at most "
                         "one per value)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        overrides = _parse_set(args.set)
        if overrides:
            cfg = cfg.with_params(overrides)
        if args.command == "simulate":
            out = cfg.output
            cfg = replace(
                cfg, t_end=cfg.t_end if args.t_end is None else args.t_end,
                output=replace(out, path=args.out or out.path,
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
