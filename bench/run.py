"""raydiss benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; raydiss is imported from its `src/`.
Workloads, metrics and the predictions they test are described in
bench/workloads.md; names, units and bounds are declared in BENCHMARK.json.

--trace 0 runs whole units (one audited run, or one 8-member sweep) for S
seconds and reports the end-to-end metrics. --trace 1 runs units for S/2
seconds untraced, then the same units again under the span wrappers, then
the per-call probes, and reports the per-layer metrics.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only if every run passed
full_audit and the benchmark's own output checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
# Errors below half an ulp of 1.0 are read as that, so log10 stays finite.
ERR_FLOOR = 2.0 ** -53


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_raydiss():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    package = os.path.join(SRC, "raydiss")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"bench: no raydiss sources under {SRC}")
    sys.path.insert(0, SRC)
    import raydiss
    found = os.path.dirname(os.path.abspath(raydiss.__file__))
    if found != package:
        raise SystemExit(f"bench: imported raydiss from {found}, "
                         f"expected {package}")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def digits(err):
    """-log10 of an error: the number of correct decimal digits."""
    return -math.log10(max(err, ERR_FLOOR))


class ColdStarts:
    """setup_s samples: each is one fresh interpreter that imports raydiss,
    builds the workload's config and makes the first accel call. They are
    spread over the run, so one slow spell of a shared host cannot set
    them all."""

    def __init__(self, workload, tmp):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_child.py"),
                    SRC, *workload.setup_args(tmp)]
        self.times = []

    def sample(self):
        p = subprocess.run(self.cmd, capture_output=True, text=True,
                           cwd=ROOT, timeout=SETUP_TIMEOUT_S, check=False)
        if p.returncode != 0:
            raise RuntimeError(f"setup child exited {p.returncode}:\n"
                               f"{p.stderr}")
        self.times.append(float(p.stdout.split()[-1]))

    def pace(self, fraction):
        """Catch up to SETUP_STARTS samples spread over the run; `fraction`
        is the share of the run already done."""
        while len(self.times) < SETUP_STARTS * min(fraction, 1.0):
            self.sample()


def run_for(workload, clock, tmp, seconds, cold=None):
    """Units until `seconds` of wall time have passed, with the cold
    starts, when given, in between. Returns the outcomes and
    ru_maxrss (MB) right after unit `workload.memory_units`, so memory is
    compared at fixed work."""
    outcomes = []
    rss_mb = None
    start = time.perf_counter()
    while (len(outcomes) < workload.memory_units
           or time.perf_counter() - start < seconds):
        if cold is not None:
            cold.pace((time.perf_counter() - start) / seconds)
        outcomes.append(workload.run_unit(clock, tmp))
        if len(outcomes) == workload.memory_units:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cold is not None:
        cold.pace(1.0)
    return outcomes, rss_mb


def end_to_end(wl_cls, args, tmp):
    from workloads import Clock

    workload = wl_cls(args.seed)
    cold = ColdStarts(workload, tmp)
    clock = Clock()
    outcomes, rss_mb = run_for(workload, clock, tmp, args.seconds, cold)
    completed = sum(o.completed for o in outcomes)
    energy = max(o.energy_ratio for o in outcomes)
    ref = max(o.ref_err for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = clock.regions
    print(f"{wl_cls.name}: {len(outcomes)} units, {completed} runs in "
          f"{clock.wall:.3f} s timed; unit wall median "
          f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s")
    print(f"  fail_frac          {failed / attempted!r} "
          f"({failed}/{attempted})")
    print(f"  energy_defect_tol  {energy!r}")
    print(f"  ref_err            {ref!r}")
    metrics = {
        "runs_per_s": completed / clock.wall,
        "setup_s": statistics.median(cold.times),
        "peak_rss_mb": rss_mb,
        "energy_defect_digits": digits(energy),
        "ref_err_digits": digits(ref),
    }
    return attempted, failed, metrics


def per_layer(wl_cls, args, tmp):
    from probes import run_probes
    from spans import Tracer, duration
    from workloads import Clock

    plain = Clock()
    first, _ = run_for(wl_cls(args.seed), plain, tmp, args.seconds / 2)
    tracer = Tracer()
    traced = Clock(tracer)
    workload = wl_cls(args.seed)   # same seed: the same units again
    tracer.install()
    try:
        second = [workload.run_unit(traced, tmp) for _ in first]
    finally:
        tracer.uninstall()
    outcomes = first + second
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    probed = [o for o in second if o.system is not None]
    if not probed:
        print("bench: no passing run to probe", file=sys.stderr)
        return attempted, max(failed, 1), {}

    spans = tracer.summary()
    runs = sum(o.attempted for o in second)

    def total(name):
        return spans[name]["total_s"] / runs

    def self_s(name):
        return spans[name]["self_s"] / runs

    def calls(name):
        return spans[name]["calls"] / runs

    attempts = sum(t[0] for t in tracer.trajectories)
    integrate = spans["dynamics.integrate"]
    grad_in_integrate = tracer.under("raymodel.grad_R_v",
                                     "dynamics.integrate")
    config_calls = tracer.outermost("config.")
    sweep_total = spans["cli.cmd_sweep"]["total_s"]
    metrics = {
        "config.load_ms": (1e3 * duration(config_calls) / len(config_calls)
                           if config_calls else 0.0),
        "exprcore.compiled.calls": calls("exprcore.compiled"),
        "raymodel.grad_R_v.calls": calls("raymodel.grad_R_v"),
        "raymodel.grad_R_v.self_s": self_s("raymodel.grad_R_v"),
        "raymodel.grad_R_v.calls_in_integrate":
            len(grad_in_integrate) / runs,
        "raymodel.grad_R_v.integrate_share":
            (tracer.self_time(grad_in_integrate) / integrate["total_s"]
             if integrate["total_s"] else 0.0),
        "raymodel.eval_R.calls": calls("raymodel.eval_R"),
        "raymodel.eval_D.calls": calls("raymodel.eval_D"),
        "raymodel.euler_identity_check_s":
            total("raymodel.euler_identity_check"),
        "raymodel.positivity_scan_s": total("raymodel.positivity_scan"),
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.integrate.self_s": self_s("dynamics.integrate"),
        "dynamics.step_attempts": attempts / runs,
        "dynamics.steps_rejected":
            sum(t[1] for t in tracer.trajectories) / runs,
        "dynamics.samples": sum(t[2] for t in tracer.trajectories) / runs,
        "dynamics.us_per_attempt":
            1e6 * integrate["self_s"] / attempts if attempts else 0.0,
        "dynamics.diagnostics.self_s": self_s("dynamics.diagnostics"),
        "audit.full_audit_s": total("audit.full_audit"),
        "audit.energy_balance_s": total("audit.energy_balance_audit"),
        "audit.stationarity_s": total("audit.stationarity_audit"),
        "audit.generalized_force_s": total("audit.generalized_force"),
        "cli.sweep_s": total("cli.cmd_sweep"),
        "cli.run_simulation_s": total("cli.run_simulation"),
        "cli.write_trajectory_s": total("cli.write_trajectory"),
        "cli.bytes_written": sum(o.bytes_written for o in second) / runs,
        "cli.sweep_parallelism":
            (spans["cli.run_simulation"]["total_s"] / sweep_total
             if sweep_total else 0.0),
        "trace.overhead_frac": traced.wall / plain.wall - 1.0,
    }
    metrics.update(run_probes(probed[-1].system, probed[-1].states))

    print(f"{wl_cls.name}: {len(second)} units traced, {runs} runs; "
          f"per-span totals over all of them:")
    print(f"  {'span':<32} {'calls':>9} {'total_s':>12} {'self_s':>12}")
    for name, row in spans.items():
        print(f"  {name:<32} {row['calls']:>9} {row['total_s']:>12.6f} "
              f"{row['self_s']:>12.6f}")
    return attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    import_raydiss()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload '{args.workload}'; "
                         f"have {', '.join(WORKLOADS)}")
    wl_cls = WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        if args.trace:
            attempted, failed, values = per_layer(wl_cls, args, tmp)
            units = layer_units
        else:
            attempted, failed, values = end_to_end(wl_cls, args, tmp)
            units = e2e_units
    finally:
        shutil.rmtree(tmp)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass   # another run still uses it
    if failed == 0 and set(values) != set(units):
        raise SystemExit(f"bench: computed metrics {sorted(values)} differ "
                         f"from those declared {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
