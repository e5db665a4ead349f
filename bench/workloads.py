"""The benchmark's three workloads: seeded inputs, one timed unit of work,
and the checks on its outputs.

A unit is one audited run (the pendulum workloads) or one 8-member sweep
(`sweep_rk4_io`). Only the calls into raydiss sit inside `clock.timed()`;
reference runs and output checks stay outside it. Every call goes through
a module attribute (`dy.integrate`, not a bound name) so that the traced
run's module-level wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import raydiss.audit as au
import raydiss.cli as cli
import raydiss.config as cf
import raydiss.dynamics as dy

# Same mechanics and D as builtin pendulum_drag_2dof, with D declared in
# general mode so that R and dR/dv come from the u-quadrature.
PENDULUM_GENERAL = {
    "dof": 2,
    "params": {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 1.0,
               "A": 0.1},
    "mass_matrix": [["(m1+m2)*l1^2", "m2*l1*l2*cos(q1-q2)"],
                    ["m2*l1*l2*cos(q1-q2)", "m2*l2^2"]],
    "potential": "-(m1+m2)*g*l1*cos(q1) - m2*g*l2*cos(q2)",
    "dissipation": {"mode": "general", "raw": "A*(v1^2+v2^2)^1.5"},
    "integrator": {"method": "rk45", "rel_tol": 1e-10, "abs_tol": 1e-12},
}

SWEEP_CONFIG = {"system": "damped_sho",
                "integrator": {"method": "rk4", "dt": 2e-3}, "t_end": 10}
SWEEP_MEMBERS = 8
SWEEP_JOBS = 2
SWEEP_ROWS = 5001

# Output-check thresholds: far above the measured errors (about 1e-10,
# 3e-16 and 1e-12), far below an error that would mean a wrong result.
HOMSUM_REF_TOL = 1e-6
TWIN_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8

# Reference for pendulum_homsum: the same start at 100x tighter tolerance.
# It costs 2.5 runs, so only every REF_EVERY-th run is checked against it;
# the untimed reference would otherwise take most of the measured seconds.
TIGHT = dy.IntegratorConfig(method="rk45", rel_tol=1e-12, abs_tol=1e-14)
REF_EVERY = 4


class Clock:
    """Records the wall time of each timed region. A tracer, when given,
    records spans only while a timed region is open."""

    def __init__(self, tracer=None):
        self.regions = []
        self.tracer = tracer

    @property
    def wall(self):
        return sum(self.regions)

    @contextlib.contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.recording = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.regions.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.recording = False


@dataclass
class Outcome:
    """What one unit did: runs attempted and failed, runs completed for
    runs_per_s, the worst accuracy figures, and states for the probes."""

    attempted: int
    failed: int = 0
    completed: int = 0
    energy_ratio: float = 0.0   # max energy defect / audit threshold
    ref_err: float = 0.0        # max |final (q, v) - reference|
    bytes_written: int = 0      # trajectory files written by the CLI
    system: object = None
    states: list = field(default_factory=list)


def _fail(outcome, what):
    outcome.failed += 1
    print(f"bench: FAILED {what}", file=sys.stderr)


def _final_err(state, q_ref, v_ref):
    return float(max(np.max(np.abs(state.q - q_ref)),
                     np.max(np.abs(state.v - v_ref))))


def _energy_ratio(defect, tol, H0):
    return defect / (tol * (1.0 + abs(H0)))


def _audited_run(doc, clock, outcome):
    """config -> integrate -> full_audit, timed. Returns (cfg, traj) or
    None after counting the failure."""
    try:
        with clock.timed():
            cfg = cf.config_from_dict(doc)
            traj = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                                cfg.integrator)
            report = au.full_audit(cfg.system, traj, cfg.tolerances)
    except Exception:
        traceback.print_exc()
        _fail(outcome, f"run from {doc['initial']} raised")
        return None
    if not report.passed:
        _fail(outcome, f"full_audit from {doc['initial']}: "
                       f"{json.dumps(report.to_dict())[:400]}")
        return None
    eb = report.energy_balance
    outcome.energy_ratio = max(outcome.energy_ratio, _energy_ratio(
        eb.max_defect, eb.tol, traj.diagnostics()[0].H))
    outcome.system = cfg.system
    outcome.states = traj.states()
    return cfg, traj


class _Pendulum:
    # start = centre + uniform(-half_width, +half_width), per coordinate
    q_centre, q_half = (0.0, 0.0), 1.2
    v_centre, v_half = (0.0, 0.0), 0.5

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def draw_initial(self):
        q = np.add(self.q_centre, self.rng.uniform(-self.q_half,
                                                   self.q_half, 2))
        v = np.add(self.v_centre, self.rng.uniform(-self.v_half,
                                                   self.v_half, 2))
        return {"q": [float(x) for x in q], "v": [float(x) for x in v]}

    def setup_args(self, tmp):
        """Arguments for setup_child.py: build this workload's config."""
        return ["doc", json.dumps(self.doc(self.draw_initial()))]


class PendulumHomsum(_Pendulum):
    """Builtin pendulum_drag_2dof, closed-form R, tight rk45, t_end = 10."""

    name = "pendulum_homsum"
    memory_units = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.units = 0

    @staticmethod
    def doc(initial):
        return {"system": "pendulum_drag_2dof", "initial": initial,
                "t_end": 10.0}

    def run_unit(self, clock, tmp):
        out = Outcome(attempted=1)
        doc = self.doc(self.draw_initial())
        checked = self.units % REF_EVERY == 0
        self.units += 1
        done = _audited_run(doc, clock, out)
        if done is None:
            return out
        cfg, traj = done
        if checked:
            last = dy.integrate(cfg.system, cfg.initial, cfg.t_end,
                                TIGHT).states()[-1]
            out.ref_err = _final_err(traj.states()[-1], last.q, last.v)
            if not out.ref_err <= HOMSUM_REF_TOL:
                _fail(out, f"{self.name} from {doc['initial']}: final "
                           f"state off the tight-tolerance reference by "
                           f"{out.ref_err:.3e}")
                return out
        out.completed = 1
        return out


class PendulumGeneral(_Pendulum):
    """The same pendulum with D in general mode (quadrature R), t_end = 1;
    checked against its homogeneous_sum twin from the same start."""

    name = "pendulum_general"
    memory_units = 1
    # Near the builtin's start (0.6, -0.3) from rest, so every run has
    # about the same size (49-62 step attempts). Only about 6 runs fit in
    # one measurement; over the wide box of pendulum_homsum (29-72
    # attempts) their mean cost would depend on the seed more than on
    # the code.
    q_centre, q_half = (0.6, -0.3), 0.05
    v_centre, v_half = (0.0, 0.0), 0.05

    @staticmethod
    def doc(initial):
        return {**PENDULUM_GENERAL, "initial": initial, "t_end": 1.0}

    def run_unit(self, clock, tmp):
        out = Outcome(attempted=1)
        doc = self.doc(self.draw_initial())
        done = _audited_run(doc, clock, out)
        if done is None:
            return out
        _, traj = done
        twin_doc = PendulumHomsum.doc(doc["initial"])
        twin_doc["t_end"] = doc["t_end"]
        twin = cf.config_from_dict(twin_doc)
        ref = dy.integrate(twin.system, twin.initial, twin.t_end,
                           twin.integrator).states()[-1]
        err = _final_err(traj.states()[-1], ref.q, ref.v)
        out.ref_err = err
        if not err <= TWIN_TOL:
            _fail(out, f"{self.name} from {doc['initial']}: final state "
                       f"off the homogeneous_sum twin by {err:.3e}")
            return out
        out.completed = 1
        return out


def damped_sho_closed_form(m, k, c, q0, v0, t):
    """Underdamped m q'' + c q' + k q = 0 (force -c v from D = c v^2)."""
    gam = c / (2.0 * m)
    wd = math.sqrt(k / m - gam * gam)
    e, cs, sn = math.exp(-gam * t), math.cos(wd * t), math.sin(wd * t)
    b = (v0 + gam * q0) / wd
    return (e * (q0 * cs + b * sn),
            e * ((b * wd - q0 * gam) * cs - (b * gam + q0 * wd) * sn))


class SweepRk4Io:
    """`raydiss sweep` in-process: damped_sho, rk4 dt = 2e-3, t_end = 10,
    8 seeded values of c, 2 jobs, one CSV per member."""

    name = "sweep_rk4_io"
    memory_units = 1

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.params = cf.config_from_dict(SWEEP_CONFIG).system.params

    def setup_args(self, tmp):
        path = os.path.join(tmp, "setup_sweep.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(SWEEP_CONFIG, f)
        return ["file", path]

    def run_unit(self, clock, tmp):
        # values go to the CLI as drawn (repr round-trips), so a collision
        # of the CLI's `{value:g}` file names shows as failed members
        values = [float(x) for x in
                  self.rng.uniform(0.05, 0.5, SWEEP_MEMBERS)]
        out = Outcome(attempted=SWEEP_MEMBERS)
        work = tempfile.mkdtemp(prefix="sweep-", dir=tmp)
        try:
            config = os.path.join(work, "sweep.json")
            with open(config, "w", encoding="utf-8") as f:
                json.dump(SWEEP_CONFIG, f)
            argv = ["sweep", "--config", config, "--param", "c",
                    "--values", ",".join(repr(x) for x in values),
                    "--jobs", str(SWEEP_JOBS),
                    "--out", os.path.join(work, "sho")]
            printed = io.StringIO()
            try:
                with clock.timed(), contextlib.redirect_stdout(printed):
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                out.failed = SWEEP_MEMBERS
                print(f"bench: FAILED sweep over {values} raised",
                      file=sys.stderr)
                return out
            self._check(work, values, rc, out)
        finally:
            shutil.rmtree(work)
        return out

    def _check(self, work, values, rc, out):
        summary = os.path.join(work, "sho_sweep.csv")
        if not os.path.isfile(summary):
            out.failed = SWEEP_MEMBERS
            print(f"bench: FAILED sweep exit {rc}, no summary",
                  file=sys.stderr)
            return
        with open(summary, encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        files = [r["file"] for r in rows]
        written = {p for p in files if p and os.path.isfile(p)}
        out.completed = len(written)
        out.bytes_written = sum(os.path.getsize(p) for p in written)
        ok = 0
        for value, row in zip(values, rows):
            path = row["file"]
            if row["status"] != "ok":
                print(f"bench: FAILED sweep member c={value!r}: "
                      f"{row['status']}", file=sys.stderr)
            elif path not in written or files.count(path) != 1:
                print(f"bench: FAILED sweep member c={value!r}: file "
                      f"{os.path.basename(path)} missing or shared",
                      file=sys.stderr)
            elif self._check_member(path, value,
                                    float(row["max_energy_defect"]), out):
                ok += 1
        if len(rows) != SWEEP_MEMBERS or rc != 0:
            print(f"bench: sweep exit {rc}, {len(rows)} summary rows for "
                  f"{SWEEP_MEMBERS} members", file=sys.stderr)
        out.failed = SWEEP_MEMBERS - ok

    def _check_member(self, path, c, defect, out):
        with open(path, encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader)
            data = [[float(x) for x in r] for r in reader]
        col = {name: i for i, name in enumerate(header)}
        t, q1, v1 = col["t"], col["q1"], col["v1"]
        first, last = data[0], data[-1]
        p = self.params
        q, v = damped_sho_closed_form(p["m"], p["k"], c, first[q1],
                                      first[v1], last[t])
        err = max(abs(last[q1] - q), abs(last[v1] - v))
        out.ref_err = max(out.ref_err, err)
        out.energy_ratio = max(out.energy_ratio, _energy_ratio(
            defect, au.AuditTolerances().energy, first[col["H"]]))
        if len(data) != SWEEP_ROWS or last[t] != SWEEP_CONFIG["t_end"]:
            print(f"bench: FAILED sweep member c={c!r}: {len(data)} rows "
                  f"ending at t={last[t]!r}", file=sys.stderr)
            return False
        if not err <= CLOSED_FORM_TOL:
            print(f"bench: FAILED sweep member c={c!r}: final state off the "
                  f"closed form by {err:.3e}", file=sys.stderr)
            return False
        if out.system is None:
            out.system = cf.config_from_dict(
                {**SWEEP_CONFIG, "overrides": {"c": c}}).system
            out.states = [dy.State(r[t], [r[q1]], [r[v1]]) for r in data]
        return True


WORKLOADS = {w.name: w for w in (PendulumHomsum, PendulumGeneral,
                                 SweepRk4Io)}
