"""Spans for the traced run, taken from outside the program.

`Tracer.install()` replaces each public function named in `TRACED` with a
wrapper, in every loaded raydiss module that binds it (so `cli`'s own
`load_config` name is covered too). raydiss looks these names up at call
time, so its internal calls go through the wrappers. A wrapper records a
span, `[name, start, end, parent span]`, while `recording` is set. The
parent stack is per thread because `raydiss sweep` runs its members on
worker threads. Spans stay in memory; `summary()` reduces them once at the
end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

TRACED = {
    "dynamics": ("integrate", "diagnostics"),
    "audit": ("full_audit", "energy_balance_audit", "stationarity_audit",
              "generalized_force"),
    "raymodel": ("grad_R_v", "eval_R", "eval_D", "euler_identity_check",
                 "positivity_scan"),
    "exprcore": ("compiled",),
    "config": ("load_config", "config_from_dict"),
    "cli": ("run_simulation", "write_trajectory", "cmd_sweep"),
}
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TRACED.items()
                   for name in names)

NAME, START, END, PARENT = range(4)


class TracingError(Exception):
    """A public name the benchmark traces is missing from raydiss."""


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []          # list.append is atomic; no lock needed
        self.trajectories = []   # (attempts, rejected, samples) per integrate
        self._local = threading.local()
        self._patched = []       # (module, attribute, original)

    def install(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "raydiss" or n.startswith("raydiss.")]
        for mod, names in TRACED.items():
            module = importlib.import_module(f"raydiss.{mod}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.uninstall()
                    raise TracingError(f"raydiss.{mod}.{name} is missing")
                wrapper = self._wrap(f"{mod}.{name}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        local = self._local
        spans = self.spans
        observe = self._observe_trajectory if name == "dynamics.integrate" \
            else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _observe_trajectory(self, traj):
        self.trajectories.append(
            (traj.steps_taken + traj.steps_rejected, traj.steps_rejected,
             len(traj)))

    def summary(self):
        """name -> {"calls", "total_s", "self_s"} for every traced name,
        zero where a name was never called. Self time is a span's duration
        minus that of its direct children, which share its thread and so
        never overlap."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for n in SPAN_NAMES}
        for span in self.spans:
            dur = span[END] - span[START]
            row = out[span[NAME]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur
            parent = span[PARENT]
            if parent is not None:
                out[parent[NAME]]["self_s"] -= dur
        return out

    def under(self, name, ancestor):
        """Spans called `name` with a span called `ancestor` above them."""
        found = []
        for span in self.spans:
            if span[NAME] != name:
                continue
            p = span[PARENT]
            while p is not None and p[NAME] != ancestor:
                p = p[PARENT]
            if p is not None:
                found.append(span)
        return found

    def outermost(self, prefix):
        """Spans whose name starts with `prefix` and whose parent's does
        not (load_config calls config_from_dict; count that once)."""
        return [s for s in self.spans if s[NAME].startswith(prefix)
                and not (s[PARENT] and s[PARENT][NAME].startswith(prefix))]

    def self_time(self, spans):
        """Summed duration of the given spans minus that of their direct
        children."""
        ids = {id(s) for s in spans}
        total = duration(spans)
        for span in self.spans:
            if span[PARENT] is not None and id(span[PARENT]) in ids:
                total -= span[END] - span[START]
        return total


def duration(spans):
    """Summed duration of the given spans."""
    return sum(s[END] - s[START] for s in spans)
