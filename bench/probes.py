"""Per-call probes, timed on states from the workload's own trajectory
after the workload has run (so caches are warm), with tracing off."""

from __future__ import annotations

import statistics
import time

import raydiss.dynamics as dy
import raydiss.exprcore as xc
import raydiss.raymodel as rm

PROBE_STATES = 16
COMPILE_REPEATS = 10
MIN_TIMING_S = 2e-3


def per_call_us(call, items):
    """Median over items of the time per call(item), in microseconds.
    Each item is repeated until its timing covers MIN_TIMING_S."""
    times = []
    for item in items:
        call(item)
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                call(item)
            dt = time.perf_counter() - t0
            if dt >= MIN_TIMING_S:
                break
            n *= 4
        times.append(dt / n)
    return statistics.median(times) * 1e6


def _spread(states):
    step = max(1, len(states) // PROBE_STATES)
    return states[::step][:PROBE_STATES]


def _dissipation_exprs(d):
    if d.mode == "general":
        return [(d.raw, None)]
    return [(t.expr, t.smooth_eps) for t in d.terms]


def compile_us(system):
    """Mean time of one cold `compiled()` call: every expression of the
    system, freshly parsed, compiled for its value and for the gradient
    the integrator uses (mass and potential in q, dissipation in v)."""
    m = system.dof
    jobs = ([(xc.to_source(e), "q", None)
             for row in system.mass_matrix for e in row]
            + [(xc.to_source(system.potential), "q", None)]
            + [(xc.to_source(e), "v", eps)
               for e, eps in _dissipation_exprs(system.dissipation)])
    per_call = []
    for _ in range(COMPILE_REPEATS):
        nodes = [(xc.parse(src), wrt, eps) for src, wrt, eps in jobs]
        t0 = time.perf_counter()
        for node, wrt, eps in nodes:
            xc.compiled(node)
            xc.compiled(node, m, wrt, eps)
        per_call.append((time.perf_counter() - t0) / (2 * len(nodes)))
    return statistics.median(per_call) * 1e6


def run_probes(system, states):
    """Probe metrics for one system, keyed by metric name."""
    states = _spread(states)
    spec = system.dissipation
    ctxs = [system.ctx(s.q, s.v) for s in states]
    exprs = _dissipation_exprs(spec)

    def evaluate(ctx):
        for e, _ in exprs:
            xc.evaluate(e, ctx)

    def grad_v(ctx):
        for e, eps in exprs:
            xc.grad_v(e, ctx, smooth_eps=eps)

    warnings = 0
    if spec.mode == "general":
        warnings = sum(rm.eval_R_quadrature(spec, ctx)[1] is not None
                       for ctx in ctxs)
    return {
        "exprcore.compile_us": compile_us(system),
        "exprcore.evaluate_us": per_call_us(evaluate, ctxs),
        "exprcore.grad_v_us": per_call_us(grad_v, ctxs),
        "raymodel.grad_R_v_us": per_call_us(
            lambda ctx: rm.grad_R_v(spec, ctx), ctxs),
        "raymodel.eval_R_us": per_call_us(
            lambda ctx: rm.eval_R(spec, ctx), ctxs),
        "raymodel.quad_warnings": warnings,
        "dynamics.accel_us": per_call_us(
            lambda s: dy.accel(system, s), states),
        "dynamics.diagnostics_us": per_call_us(
            lambda s: dy.diagnostics(system, s, 0.0), states),
    }
