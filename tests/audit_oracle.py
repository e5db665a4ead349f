"""Python form of one stationarity sample: the test oracle for the pass
that `raydiss.audit` generates per dissipation model.

`generalized_force` is the force as it was written before the pass was
generated: statics at the samples k-1, k and k+1, the momenta p = M(q) v
and their 3-point derivative (`central_diff`), and dT/dq from dM/dq at
sample k. `stationarity_audit` is the audit's sample: that force, the
reduced potential `rtilde(w) = R(q, w) - w.F` through the model's own
`R`, one call per probe, and every small dot product a left-to-right sum
(`_dot`). The generated pass keeps that arithmetic and that order, so the
two agree bit for bit, and a sample that raises raises the same error.
"""

import math

import numpy as np

from raydiss.audit import (ForceBreakdown, ReducedDissipationReport,
                           _probe_directions)
from raydiss.raymodel import _dot

# the probe magnitudes, each direction's in this order
MAGS = (1e-1, 1e-2, 1e-3)


def _interior(traj, k):
    if not (1 <= k <= len(traj) - 2):
        raise IndexError(
            f"sample index {k} needs interior position 1..{len(traj) - 2}")


def central_diff(t0, t1, t2, f0, f1, f2):
    """3-point derivative at t1 on a possibly nonuniform stencil."""
    h1 = t1 - t0
    h2 = t2 - t1
    return (-h2 / (h1 * (h1 + h2)) * f0
            + (h2 - h1) / (h1 * h2) * f1
            + h1 / (h2 * (h1 + h2)) * f2)


def generalized_force(sys, traj, k):
    """Force breakdown at interior sample k with d/dt(dL/dv) from finite
    differences of the stored momentum p = M(q) v."""
    _interior(traj, k)
    sm, m = sys.model, sys.dof
    rows = traj.rows[k - 1:k + 2]
    st = [sm.statics(r[1:1 + m], sm.c) for r in rows]
    p = [[_dot(Ma, r[1 + m:1 + 2 * m]) for Ma in s[0]]
         for s, r in zip(st, rows)]
    dp_dt = [central_diff(*(r[0] for r in rows), *f) for f in zip(*p)]
    q, v = rows[1][1:1 + m], rows[1][1 + m:1 + 2 * m]
    _, dM, _, dV_dq = st[1]
    # 0.5 v.(dM/dq_j).v summed over a, then b (v * m repeats v_b)
    dT_dq = [0.5 * _dot([va * g[j] for va, row in zip(v, dM) for g in row],
                        v * m) for j in range(m)]
    conservative = [-x for x in dV_dq]
    inertial = [x - y for x, y in zip(dT_dq, dp_dt)]
    gR = sm.dissipation.D_R_grad(q, v, sm.params)[2]
    return ForceBreakdown(*map(np.array, (
        conservative, inertial, [-x for x in gR],
        [x + y for x, y in zip(conservative, inertial)])))


def stationarity_audit(sys, traj, k, probes=8, seed=0):
    _interior(traj, k)
    sm, m = sys.model, sys.dof
    dissipation = sm.dissipation
    q, v = traj.rows[k][1:1 + m], traj.rows[k][1 + m:1 + 2 * m]
    spacing = 0.5 * (traj.rows[k + 1][0] - traj.rows[k - 1][0])
    force = generalized_force(sys, traj, k)  # it holds -dR/dv already
    F, gR = force.generalized.tolist(), (-force.dissipative).tolist()
    residual = [g - f for g, f in zip(gR, F)]

    def rtilde(w):
        return dissipation.R(q, w, sm.params) - _dot(w, F)

    base = rtilde(v)
    probe_deltas = []
    per_mag = {mag: [] for mag in MAGS}
    for d in _probe_directions(m, probes, seed):
        for mag in MAGS:
            delta = [mag * x for x in d]
            change = rtilde([a + b for a, b in zip(v, delta)]) - base
            probe_deltas.append((mag, change))
            # remove the linear part contributed by the gradient residual
            per_mag[mag].append(abs(change - _dot(delta, residual)))
    probe_deltas.sort(key=lambda p: p[0])
    slope = None
    skipped = None
    if probes == 0:
        skipped = "no probes requested"
    else:
        eps_thresh = 1e-3
        if sys.dissipation.uses_abs_or_sign:
            eps_list = [t.smooth_eps for t in sys.dissipation.terms
                        if t.smooth_eps]
            if eps_list:
                eps_thresh = max(eps_thresh, 10.0 * max(eps_list))
            if min(map(abs, v)) < eps_thresh:
                skipped = ("dissipation is non-smooth (abs/sign) and a "
                           "velocity component sits near the kink")
        if skipped is None:
            means = [math.fsum(per_mag[mag]) / len(per_mag[mag])
                     for mag in MAGS]
            floor = 1e-14 * (1.0 + abs(base))
            if all(x <= floor for x in means):
                skipped = ("probe changes below floating-point floor; "
                           "reduced potential is locally flat beyond the "
                           "linear term")
            else:
                x = [math.log(mag) for mag in MAGS]
                y = [math.log(max(mean, 1e-300)) for mean in means]
                xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
                slope = (math.fsum((a - xm) * (b - ym) for a, b in zip(x, y))
                         / math.fsum((a - xm) ** 2 for a in x))
    return ReducedDissipationReport(
        sample_index=k, state_t=traj.rows[k][0],
        frozen_force=force.generalized,
        gradient_residual=np.array(residual), probe_deltas=probe_deltas,
        slope=slope, slope_skipped_reason=skipped, spacing=spacing)
