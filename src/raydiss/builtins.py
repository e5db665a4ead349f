"""Built-in benchmark systems with closed-form reference solutions.

Covers dissipation degrees 1, 2 and 3 plus a 2-dof system with a
configuration-dependent mass matrix:

* sho               -- conservative harmonic oscillator (D = 0)
* damped_sho        -- linear drag, D = c*v^2 (classical quadratic case)
* quad_drag_particle -- free particle with D = A*|v|^3 (high-Reynolds drag)
* coulomb_block     -- dry friction, D = mu*|v|, tanh-regularized force
* pendulum_drag_2dof -- double pendulum with D = A*(v1^2+v2^2)^(3/2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprcore as xc
from . import raymodel as rm
from .dynamics import IntegratorConfig, State


@dataclass(frozen=True)
class BuiltinSystem:
    name: str
    system: rm.SystemSpec
    initial: State
    t_end: float
    integrator: IntegratorConfig
    reference: object = None  # callable t -> (q, v), or None


def _expr(s):
    return xc.parse(s)


def _homsum(terms):
    return rm.DissipationSpec("homogeneous_sum", terms)


def make_sho(params=None):
    p = {"m": 1.0, "k": 1.0}
    p.update(params or {})
    return rm.SystemSpec(
        dof=1, mass_matrix=[[_expr("m")]], potential=_expr("0.5*k*q1^2"),
        dissipation=rm.null_dissipation(), params=p)


def make_damped_sho(params=None):
    p = {"m": 1.0, "k": 1.0, "c": 0.2}
    p.update(params or {})
    return rm.SystemSpec(
        dof=1, mass_matrix=[[_expr("m")]], potential=_expr("0.5*k*q1^2"),
        dissipation=_homsum([rm.DissipationTerm(_expr("c*v1^2"), 2.0)]),
        params=p)


def make_quad_drag_particle(params=None):
    p = {"m": 1.0, "A": 0.5}
    p.update(params or {})
    return rm.SystemSpec(
        dof=1, mass_matrix=[[_expr("m")]], potential=_expr("0"),
        dissipation=_homsum([rm.DissipationTerm(_expr("A*abs(v1)^3"), 3.0)]),
        params=p)


def make_coulomb_block(params=None):
    p = {"m": 1.0, "mu": 0.3}
    p.update(params or {})
    return rm.SystemSpec(
        dof=1, mass_matrix=[[_expr("m")]], potential=_expr("0"),
        dissipation=_homsum(
            [rm.DissipationTerm(_expr("mu*abs(v1)"), 1.0, smooth_eps=1e-4)]),
        params=p)


def make_pendulum_drag_2dof(params=None):
    # nondimensional units (g = l = m = 1) keep the benchmark gentle
    p = {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 1.0, "A": 0.1}
    p.update(params or {})
    mm = [
        [_expr("(m1+m2)*l1^2"), _expr("m2*l1*l2*cos(q1-q2)")],
        [_expr("m2*l1*l2*cos(q1-q2)"), _expr("m2*l2^2")],
    ]
    pot = _expr("-(m1+m2)*g*l1*cos(q1) - m2*g*l2*cos(q2)")
    return rm.SystemSpec(
        dof=2, mass_matrix=mm, potential=pot,
        dissipation=_homsum(
            [rm.DissipationTerm(_expr("A*(v1^2+v2^2)^1.5"), 3.0)]),
        params=p)


def _sho_reference(params, q0, v0):
    w = math.sqrt(params["k"] / params["m"])

    def ref(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return (np.array([q0 * c + v0 / w * s]),
                np.array([-q0 * w * s + v0 * c]))
    return ref


def _damped_sho_reference(params, q0, v0):
    m, k, c = params["m"], params["k"], params["c"]
    gam = c / (2.0 * m)  # force is -c*v, so damping rate c/(2m)
    w0sq = k / m
    if gam * gam >= w0sq:
        raise ValueError("reference covers the underdamped regime only")
    wd = math.sqrt(w0sq - gam * gam)

    def ref(t):
        e = math.exp(-gam * t)
        cs, sn = math.cos(wd * t), math.sin(wd * t)
        a = q0
        b = (v0 + gam * q0) / wd
        q = e * (a * cs + b * sn)
        v = e * ((-a * gam + b * wd) * cs + (-b * gam - a * wd) * sn)
        return np.array([q]), np.array([v])
    return ref


def _quad_drag_reference(params, q0, v0):
    # vdot = -(A/m)|v|v  ->  v(t) = v0 / (1 + (A/m)|v0| t)
    a = params["A"] / params["m"]

    def ref(t):
        den = 1.0 + a * abs(v0) * t
        v = v0 / den
        q = q0 + math.copysign(math.log(den) / a, v0) if v0 else q0
        return np.array([q]), np.array([v])
    return ref


def _coulomb_reference(params, q0, v0):
    # valid until the block stops: |v| decreases linearly at rate mu/m
    a = params["mu"] / params["m"]

    def ref(t):
        if abs(v0) <= a * t:
            raise ValueError("reference valid only before the block stops")
        s = math.copysign(1.0, v0)
        v = v0 - s * a * t
        q = q0 + v0 * t - s * 0.5 * a * t * t
        return np.array([q]), np.array([v])
    return ref


def get_builtin(name, overrides=None) -> BuiltinSystem:
    overrides = dict(overrides or {})
    tight = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    if name == "sho":
        sys = make_sho(overrides)
        return BuiltinSystem(name, sys, State(0.0, [1.0], [0.0]),
                             t_end=10.0, integrator=tight,
                             reference=_sho_reference(sys.params, 1.0, 0.0))
    if name == "damped_sho":
        sys = make_damped_sho(overrides)
        ref = None
        if sys.params["c"] ** 2 < 4 * sys.params["k"] * sys.params["m"]:
            ref = _damped_sho_reference(sys.params, 1.0, 0.0)
        return BuiltinSystem(name, sys, State(0.0, [1.0], [0.0]),
                             t_end=10.0, integrator=tight, reference=ref)
    if name == "quad_drag_particle":
        sys = make_quad_drag_particle(overrides)
        return BuiltinSystem(name, sys, State(0.0, [0.0], [2.0]),
                             t_end=3.0, integrator=tight,
                             reference=_quad_drag_reference(sys.params, 0.0, 2.0))
    if name == "coulomb_block":
        sys = make_coulomb_block(overrides)
        return BuiltinSystem(name, sys, State(0.0, [0.0], [1.0]),
                             t_end=2.0, integrator=tight,
                             reference=_coulomb_reference(sys.params, 0.0, 1.0))
    if name == "pendulum_drag_2dof":
        sys = make_pendulum_drag_2dof(overrides)
        return BuiltinSystem(name, sys, State(0.0, [0.6, -0.3], [0.0, 0.0]),
                             t_end=5.0, integrator=tight, reference=None)
    raise KeyError(f"unknown builtin system '{name}'; available: "
                   f"{', '.join(BUILTIN_NAMES)}")


BUILTIN_NAMES = ("sho", "damped_sho", "quad_drag_particle", "coulomb_block",
                 "pendulum_drag_2dof")
