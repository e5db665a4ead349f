"""Built-in benchmark systems with closed-form reference solutions.

Covers dissipation degrees 1, 2 and 3 plus a 2-dof system with a
configuration-dependent mass matrix:

* sho               -- conservative harmonic oscillator (D = 0)
* damped_sho        -- linear drag, D = c*v^2 (classical quadratic case)
* quad_drag_particle -- free particle with D = A*|v|^3 (high-Reynolds drag)
* coulomb_block     -- dry friction, D = mu*|v|, tanh-regularized force
* pendulum_drag_2dof -- double pendulum with D = A*(v1^2+v2^2)^(3/2)

Each builtin is a config document in `DOCS`, of the same JSON shape as an
inline config, run under tight rk45 tolerances. `config_from_dict` loads a
selection `{"system": name, ...}` as that document; `get_builtin` loads it
the same way and adds the closed-form reference where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config as cf
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


def _doc(params, mass_matrix, potential, terms, q, v, t_end):
    return {"dof": len(q), "params": params, "mass_matrix": mass_matrix,
            "potential": potential,
            "dissipation": {"mode": "homogeneous_sum", "terms": terms},
            "initial": {"q": q, "v": v}, "t_end": t_end,
            "integrator": {"method": "rk45", "rel_tol": 1e-10,
                           "abs_tol": 1e-12}}


_M12 = "m2*l1*l2*cos(q1-q2)"

DOCS = {
    "sho": _doc({"m": 1.0, "k": 1.0}, [["m"]], "0.5*k*q1^2", [],
                q=[1.0], v=[0.0], t_end=10.0),
    "damped_sho": _doc({"m": 1.0, "k": 1.0, "c": 0.2}, [["m"]],
                       "0.5*k*q1^2", [{"expr": "c*v1^2", "degree": 2.0}],
                       q=[1.0], v=[0.0], t_end=10.0),
    "quad_drag_particle": _doc({"m": 1.0, "A": 0.5}, [["m"]], "0",
                               [{"expr": "A*abs(v1)^3", "degree": 3.0}],
                               q=[0.0], v=[2.0], t_end=3.0),
    "coulomb_block": _doc({"m": 1.0, "mu": 0.3}, [["m"]], "0",
                          [{"expr": "mu*abs(v1)", "degree": 1.0,
                            "smooth_eps": 1e-4}],
                          q=[0.0], v=[1.0], t_end=2.0),
    # nondimensional units (g = l = m = 1) keep the benchmark gentle
    "pendulum_drag_2dof": _doc(
        {"m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "g": 1.0, "A": 0.1},
        [["(m1+m2)*l1^2", _M12], [_M12, "m2*l2^2"]],
        "-(m1+m2)*g*l1*cos(q1) - m2*g*l2*cos(q2)",
        [{"expr": "A*(v1^2+v2^2)^1.5", "degree": 3.0}],
        q=[0.6, -0.3], v=[0.0, 0.0], t_end=5.0),
}
BUILTIN_NAMES = tuple(DOCS)


def document(name) -> dict:
    """`DOCS[name]`, or a KeyError that names the builtins."""
    if name not in DOCS:
        raise KeyError(f"unknown builtin system '{name}'; available: "
                       f"{', '.join(BUILTIN_NAMES)}")
    return DOCS[name]


def _sho_reference(params, q0, v0):
    w = math.sqrt(params["k"] / params["m"])

    def ref(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return (np.array([q0 * c + v0 / w * s]),
                np.array([-q0 * w * s + v0 * c]))
    return ref


def _damped_sho_reference(params, q0, v0):
    m, k, c = params["m"], params["k"], params["c"]
    if c ** 2 >= 4 * k * m:
        return None  # the closed form covers the underdamped regime only
    gam = c / (2.0 * m)  # force is -c*v, so damping rate c/(2m)
    wd = math.sqrt(k / m - gam * gam)

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


# name -> factory (params, q0, v0) -> reference, or None
_REFERENCES = {"sho": _sho_reference, "damped_sho": _damped_sho_reference,
               "quad_drag_particle": _quad_drag_reference,
               "coulomb_block": _coulomb_reference}


def get_builtin(name, overrides=None) -> BuiltinSystem:
    """Builtin `name` with parameter `overrides`, loaded from its document
    like any config."""
    cfg = cf.config_from_dict({**document(name),
                               "overrides": dict(overrides or {})})
    factory = _REFERENCES.get(name)
    reference = None if factory is None else factory(
        cfg.system.params, float(cfg.initial.q[0]), float(cfg.initial.v[0]))
    return BuiltinSystem(name, cfg.system, cfg.initial, cfg.t_end,
                         cfg.integrator, reference)
