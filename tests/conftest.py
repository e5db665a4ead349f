import math

import numpy as np
import pytest

from raydiss import audit as au
from raydiss import exprcore as xc
from raydiss import native
from raydiss import raymodel as rm

# Expression corpus shared by the AD tests and the acceptance gate.
# Contexts are sampled with strictly positive q, v (see random_contexts) so
# every expression is smooth and domain-valid at the sampled points.
CORPUS_PARAMS = {"c": 0.5, "A": 1.3, "k": 2.0, "mu": 0.7}
CORPUS = [
    "2*q1 + v1^2",
    "0.5*k*q1^2",
    "c*abs(v1)^3",
    "A*(v1^2+v2^2)^1.5",
    "sin(q1)*cos(q2) + tanh(v1*v2)",
    "exp(-q1)*v2^2 + ln(q2+1)",
    "sqrt(v1^2 + v2^2 + 0.01)",
    "q1*q2/(1+v1^2)",
    "sign(v1)*v1^2",
    "pow(q1, 2) + pow(v2, 3)",
    "-v1^2 + (-q1)^2",
    "(q1+v1)^q2",
    "mu*abs(v1 - v2)",
    "v1^2.5 + q2^0.5",
    # quotients whose both sides carry a velocity tangent
    "v1/(1+v1)",
    "(v1+v2)/(v1*v2+3)",
]


def random_contexts(n, seed=7, dof=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = tuple(rng.uniform(0.4, 1.6, dof))
        v = tuple(rng.uniform(0.4, 1.6, dof))
        out.append(xc.EvalContext(q, v, CORPUS_PARAMS))
    return out


@pytest.fixture(autouse=True)
def python_loop(monkeypatch):
    """Every test integrates in the generated Python loop and formats by
    repr unless it forces the compiled loop (native.THRESHOLD 0) or
    formatter (native.FORMAT_THRESHOLD 0): the RHS calls and the values
    of the whole test session, counted per process, would otherwise
    switch later tests to compiled code part of the way through."""
    monkeypatch.setattr(native, "THRESHOLD", math.inf)
    monkeypatch.setattr(native, "FORMAT_THRESHOLD", math.inf)


def clear_model_caches():
    """Empty the value-keyed caches of parsed trees, of systems, of
    generated expression code, of dissipation models, of the one entry
    of each system's model code (rm._code) and of each dissipation model's
    stationarity pass, so that the next load parses, checks and builds a
    new system, whose model and audit generate all of their code again."""
    for cache in (xc.parse, rm._system, xc.compiled, rm._dissipation_model,
                  rm._code, au._stationarity_pass):
        cache.cache_clear()


def count_array_calls(model, monkeypatch):
    """Names of the array-mode calls a dissipation model makes, in order,
    from now on. A model with no rest for the graded rule has no array
    evaluators, so its list stays empty."""
    calls = []
    for name in ("_D_nodes", "_D_grad_nodes"):
        if not hasattr(model, name):
            continue

        def counted(q, v, p, fn=getattr(model, name), name=name):
            calls.append(name)
            return fn(q, v, p)
        monkeypatch.setattr(model, name, counted)
    return calls


def count_scalar_passes(monkeypatch):
    """The arguments of every scalar pass that array mode takes from now
    on (a numpy flag hands its points to the scalar code)."""
    passes = []

    def counted(*args, fn=xc._scalar_pass):
        passes.append(args)
        return fn(*args)
    monkeypatch.setattr(xc, "_scalar_pass", counted)
    return passes


@pytest.fixture(scope="session")
def corpus_asts():
    return [(src, xc.parse(src)) for src in CORPUS]
