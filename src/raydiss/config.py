"""Run configuration: JSON schema, validation, serialization.

A config either embeds the full system (dof, mass_matrix, potential,
dissipation, params) or selects a builtin by name. A selection loads as
the builtin's document (`builtins.DOCS`), each of its other top-level keys
replacing that whole section, so both kinds take one path from here on.
Either may carry parameter `overrides`, applied to `params` before the
system is built, by the rule of `--set` and sweep values. Expressions are
strings in the expression grammar, parsed and bound at load time. Every
`RunConfig` checks declared degrees and D(q, 0) = 0 when it is made, by
a load, `with_params` or `replace` alike, so bad parameter values fail
before any integration. A load and `with_params` take their system from
one cache by value (raymodel.system), so the sampled checks run once per
system value per process (its params are read-only): a repeat load, or a
`replace` that keeps the system, reads their result.

The sections `integrator`, `audit`, `output` and `dissipation.quadrature`
are read field by field into their dataclasses: each key must name a
field, and each value must have the type of that field's default. The
defaults and the range checks live only in those dataclasses; `dof`,
the `mass_matrix` grid and `initial` take the same typed reader. The
other objects (the top level, `dissipation`, its terms and `initial`)
reject unknown keys too, so a misspelt key is an error, not a silent
default.
"""

from __future__ import annotations

import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from types import MappingProxyType

from . import builtins as bi
from . import exprcore as xc
from . import raymodel as rm
from .dynamics import IntegratorConfig, State, check_span
from .audit import AuditTolerances


class ConfigError(Exception):
    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"config error at '{path}': {message}" if path
                         else f"config error: {message}")


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    format: str = "csv"
    plot_data: bool = False

    def __post_init__(self):
        if self.format not in ("csv", "jsonl"):
            raise ValueError(f"format must be csv or jsonl, got "
                             f"'{self.format}'")


@dataclass(frozen=True)
class RunConfig:
    """A run whose span, declared degrees and D(q, 0) = 0 at its parameter
    values are checked when it is made, however it is made."""

    system: rm.SystemSpec
    initial: State
    t_end: float
    integrator: IntegratorConfig
    tolerances: AuditTolerances = field(default_factory=AuditTolerances)
    output: OutputConfig = field(default_factory=OutputConfig)
    builtin_name: str | None = None

    def __post_init__(self):
        try:
            check_span(self.initial.t, self.t_end)
        except ValueError as e:
            raise ConfigError(str(e), "t_end") from None
        failed = self.system.failed_hypothesis
        if failed is None:
            return
        i, rep = failed
        if i is None:
            raise ConfigError(
                f"general-mode dissipation must vanish at rest; max "
                f"|D(q,0)| = {rep.max_violation:.3e}", "dissipation.raw")
        term = self.system.dissipation.terms[i]
        q, v = rep.witness
        finite = math.isfinite(term.evaluate(q, v, self.system.params))
        raise ConfigError(
            f"term is not homogeneous of declared degree {term.degree} "
            f"(max relative violation {rep.max_violation:.3e} at "
            f"q={list(q)}, v={list(v)}"
            f"{'' if finite else ', where the term overflows'})",
            f"dissipation.terms[{i}]")

    def with_params(self, overrides) -> "RunConfig":
        """New config with parameter values replaced (--set or a sweep
        value) by the rule of JSON `overrides`, checked like any other."""
        # the new system keeps the parsed expressions, so it shares all of
        # its generated code, which is keyed by them, not by parameters
        s = self.system
        return replace(self, system=rm.system(
            s.dof, s.mass_matrix, s.potential, s.dissipation,
            _override(s.params, overrides)))


# ---------------------------------------------------------------------------
# Loading


def _req(obj, key, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object, got {obj!r}", path)
    if key not in obj:
        raise ConfigError(f"missing required field '{key}'", path)
    return obj[key]


def _num(x, path):
    # the bound also rejects NaN, and an int too large for a float
    if (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= _sys.float_info.max):
        return float(x)
    raise ConfigError(f"expected a finite number, got {x!r}", path)


def _override(params, overrides):
    """`params` with `overrides` (JSON `overrides`, --set or a sweep value)
    applied: an object of known parameter names and finite numbers."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"expected an object, got {overrides!r}",
                          "overrides")
    unknown = set(overrides) - set(params)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s): {', '.join(sorted(unknown))} "
            f"(have: {', '.join(sorted(params))})", "overrides")
    return {**params, **{name: _num(value, f"overrides.{name}")
                         for name, value in overrides.items()}}


def _typed(x, default, path, shape=()):
    """JSON value `x` as the type of `default`: a finite number for a
    float, an integral number for an int, true/false for a bool, a string
    (or null where the default is None). With a `shape` (n, ...), `x` is a
    list of n entries of the rest of the shape, its length checked before
    any entry is read, so that a huge stated n builds nothing. A tuple
    default (a section field's) is the shape of its length, each entry of
    the type of its first."""
    if isinstance(default, tuple):
        default, shape = default[0], (len(default),)
    if shape:
        if not isinstance(x, (list, tuple)) or len(x) != shape[0]:
            raise ConfigError(f"expected a list of length {shape[0]}, "
                              f"got {x!r}", path)
        return tuple(_typed(e, default, f"{path}[{i}]", shape[1:])
                     for i, e in enumerate(x))
    if isinstance(default, bool):
        if not isinstance(x, bool):
            raise ConfigError(f"expected true or false, got {x!r}", path)
        return x
    if isinstance(default, int):
        if not ((isinstance(x, int) and not isinstance(x, bool))
                or (isinstance(x, float) and x.is_integer())):
            raise ConfigError(f"expected an integer, got {x!r}", path)
        return int(x)
    if isinstance(default, float):
        return _num(x, path)
    if not (isinstance(x, str) or (default is None and x is None)):
        raise ConfigError(f"expected a string, got {x!r}", path)
    return x


def _check_keys(obj, known, path):
    """Require `obj` (at `path`) to be a JSON object whose every key is in
    `known`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object, got {obj!r}", path)
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown key (known: {', '.join(known)})",
                              f"{path}.{key}" if path else key)


@lru_cache(maxsize=8)
def _defaults(cls):
    """Each field name of the section dataclass `cls` (one of four) and
    its default, read once per class."""
    return MappingProxyType({f.name: f.default for f in fields(cls)})


def _section(cls, obj, path):
    """The dataclass `cls` built from the JSON object `obj` at `path`."""
    defaults = _defaults(cls)
    _check_keys(obj, defaults, path)
    values = {key: _typed(x, defaults[key], f"{path}.{key}")
              for key, x in obj.items()}
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(str(e), path) from None


def _parse_expr(src, path):
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string, got {src!r}", path)
    try:
        return xc.parse(src)
    except xc.ParseError as e:
        # a long source is cut, so that the error stays one short line
        quoted = (f"'{src}'" if len(src) <= _QUOTED else
                  f"'{src[:_QUOTED]}…' ({len(src)} characters)")
        raise ConfigError(f"expression {quoted}: {e}", path) from None


_QUOTED = 60  # characters of an expression that a parse error quotes


def _load_dissipation(obj, path):
    mode = _req(obj, "mode", path)
    if mode == "homogeneous_sum":
        _check_keys(obj, ("mode", "terms"), path)
        listed = obj.get("terms", [])
        if not isinstance(listed, list):
            raise ConfigError(f"expected a list, got {listed!r}",
                              f"{path}.terms")
        terms = []
        for i, t in enumerate(listed):
            tp = f"{path}.terms[{i}]"
            _check_keys(t, ("expr", "degree", "smooth_eps"), tp)
            expr = _parse_expr(_req(t, "expr", tp), f"{tp}.expr")
            degree = _num(_req(t, "degree", tp), f"{tp}.degree")
            eps = t.get("smooth_eps")
            if eps is not None:
                eps = _num(eps, f"{tp}.smooth_eps")
            try:
                terms.append(rm.DissipationTerm(expr, degree, smooth_eps=eps))
            except rm.ModelError as e:
                raise ConfigError(str(e), tp) from None
        return rm.DissipationSpec("homogeneous_sum", terms)
    if mode == "general":
        _check_keys(obj, ("mode", "raw", "quadrature"), path)
        raw = _parse_expr(_req(obj, "raw", path), f"{path}.raw")
        quad = _section(rm.QuadratureConfig, obj.get("quadrature", {}),
                        f"{path}.quadrature")
        return rm.DissipationSpec("general", raw=raw, quadrature=quad)
    raise ConfigError(f"mode must be homogeneous_sum or general, got "
                      f"'{mode}'", f"{path}.mode")


_RUN_KEYS = ("initial", "t_end", "integrator", "audit", "output",
             "overrides")


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")
    name = doc.get("system")
    if "system" in doc:
        _check_keys(doc, ("system",) + _RUN_KEYS, "")
        if not isinstance(name, str):
            raise ConfigError("builtin selection must be a name string",
                              "system")
        try:
            builtin = bi.document(name)
        except KeyError as e:
            raise ConfigError(str(e.args[0]), "system") from None
        doc = {**builtin, **{k: v for k, v in doc.items() if k != "system"}}
    _check_keys(doc, ("dof", "params", "mass_matrix", "potential",
                      "dissipation") + _RUN_KEYS, "")
    dof = _typed(_req(doc, "dof", ""), 1, "dof")
    if dof < 1:
        raise ConfigError("dof must be a positive integer", "dof")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "params")
    params = _override({k: _num(v, f"params.{k}") for k, v in params.items()},
                       doc.get("overrides", {}))
    grid = _typed(_req(doc, "mass_matrix", ""), "", "mass_matrix", (dof, dof))
    mm = [[_parse_expr(e, f"mass_matrix[{i}][{j}]") for j, e in enumerate(row)]
          for i, row in enumerate(grid)]
    potential = _parse_expr(_req(doc, "potential", ""), "potential")
    dissipation = _load_dissipation(_req(doc, "dissipation", ""),
                                    "dissipation")
    try:
        system = rm.system(dof, mm, potential, dissipation, params)
    except (rm.ModelError, xc.BindError) as e:
        raise ConfigError(str(e), getattr(e, "path", "")) from None

    init = _req(doc, "initial", "")
    _check_keys(init, ("q", "v", "t0"), "initial")
    q = _typed(_req(init, "q", "initial"), 0.0, "initial.q", (dof,))
    v = _typed(_req(init, "v", "initial"), 0.0, "initial.v", (dof,))
    t0 = _num(init.get("t0", 0.0), "initial.t0")
    return RunConfig(
        system=system, initial=State(t0, q, v),
        t_end=_num(_req(doc, "t_end", ""), "t_end"),
        integrator=_section(IntegratorConfig, doc.get("integrator", {}),
                            "integrator"),
        tolerances=_section(AuditTolerances, doc.get("audit", {}), "audit"),
        output=_section(OutputConfig, doc.get("output", {}), "output"),
        builtin_name=name)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"JSON syntax error in {path}: line {e.lineno} column {e.colno}: "
            f"{e.msg}") from None
    except ValueError as e:  # bad UTF-8, or an integer over 4,300 digits
        raise ConfigError(f"cannot read {path}: "
                          f"{str(e).split(';')[0]}") from None
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Serialization (round-trips through config_from_dict)


def config_to_dict(cfg: RunConfig) -> dict:
    sys = cfg.system
    d = sys.dissipation
    if d.mode == "homogeneous_sum":
        diss = {"mode": "homogeneous_sum",
                "terms": [{k: v for k, v in (
                    ("expr", xc.to_source(t.expr)),
                    ("degree", t.degree),
                    ("smooth_eps", t.smooth_eps)) if v is not None}
                    for t in d.terms]}
    else:
        diss = {"mode": "general", "raw": xc.to_source(d.raw),
                "quadrature": asdict(d.quadrature)}
    return {
        "dof": sys.dof,
        "params": dict(sys.params),
        "mass_matrix": [[xc.to_source(e) for e in row]
                        for row in sys.mass_matrix],
        "potential": xc.to_source(sys.potential),
        "dissipation": diss,
        "initial": {"q": list(cfg.initial.q), "v": list(cfg.initial.v),
                    "t0": cfg.initial.t},
        "t_end": cfg.t_end,
        "integrator": asdict(cfg.integrator),
        "audit": asdict(cfg.tolerances),
        "output": asdict(cfg.output),
    }


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
        f.write("\n")
