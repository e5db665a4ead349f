"""Run configuration: JSON schema, validation, serialization.

A config either embeds the full system (dof, mass_matrix, potential,
dissipation, params) or selects a builtin by name; either may carry
parameter `overrides`. Expressions are strings in the expression grammar;
they are parsed and bound at load time, and declared homogeneity degrees
are verified immediately so bad configs fail before any integration.

The sections `integrator`, `audit`, `output` and `dissipation.quadrature`
are read field by field into their dataclasses: each key must name a
field, and each value must have the type of that field's default. The
defaults and the range checks live only in those dataclasses. The other
objects (the top level, `dissipation`, its terms and `initial`) reject
unknown keys too, so a misspelt key is an error, not a silent default.
"""

from __future__ import annotations

import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, field, fields, replace

from . import builtins as bi
from . import exprcore as xc
from . import raymodel as rm
from .dynamics import IntegratorConfig, State
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
    system: rm.SystemSpec
    initial: State
    t_end: float
    integrator: IntegratorConfig
    tolerances: AuditTolerances = field(default_factory=AuditTolerances)
    output: OutputConfig = field(default_factory=OutputConfig)
    builtin_name: str | None = None
    reference: object = None

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > self.initial.t):
            raise ConfigError(f"t_end ({self.t_end}) must be finite and "
                              f"exceed t0 ({self.initial.t})", "t_end")

    def with_params(self, overrides) -> "RunConfig":
        """New config with parameter values replaced. `overrides` (JSON
        `overrides`, --set or a sweep value) maps known parameter names
        to finite numbers."""
        if not isinstance(overrides, dict):
            raise ConfigError(f"expected an object, got {overrides!r}",
                              "overrides")
        unknown = set(overrides) - set(self.system.params)
        if unknown:
            raise ConfigError(
                f"unknown parameter(s): {', '.join(sorted(unknown))} "
                f"(have: {', '.join(sorted(self.system.params))})",
                "overrides")
        params = dict(self.system.params)
        for name, value in overrides.items():
            params[name] = _num(value, f"overrides.{name}")
        # structure does not depend on parameters, so the new system keeps
        # the parsed expressions and shares the compiled dissipation model
        system = replace(self.system, params=params)
        reference = None
        if self.builtin_name:
            reference = bi.get_builtin(self.builtin_name,
                                       system.params).reference
        return replace(self, system=system, reference=reference)


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


def _typed(x, default, path):
    """JSON value `x` as the type of `default` (a section field's default,
    or a vector of zeros): a finite number for a float, an integral number
    for an int, true/false for a bool, a string (or null where the default
    is None), and a list of the same length for a tuple."""
    if isinstance(default, tuple):
        if not isinstance(x, (list, tuple)) or len(x) != len(default):
            raise ConfigError(f"expected a list of length {len(default)}, "
                              f"got {x!r}", path)
        return tuple(_typed(e, d, f"{path}[{i}]")
                     for i, (e, d) in enumerate(zip(x, default)))
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


def _section(cls, obj, path):
    """The dataclass `cls` built from the JSON object `obj` at `path`."""
    defaults = {f.name: f.default for f in fields(cls)}
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
        raise ConfigError(f"expression '{src}': {e}", path) from None


def _load_dissipation(obj, path):
    mode = _req(obj, "mode", path)
    if mode == "homogeneous_sum":
        _check_keys(obj, ("mode", "terms"), path)
        terms = []
        for i, t in enumerate(obj.get("terms", [])):
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
    if "system" in doc:
        _check_keys(doc, ("system",) + _RUN_KEYS, "")
        name = doc["system"]
        if not isinstance(name, str):
            raise ConfigError("builtin selection must be a name string",
                              "system")
        try:
            b = bi.get_builtin(name)
        except KeyError as e:
            raise ConfigError(str(e.args[0]), "system") from None
        system, initial, t_end = b.system, b.initial, b.t_end
        integrator, reference = b.integrator, b.reference
    else:
        _check_keys(doc, ("dof", "params", "mass_matrix", "potential",
                          "dissipation") + _RUN_KEYS, "")
        dof = _req(doc, "dof", "")
        if not isinstance(dof, int) or dof < 1:
            raise ConfigError("dof must be a positive integer", "dof")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object", "params")
        params = {k: _num(v, f"params.{k}") for k, v in params.items()}
        mm_src = _req(doc, "mass_matrix", "")
        if not isinstance(mm_src, list) or len(mm_src) != dof:
            raise ConfigError(f"mass_matrix must be a {dof}x{dof} grid",
                              "mass_matrix")
        mm = []
        for i, row in enumerate(mm_src):
            if not isinstance(row, list) or len(row) != dof:
                raise ConfigError(f"row must have {dof} entries",
                                  f"mass_matrix[{i}]")
            mm.append([_parse_expr(e, f"mass_matrix[{i}][{j}]")
                       for j, e in enumerate(row)])
        potential = _parse_expr(_req(doc, "potential", ""), "potential")
        dissipation = _load_dissipation(_req(doc, "dissipation", ""),
                                        "dissipation")
        try:
            system = rm.SystemSpec(dof=dof, mass_matrix=mm,
                                   potential=potential,
                                   dissipation=dissipation, params=params)
        except (rm.ModelError, xc.BindError) as e:
            raise ConfigError(str(e)) from None
        name = initial = t_end = reference = None
        integrator = IntegratorConfig()

    if "initial" in doc:
        init = doc["initial"]
        _check_keys(init, ("q", "v", "t0"), "initial")
        zeros = (0.0,) * system.dof
        q = _typed(_req(init, "q", "initial"), zeros, "initial.q")
        v = _typed(_req(init, "v", "initial"), zeros, "initial.v")
        t0 = _num(init.get("t0", 0.0), "initial.t0")
        initial = State(t0, q, v)
    elif initial is None:
        raise ConfigError("missing required field 'initial'")
    if "t_end" in doc:
        t_end = _num(doc["t_end"], "t_end")
    elif t_end is None:
        raise ConfigError("missing required field 't_end'")
    if "integrator" in doc:
        integrator = _section(IntegratorConfig, doc["integrator"],
                              "integrator")

    cfg = RunConfig(
        system=system, initial=initial, t_end=t_end,
        integrator=integrator,
        tolerances=_section(AuditTolerances, doc.get("audit", {}), "audit"),
        output=_section(OutputConfig, doc.get("output", {}), "output"),
        builtin_name=name, reference=reference)
    if "overrides" in doc:
        cfg = cfg.with_params(doc["overrides"])
    _check_declared_degrees(cfg)
    return cfg


def _check_declared_degrees(cfg):
    d = cfg.system.dissipation
    if d.mode != "homogeneous_sum":
        rep = rm.rest_value_check(d, cfg.system.dof, cfg.system.params)
        if not rep.passed:
            raise ConfigError(
                f"general-mode dissipation must vanish at rest; max "
                f"|D(q,0)| = {rep.max_violation:.3e}", "dissipation.raw")
        return
    for i, term in enumerate(d.terms):
        rep = rm.homogeneity_check(term, cfg.system.dof, cfg.system.params)
        if not rep.passed:
            raise ConfigError(
                f"term is not homogeneous of declared degree "
                f"{term.degree} (max relative violation "
                f"{rep.max_violation:.3e})", f"dissipation.terms[{i}]")


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
