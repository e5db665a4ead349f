"""Run configuration: JSON schema, validation, serialization.

A config either embeds the full system (dof, mass_matrix, potential,
dissipation, params) or selects a builtin by name with parameter
overrides. Expressions are strings in the expression grammar; they are
parsed and bound at load time, and declared homogeneity degrees are
verified immediately so bad configs fail before any integration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

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
            raise ConfigError(f"format must be csv or jsonl, got "
                              f"'{self.format}'", "output.format")


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

    def with_params(self, overrides: dict) -> "RunConfig":
        """New config with parameter values replaced."""
        unknown = set(overrides) - set(self.system.params)
        if unknown:
            raise ConfigError(
                f"unknown parameter(s): {', '.join(sorted(unknown))}",
                "params")
        # structure does not depend on parameters, so the new system keeps
        # the parsed expressions and shares the compiled dissipation model
        system = replace(self.system,
                         params={**self.system.params, **overrides})
        reference = None
        if self.builtin_name:
            reference = bi.get_builtin(self.builtin_name,
                                       system.params).reference
        return replace(self, system=system, reference=reference)


# ---------------------------------------------------------------------------
# Loading


def _req(obj, key, path):
    if key not in obj:
        raise ConfigError(f"missing required field '{key}'", path)
    return obj[key]


def _num(x, path):
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ConfigError(f"expected a number, got {x!r}", path)
    return float(x)


def _vector(x, n, path):
    if not isinstance(x, list) or len(x) != n:
        raise ConfigError(f"expected a list of {n} numbers", path)
    return [_num(e, f"{path}[{i}]") for i, e in enumerate(x)]


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
        terms = []
        for i, t in enumerate(obj.get("terms", [])):
            tp = f"{path}.terms[{i}]"
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
        raw = _parse_expr(_req(obj, "raw", path), f"{path}.raw")
        qc = obj.get("quadrature", {})
        try:
            quad = rm.QuadratureConfig(
                node_count=int(qc.get("node_count", 64)),
                panels=int(qc.get("panels", 4)),
                tolerance=float(qc.get("tolerance", 1e-10)))
        except ValueError as e:
            raise ConfigError(str(e), f"{path}.quadrature") from None
        return rm.DissipationSpec("general", raw=raw, quadrature=quad)
    raise ConfigError(f"mode must be homogeneous_sum or general, got "
                      f"'{mode}'", f"{path}.mode")


def _load_integrator(obj):
    try:
        return IntegratorConfig(
            method=obj.get("method", "rk45"),
            dt=float(obj.get("dt", 1e-3)),
            rel_tol=float(obj.get("rel_tol", 1e-9)),
            abs_tol=float(obj.get("abs_tol", 1e-12)),
            max_steps=int(obj.get("max_steps", 10_000_000)),
            sample_every=int(obj.get("sample_every", 1)))
    except ValueError as e:
        raise ConfigError(str(e), "integrator") from None


def _load_tolerances(obj):
    return AuditTolerances(
        energy=float(obj.get("energy", 1e-6)),
        stationarity=float(obj.get("stationarity", 1e-5)),
        slope_window=tuple(obj.get("slope_window", (1.8, 2.2))),
        check_samples=int(obj.get("check_samples", 100)),
        check_seed=int(obj.get("check_seed", 20260823)))


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")
    reference = None
    builtin_name = None
    if "system" in doc:
        name = doc["system"]
        if not isinstance(name, str):
            raise ConfigError("builtin selection must be a name string",
                              "system")
        try:
            b = bi.get_builtin(name, doc.get("overrides", {}))
        except KeyError as e:
            raise ConfigError(str(e.args[0]), "system") from None
        system = b.system
        builtin_name = name
        reference = b.reference
        default_initial, default_t_end = b.initial, b.t_end
        default_integrator = b.integrator
    else:
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
        default_initial = None
        default_t_end = None
        default_integrator = IntegratorConfig()

    if "initial" in doc:
        init = doc["initial"]
        q = _vector(_req(init, "q", "initial"), system.dof, "initial.q")
        v = _vector(_req(init, "v", "initial"), system.dof, "initial.v")
        t0 = _num(init.get("t0", 0.0), "initial.t0")
        initial = State(t0, q, v)
    elif default_initial is not None:
        initial = default_initial
    else:
        raise ConfigError("missing required field 'initial'")

    if "t_end" in doc:
        t_end = _num(doc["t_end"], "t_end")
    elif default_t_end is not None:
        t_end = default_t_end
    else:
        raise ConfigError("missing required field 't_end'")
    if t_end <= initial.t:
        raise ConfigError(f"t_end ({t_end}) must exceed t0 ({initial.t})",
                          "t_end")

    integrator = (_load_integrator(doc["integrator"])
                  if "integrator" in doc else default_integrator)
    tolerances = _load_tolerances(doc.get("audit", {}))
    out = doc.get("output", {})
    output = OutputConfig(path=out.get("path"),
                          format=out.get("format", "csv"),
                          plot_data=bool(out.get("plot_data", False)))

    cfg = RunConfig(system=system, initial=initial, t_end=t_end,
                    integrator=integrator, tolerances=tolerances,
                    output=output, builtin_name=builtin_name,
                    reference=reference)
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
                "quadrature": {"node_count": d.quadrature.node_count,
                               "panels": d.quadrature.panels,
                               "tolerance": d.quadrature.tolerance}}
    it = cfg.integrator
    doc = {
        "dof": sys.dof,
        "params": dict(sys.params),
        "mass_matrix": [[xc.to_source(e) for e in row]
                        for row in sys.mass_matrix],
        "potential": xc.to_source(sys.potential),
        "dissipation": diss,
        "initial": {"q": list(cfg.initial.q), "v": list(cfg.initial.v),
                    "t0": cfg.initial.t},
        "t_end": cfg.t_end,
        "integrator": {"method": it.method, "dt": it.dt,
                       "rel_tol": it.rel_tol, "abs_tol": it.abs_tol,
                       "max_steps": it.max_steps,
                       "sample_every": it.sample_every},
        "audit": {"energy": cfg.tolerances.energy,
                  "stationarity": cfg.tolerances.stationarity,
                  "slope_window": list(cfg.tolerances.slope_window),
                  "check_samples": cfg.tolerances.check_samples,
                  "check_seed": cfg.tolerances.check_seed},
        "output": {"format": cfg.output.format,
                   "plot_data": cfg.output.plot_data,
                   **({"path": cfg.output.path} if cfg.output.path else {})},
    }
    return doc


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
        f.write("\n")
