"""Every public name the benchmark traces or calls must stay callable in
raydiss.

The benchmark's span tracer (bench/spans.py) wraps the names in its
TRACED table only when run with `--trace 1`, and raises TracingError for a
missing one; an untraced run never looks them up. The per-call probes
(bench/probes.py) and the cold-start child (bench/setup_child.py) call
raydiss through module aliases. bench/ is only read here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_name_is_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"raydiss.{mod}.{name}"
               for mod, names in spans.TRACED.items() for name in names
               if not callable(getattr(
                   importlib.import_module(f"raydiss.{mod}"), name, None))]
    assert spans.TRACED
    assert missing == []


def _raydiss_attributes(path):
    """(module, name) for each `alias.name` in the file at path, where
    alias is a raydiss module bound by `import raydiss.m as alias`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.startswith("raydiss.")}
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def test_every_name_the_probes_and_setup_child_call_is_callable():
    used = {}
    for name in ("probes.py", "setup_child.py"):
        used[name] = _raydiss_attributes(BENCH / name)
        assert used[name], name
    missing = sorted(f"{mod}.{attr}" for names in used.values()
                     for mod, attr in names
                     if not callable(getattr(importlib.import_module(mod),
                                             attr, None)))
    assert ("raydiss.dynamics", "accel") in used["probes.py"]
    assert ("raydiss.dynamics", "accel") in used["setup_child.py"]
    assert missing == []
