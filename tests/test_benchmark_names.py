"""Every public name the benchmark traces must stay callable in raydiss.

The benchmark's span tracer (bench/spans.py) wraps the names in its
TRACED table only when run with `--trace 1`, and raises TracingError for a
missing one; an untraced run never looks them up. bench/ is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
