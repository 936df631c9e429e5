"""The benchmark's traced pass wraps library functions by name: each name
in ``bench/tracing.py``'s ``WRAPPED`` must still exist, or the traced pass
fails.  The tracer is loaded from its file, which is only read."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"wfa_hedge.{module}"), name, None))]
    assert tracing.WRAPPED and not missing, missing
