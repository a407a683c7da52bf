"""The functions that the benchmark's tracer wraps exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_a_package_function():
    # a traced run only prints "trace targets not found" for a missing one,
    # so a refactor that moves a spanned function is caught here instead
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, fn) for table in (tracing.SPANNED, tracing.COUNTED)
               for module, fns in table.items() for fn in fns]
    missing = [f"{module}.{fn}" for module, fn in targets
               if not callable(getattr(importlib.import_module(module), fn, None))]
    assert targets and not missing
