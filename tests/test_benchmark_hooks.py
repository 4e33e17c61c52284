"""The benchmark's tracer rebinds public functions of gvblocks by name; every
name it lists must exist, or the traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"gvblocks.{module}"), function)), name
