"""The benchmark's traced run wraps quintic functions by name.

perfbench/tracer.py lists them in TRACED as module -> function names; a
rename in the package would silently drop a layer from the traced metrics,
so every name must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_quintic_function():
    traced = _traced()
    missing = [
        f"quintic.{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"quintic.{mod}"), fn, None))
    ]
    assert traced and missing == []
