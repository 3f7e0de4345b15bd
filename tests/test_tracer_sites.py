"""The benchmark's tracer wraps package functions by name; a rename that
drops one of them must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines sites and classes; wraps nothing
    return module


def test_every_traced_site_resolves():
    tracer = _load_tracer()
    missing = []
    for module, attr, _ in tracer.FUNCTION_SITES:
        if not callable(getattr(importlib.import_module(f"lexstable.{module}"), attr, None)):
            missing.append(f"lexstable.{module}.{attr}")
    for module, cls_name, method, _ in tracer.METHOD_SITES:
        cls = getattr(importlib.import_module(f"lexstable.{module}"), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"lexstable.{module}.{cls_name}.{method}")
    assert missing == []
