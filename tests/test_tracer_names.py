"""The names `perfbench/tracer.py` wraps must exist in gradecat.

The tracer patches functions by (module, attribute) name when a benchmark
runs with `--trace 1`; a rename in gradecat would otherwise only show up
there.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves():
    tracer = _load_tracer()
    missing = []
    for module_name, attrs in tracer.SPANNED.items():
        module = importlib.import_module(f"gradecat.{module_name}")
        for attr in attrs:
            owner, _, method = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            if target is None or not callable(getattr(target, method, None)):
                missing.append(f"{module_name}.{attr}")
            elif owner and method not in vars(target):
                missing.append(f"{module_name}.{attr} (inherited, not patchable)")
    assert not missing


def test_every_counted_product_resolves():
    tracer = _load_tracer()
    for _, module_name, cls_name in tracer.MUL_COUNTERS:
        cls = getattr(importlib.import_module(f"gradecat.{module_name}"), cls_name)
        assert "__mul__" in vars(cls)
