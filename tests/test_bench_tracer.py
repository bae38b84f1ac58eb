"""The benchmark's span tracer must keep resolving against the library.

``perfbench/spans.py`` wraps library functions by name; a renamed or deleted
function should fail here rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stackprop_bindings():
    """Every module-level name in a loaded stackprop module, by (module, name)."""
    return {
        (mod_name, key): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "stackprop" or mod_name.startswith("stackprop.")
        for key, value in vars(mod).items()
    }


def test_tracer_wraps_every_target_and_restores():
    spans = load_spans()
    for mod_name, _, _ in spans.TARGETS:
        importlib.import_module(mod_name)
    before = stackprop_bindings()
    methods = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in spans.METHOD_TARGETS]

    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in spans.TARGETS:
            traced = getattr(importlib.import_module(mod_name), attr)
            assert traced.__wrapped__ is before[(mod_name, attr)], f"{mod_name}.{attr}"
        for cls, attr, original in methods:
            assert cls.__dict__[attr].__wrapped__ is original
    finally:
        tracer.restore()

    after = stackprop_bindings()
    assert all(after[key] is value for key, value in before.items())
    for cls, attr, original in methods:
        assert cls.__dict__[attr] is original
