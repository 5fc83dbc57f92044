"""The benchmark tracer's function names resolve to distinct library functions.

``perfbench/spans.py`` looks every name in ``TRACED`` up with ``getattr``
and wraps the function it finds at every module-level binding, by object
identity.  A deleted name fails the lookup; an alias of another traced
function would have its calls recorded under both names.  The file is
loaded by path, so the tests need no package around ``perfbench``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_distinct_functions_of_their_layer():
    functions = []
    for layer, names in _spans().TRACED.items():
        module = importlib.import_module(f"popov_interp.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert inspect.isfunction(fn), f"{layer}.{name}"
            assert (fn.__module__, fn.__name__) == (module.__name__, name)
            functions.append(fn)
    assert len({id(fn) for fn in functions}) == len(functions)


def test_poly_mul_paths_name_traced_functions():
    spans = _spans()
    for key in spans.POLY_MUL_PATHS:
        layer, name = key.split(".")
        assert name in spans.TRACED[layer]
        assert inspect.isfunction(getattr(importlib.import_module(f"popov_interp.{layer}"), name))
