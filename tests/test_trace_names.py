"""The benchmark's tracer wraps soilptf names; each one must still exist.

benchmark/trace_child.py lists the (module, attribute) pairs it replaces
with timing wrappers. A name that disappears is skipped there silently and
its per-layer metrics vanish from the benchmark output, so a rename or a
deletion must fail here instead. The tracer file is only read, never
imported as a module, so no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "benchmark" / "trace_child.py"


def _trace_child():
    module = types.ModuleType("trace_child")
    module.__file__ = str(TRACE_CHILD)
    code = compile(TRACE_CHILD.read_text(), str(TRACE_CHILD), "exec")
    exec(code, module.__dict__)
    return module


_TC = _trace_child()


@pytest.mark.parametrize(
    "layer, module, dotted", _TC.SPANS + _TC.COUNTERS,
    ids=[f"{m}.{d}" for _, m, d in _TC.SPANS + _TC.COUNTERS],
)
def test_traced_name_resolves_to_callable(layer, module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module}.{dotted} ({layer}) is gone"
    assert callable(owner), f"{module}.{dotted} ({layer}) is not callable"
