"""Each name soilptf keeps only for benchmark/trace_child.py is still traced.

Some imports in src/ serve no caller but the tracer, which looks the name
up in that module's globals; each is marked "only
benchmark/trace_child.py looks it up here". soilptf.cli resolves three more
names through its module __getattr__. Once the tracer stops looking a name
up, its shim must go too, so each one must still appear in the tracer's
SPANS or COUNTERS. The tracer file is only read, as in test_trace_names.
"""

import re
from pathlib import Path

import pytest

import soilptf
import soilptf.cli
from test_trace_names import _TC

SRC = Path(soilptf.__file__).resolve().parent
MARK = "# only benchmark/trace_child.py looks it up here"
MARKER = re.compile(r"(\w+),?\s*" + re.escape(MARK))
TRACED = {(module, dotted) for _, module, dotted in _TC.SPANS + _TC.COUNTERS}


def _shims():
    """(module, name) of every marked import and every name that
    soilptf.cli resolves on first lookup."""
    marked = [(f"soilptf.{path.stem}", name)
              for path in sorted(SRC.glob("*.py"))
              for name in MARKER.findall(path.read_text())]
    lazy = [("soilptf.cli", name) for name in soilptf.__all__
            if name not in vars(soilptf.cli) and hasattr(soilptf.cli, name)]
    return marked + lazy


_SHIMS = _shims()


def test_every_marked_import_is_found():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        marks = text.count(MARK)
        assert len(MARKER.findall(text)) == marks, path.name


@pytest.mark.parametrize("module, name", _SHIMS, ids=[f"{m}.{n}" for m, n in _SHIMS])
def test_tracer_only_name_is_still_traced(module, name):
    assert (module, name) in TRACED, (
        f"{module}.{name} is kept only for benchmark/trace_child.py, which no "
        "longer wraps it: delete it")


def test_cli_resolves_its_lazy_names_through_the_package():
    for name in ("train_cpxr", "fit_local", "cross_validate"):
        assert getattr(soilptf.cli, name) is getattr(soilptf, name)
    with pytest.raises(AttributeError, match="module 'soilptf.cli' has no attribute 'fit_locals'"):
        soilptf.cli.fit_locals
