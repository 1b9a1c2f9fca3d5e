"""tools/pipeline_digests.py --against: the comparison of two digest sets,
with the pipeline itself replaced by a stand-in."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pipeline_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("pipeline_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_EXPECTED = {"a.csv": "1", "b.json": "2", "c.out": "3"}


def test_differences_name_each_changed_missing_or_new_path(tool):
    assert tool.differences(_EXPECTED, dict(_EXPECTED)) == []
    got = {"a.csv": "1", "b.json": "9", "d.csv": "4"}
    assert tool.differences(_EXPECTED, got) == ["differs: b.json", "missing: c.out",
                                                "new: d.csv"]


@pytest.mark.parametrize("got, code, out", [
    (_EXPECTED, 0, "all 3 digests match\n"),
    ({**_EXPECTED, "b.json": "9"}, 1, "differs: b.json\n"),
], ids=["match", "differs"])
def test_against_exit_code(tool, tmp_path, monkeypatch, capsys, got, code, out):
    monkeypatch.setattr(tool, "run_pipeline", lambda src, work: dict(got))
    against = tmp_path / "parent.json"
    against.write_text(json.dumps(_EXPECTED))
    assert tool.main(["--against", str(against)]) == code
    assert capsys.readouterr().out == out
