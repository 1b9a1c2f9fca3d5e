"""Tests of the benchmark itself: python3 -m pytest benchmark"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_emits_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_layer_map_covers_every_per_layer_metric():
    sys.path.insert(0, str(HERE))
    import run

    declared = {m["name"] for m in _spec()["per_layer"]}
    mapped = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert set(mapped) == declared
    known = set(run.workloads(smoke=False))
    assert {w["name"] for w in _spec()["workloads"]} <= known
    for name, entry in mapped.items():
        assert set(entry["on"]) <= known, name


def test_missing_wrapped_names_leave_their_metrics_out(tmp_path):
    # Later changes may rename or delete these; the traced run must go on.
    code = (
        "import sys, soilptf.cpxr, soilptf.hydrology\n"
        "del soilptf.cpxr._mine_masks, soilptf.hydrology._fit_from_start\n"
        "del soilptf.hydrology._curve_residuals\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import trace_child\n"
        "sys.exit(trace_child.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "trace.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out), "--", "--version"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert sorted(doc["missing"]) == [
        "soilptf.cpxr._mine_masks",
        "soilptf.hydrology._curve_residuals",
        "soilptf.hydrology._fit_from_start",
    ]
    metrics = doc["metrics"]
    for absent in ("patterns.mine.self_s", "patterns.mined", "patterns.kept_ratio",
                   "hydrology.starts", "hydrology.starts_converged_ratio",
                   "hydrology.residual_evals"):
        assert absent not in metrics
    for present in ("cli.self_s", "discretize.self_s", "patterns.kept", "hydrology.fit.self_s"):
        assert present in metrics


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmark" / "run.py"), "--workload", "fit-vg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrapper_cost_comes_off_the_enclosing_layer():
    sys.path.insert(0, str(HERE))
    import trace_child

    tracer = trace_child.Tracer()
    tracer.cost_s = {"span": 1e-3, "counter": 2e-3}
    child = tracer.span("child", lambda: None)
    counted = tracer.counter("hydrology.residual", lambda: None)

    def body():
        child()
        counted()
        counted()

    tracer.span("parent", body)()
    metrics = tracer.metrics()
    assert metrics["trace.wrapped_calls"] == 3
    assert math.isclose(metrics["trace.correction_s"], 5e-3)
    assert math.isclose(metrics["parent.self_s"], tracer.self_s["parent"] - 5e-3)
    assert metrics["child.self_s"] == tracer.self_s["child"]
    assert metrics["hydrology.residual_evals"] == 2
    cost = trace_child.calibrate(n=2000, batches=3)
    assert 0 <= cost["span"] < 1e-4 and 0 <= cost["counter"] < 1e-4
