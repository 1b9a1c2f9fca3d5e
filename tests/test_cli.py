"""End-to-end checks of the command-line pipeline.

Drives main() in-process against temporary directories: synthetic data,
curve fitting, feature derivation, training, prediction, evaluation and
report comparison, plus exit codes, seed resolution and artifact
determinism.
"""

import contextlib
import functools
import importlib
import io
import json
import math
import operator
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import soilptf
import soilptf.cli
import soilptf.evaluation
from soilptf import __version__
from soilptf.cli import SEED_ENV, UsageError, main
from soilptf.cpxr import PXR_MODEL, PxrModel, train_cpxr
from soilptf.data import (
    ANY,
    KNOWN_FEATURES,
    SoilptfError,
    Value,
    load_dataset,
    select_columns,
    table_text,
)
from soilptf.hydrology import (
    MODEL_CONFIGS,
    PARAMETRIC_TARGETS,
    VgParameters,
    fit_vg,
    texture_statistics,
    vg_theta,
)
from soilptf.evaluation import (METRIC_SET, RECORD, REPORT, EvaluationReport, IterationRecord,
                                MetricSet)
from soilptf.linreg import LINEAR_MODEL, LinearModel, fit_local
from soilptf.patterns import ITEM, Item
from soilptf.synth import TARGET_COLUMNS


def run(argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return Path(path).read_text().splitlines()


def data_lines(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")]


def parse_csv(path):
    # cells never contain commas here, plain split is enough
    lines = data_lines(path)
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def meta_lines(path):
    return [ln for ln in read_lines(path) if ln.startswith("#")]


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def synth_small(work):
    out = work / "synth_small"
    rc = run(
        ["synth", "--out-dir", out, "--kind", "two-regime", "--n", "40",
         "--noise-sd", "0.01", "--retention", "--seed", "3"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def vg_params(work, synth_small):
    out = work / "vg" / "params.csv"
    rc = run(["fit-vg", "--input", synth_small / "retention.csv", "--out", out,
              "--jobs", "1", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def features_csv(work, synth_small, vg_params):
    out = work / "features.csv"
    rc = run(["derive-features", "--basic", synth_small / "dataset.csv",
              "--vg", vg_params, "--out", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def swrc3_models(work, features_csv):
    out = work / "models_swrc3"
    rc = run(["train", "--features", features_csv, "--config", "SWRC3",
              "--method", "mlr", "--out-dir", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def shc2_cpxr_models(work, synth_small):
    out = work / "models_shc2"
    rc = run(["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
              "--method", "cpxr", "--seed", "1", "--out-dir", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def synth_big(work):
    out = work / "synth_big"
    rc = run(["synth", "--out-dir", out, "--kind", "two-regime", "--n", "120",
              "--noise-sd", "0.01", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def eval_dirs(work, synth_big):
    dirs = []
    for name in ("eval1", "eval2"):
        out = work / name
        rc = run(["evaluate", "--features", synth_big / "dataset.csv",
                  "--config", "SHC2", "--reps", "1", "--k", "3",
                  "--jobs", "1", "--seed", "5", "--out-dir", out])
        assert rc == 0
        dirs.append(out)
    return dirs


# ----------------------------------------------------------------------
# parser level
# ----------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert f"soilptf {__version__}" in capsys.readouterr().out


def _run_child(code):
    """The completed run of code in a fresh interpreter that imports the
    soilptf sources under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(soilptf.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)


def test_runtime_never_imports_scipy():
    # scipy is a test-only dependency: the package and the CLI run on numpy alone
    code = (
        "import sys, soilptf, soilptf.cli\n"
        "try:\n"
        "    soilptf.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = _run_child(code)
    assert done.stdout.splitlines() == [f"soilptf {__version__}", "[]"]


def test_startup_defers_the_process_pool():
    # map_jobs imports the pool only when it starts workers
    done = _run_child("import sys, soilptf.cli\nprint('concurrent.futures.process' in sys.modules)\n")
    assert done.stdout == "False\n"


def _modules_loaded_by(argv):
    """(exit code, loaded soilptf modules) of cli.main(argv) in a fresh
    interpreter."""
    code = (
        "import json, sys, soilptf.cli\n"
        "try:\n"
        f"    rc = soilptf.cli.main({[str(a) for a in argv]!r})\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('soilptf'))]))\n"
    )
    rc, modules = json.loads(_run_child(code).stdout.splitlines()[-1])
    return rc, set(modules)


# the modules of training, cross-validation and synthetic data
_MODEL_MODULES = {f"soilptf.{m}" for m in
                  ("cpxr", "evaluation", "linreg", "patterns", "discretize", "synth")}


def test_fit_vg_and_version_import_no_model_module(tmp_path):
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs())])
    fit_vg_argv = ["fit-vg", "--input", table, "--out", tmp_path / "vg.csv", "--jobs", "1"]
    for argv in (fit_vg_argv, ["--version"]):
        rc, modules = _modules_loaded_by(argv)
        assert rc == 0 and "soilptf.hydrology" in modules
        assert not modules & _MODEL_MODULES, argv
    assert (tmp_path / "vg.csv").is_file()


def test_evaluate_imports_no_synth(synth_small, tmp_path):
    rc, modules = _modules_loaded_by(
        ["evaluate", "--features", synth_small / "dataset.csv", "--config", "SHC2",
         "--methods", "cpxr,mlr", "--reps", "1", "--k", "3", "--jobs", "1",
         "--out-dir", tmp_path / "eval"])
    assert rc == 0 and "soilptf.cpxr" in modules
    assert "soilptf.synth" not in modules


def test_bare_import_resolves_each_public_name_on_first_use():
    code = (
        "import json, sys, soilptf\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('soilptf'))\n"
        "factory = soilptf.synth.two_regime_config.__name__\n"  # the README's first call
        "missing = [name for name in soilptf.__all__ if not hasattr(soilptf, name)]\n"
        "try:\n"
        "    soilptf.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "undir = sorted(set(soilptf.__all__) - set(dir(soilptf)))\n"
        "print(json.dumps([loaded, factory, missing, unknown, undir]))\n"
    )
    loaded, factory, missing, unknown, undir = json.loads(_run_child(code).stdout)
    assert loaded == ["soilptf"]
    assert factory == "two_regime_config"
    assert missing == [] and undir == []
    assert unknown == "module 'soilptf' has no attribute 'no_such_name'"


def test_star_import_gives_each_public_name_its_modules_object():
    namespace = {}
    exec("from soilptf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(soilptf.__all__)
    for name, obj in namespace.items():
        # MODEL_CONFIGS, a dict, is the one name without a __module__
        home = sys.modules[obj.__module__] if hasattr(obj, "__module__") else soilptf.hydrology
        assert getattr(home, name) is obj, name


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_invalid_choice_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--features", "x.csv", "--config", "SHC2",
             "--method", "svm", "--out-dir", tmp_path])
    assert exc.value.code == 2


def _package_errors():
    """Every exception class a soilptf module defines, but UsageError."""
    modules = [importlib.import_module(f"soilptf.{m.name}")
               for m in pkgutil.iter_modules(soilptf.__path__) if not m.name.startswith("_")]
    return sorted({obj for module in modules for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__ and obj is not UsageError},
                  key=lambda cls: cls.__name__)


def test_package_errors_share_one_base():
    assert [cls.__name__ for cls in _package_errors()] == [
        "CpxrError", "DataError", "DiscretizeError", "EvaluationError", "FitError",
        "HydrologyError", "PatternError", "SoilptfError", "SynthError", "VgFitError"]
    assert issubclass(SoilptfError, ValueError) and not issubclass(UsageError, SoilptfError)


@pytest.mark.parametrize("error", _package_errors(), ids=lambda cls: cls.__name__)
def test_package_error_is_one_line_runtime_error(error, monkeypatch, capsys):
    assert issubclass(error, SoilptfError) and issubclass(error, ValueError)

    def fail(args):
        raise error("no usable input")

    monkeypatch.setattr(soilptf.cli, "cmd_report", fail)
    assert run(["report", "--a", "a.json", "--b", "b.json"]) == 1
    assert capsys.readouterr().err == "error: no usable input\n"


def test_plain_value_error_is_not_swallowed(monkeypatch):
    # a ValueError outside the package's errors is a bug: it keeps its traceback
    def fail(args):
        raise ValueError("a bug")

    monkeypatch.setattr(soilptf.cli, "cmd_report", fail)
    with pytest.raises(ValueError, match="^a bug$"):
        run(["report", "--a", "a.json", "--b", "b.json"])


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------


def test_synth_writes_expected_artifacts(synth_small):
    dataset = synth_small / "dataset.csv"
    header, rows = parse_csv(dataset)
    assert header == ["id"] + list(KNOWN_FEATURES) + list(TARGET_COLUMNS)
    assert len(rows) == 40
    assert rows[0]["id"] == "s0000" and rows[-1]["id"] == "s0039"

    comments = meta_lines(dataset)
    assert comments[0] == f"# soilptf {__version__}"
    assert comments[1] == "# seed=3"
    assert comments[2].startswith("# config_hash=")
    digest = comments[2].split("=", 1)[1]
    assert len(digest) == 16 and set(digest) <= set("0123456789abcdef")

    truth = json.loads((synth_small / "truth.json").read_text())
    assert truth["meta"]["seed"] == 3
    assert truth["meta"]["version"] == __version__
    assert truth["meta"]["config_hash"] == digest
    assert set(truth["truth"]) == {"config", "regimes", "effective_params"}
    assert set(truth["truth"]["effective_params"]) >= {"s0000", "s0039"}

    rheader, rrows = parse_csv(synth_small / "retention.csv")
    assert rheader == ["id", "tension_cm", "theta"]
    assert len(rrows) == 40 * 13


def test_synth_deterministic(work):
    a, b, c = work / "det_a", work / "det_b", work / "det_c"
    for out, seed in ((a, "21"), (b, "21"), (c, "22")):
        assert run(["synth", "--out-dir", out, "--kind", "two-regime",
                    "--n", "40", "--retention", "--seed", seed]) == 0
    for name in ("dataset.csv", "truth.json", "retention.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "dataset.csv").read_bytes() != (c / "dataset.csv").read_bytes()


_BAD_SYNTH_VALUES = [
    ("--n", "0", "n_samples must be from 1 to 100000, got 0"),
    ("--n", "-3", "n_samples must be from 1 to 100000, got -3"),
    ("--noise-sd", "-1", "noise_sd must be a finite number of at least 0, got -1.0"),
    ("--noise-sd", "nan", "noise_sd must be a finite number of at least 0, got nan"),
    ("--noise-sd", "inf", "noise_sd must be a finite number of at least 0, got inf"),
    ("--retention-noise-sd", "-1", "retention noise_sd must be a finite number of at least 0, got -1.0"),
    ("--retention-noise-sd", "nan", "retention noise_sd must be a finite number of at least 0, got nan"),
]


@pytest.mark.parametrize("flag, value, message", _BAD_SYNTH_VALUES,
                         ids=[f"{flag}-{value}" for flag, value, _ in _BAD_SYNTH_VALUES])
def test_synth_bad_argument_value_is_one_line_usage_error(tmp_path, capsys, flag, value, message):
    # a bad argument value exits 2 before anything is generated; the last
    # --n wins over the first
    out = tmp_path / "s"
    assert run(["synth", "--out-dir", out, "--n", "5", "--retention", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("noise_sd, seed, line", [
    # exp of the jittered log(n - 1) falls below an ulp of 1 at s0001
    ("100", "0", "sample s0001: n must exceed 1, got 1.0"),
    # exp of the jittered log alpha underflows to 0
    ("1000", "1", "sample s0000: alpha must be positive, got 0.0"),
])
def test_synth_parameter_error_names_its_sample(tmp_path, capsys, noise_sd, seed, line):
    out = tmp_path / "d"
    argv = ["synth", "--out-dir", out, "--n", "50", "--noise-sd", noise_sd, "--seed", seed]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["2", "3"])
def test_synth_exp_overflow_is_one_line_runtime_error(tmp_path, capsys, seed):
    # a log alpha jitter of sd 5e300 leaves the range of math.exp
    out = tmp_path / "d"
    assert run(["synth", "--out-dir", out, "--n", "5", "--noise-sd", "1e300", "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sample s0000: alpha = exp(") and err.count("\n") == 1
    assert err.endswith(") lies beyond float range\n")
    assert not out.exists()


_NOISE = st.sampled_from([1e300, math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 1e308]) | st.floats()


@settings(max_examples=40, deadline=None)
@given(_NOISE, _NOISE, st.integers(0, 20), st.integers(1, 8))
@example(1e308, 1e300, 0, 1)  # a jitter sd of 5e308 is inf, and so is exp(inf)
def test_synth_noise_sweep_ends_cleanly(noise_sd, retention_noise_sd, seed, n):
    # whatever the noise levels: exit 0, 1 or 2 without a traceback, and a
    # failure writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "s"
        argv = ["synth", "--out-dir", out, "--n", n, "--seed", seed, "--retention",
                f"--noise-sd={noise_sd!r}", f"--retention-noise-sd={retention_noise_sd!r}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc:
            assert not out.exists()


def test_synth_out_dir_collision(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    rc = run(["synth", "--out-dir", blocker, "--n", "30"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# seed resolution
# ----------------------------------------------------------------------


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "9")
    assert run(["synth", "--out-dir", tmp_path / "s", "--n", "30"]) == 0
    assert "# seed=9" in meta_lines(tmp_path / "s" / "dataset.csv")


def test_seed_flag_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "9")
    assert run(["synth", "--out-dir", tmp_path / "s", "--n", "30", "--seed", "7"]) == 0
    assert "# seed=7" in meta_lines(tmp_path / "s" / "dataset.csv")


def test_seed_defaults_to_zero(tmp_path):
    assert run(["synth", "--out-dir", tmp_path / "s", "--n", "30"]) == 0
    assert "# seed=0" in meta_lines(tmp_path / "s" / "dataset.csv")


def test_rejects_non_integer_environment_seed(tmp_path, monkeypatch, capsys):
    for raw in ("banana", "-5"):
        monkeypatch.setenv(SEED_ENV, raw)
        rc = run(["synth", "--out-dir", tmp_path / "s", "--n", "30"])
        assert rc == 2
        err = capsys.readouterr().err
        assert SEED_ENV in err and err.count("\n") == 1, raw
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_negative_seed_flag_is_one_line_usage_error(command, synth_big, tmp_path, capsys):
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--n", "30"],
        "evaluate": ["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2"],
    }[command]
    assert run(argv + ["--out-dir", out, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not out.exists()


# ----------------------------------------------------------------------
# fit-vg
# ----------------------------------------------------------------------


def test_fit_vg_fits_every_sample(synth_small, vg_params):
    header, rows = parse_csv(vg_params)
    assert header == ["id", "theta_r", "theta_s", "alpha_per_cm", "n", "fit_rmse"]
    assert [r["id"] for r in rows] == [f"s{i:04d}" for i in range(40)]
    for r in rows:
        assert 0.0 <= float(r["theta_r"]) < float(r["theta_s"]) <= 1.0
        assert float(r["n"]) > 1.0
        assert float(r["fit_rmse"]) < 0.02

    log = vg_params.with_suffix(".log")
    ok = [ln for ln in data_lines(log) if ln.startswith("ok ")]
    assert len(ok) == 40
    assert all("rmse=" in ln and "over 13 points" in ln for ln in ok)


def _write_retention(path, samples):
    lines = ["id,tension_cm,theta"]
    for sid, pairs in samples:
        lines.extend(f"{sid},{h!r},{t!r}" for h, t in pairs)
    path.write_text("\n".join(lines) + "\n")


def _clean_pairs(n_points=13):
    params = VgParameters(theta_r=0.05, theta_s=0.45, alpha=0.02, n=1.6)
    tensions = np.geomspace(1.0, 15000.0, n_points)
    return [(float(h), float(vg_theta(params, float(h)))) for h in tensions]


def test_fit_vg_start_drifting_past_float_range_warns_nothing(tmp_path):
    # one start of this noise-free curve drifts to theta_r -> 0 and n near
    # the float range, where the Jacobian overflows
    params = VgParameters(theta_r=0.0, theta_s=0.25, alpha=10 ** -0.5, n=2.015625)
    tensions = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 15)])
    table = tmp_path / "retention.csv"
    _write_retention(table, [("s0", [(h, vg_theta(params, h)) for h in tensions.tolist()])])
    out = tmp_path / "vg.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(soilptf.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "soilptf", "fit-vg", "--input", str(table),
                           "--out", str(out), "--jobs", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    _, rows = parse_csv(out)
    assert float(rows[0]["n"]) == pytest.approx(params.n, rel=1e-6)


def test_fit_vg_tensions_spanning_beyond_float_range_warn_nothing(tmp_path):
    # the largest over the smallest positive tension overflows to inf, which
    # spans a decade: the sample is fitted, as in process, without a warning
    pairs = list(zip(np.geomspace(1.1e-290, 3.3e268, 6).tolist(), [0.45, 0.44, 0.4, 0.3, 0.2, 0.1]))
    table = tmp_path / "retention.csv"
    _write_retention(table, [("w0", pairs)])
    out = tmp_path / "vg.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(soilptf.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "soilptf", "fit-vg", "--input", str(table),
                           "--out", str(out), "--jobs", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    fit = fit_vg(pairs)
    _, rows = parse_csv(out)
    assert rows == [{"id": "w0", "theta_r": repr(fit.theta_r), "theta_s": repr(fit.theta_s),
                     "alpha_per_cm": repr(fit.alpha), "n": repr(fit.n),
                     "fit_rmse": repr(fit.fit_rmse)}]


def test_fit_vg_reports_partial_failures(tmp_path, capsys):
    table = tmp_path / "retention.csv"
    _write_retention(table, [("s_good", _clean_pairs()), ("s_few", _clean_pairs()[:3])])
    rc = run(["fit-vg", "--input", table, "--out", tmp_path / "p.csv", "--jobs", "1"])
    assert rc == 0  # one failure out of two is not a majority
    assert "1 of 2 samples failed" in capsys.readouterr().err

    _, rows = parse_csv(tmp_path / "p.csv")
    assert [r["id"] for r in rows] == ["s_good"]
    log = data_lines(tmp_path / "p.log")
    assert any(ln.startswith("ok s_good:") for ln in log)
    assert any(ln.startswith("fail s_few:") and "at least 5" in ln for ln in log)


def test_fit_vg_fails_on_majority(tmp_path):
    narrow = [(float(h), 0.3) for h in np.linspace(10.0, 20.0, 6)]
    table = tmp_path / "retention.csv"
    _write_retention(
        table,
        [("s_good", _clean_pairs()), ("s_few", _clean_pairs()[:3]), ("s_narrow", narrow)],
    )
    rc = run(["fit-vg", "--input", table, "--out", tmp_path / "p.csv", "--jobs", "1"])
    assert rc == 1


def _mixed_samples():
    """9-, 13- and 15-point samples, noisy and clean, and one that fails."""
    rng = np.random.default_rng(15)
    samples = []
    for i, n_points in enumerate([13, 9, 15, 13, 9, 15, 13, 15]):
        params = VgParameters(theta_r=float(rng.uniform(0.0, 0.15)),
                              theta_s=float(rng.uniform(0.35, 0.55)),
                              alpha=float(10 ** rng.uniform(-2.5, -1.0)),
                              n=float(rng.uniform(1.2, 3.0)))
        tensions = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, n_points - 1)])
        theta = vg_theta(params, tensions) + (i % 2) * rng.normal(0.0, 0.005, n_points)
        samples.append((f"s{i}", [(float(h), float(np.clip(t, 0.0, 1.0)))
                                  for h, t in zip(tensions, theta)]))
    samples.insert(4, ("s_few", _clean_pairs()[:3]))
    return samples


def test_fit_vg_parallel_output_matches_serial(tmp_path):
    # each --jobs value cuts the samples differently
    table = tmp_path / "retention.csv"
    _write_retention(table, _mixed_samples())
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"vg{jobs}.csv"
        assert run(["fit-vg", "--input", table, "--out", out, "--jobs", jobs]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".log").read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert b"fail s_few: need at least 5 retention points, got 3" in outputs[0][1]
    assert outputs[0][1].count(b"\nok ") == 8


def test_fit_vg_one_part_fits_the_columns_read(tmp_path, monkeypatch):
    # at --jobs 1 the one part is the reader's arrays themselves, not a
    # copy of every row
    read, fitted = [], []
    real_read, real_fit = soilptf.cli._read_retention, soilptf.cli.fit_vg_rows

    def reader(path):
        columns = real_read(path)
        read.append(columns[1:])
        return columns

    def fit(*args):
        fitted.append(args)
        return real_fit(*args)

    monkeypatch.setattr("soilptf.cli._read_retention", reader)
    monkeypatch.setattr("soilptf.cli.fit_vg_rows", fit)
    table = tmp_path / "retention.csv"
    _write_retention(table, _mixed_samples())
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "vg.csv", "--jobs", "1"]) == 0
    ((sample, h, theta),), ((codes, tensions, water, samples),) = read, fitted
    assert codes is sample and tensions is h and water is theta and samples == 9


@settings(max_examples=5, deadline=None)
@given(st.permutations([(sid, pair) for sid, pairs in _mixed_samples() for pair in pairs]))
def test_fit_vg_rows_of_a_sample_need_not_be_adjacent(rows):
    # the shuffled rows against the same rows with each sample's made
    # adjacent, samples in first-appearance order and points in row order
    first = {}
    for sid, _ in rows:
        first.setdefault(sid, len(first))
    adjacent = sorted(rows, key=lambda row: first[row[0]])
    outputs = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, table_rows in (("shuffled", rows), ("adjacent", adjacent)):
            table = Path(tmp) / f"{name}.csv"
            table.write_text("id,tension_cm,theta\n" + "".join(
                f"{sid},{h!r},{t!r}\n" for sid, (h, t) in table_rows))
            for jobs in ("1", "2"):
                out = Path(tmp) / f"{name}{jobs}.csv"
                assert run(["fit-vg", "--input", table, "--out", out, "--jobs", jobs]) == 0
                outputs.add((out.read_bytes(), out.with_suffix(".log").read_bytes()))
    assert len(outputs) == 1
    (_, log), = outputs
    assert b"fail s_few: need at least 5 retention points, got 3" in log


def test_fit_vg_pool_never_exceeds_samples(tmp_path, monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs()), ("b", _clean_pairs(15))])
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "p.csv", "--jobs", "64"]) == 0
    assert pool_sizes == [2]


def test_fit_vg_runs_in_process_by_default(tmp_path, monkeypatch, pool_sizes):
    # on 8 cores with 3 samples, a pool would get 3 workers; without
    # --jobs none starts
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs()), ("b", _clean_pairs(15)), ("c", _clean_pairs())])
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "p.csv"]) == 0
    assert pool_sizes == []
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "q.csv", "--jobs", "3"]) == 0
    assert pool_sizes == [3]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_one_line_usage_error(synth_big, tmp_path, capsys, jobs):
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs())])
    for argv in (
        ["fit-vg", "--input", table, "--out", tmp_path / "p.csv"],
        ["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
         "--methods", "mlr", "--reps", "1", "--k", "3", "--out-dir", tmp_path / "e"],
    ):
        assert run(argv + ["--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "e").exists()


@pytest.mark.parametrize("outputs", [["--out", "d/vg.log"], ["--out", "d/vg.csv", "--log", "d/./vg.csv"]],
                         ids=["out-is-the-default-log", "log-is-out"])
def test_fit_vg_outputs_naming_one_file_are_usage_error(tmp_path, capsys, outputs):
    # the second write would replace the first: nothing is fitted or written
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs())])
    (tmp_path / "d").mkdir()
    argv = ["fit-vg", "--input", table] + [str(tmp_path / a) if a.startswith("d/") else a
                                           for a in outputs]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name the same file" in err and err.count("\n") == 1
    assert list((tmp_path / "d").iterdir()) == []


def test_output_naming_a_directory_is_usage_error_and_writes_nothing(swrc3_models, features_csv,
                                                                    tmp_path, capsys):
    # both outputs are checked before any work, so the first is not left behind
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs())])
    out = tmp_path / "out"
    out.mkdir()
    for flag, argv in (
        ("--log", ["fit-vg", "--input", table, "--out", out / "o.csv", "--log", out]),
        ("--curve", ["predict", "--model", swrc3_models, "--features", features_csv,
                     "--out", out / "p.csv", "--curve", out]),
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} names a directory: {out}\n"
        assert list(out.iterdir()) == []


def _assert_out_directory_refused(argv, out, monkeypatch, capsys, first_work):
    # the check comes before first_work, the command's first reading step
    def refuse(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before the output check")
    monkeypatch.setattr(f"soilptf.cli.{first_work}", refuse)
    out.mkdir()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: --out names a directory: {out}\n"
    assert list(out.iterdir()) == []


def test_derive_features_out_directory_is_usage_error(synth_small, vg_params, tmp_path,
                                                      monkeypatch, capsys):
    out = tmp_path / "out"
    _assert_out_directory_refused(
        ["derive-features", "--basic", synth_small / "dataset.csv", "--vg", vg_params,
         "--out", out], out, monkeypatch, capsys, "read_table")


def test_predict_out_directory_is_usage_error(swrc3_models, features_csv, tmp_path,
                                              monkeypatch, capsys):
    out = tmp_path / "out"
    _assert_out_directory_refused(
        ["predict", "--model", swrc3_models, "--features", features_csv, "--out", out],
        out, monkeypatch, capsys, "_load_model_payload")


def test_report_out_directory_is_usage_error(eval_dirs, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    _assert_out_directory_refused(
        ["report", "--a", eval_dirs[0] / "report_SHC2_cpxr.json",
         "--b", eval_dirs[0] / "report_SHC2_mlr.json", "--out", out],
        out, monkeypatch, capsys, "_load_report")


def test_fit_vg_missing_input_is_usage_error(tmp_path, capsys):
    rc = run(["fit-vg", "--input", tmp_path / "nope.csv", "--out", tmp_path / "p.csv"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_fit_vg_rejects_bad_tables(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("id,tension_cm,theta\ns1,10.0\n")
    assert run(["fit-vg", "--input", ragged, "--out", tmp_path / "p.csv"]) == 1
    assert "expected 3 cells" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["fit-vg", "--input", empty, "--out", tmp_path / "p.csv"]) == 1
    assert "empty file" in capsys.readouterr().err

    wrong = tmp_path / "wrong.csv"
    wrong.write_text("id,suction,theta\ns1,10.0,0.3\n")
    assert run(["fit-vg", "--input", wrong, "--out", tmp_path / "p.csv"]) == 1
    assert "needs columns" in capsys.readouterr().err


def test_fit_vg_header_only_table_has_no_samples(tmp_path, capsys):
    table = tmp_path / "retention.csv"
    table.write_text("id,tension_cm,theta\n")
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "p.csv"]) == 1
    assert capsys.readouterr().err == f"error: {table}: no samples\n"
    assert not (tmp_path / "p.csv").exists()


# ----------------------------------------------------------------------
# derive-features
# ----------------------------------------------------------------------


def test_derive_features_builds_full_table(synth_small, vg_params, features_csv):
    header, rows = parse_csv(features_csv)
    assert header == ["id"] + list(KNOWN_FEATURES) + list(TARGET_COLUMNS)
    assert len(rows) == 40

    row = rows[0]
    d_g, sigma_g = texture_statistics(float(row["sand"]), float(row["silt"]), float(row["clay"]))
    assert float(row["d_g"]) == pytest.approx(d_g, rel=1e-12)
    assert float(row["sigma_g"]) == pytest.approx(sigma_g, rel=1e-12)

    _, fitted = parse_csv(vg_params)
    assert float(row["theta_r"]) == float(fitted[0]["theta_r"])
    assert float(row["alpha"]) == float(fitted[0]["alpha_per_cm"])
    assert float(row["log_alpha"]) == pytest.approx(math.log(float(row["alpha"])), rel=1e-12)
    assert float(row["log_n"]) == pytest.approx(math.log(float(row["n"])), rel=1e-12)
    # the source table carries no conductivity column
    assert all(r["log_ksat"] == "" for r in rows)


def _basic_table(path, rows):
    header = "id,sand,silt,clay,bulk_density,ksat_cm_day"
    path.write_text("\n".join([header] + rows) + "\n")


def _vg_table(path, ids):
    lines = ["id,theta_r,theta_s,alpha_per_cm,n,fit_rmse"]
    lines += [f"{sid},0.05,0.45,0.02,1.6,0.001" for sid in ids]
    path.write_text("\n".join(lines) + "\n")


def test_derive_features_skips_unfitted_samples(tmp_path, capsys):
    basic, vg = tmp_path / "b.csv", tmp_path / "v.csv"
    _basic_table(basic, ["s1,40,40,20,1.4,120", "s2,30,30,40,1.3,80"])
    _vg_table(vg, ["s1"])
    rc = run(["derive-features", "--basic", basic, "--vg", vg, "--out", tmp_path / "f.csv"])
    assert rc == 0
    assert "skipped" in capsys.readouterr().err
    _, rows = parse_csv(tmp_path / "f.csv")
    assert [r["id"] for r in rows] == ["s1"]
    assert float(rows[0]["log_ksat"]) == pytest.approx(math.log(120.0), rel=1e-12)


def test_derive_features_output_with_a_carriage_return_id_trains(tmp_path):
    # the id is quoted on the way in and must be quoted on the way out
    basic, vg, out = tmp_path / "b.csv", tmp_path / "v.csv", tmp_path / "f.csv"
    _basic_table(basic, ["a,40,40,20,1.4,120", '"c\rd",30,30,40,1.3,80', "e,60,25,15,1.5,200"])
    _vg_table(vg, ["a", '"c\rd"', "e"])
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", out]) == 0
    assert load_dataset(out).ids == ["a", "c\rd", "e"]
    assert run(["train", "--features", out, "--config", "SHC1", "--method", "mlr",
                "--out-dir", tmp_path / "m"]) == 0


def test_derive_features_requires_some_overlap(tmp_path, capsys):
    basic, vg = tmp_path / "b.csv", tmp_path / "v.csv"
    _basic_table(basic, ["s1,40,40,20,1.4,120"])
    _vg_table(vg, ["other"])
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", tmp_path / "f.csv"]) == 1
    assert "no sample" in capsys.readouterr().err


def test_derive_features_rejects_nonpositive_conductivity(tmp_path, capsys):
    basic, vg = tmp_path / "b.csv", tmp_path / "v.csv"
    _basic_table(basic, ["s1,40,40,20,1.4,-5"])
    _vg_table(vg, ["s1"])
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", tmp_path / "f.csv"]) == 1
    assert "non-positive" in capsys.readouterr().err


def test_derive_features_rejects_a_sample_the_vg_table_lists_twice(tmp_path, capsys):
    basic, vg, out = tmp_path / "b.csv", tmp_path / "v.csv", tmp_path / "f.csv"
    _basic_table(basic, ["s0000,40,40,20,1.4,120", "s0001,30,30,40,1.3,80"])
    vg.write_text("id,theta_r,theta_s,alpha_per_cm,n\n"
                  "s0000,0.05,0.45,0.02,1.6\ns0001,0.05,0.45,0.02,1.6\n"
                  "s0000,0.08,0.45,0.02,1.6\n")
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {vg}: sample 's0000' is listed twice\n"
    assert not out.exists()


@pytest.mark.parametrize("order, culprit", [("abc", "b"), ("acb", "c"), ("cab", "c")])
def test_derive_features_reports_the_first_faulty_sample(tmp_path, capsys, order, culprit):
    # b's texture sums to 99 and c's theta_r exceeds its theta_s; the lower
    # row of the basic table is reported, with its file and sample
    basic, vg, out = tmp_path / "b.csv", tmp_path / "v.csv", tmp_path / "f.csv"
    texture = {"a": "40,40,20", "b": "40,40,19", "c": "30,30,40"}
    _basic_table(basic, [f"{sid},{texture[sid]},1.4,120" for sid in order])
    vg.write_text("id,theta_r,theta_s,alpha_per_cm,n\n"
                  + "".join(f"{sid},{'0.5,0.4' if sid == 'c' else '0.05,0.45'},0.02,1.6\n"
                            for sid in "abc"))
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", out]) == 1
    expected = {
        "b": f"{basic}: sample 'b': sand+silt+clay = 99, expected 100 +/- 0.5",
        "c": f"{vg}: sample 'c': need 0 <= theta_r < theta_s <= 1, got 0.5, 0.4",
    }
    assert capsys.readouterr().err == f"error: {expected[culprit]}\n"
    assert not out.exists()


@pytest.mark.parametrize("row, problem", [
    ("40,40,19,1.4,-5", "sample 's1' has non-positive ksat_cm_day"),  # ksat before texture
    ("-3,83,20,1.4,120", "sample 's1': negative texture fraction: -3.0, 83.0, 20.0"),
    # a sum beyond float range is refused without an overflow warning
    ("1e308,1e308,0,1.4,120", "sample 's1': sand+silt+clay = inf, expected 100 +/- 0.5"),
])
def test_derive_features_checks_a_sample_in_order(tmp_path, capsys, row, problem):
    basic, vg = tmp_path / "b.csv", tmp_path / "v.csv"
    _basic_table(basic, [f"s1,{row}"])
    _vg_table(vg, ["s1"])
    assert run(["derive-features", "--basic", basic, "--vg", vg, "--out", tmp_path / "f.csv"]) == 1
    assert capsys.readouterr().err == f"error: {basic}: {problem}\n"


@pytest.mark.parametrize("texture, accepted", [
    ("59.95,26.04,14.51", False),  # sums to 100.50000000000001
    ("28.38,31.41,39.71", True),   # sums to 99.5
])
def test_derive_features_uses_the_loaders_texture_rule(tmp_path, capsys, texture, accepted):
    # whatever derive-features writes, train loads: one texture-sum rule
    basic, vg, out = tmp_path / "b.csv", tmp_path / "v.csv", tmp_path / "f.csv"
    _basic_table(basic, [f"s1,{texture},1.4,120"])
    _vg_table(vg, ["s1"])
    rc = run(["derive-features", "--basic", basic, "--vg", vg, "--out", out])
    assert rc == (0 if accepted else 1)
    if accepted:
        assert len(load_dataset(out)) == 1
    else:
        assert capsys.readouterr().err == (
            f"error: {basic}: sample 's1': sand+silt+clay = 100.5, expected 100 +/- 0.5\n")
        assert not out.exists()


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def test_train_mlr_writes_model_per_target(swrc3_models):
    files = sorted(p.name for p in swrc3_models.glob("*.json"))
    expected = sorted(
        [f"SWRC3_mlr_{t}.json" for t in PARAMETRIC_TARGETS] + ["SWRC3_mlr_training.json"]
    )
    assert files == expected

    payload = json.loads((swrc3_models / "SWRC3_mlr_theta_r.json").read_text())
    assert payload["config_id"] == "SWRC3"
    assert payload["method"] == "mlr"
    assert payload["target"] == "theta_r"
    assert set(payload["model"]) >= {"intercept", "coefficients"}

    training = json.loads((swrc3_models / "SWRC3_mlr_training.json").read_text())
    assert set(training["targets"]) == set(PARAMETRIC_TARGETS)
    assert training["meta"]["seed"] == 0
    for entry in training["targets"].values():
        assert entry["n_train"] == 40
        assert entry["train_rmse"] >= 0.0


def test_train_cpxr_records_pattern_count(shc2_cpxr_models):
    payload = json.loads((shc2_cpxr_models / "SHC2_cpxr_log_ksat.json").read_text())
    assert payload["model"]["kind"] == "pxr"

    training = json.loads((shc2_cpxr_models / "SHC2_cpxr_training.json").read_text())
    entry = training["targets"]["log_ksat"]
    assert isinstance(entry["patterns"], int) and entry["patterns"] >= 0
    assert entry["train_rmse"] <= entry["baseline_rmse"] + 1e-12


def test_train_unknown_config(synth_small, tmp_path, capsys):
    rc = run(["train", "--features", synth_small / "dataset.csv", "--config", "BOGUS",
              "--out-dir", tmp_path])
    assert rc == 2
    assert "unknown model configuration" in capsys.readouterr().err


# JSON text that json.loads refuses with a plain ValueError (an integer past
# Python's 4,300-digit limit) or a RecursionError (100,000 nested arrays)
_PAST_DIGIT_LIMIT = b'{"max_k": 1' + b"0" * 4400 + b"}"
_PAST_NESTING_LIMIT = b"[" * 100_000


def test_train_hyper_usage_errors(synth_small, tmp_path, capsys):
    base = ["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
            "--out-dir", tmp_path / "m"]

    assert run(base + ["--set", "garbage"]) == 2
    assert "key=value" in capsys.readouterr().err

    assert run(base + ["--set", "rho=zzz"]) == 2
    assert "not a number" in capsys.readouterr().err

    assert run(base + ["--set", "nope=1"]) == 2
    assert "unknown hyperparameters" in capsys.readouterr().err

    bad = tmp_path / "hyper.json"
    bad.write_text("[1, 2]\n")
    assert run(base + ["--hyper", bad]) == 2
    assert "JSON object" in capsys.readouterr().err

    assert run(base + ["--hyper", tmp_path / "missing.json"]) == 2
    assert "no such file" in capsys.readouterr().err

    # an integer past the float range is rejected, not overflowed
    bad.write_text('{"max_k": ' + "9" * 400 + "}\n")
    assert run(base + ["--hyper", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_k") and err.count("\n") == 1

    # values past the parser's integer-digit or nesting limit are not JSON
    for raw in (_PAST_DIGIT_LIMIT, _PAST_NESTING_LIMIT):
        assert run(base + ["--set", "max_k=" + raw.decode()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --set max_k: value ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec", ['min_growth="x"', "min_support_le=null", 'jaccard_max="a"', "max_k=true",
             "max_len=2.5", "min_growth=NaN", "jaccard_max=-Infinity", "min_support_le=-0.1",
             "min_growth=0", "weight_floor=0", "min_count_le=0",
             pytest.param("max_k=" + "9" * 400, id="max_k=huge-integer")],
)
def test_train_malformed_hyperparameter_is_one_line_usage_error(synth_small, tmp_path, capsys,
                                                                 spec):
    rc = run(["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
              "--method", "cpxr", "--out-dir", tmp_path / "m", "--set", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert spec.split("=")[0] in err and "Traceback" not in err


def test_train_below_min_train_is_one_line_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "models"
    assert run(["synth", "--out-dir", data, "--kind", "two-regime", "--n", "300",
                "--seed", "7"]) == 0
    capsys.readouterr()
    rc = run(["train", "--features", data / "dataset.csv", "--config", "SWRC2",
              "--method", "cpxr", "--set", "min_train=1000", "--out-dir", out, "--seed", "7"])
    assert rc == 1
    assert capsys.readouterr().err == "error: need at least 1000 training rows, got 300\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def clustered_length_csv(work, clustered_length):
    path = work / "clustered_length.csv"
    path.write_text(table_text({"id": clustered_length.ids, **clustered_length.columns}))
    return path


def test_train_keeps_length_patterns_that_print_alike(clustered_length_csv, tmp_path):
    models = tmp_path / "models"
    assert run(["train", "--features", clustered_length_csv, "--config", "SHC2", "--method", "cpxr",
                "--seed", "7", "--out-dir", models]) == 0
    doc = json.loads((models / "SHC2_cpxr_log_ksat.json").read_text())
    patterns = [p.pattern for p in PxrModel.from_dict(doc["model"]).pairs]
    texts = [str(p) for p in patterns]
    assert len(set(texts)) < len(texts) == len(set(patterns))
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", models, "--features", clustered_length_csv, "--out", out]) == 0
    assert len(parse_csv(out)[1]) == 300


def test_evaluate_degrades_no_split_on_patterns_that_print_alike(clustered_length_csv, tmp_path):
    out = tmp_path / "eval"
    assert run(["evaluate", "--features", clustered_length_csv, "--config", "SHC2", "--reps", "1",
                "--k", "5", "--jobs", "1", "--seed", "7", "--out-dir", out]) == 0
    records = json.loads((out / "report_SHC2_cpxr.json").read_text())["report"]["records"]
    assert len(records) == 5 and not any(rec["degraded"] for rec in records)


def test_train_set_overrides_hyper_file(work, synth_small, shc2_cpxr_models):
    hyper = work / "hyper_rho.json"
    hyper.write_text('{"rho": 0.3}\n')
    base = ["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
            "--method", "cpxr", "--seed", "1"]

    # --set restores the built-in rho, so artifacts match the plain run
    out_a = work / "hp_roundtrip"
    assert run(base + ["--out-dir", out_a, "--hyper", hyper, "--set", "rho=0.45"]) == 0
    for name in ("SHC2_cpxr_log_ksat.json", "SHC2_cpxr_training.json"):
        assert (out_a / name).read_bytes() == (shc2_cpxr_models / name).read_bytes()

    out_b = work / "hp_rho03"
    assert run(base + ["--out-dir", out_b, "--hyper", hyper]) == 0
    changed = json.loads((out_b / "SHC2_cpxr_training.json").read_text())
    baseline = json.loads((shc2_cpxr_models / "SHC2_cpxr_training.json").read_text())
    assert changed["meta"]["config_hash"] != baseline["meta"]["config_hash"]


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def test_predict_from_model_directory(swrc3_models, features_csv, tmp_path):
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", swrc3_models, "--features", features_csv,
                "--out", out]) == 0
    header, rows = parse_csv(out)
    assert header == ["id"] + list(PARAMETRIC_TARGETS)
    assert len(rows) == 40
    for r in rows:
        for t in PARAMETRIC_TARGETS:
            assert math.isfinite(float(r[t]))


def _clamped_vg(theta_r, theta_s, log_alpha, log_n):
    """(theta_r, theta_s, alpha, n) of one sample's predicted
    PARAMETRIC_TARGETS, nudged into the feasible region one sample at a time
    as predict did before its column form."""
    theta_s = min(max(theta_s, 0.012), 0.99)
    theta_r = min(max(theta_r, 0.0), theta_s - 0.01)
    return theta_r, theta_s, max(math.exp(log_alpha), 1e-8), max(math.exp(log_n), 1.000001)


def test_predict_expands_retention_curves(swrc3_models, features_csv, tmp_path):
    out, curve = tmp_path / "preds.csv", tmp_path / "curves.csv"
    assert run(["predict", "--model", swrc3_models, "--features", features_csv,
                "--out", out, "--curve", curve]) == 0
    header, rows = parse_csv(curve)
    assert header == ["id", "tension_cm", "theta"]
    assert len(rows) == 40 * 50

    by_id = {}
    for r in rows:
        by_id.setdefault(r["id"], []).append((float(r["tension_cm"]), float(r["theta"])))
    assert len(by_id) == 40
    for pts in by_id.values():
        assert pts[0][0] == 1.0 and pts[-1][0] == 15000.0
        thetas = [t for _, t in pts]
        assert all(0.0 <= t <= 1.0 for t in thetas)
        assert all(a >= b - 1e-12 for a, b in zip(thetas, thetas[1:]))

    # bit for bit the reference route: one vg_theta call per (sample, tension)
    _, preds = parse_csv(out)
    want = []
    for r in preds:
        clamped = _clamped_vg(*(float(r[t]) for t in PARAMETRIC_TARGETS))
        params = VgParameters(*clamped)
        for h in np.geomspace(1.0, 15000.0, 50).tolist():
            want.append([r["id"], repr(h), repr(vg_theta(params, h))])
    assert [ln.split(",") for ln in data_lines(curve)[1:]] == want


def test_predict_curve_overflow_is_one_line_and_writes_nothing(swrc3_models, features_csv,
                                                               tmp_path, capsys):
    # texture far outside the training range drives the predicted log_n
    # past the float range of exp
    lines = read_lines(features_csv)
    at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[at].split(",")
    row = lines[at + 1].split(",")
    row[header.index("sand")], row[header.index("clay")] = "50000", "-49900"
    extreme = tmp_path / "extreme.csv"
    extreme.write_text("\n".join(lines[: at + 1] + [",".join(row)]) + "\n")
    out, curve = tmp_path / "preds.csv", tmp_path / "curves.csv"
    rc = run(["predict", "--model", swrc3_models, "--features", extreme,
              "--out", out, "--curve", curve])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(row[0]) in err and "log_n" in err and "Traceback" not in err
    assert not out.exists() and not curve.exists()


def test_predict_single_model_file(shc2_cpxr_models, synth_small, tmp_path):
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", shc2_cpxr_models / "SHC2_cpxr_log_ksat.json",
                "--features", synth_small / "dataset.csv", "--out", out]) == 0
    header, rows = parse_csv(out)
    assert header == ["id", "log_ksat"]
    assert len(rows) == 40


def test_predict_curve_naming_out_is_usage_error(swrc3_models, features_csv, tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", swrc3_models, "--features", features_csv,
                "--out", out, "--curve", f"{tmp_path}/./p.csv"]) == 2
    assert capsys.readouterr().err == f"error: --out and --curve name the same file: {tmp_path}/./p.csv\n"
    assert not out.exists()


def test_predict_curve_needs_parametric_models(shc2_cpxr_models, synth_small, tmp_path, capsys):
    rc = run(["predict", "--model", shc2_cpxr_models / "SHC2_cpxr_log_ksat.json",
              "--features", synth_small / "dataset.csv",
              "--out", tmp_path / "p.csv", "--curve", tmp_path / "c.csv"])
    assert rc == 2
    assert "--curve needs models" in capsys.readouterr().err


def test_predict_rejects_duplicate_targets(work, synth_small, shc2_cpxr_models, capsys):
    other = work / "models_shc2_mlr"
    assert run(["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
                "--method", "mlr", "--out-dir", other]) == 0
    combo = work / "models_combo"
    combo.mkdir()
    shutil.copy(shc2_cpxr_models / "SHC2_cpxr_log_ksat.json", combo)
    shutil.copy(other / "SHC2_mlr_log_ksat.json", combo)
    rc = run(["predict", "--model", combo, "--features", synth_small / "dataset.csv",
              "--out", work / "dup.csv"])
    assert rc == 2
    assert "duplicate targets" in capsys.readouterr().err


def test_predict_ignores_training_summaries(shc2_cpxr_models, synth_small, tmp_path, capsys):
    lonely = tmp_path / "models"
    lonely.mkdir()
    shutil.copy(shc2_cpxr_models / "SHC2_cpxr_training.json", lonely)
    rc = run(["predict", "--model", lonely, "--features", synth_small / "dataset.csv",
              "--out", tmp_path / "p.csv"])
    assert rc == 2
    assert "no model files" in capsys.readouterr().err


def test_predict_names_missing_columns(swrc3_models, tmp_path, capsys):
    thin = tmp_path / "thin.csv"
    thin.write_text("id,sand\na,50.0\n")
    rc = run(["predict", "--model", swrc3_models / "SWRC3_mlr_theta_r.json",
              "--features", thin, "--out", tmp_path / "p.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lacks columns" in err and "clay" in err


def test_predict_reports_missing_cell(swrc3_models, tmp_path, capsys):
    table = tmp_path / "gap.csv"
    table.write_text(
        "id,sand,silt,clay,bulk_density,d_g,sigma_g\n"
        "a,40.0,40.0,,1.4,0.05,10.0\n"
    )
    rc = run(["predict", "--model", swrc3_models / "SWRC3_mlr_theta_r.json",
              "--features", table, "--out", tmp_path / "p.csv"])
    assert rc == 1
    assert "clay" in capsys.readouterr().err


def test_predict_empty_table_writes_header_only(swrc3_models, tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("id,sand,silt,clay,bulk_density,d_g,sigma_g\n")
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", swrc3_models / "SWRC3_mlr_theta_r.json",
                "--features", table, "--out", out]) == 0
    assert data_lines(out) == ["id,theta_r"]
    curve = tmp_path / "c.csv"
    assert run(["predict", "--model", swrc3_models, "--features", table, "--out", out,
                "--curve", curve]) == 0
    assert data_lines(out) == [",".join(["id", *PARAMETRIC_TARGETS])]
    assert data_lines(curve) == ["id,tension_cm,theta"]


def test_predict_rejects_non_model_json(synth_small, tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"foo": 1}\n')
    rc = run(["predict", "--model", bogus, "--features", synth_small / "dataset.csv",
              "--out", tmp_path / "p.csv"])
    assert rc == 2
    assert "not a model file" in capsys.readouterr().err


def _linear_model_file(feature_names, coefficient=0.5) -> bytes:
    """A one-feature linear model file; feature_names None leaves the key
    out, as files of earlier versions do."""
    model = {"intercept": 1.0, "coefficients": {"sand": coefficient}, "training_count": 3,
             "standardization": {"means": {"sand": 40.0}, "scales": {"sand": 10.0}}}
    if feature_names is not None:
        model["feature_names"] = feature_names
    meta = {"tool": "soilptf", "version": __version__, "seed": 0, "config_hash": "0"}
    return json.dumps({"meta": meta, "config_id": "SHC2", "method": "mlr", "target": "t",
                       "model": model}).encode()


@pytest.mark.parametrize(
    "command, content",
    [
        ("predict", b'{"model": {"kind": "pxr"}, "target": "t"}\n'),
        ("predict", b'{"model": {"kind": "pxr", "pai'),
        ("predict", b"\xff\xfe{}"),
        ("predict", _linear_model_file(None)),
        ("predict", _linear_model_file(["sand", "sand"])),
        ("predict", _linear_model_file(["clay"])),
        ("predict", _linear_model_file(["sand"], 10**400)),
        ("report", b'{"report": {"rec'),
        ("report", b"\xff\xfe{}"),
        ("train", b"not json\n"),
        ("evaluate", b"\xff\xfe{}"),
        *((command, content) for command in ("predict", "report", "train")
          for content in (_PAST_DIGIT_LIMIT, _PAST_NESTING_LIMIT)),
    ],
    ids=["missing-key", "truncated", "predict-not-utf8", "no-feature-names",
         "feature-named-twice", "feature-names-not-coefficients",
         "coefficient-past-float-range", "report-truncated",
         "report-not-utf8", "train-hyper-not-json", "evaluate-hyper-not-utf8",
         *(f"{command}-past-{limit}-limit" for command in ("predict", "report", "train-hyper")
           for limit in ("digit", "nesting"))],
)
def test_predict_malformed_model_file_is_one_line_usage_error(synth_small, tmp_path, capsys,
                                                              command, content):
    # every JSON input (model, report, --hyper) that is not JSON, not UTF-8 or
    # past the parser's integer-digit or nesting limit
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    features = synth_small / "dataset.csv"
    argv, what = {
        "predict": (["--model", bad, "--features", features, "--out", tmp_path / "p.csv"],
                    "model file"),
        "report": (["--a", bad, "--b", bad], "report file"),
        "train": (["--features", features, "--config", "SHC2", "--out-dir", tmp_path / "m",
                   "--hyper", bad], "hyperparameter file"),
        "evaluate": (["--features", features, "--config", "SHC2", "--out-dir", tmp_path / "e",
                      "--hyper", bad], "hyperparameter file"),
    }[command]
    rc = run([command] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad.json: malformed {what}" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def swrc2_cpxr_models(work, synth_big):
    out = work / "models_swrc2_cpxr_format"
    assert run(["train", "--features", synth_big / "dataset.csv", "--config", "SWRC2",
                "--method", "cpxr", "--out-dir", out]) == 0
    return out


def _set_item_keys(**values):
    def mutate(model):
        model["pairs"][0]["pattern"][0].update(values)
    return mutate


def _set_item_key(key, value):
    return _set_item_keys(**{key: value})


def _drop_item_key(key):
    def mutate(model):
        del model["pairs"][0]["pattern"][0][key]
    return mutate


def _set_scheme_entry(entry, feature="sand"):
    def mutate(model):
        model["scheme"][feature] = entry
    return mutate


def _set_weight(value):
    def mutate(model):
        model["pairs"][0]["weight"] = value
    return mutate


def _set_every_weight(value):
    def mutate(model):
        for pair in model["pairs"]:
            pair["weight"] = value
    return mutate


def _set_field(key, value):
    def mutate(model):
        model[key] = value
    return mutate


def _set_envelope(key, value):
    # edits the model file around the model, not the model
    def mutate(payload):
        payload[key] = value
    mutate.envelope = True
    return mutate


def _set_bound_true(key):
    # JSON true as bound `key` of the first item where true (== 1) still
    # passes lo < hi
    def mutate(model):
        for item in (i for pair in model["pairs"] for i in pair["pattern"]):
            lo = -math.inf if item["lo"] is None else item["lo"]
            hi = math.inf if item["hi"] is None else item["hi"]
            if (1 < hi) if key == "lo" else (lo < 1):
                item[key] = True
                return
        raise AssertionError(f"no item takes {key} = true in order")
    return mutate


def _edit_linear(where, edit):
    # edit(linear) of a linear model: the first pair's model, or the model of
    # an MLR model file made of the CPXR baseline (train --method mlr writes
    # that model for the same table)
    def mutate(model):
        if where == "mlr":
            baseline = model["baseline"]
            model.clear()
            model.update(baseline)
        edit(model if where == "mlr" else model["pairs"][0]["model"])
    return mutate


def _set_linear_true(where, key):
    # JSON true as the intercept or the first coefficient
    def edit(linear):
        if key == "intercept":
            linear["intercept"] = True
        else:
            linear["coefficients"][linear["feature_names"][0]] = True
    return _edit_linear(where, edit)


def _set_training_count(where, value):
    def edit(linear):
        linear["training_count"] = value
    return _edit_linear(where, edit)


def _set_standardization(where, key, value):
    # value as the first feature's entry of the means or the scales
    def edit(linear):
        linear["standardization"][key][linear["feature_names"][0]] = value
    return _edit_linear(where, edit)


def _edit_features(where, edit):
    # edit(linear) of the first pair's model, the default model or the
    # baseline
    def mutate(model):
        edit(model["pairs"][0]["model"] if where == "pair" else model[where])
    return mutate


def _rename_sand(linear):
    # sand renamed to porosity in every field of a linear model
    linear["feature_names"] = ["porosity" if c == "sand" else c for c in linear["feature_names"]]
    for d in (linear["coefficients"], *linear["standardization"].values()):
        d["porosity"] = d.pop("sand")


def _drop_last_feature(linear):
    name = linear["feature_names"].pop()
    for d in (linear["coefficients"], *linear["standardization"].values()):
        del d[name]


def _repeat_feature_name(model):
    model["feature_names"].append(model["feature_names"][0])


def _add_note(d):
    # a key no writer writes
    d["note"] = "extra"


# the model-file fields only loading checks, on both kinds of linear model
_LINEAR_FIELD_CASES = [
    (mutate(where, *args), f"{where}-{name}") for where in ("pair", "mlr")
    for mutate, args, name in (
        (_set_training_count, (True,), "true-count"),
        (_set_training_count, (-5,), "negative-count"),
        (_set_training_count, (2.5,), "fractional-count"),
        (_set_standardization, ("means", "abc"), "string-mean"),
        (_set_standardization, ("scales", None), "null-scale"),
    )
]


@pytest.mark.parametrize(
    "mutate",
    [
        _set_item_key("value", 1.0),
        _drop_item_key("lo"),
        _set_item_key("note", "extra"),
        _set_item_key("feature", "porosity"),
        _set_scheme_entry({"values": [0, 1]}),
        _set_scheme_entry(["47.5"]),
        _set_scheme_entry([68.5, 47.5]),
        _set_scheme_entry([47.5, math.nan]),
        _set_weight(True),
        _set_weight(math.inf),
        _set_weight(math.nan),
        _set_bound_true("lo"),
        _set_bound_true("hi"),
        _set_linear_true("pair", "intercept"),
        _set_linear_true("pair", "coefficient"),
        _set_linear_true("mlr", "intercept"),
        _set_linear_true("mlr", "coefficient"),
        *(mutate for mutate, _ in _LINEAR_FIELD_CASES),
        _set_weight(10**400),
        _set_scheme_entry([47.5, 10**400]),
        _set_item_key("lo", -10**400),
        _set_item_key("hi", 10**400),
        _set_item_keys(lo="0.01", hi="0.5"),
        _edit_features("pair", _rename_sand),
        _edit_features("default_model", _rename_sand),
        _edit_features("baseline", _rename_sand),
        _edit_features("pair", _drop_last_feature),
        _edit_features("default_model", _drop_last_feature),
        _repeat_feature_name,
        _set_every_weight(1.7e308),
        _set_field("train_rmse", "abc"),
        _set_field("baseline_rmse", None),
        _set_field("trace", "ab"),
        _set_scheme_entry([0.5], "porosity"),
        _set_field("pairs", {}),
        _set_envelope("config_id", 5),
        _set_envelope("method", ["cpxr"]),
        _set_envelope("note", "extra"),
        _set_field("note", "extra"),
        _edit_features("baseline", _add_note),
        lambda model: _add_note(model["pairs"][0]),
        _edit_features("pair", lambda linear: _add_note(linear["standardization"])),
        _set_envelope("meta", 5),
        _edit_features("baseline", lambda linear: linear["standardization"]["means"].update(
            porosity=0.4)),
        _set_field("trace", [3.0, 2.0, 5.0]),
        _set_envelope("method", "mlr"),
        _set_field("kind", "pxr2"),
    ],
    ids=["item-value-key", "item-missing-lo", "item-extra-key", "item-unknown-feature",
         "scheme-values-entry", "scheme-string-cut", "scheme-decreasing-cuts",
         "scheme-nan-cut", "pair-true-weight", "pair-inf-weight", "pair-nan-weight",
         "item-true-lo", "item-true-hi", "pair-true-intercept", "pair-true-coefficient",
         "mlr-true-intercept", "mlr-true-coefficient", *(i for _, i in _LINEAR_FIELD_CASES),
         "pair-huge-weight", "scheme-huge-cut", "item-huge-lo", "item-huge-hi",
         "item-string-bounds", "pair-renames-feature", "default-renames-feature",
         "baseline-renames-feature", "pair-drops-feature", "default-drops-feature",
         "feature-names-repeat", "pairs-weight-sum-overflows", "train-rmse-string",
         "baseline-rmse-null", "trace-string", "scheme-extra-feature", "pairs-mapping",
         "number-config-id", "list-method", "envelope-extra-key", "model-extra-key",
         "baseline-extra-key", "pair-extra-key", "standardization-extra-key", "number-meta",
         "means-extra-feature", "trace-not-decreasing", "cpxr-model-method-mlr", "kind-pxr2"],
)
def test_predict_mutated_model_file_is_one_line_usage_error(swrc2_cpxr_models, synth_small,
                                                            tmp_path, capsys, mutate):
    payload = json.loads((swrc2_cpxr_models / "SWRC2_cpxr_theta_100.json").read_text())
    assert payload["model"]["pairs"] and len(payload["model"]["scheme"]["sand"]) > 1
    mutate(payload if getattr(mutate, "envelope", False) else payload["model"])
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "p.csv"
    rc = run(["predict", "--model", bad, "--features", synth_small / "dataset.csv",
              "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed model file (") and err.count("\n") == 1
    assert not out.exists()


def test_predict_directory_with_a_number_config_id_is_one_line_usage_error(
        swrc3_models, features_csv, tmp_path, capsys):
    # the config ids of a model directory are sorted: a number among them
    # is refused when its file loads
    models = tmp_path / "models"
    shutil.copytree(swrc3_models, models)
    edited = next(p for p in sorted(models.glob("*.json")) if not p.name.endswith("_training.json"))
    payload = json.loads(edited.read_text())
    payload["config_id"] = 5
    edited.write_text(json.dumps(payload))
    out = tmp_path / "p.csv"
    rc = run(["predict", "--model", models, "--features", features_csv, "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {edited}: malformed model file "
                                       "(config_id must be a string, got 5)\n")
    assert not out.exists()


def _set_pair_coefficient(value):
    def mutate(model):
        linear = model["pairs"][0]["model"]
        linear["coefficients"][linear["feature_names"][0]] = value
    return mutate


@pytest.mark.parametrize("setter", [_set_weight, _set_pair_coefficient],
                         ids=["pair-weight", "pair-coefficient"])
def test_predict_integer_past_int64_is_its_float(swrc2_cpxr_models, synth_small, tmp_path,
                                                 setter):
    # 10**300 fits no C long; the model predicts as with the float 1e300
    outs = []
    for value in (10**300, 1e300):
        payload = json.loads((swrc2_cpxr_models / "SWRC2_cpxr_theta_100.json").read_text())
        setter(value)(payload["model"])
        kind = type(value).__name__
        model, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.csv"
        model.write_text(json.dumps(payload))
        assert run(["predict", "--model", model, "--features", synth_small / "dataset.csv",
                    "--out", out]) == 0
        outs.append(data_lines(out))
    assert outs[0] == outs[1]


def _places(schema, doc):
    """Key paths to every value the walker reads in doc, a document schema
    loads: each value of a table, a list or a map, a null among them, and
    each entry of a list ANY takes whole (a feature's cuts)."""
    places = []
    read = Value.read

    def noting(kind, v, path, error):
        keys = tuple(int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path))
        places.append(keys)
        if kind is ANY and isinstance(v, list):
            places.extend(keys + (i,) for i in range(len(v)))
        return read(kind, v, path, error)

    with mock.patch.object(Value, "read", noting):
        schema.load(doc)
    return [place for place in dict.fromkeys(places) if place]


def _draw_place(data, places):
    """One of places, its group drawn first: places that differ only in
    list indices are one group, so a long list (test_ids, say) crowds out
    no other place."""
    groups = {}
    for place in places:
        groups.setdefault(tuple("[]" if type(k) is int else k for k in place), []).append(place)
    return data.draw(st.sampled_from(groups[data.draw(st.sampled_from(sorted(groups)))]))


_JSON_VALUES = st.one_of(
    st.sampled_from([10**400, -10**400, math.inf, -math.inf, math.nan, True, False, "0.5",
                     None, [1.0]]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# The autouse fixture only clears an environment variable, the same for
# every example.
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_generated_model_value_is_one_line_error_or_finite(swrc2_cpxr_models,
                                                                  synth_small, data):
    # one JSON value at one place of a trained CPXR model file, or of the
    # MLR model file train writes for the same table: the CPXR baseline
    payload = json.loads((swrc2_cpxr_models / "SWRC2_cpxr_theta_100.json").read_text())
    if data.draw(st.booleans()):
        payload.update(method="mlr", model=payload["model"]["baseline"])
    schema = PXR_MODEL if payload["method"] == "cpxr" else LINEAR_MODEL
    *path, key = _draw_place(data, _places(schema, payload["model"]))
    functools.reduce(operator.getitem, path, payload["model"])[key] = data.draw(_JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp_dir:
        model, out = Path(tmp_dir) / "model.json", Path(tmp_dir) / "p.csv"
        model.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["predict", "--model", model, "--features", synth_small / "dataset.csv",
                      "--out", out])
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            _, rows = parse_csv(out)
            assert rows and all(math.isfinite(float(v)) for row in rows
                                for c, v in row.items() if c != "id")
        else:
            assert rc in (1, 2) and not out.exists()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_trained_model_files_round_trip_byte_for_byte(swrc2_cpxr_models, swrc3_models, tmp_path):
    paths = [p for d in (swrc2_cpxr_models, swrc3_models) for p in sorted(d.glob("*.json"))
             if not p.name.endswith("_training.json")]
    assert len(paths) == 10 + 4
    for path in paths:
        payload = soilptf.cli._load_model_payload(path)
        payload["model"] = payload["model"].to_dict()
        copy = tmp_path / path.name
        soilptf.cli._write_json(copy, payload)
        assert copy.read_bytes() == path.read_bytes(), path.name


class _KeysRead(dict):
    """A dict that notes each key looked up in it."""

    def __init__(self, d):
        super().__init__(d)
        self.looked_up = set()

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.looked_up.add(key)
        return super().__contains__(key)


def test_from_dict_looks_up_only_the_keys_of_its_table(swrc2_cpxr_models, eval_dirs):
    # a key a from_dict looked up beyond its table would be read unchecked
    model = json.loads((swrc2_cpxr_models / "SWRC2_cpxr_theta_100.json").read_text())["model"]
    report = json.loads((eval_dirs[0] / "report_SHC2_cpxr.json").read_text())["report"]
    for cls, schema, doc in [
        (PxrModel, PXR_MODEL, model), (LinearModel, LINEAR_MODEL, model["baseline"]),
        (Item, ITEM, model["pairs"][0]["pattern"][0]), (EvaluationReport, REPORT, report),
        (IterationRecord, RECORD, report["records"][0]),
        (MetricSet, METRIC_SET, report["records"][0]["test"]["log_ksat"]),
    ]:
        d = _KeysRead(doc)
        cls.from_dict(d)
        assert d.looked_up == set(schema.table), cls.__name__


def test_predict_reports_first_missing_cell(swrc3_models, tmp_path, capsys):
    # gaps in both samples and in several columns: the first one met in
    # (sample, model feature) order is reported
    table = tmp_path / "gaps.csv"
    table.write_text(
        "id,sand,silt,clay,bulk_density,d_g,sigma_g\n"
        "a,40.0,40.0,20.0,,0.05,\n"
        "b,,40.0,20.0,1.4,0.05,10.0\n"
    )
    rc = run(["predict", "--model", swrc3_models, "--features", table,
              "--out", tmp_path / "p.csv"])
    assert rc == 1
    assert "sample 'a' lacks a value for feature 'bulk_density'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cpxr", "mlr"])
def test_predict_equals_in_memory_predict_matrix(work, synth_big, synth_small, method):
    # loaded models reproduce the in-memory models' predict_matrix bit for bit
    config = MODEL_CONFIGS["SWRC2"]
    models = work / f"models_swrc2_{method}"
    assert run(["train", "--features", synth_big / "dataset.csv", "--config", "SWRC2",
                "--method", method, "--out-dir", models]) == 0
    out = work / f"preds_swrc2_{method}.csv"
    assert run(["predict", "--model", models, "--features", synth_small / "dataset.csv",
                "--out", out]) == 0
    header, rows = parse_csv(out)
    assert header == ["id"] + list(config.targets)

    train = select_columns(load_dataset(synth_big / "dataset.csv"), config)
    table = select_columns(load_dataset(synth_small / "dataset.csv", strict=False), config)
    assert [r["id"] for r in rows] == table.ids
    patterns = 0
    for target in config.targets:
        y = train.targets[target]
        if method == "cpxr":
            model = train_cpxr(train.X, y, train.feature_names)
            patterns += model.k
        else:
            model = fit_local(train.X, y, train.feature_names)
        want = model.predict_matrix(table.X, table.feature_names)
        assert [float(r[target]) for r in rows] == want.tolist(), target
    if method == "cpxr":
        assert patterns > 0


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------


def test_evaluate_writes_reports_and_summaries(eval_dirs):
    out = eval_dirs[0]
    for name in ("report_SHC2_cpxr.json", "report_SHC2_mlr.json",
                 "summary_SHC2.csv", "comparison_SHC2.csv"):
        assert (out / name).is_file()

    header, rows = parse_csv(out / "summary_SHC2.csv")
    assert header == ["config", "method", "target", "rmse", "rmsle", "r2"]
    assert [(r["config"], r["method"], r["target"]) for r in rows] == [
        ("SHC2", "cpxr", "log_ksat"),
        ("SHC2", "mlr", "log_ksat"),
    ]
    assert all(float(r["rmse"]) > 0.0 for r in rows)

    lines = data_lines(out / "comparison_SHC2.csv")
    assert lines[0] == "target,metric,cpxr,mlr,pct_change"
    assert lines[1].startswith("log_ksat,rmsle,")

    report = json.loads((out / "report_SHC2_cpxr.json").read_text())["report"]
    assert report["method"] == "cpxr"
    records = report["records"]
    assert len(records) == 3  # one per paired split at k=3
    for rec in records:
        assert rec["n_train"] == 40 and rec["n_test"] == 80
        assert not rec.get("degraded", False)


def test_evaluate_reruns_are_byte_identical(eval_dirs):
    first, second = eval_dirs
    for name in ("report_SHC2_cpxr.json", "report_SHC2_mlr.json",
                 "summary_SHC2.csv", "comparison_SHC2.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_evaluate_dumps_predictions(work, synth_big):
    out = work / "eval_dump"
    assert run(["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
                "--methods", "mlr", "--reps", "1", "--k", "3", "--jobs", "1",
                "--seed", "5", "--dump-predictions", "--out-dir", out]) == 0

    header, rows = parse_csv(out / "predictions_SHC2_mlr.csv")
    assert header == ["id", "repetition", "split", "target", "observed", "predicted"]
    assert len(rows) == 240  # every sample tested twice per repetition
    assert {r["split"] for r in rows} == {"0", "1", "2"}
    assert {r["target"] for r in rows} == {"log_ksat"}

    _, data = parse_csv(synth_big / "dataset.csv")
    observed = {r["id"]: float(r["log_ksat"]) for r in data}
    for r in rows[:10]:
        assert float(r["observed"]) == observed[r["id"]]

    # single method: no comparison table
    assert not (out / "comparison_SHC2.csv").exists()


def test_evaluate_argument_errors(synth_big, tmp_path, capsys):
    base = ["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
            "--out-dir", tmp_path / "e"]

    assert run(base + ["--methods", "svm"]) == 2
    assert "unknown method" in capsys.readouterr().err

    assert run(base + ["--methods", ","]) == 2
    assert "no methods" in capsys.readouterr().err

    assert run(base + ["--reps", "0"]) == 2
    assert "repetitions" in capsys.readouterr().err

    assert run(base + ["--k", "1"]) == 2
    assert "at least 2 folds" in capsys.readouterr().err

    # k=2 passes the parser but the paired scheme needs three folds
    assert run(base + ["--methods", "mlr", "--reps", "1", "--k", "2", "--jobs", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --cv-scheme paired needs at least 3 folds, got 2\n"
    )
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--reps", "1000000000000000000000"], 2,
         "repetitions must be from 1 to 1000, got 1000000000000000000000"),
        (["--k", "121"], 1, "cannot split 120 samples into 121 folds"),
    ],
    ids=["huge-reps", "more-folds-than-samples"],
)
def test_evaluate_failure_is_one_line_and_leaves_no_out_dir(synth_big, tmp_path, capsys,
                                                            argv, code, message):
    out = tmp_path / "e"
    rc = run(["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
              "--methods", "mlr", "--jobs", "1", "--out-dir", out] + argv)
    assert rc == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_huge_n_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["synth", "--out-dir", out, "--n", "1000000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: n_samples must be from 1 to 100000, got 1000000000000000\n"
    )
    assert not out.exists()


def test_evaluate_repeated_method_is_usage_error(synth_big, tmp_path, capsys):
    rc = run(["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
              "--methods", "cpxr,mlr,cpxr", "--out-dir", tmp_path / "e"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --methods names a method twice: cpxr,mlr,cpxr\n"
    assert not (tmp_path / "e").exists()


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def test_report_matches_evaluate_comparison(eval_dirs, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run(["report", "--a", eval_dirs[0] / "report_SHC2_cpxr.json",
              "--b", eval_dirs[0] / "report_SHC2_mlr.json", "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "change %" in printed and "log_ksat" in printed
    assert data_lines(out) == data_lines(eval_dirs[0] / "comparison_SHC2.csv")
    assert meta_lines(out)[0] == f"# soilptf {__version__}"


def _run_with_closed_stdout(argv):
    """Run the CLI in a child process whose stdout pipe has no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    # an unbuffered stdout would hide writes that only fail at the final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(soilptf.__file__).parents[1])
    try:
        return subprocess.run([sys.executable, "-m", "soilptf", *map(str, argv)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)


def test_report_with_closed_stdout_still_writes_its_file(eval_dirs, tmp_path):
    out = tmp_path / "cmp.csv"
    done = _run_with_closed_stdout(["report", "--a", eval_dirs[0] / "report_SHC2_cpxr.json",
                                    "--b", eval_dirs[0] / "report_SHC2_mlr.json",
                                    "--out", out])
    assert (done.returncode, done.stderr) == (0, "")
    assert data_lines(out) == data_lines(eval_dirs[0] / "comparison_SHC2.csv")


def test_evaluate_with_closed_stdout_is_quiet_success(eval_dirs, synth_big, tmp_path):
    out = tmp_path / "eval"
    done = _run_with_closed_stdout(["evaluate", "--features", synth_big / "dataset.csv",
                                    "--config", "SHC2", "--reps", "1", "--k", "3",
                                    "--jobs", "1", "--seed", "5", "--out-dir", out])
    assert (done.returncode, done.stderr) == (0, "")
    for name in ("report_SHC2_cpxr.json", "report_SHC2_mlr.json",
                 "summary_SHC2.csv", "comparison_SHC2.csv"):
        assert (out / name).read_bytes() == (eval_dirs[0] / name).read_bytes()


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["report", "--help"]])
def test_parser_output_with_closed_stdout_is_quiet_success(argv):
    done = _run_with_closed_stdout(argv)
    assert (done.returncode, done.stderr) == (0, "")


def test_usage_error_with_closed_stdout_still_prints_usage():
    done = _run_with_closed_stdout(["train"])
    assert done.returncode == 2
    assert done.stderr.startswith("usage: soilptf train")


def test_report_rejects_non_reports(synth_small, eval_dirs, tmp_path, capsys):
    rc = run(["report", "--a", tmp_path / "missing.json",
              "--b", synth_small / "truth.json"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err

    rc = run(["report", "--a", synth_small / "truth.json",
              "--b", synth_small / "truth.json"])
    assert rc == 2
    assert "not an evaluation report" in capsys.readouterr().err

    # reports whose metrics compare cannot read
    payload = json.loads((eval_dirs[0] / "report_SHC2_mlr.json").read_text())
    for name, change in [
        ("string-rmse", lambda d: d["records"][0]["test"]["log_ksat"].update(rmse="0.5")),
        ("nan-rmse", lambda d: d["records"][0]["test"]["log_ksat"].update(rmse=math.nan)),
        ("unknown-target", lambda d: d["target_names"].append("theta_10")),
        ("no-records", lambda d: d["records"].clear()),
        ("extra-key", lambda d: d.update(source="elsewhere")),
        ("extra-record-key", lambda d: d["records"][0].update(weight=1.0)),
        ("null-method", lambda d: d.update(method=None)),
        ("list-method", lambda d: d.update(method=[1])),
        ("number-config-id", lambda d: d.update(config_id=2)),
        ("null-cv-scheme", lambda d: d.update(cv_scheme=None)),
        ("number-target-name", lambda d: d["target_names"].append(1.0)),
        ("string-target-names", lambda d: d.update(target_names="log_ksat")),
        ("list-repetition", lambda d: d["records"][0].update(repetition=[0])),
        ("string-split", lambda d: d["records"][0].update(split="0")),
        ("null-n-train", lambda d: d["records"][0].update(n_train=None)),
        ("true-n-test", lambda d: d["records"][0].update(n_test=True)),
        ("negative-n-test", lambda d: d["records"][0].update(n_test=-1)),
        ("string-test-ids", lambda d: d["records"][0].update(test_ids="s001")),
        ("number-test-id", lambda d: d["records"][0]["test_ids"].append(7)),
        ("number-degraded", lambda d: d["records"][0].update(degraded=0)),
        ("string-predictions", lambda d: d["records"][0].update(predictions="rows")),
        ("string-seed", lambda d: d.update(seed="5")),
        ("null-seed", lambda d: d.update(seed=None)),
        ("fractional-k", lambda d: d.update(k=3.0)),
        ("one-fold", lambda d: d.update(k=1)),
        ("list-repetitions", lambda d: d.update(repetitions=[1])),
        ("zero-repetitions", lambda d: d.update(repetitions=0)),
        ("extra-envelope-key", _set_envelope("note", "extra")),
        ("number-meta", _set_envelope("meta", 5)),
        ("test-target-outside-names",
         lambda d: d["records"][0]["test"].update(theta_10=d["records"][0]["test"]["log_ksat"])),
        ("n-test-not-test-ids",
         lambda d: d["records"][0].update(n_test=d["records"][0]["n_test"] + 1)),
        ("short-prediction-rows", lambda d: d["records"][0].update(predictions=[[1, 2]])),
        ("negative-rmse", lambda d: d["records"][0]["test"]["log_ksat"].update(rmse=-1.0)),
    ]:
        doc = json.loads(json.dumps(payload))
        change(doc if getattr(change, "envelope", False) else doc["report"])
        bad, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        bad.write_text(json.dumps(doc))
        rc = run(["report", "--a", bad, "--b", bad, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, name
        assert err.startswith(f"error: {bad}: not an evaluation report") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    # reports whose means or change leave the float range, against a sound one
    for name, count in [("one-huge-rmsle", 1), ("every-rmsle-huge", None)]:
        doc = json.loads(json.dumps(payload))
        for rec in doc["report"]["records"][:count]:
            rec["test"]["log_ksat"]["rmsle"] = 1.7e308
        bad, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["report", "--a", eval_dirs[0] / "report_SHC2_cpxr.json", "--b", bad,
                      "--out", out])
        err = capsys.readouterr().err
        assert rc == 2 and not caught, name
        assert err.startswith("error: log_ksat rmsle: ") and err.count("\n") == 1
        assert not out.exists()


def test_report_refuses_unpaired_reports(synth_big, tmp_path, capsys):
    # an mlr report and a cpxr report from different seeds, reps and k
    # share no splits: no "change %" is printed over them
    dirs = {}
    for method, seed, reps, k in (("mlr", "99", "2", "5"), ("cpxr", "1", "1", "3")):
        dirs[method] = tmp_path / method
        assert run(["evaluate", "--features", synth_big / "dataset.csv", "--config", "SHC2",
                    "--methods", method, "--seed", seed, "--reps", reps, "--k", k,
                    "--jobs", "1", "--out-dir", dirs[method]]) == 0
    capsys.readouterr()
    out = tmp_path / "comparison.csv"
    rc = run(["report", "--a", dirs["mlr"] / "report_SHC2_mlr.json",
              "--b", dirs["cpxr"] / "report_SHC2_cpxr.json", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == "error: unpaired reports: seed 99 vs 1\n"
    assert not out.exists()


# The autouse fixture only clears an environment variable, the same for
# every example.
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_generated_value_is_one_line_error_or_finite(eval_dirs, data):
    # one JSON value at one place of one of the two reports compared
    paths = [eval_dirs[0] / "report_SHC2_cpxr.json", eval_dirs[0] / "report_SHC2_mlr.json"]
    side = data.draw(st.sampled_from([0, 1]))
    payload = json.loads(paths[side].read_text())
    *path, key = _draw_place(data, _places(REPORT, payload["report"]))
    value = data.draw(st.one_of(_JSON_VALUES, st.sampled_from([1.7e308, -1.7e308])))
    functools.reduce(operator.getitem, path, payload["report"])[key] = value
    with tempfile.TemporaryDirectory() as tmp_dir:
        paths[side], out = Path(tmp_dir) / "report.json", Path(tmp_dir) / "c.csv"
        paths[side].write_text(json.dumps(payload))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run(["report", "--a", paths[0], "--b", paths[1], "--out", out])
        assert "Traceback" not in stderr.getvalue()
        if rc == 0:
            printed = stdout.getvalue().lower()
            assert "inf" not in printed and "nan" not in printed, printed
            _, rows = parse_csv(out)
            assert rows and all(math.isfinite(float(v)) for row in rows
                                for c, v in row.items() if c not in ("target", "metric"))
        else:
            assert rc in (1, 2) and not out.exists()
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


# ----------------------------------------------------------------------
# non-finite cells
# ----------------------------------------------------------------------

_FEATURE_TABLE = (
    "id,sand,silt,clay,bulk_density,d_g,sigma_g,theta_r\n"
    "a,40,40,20,1.4,0.05,10,0.05\n"
    "b,40,40,20,{token},0.05,10,0.05\n"
)


@pytest.mark.parametrize("token", ["inf", "-inf", "+nan", "-nan", "Infinity", "1e999"])
@pytest.mark.parametrize("command", ["train", "predict", "derive-features", "fit-vg"])
def test_non_finite_cell_is_one_line_runtime_error(swrc3_models, tmp_path, capsys, command, token):
    table = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    if command == "fit-vg":
        table.write_text(f"id,tension_cm,theta\na,1.0,0.45\na,10.0,{token}\n")
        argv, row, column = ["fit-vg", "--input", table, "--out", out], 3, "theta"
    elif command == "derive-features":
        _basic_table(table, [f"s1,40,40,20,{token},120"])
        _vg_table(tmp_path / "vg.csv", ["s1"])
        argv = ["derive-features", "--basic", table, "--vg", tmp_path / "vg.csv", "--out", out]
        row, column = 2, "bulk_density"
    else:
        table.write_text(_FEATURE_TABLE.format(token=token))
        row, column = 3, "bulk_density"
        if command == "train":
            argv = ["train", "--features", table, "--config", "SWRC3", "--method", "mlr",
                    "--out-dir", tmp_path / "models"]
        else:
            argv = ["predict", "--model", swrc3_models / "SWRC3_mlr_theta_r.json",
                    "--features", table, "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: row {row}: column {column!r} value {token!r} is not a finite number\n"
    assert not out.exists()


# ----------------------------------------------------------------------
# broken CSV input, every command that reads one
# ----------------------------------------------------------------------

_BASIC_TABLE = (
    "id,sand,silt,clay,bulk_density,internal_diameter_cm,length_cm,ksat_cm_day\n"
    "s1,40,40,20,1.4,5,10,120\n"
    "s2,30,30,40,1.3,5,10,80\n"
)
_VG_TABLE = "id,theta_r,theta_s,alpha_per_cm,n\ns1,0.05,0.45,0.02,1.6\ns2,0.04,0.4,0.03,1.4\n"
_CSV_FAULTS = ("truncated", "not-utf8", "non-finite", "duplicate-header", "empty")


def _break_table(text, fault, data):
    """Bytes of a valid table (id first, every column read) with one fault."""
    lines = text.splitlines()
    if fault == "empty":
        return b""
    if fault == "truncated":
        # cut a row before its last comma: the file ends in a short row
        r = data.draw(st.integers(1, len(lines) - 1))
        cut = data.draw(st.integers(1, lines[r].rindex(",")))
        return "\n".join(lines[:r] + [lines[r][:cut]]).encode()
    if fault == "not-utf8":
        raw = text.encode()
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]))
        return raw[:at] + bad + raw[at:]
    if fault == "non-finite":
        r = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[r].split(",")
        cells[data.draw(st.integers(1, len(cells) - 1))] = data.draw(
            st.sampled_from(["inf", "-inf", "+nan", "-nan", "Infinity", "1e999"])
        )
        lines[r] = ",".join(cells)
    else:
        header = lines[0].split(",")
        i, j = data.draw(st.lists(st.integers(0, len(header) - 1), min_size=2, max_size=2,
                                  unique=True))
        header[j] = header[i]
        lines[0] = ",".join(header)
    return ("\n".join(lines) + "\n").encode()


# The autouse fixture only clears an environment variable, the same for
# every example.
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["train", "evaluate", "predict", "fit-vg", "derive-features"]),
    fault=st.sampled_from(_CSV_FAULTS),
    data=st.data(),
)
def test_broken_csv_is_one_line_error(synth_small, swrc3_models, command, fault, data):
    features = "\n".join(data_lines(synth_small / "dataset.csv")[:9]) + "\n"
    retention = "\n".join(data_lines(synth_small / "retention.csv")[:14]) + "\n"
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        table = tmp / "in.csv"
        if command == "fit-vg":
            table.write_bytes(_break_table(retention, fault, data))
            argv = ["fit-vg", "--input", table, "--out", tmp / "vg.csv", "--jobs", "1"]
        elif command == "derive-features":
            broken_vg = data.draw(st.booleans())
            basic, vg = tmp / "basic.csv", tmp / "vg.csv"
            basic.write_text(_BASIC_TABLE)
            vg.write_text(_VG_TABLE)
            table = vg if broken_vg else basic
            table.write_bytes(_break_table(_VG_TABLE if broken_vg else _BASIC_TABLE, fault, data))
            argv = ["derive-features", "--basic", basic, "--vg", vg, "--out", tmp / "f.csv"]
        else:
            table.write_bytes(_break_table(features, fault, data))
            argv = {
                "train": ["train", "--features", table, "--config", "SHC2", "--method", "mlr",
                          "--out-dir", tmp / "models"],
                "evaluate": ["evaluate", "--features", table, "--config", "SHC2",
                             "--methods", "mlr", "--reps", "1", "--k", "3", "--jobs", "1",
                             "--out-dir", tmp / "eval"],
                "predict": ["predict", "--model", swrc3_models / "SWRC3_mlr_theta_r.json",
                            "--features", table, "--out", tmp / "pred.csv"],
            }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(argv)
    assert rc in (1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


@pytest.mark.parametrize("command", ["fit-vg", "evaluate"])
def test_cell_past_the_csv_field_limit_is_one_line_error(tmp_path, capsys, command):
    # csv reads at most 131,072 characters per field; a longer quoted id
    # raises csv.Error, which must end as one diagnostic, not a traceback
    table = tmp_path / "in.csv"
    sid = '"' + "x" * 140_000 + '"'
    if command == "fit-vg":
        table.write_text(f"id,tension_cm,theta\n{sid},0,0.4\n")
        out = tmp_path / "vg.csv"
        argv = ["fit-vg", "--input", table, "--out", out]
    else:
        table.write_text(
            "id,sand,silt,clay,bulk_density,internal_diameter_cm,length_cm,log_ksat\n"
            f"{sid},40,40,20,1.4,5,10,4.8\n"
        )
        out = tmp_path / "eval"
        argv = ["evaluate", "--features", table, "--config", "SHC2", "--methods", "mlr",
                "--reps", "1", "--k", "3", "--jobs", "1", "--out-dir", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {table}: field larger than field limit (131072)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_invalid_samples_are_one_line_error(tmp_path, capsys, command):
    table = tmp_path / "in.csv"
    table.write_text(
        "id,sand,silt,clay,bulk_density,internal_diameter_cm,length_cm,log_ksat\n"
        "s1,40,40,20,1.4,5,10,4.8\n"
        "s2,30,30,30,1.3,5,10,4.4\n"
        "s3,50,30,30,1.3,5,10,4.1\n"
    )
    argv = {
        "train": ["train", "--features", table, "--config", "SHC2", "--method", "mlr",
                  "--out-dir", tmp_path / "models"],
        "evaluate": ["evaluate", "--features", table, "--config", "SHC2", "--methods", "mlr",
                     "--reps", "1", "--k", "3", "--jobs", "1", "--out-dir", tmp_path / "eval"],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (
        f"error: {table}: 2 invalid samples: "
        "row 3: sand+silt+clay = 90, expected 100 +/- 0.5; "
        "row 4: sand+silt+clay = 110, expected 100 +/- 0.5\n"
    )


# ----------------------------------------------------------------------
# extreme feature values
# ----------------------------------------------------------------------

# Five adjacent doubles around 1.0: the plain midpoint of two of them
# rounds onto one of the two.
ADJACENT_BULK_DENSITY = np.repeat(
    [0.9999999999999998, 0.9999999999999999, 1.0, 1.0000000000000002, 1.0000000000000004],
    [20, 10, 18, 12, 10],
)
# Finite values whose column mean and standard deviation overflow.
HUGE_BULK_DENSITY = np.tile([1e308, 1.7e308], 35)
# Positive values that differ, but whose squared deviations from their
# mean underflow to 0.
TINY_DIAMETER = np.tile([1e-170, 2e-170, 3e-170], 20)


def _extreme_table(path, bulk_density, internal_diameter_cm=5.0):
    """An SHC2 table with ordinary texture and length columns around the
    given bulk densities and internal diameters (a value or one per
    sample); log_ksat is 5 where bulk_density is 1.0, else 0."""
    rng = np.random.default_rng(0)
    n = len(bulk_density)
    sand = rng.uniform(10, 60, n)
    clay = rng.uniform(5, 30, n)
    diameter = np.broadcast_to(internal_diameter_cm, n)
    log_ksat = np.where(bulk_density == 1.0, 5.0, 0.0) + rng.normal(0, 0.01, n)
    lines = ["id,sand,silt,clay,bulk_density,d_g,sigma_g,internal_diameter_cm,length_cm,log_ksat"]
    for i in range(n):
        cells = [sand[i], 100.0 - sand[i] - clay[i], clay[i], bulk_density[i], 0.05, 10.0,
                 diameter[i], 5.0, log_ksat[i]]
        lines.append(",".join([f"s{i:02d}"] + [repr(float(v)) for v in cells]))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_adjacent_doubles_train_and_evaluate(tmp_path, capsys):
    table = _extreme_table(tmp_path / "adjacent.csv", ADJACENT_BULK_DENSITY)
    models = tmp_path / "models"
    assert run(["train", "--features", table, "--config", "SHC2", "--method", "cpxr",
                "--out-dir", models]) == 0
    model = json.loads((models / "SHC2_cpxr_log_ksat.json").read_text())["model"]
    assert model["scheme"]["bulk_density"] == [1.0, 1.0000000000000002]
    summary = json.loads((models / "SHC2_cpxr_training.json").read_text())["targets"]
    assert summary["log_ksat"]["patterns"] == 1
    assert summary["log_ksat"]["train_rmse"] < 0.1 < summary["log_ksat"]["baseline_rmse"]
    assert run(["evaluate", "--features", table, "--config", "SHC2", "--reps", "1",
                "--k", "5", "--jobs", "1", "--out-dir", tmp_path / "eval"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["cpxr", "mlr", "evaluate"])
def test_overflowing_column_is_one_line_runtime_error(tmp_path, capsys, command):
    table = _extreme_table(tmp_path / "huge.csv", HUGE_BULK_DENSITY)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--features", table, "--config", "SHC2", "--reps", "1",
                "--k", "5", "--jobs", "1", "--out-dir", out]
    else:
        argv = ["train", "--features", table, "--config", "SHC2", "--method", command,
                "--out-dir", out]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: column 'bulk_density' is too large to standardize\n"
    assert not out.exists()  # the output directory is made only after every fit


@pytest.mark.parametrize("command", ["cpxr", "mlr", "evaluate"])
def test_underflowing_column_is_one_line_runtime_error(tmp_path, capfd, command):
    # capfd, not capsys: a LAPACK complaint would go to the stderr descriptor
    table = _extreme_table(tmp_path / "tiny.csv", np.linspace(1.1, 1.6, 60), TINY_DIAMETER)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--features", table, "--config", "SHC2", "--methods", "cpxr,mlr",
                "--reps", "1", "--k", "5", "--jobs", "1", "--out-dir", out]
    else:
        argv = ["train", "--features", table, "--config", "SHC2", "--method", command,
                "--out-dir", out]
    assert run(argv) == 1
    err = capfd.readouterr().err
    assert err == "error: column 'internal_diameter_cm' varies too little to standardize\n"
    assert not out.exists()


def test_predict_non_finite_prediction_is_one_line_and_writes_nothing(shc2_cpxr_models,
                                                                      tmp_path, capsys):
    table = _extreme_table(tmp_path / "huge.csv", HUGE_BULK_DENSITY)
    out = tmp_path / "preds.csv"
    rc = run(["predict", "--model", shc2_cpxr_models, "--features", table, "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: sample 's00': predicted log_ksat is not a finite number\n"
    )
    assert not out.exists()
