"""End-to-end checks of the command-line pipeline.

Drives main() in-process against temporary directories: synthetic data,
curve fitting, feature derivation, training, prediction, evaluation and
report comparison, plus exit codes, seed resolution and artifact
determinism.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from soilptf import __version__
from soilptf.cli import SEED_ENV, TARGET_COLUMNS, main
from soilptf.cpxr import train_cpxr
from soilptf.data import KNOWN_FEATURES, load_dataset, select_columns
from soilptf.hydrology import (
    MODEL_CONFIGS,
    PARAMETRIC_TARGETS,
    VgParameters,
    texture_statistics,
    vg_theta,
)
from soilptf.linreg import fit_local


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_invalid_choice_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--features", "x.csv", "--config", "SHC2",
             "--method", "svm", "--out-dir", tmp_path])
    assert exc.value.code == 2


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
    monkeypatch.setenv(SEED_ENV, "banana")
    rc = run(["synth", "--out-dir", tmp_path / "s", "--n", "30"])
    assert rc == 2
    assert SEED_ENV in capsys.readouterr().err


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


def test_fit_vg_parallel_output_matches_serial(tmp_path):
    table = tmp_path / "retention.csv"
    _write_retention(table, [("a", _clean_pairs()), ("b", _clean_pairs(15))])
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "one.csv", "--jobs", "1"]) == 0
    assert run(["fit-vg", "--input", table, "--out", tmp_path / "two.csv", "--jobs", "2"]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


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


@pytest.mark.parametrize(
    "spec", ['min_growth="x"', "min_support_le=null", 'jaccard_max="a"', "max_k=true",
             "max_len=2.5", "min_growth=NaN", "jaccard_max=-Infinity", "min_support_le=-0.1",
             "min_growth=0", "weight_floor=0", "min_count_le=0"],
)
def test_train_malformed_hyperparameter_is_one_line_usage_error(synth_small, tmp_path, capsys,
                                                                 spec):
    rc = run(["train", "--features", synth_small / "dataset.csv", "--config", "SHC2",
              "--method", "cpxr", "--out-dir", tmp_path / "m", "--set", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert spec.split("=")[0] in err and "Traceback" not in err


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


def test_predict_single_model_file(shc2_cpxr_models, synth_small, tmp_path):
    out = tmp_path / "preds.csv"
    assert run(["predict", "--model", shc2_cpxr_models / "SHC2_cpxr_log_ksat.json",
                "--features", synth_small / "dataset.csv", "--out", out]) == 0
    header, rows = parse_csv(out)
    assert header == ["id", "log_ksat"]
    assert len(rows) == 40


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


def test_predict_rejects_non_model_json(synth_small, tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"foo": 1}\n')
    rc = run(["predict", "--model", bogus, "--features", synth_small / "dataset.csv",
              "--out", tmp_path / "p.csv"])
    assert rc == 2
    assert "not a model file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['{"model": {"kind": "pxr"}, "target": "t"}\n', '{"model": {"kind": "pxr", "pai'],
    ids=["missing-key", "truncated"],
)
def test_predict_malformed_model_file_is_one_line_usage_error(synth_small, tmp_path, capsys,
                                                              text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = run(["predict", "--model", bad, "--features", synth_small / "dataset.csv",
              "--out", tmp_path / "p.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.json: malformed model file" in err and "Traceback" not in err


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
    assert run(base + ["--methods", "mlr", "--reps", "1", "--k", "2", "--jobs", "1"]) == 1
    assert "folds" in capsys.readouterr().err


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


def test_report_rejects_non_reports(synth_small, tmp_path, capsys):
    rc = run(["report", "--a", tmp_path / "missing.json",
              "--b", synth_small / "truth.json"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err

    rc = run(["report", "--a", synth_small / "truth.json",
              "--b", synth_small / "truth.json"])
    assert rc == 2
    assert "not an evaluation report" in capsys.readouterr().err


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
