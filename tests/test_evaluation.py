"""Metrics, rotating-pair cross-validation protocol, method comparison."""

import copy
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilptf.cli
import soilptf.evaluation
from soilptf.data import SCALE_FEATURES, Dataset, select_columns
from soilptf.evaluation import (
    ComparisonRow,
    ComparisonTable,
    EvaluationError,
    EvaluationReport,
    IterationRecord,
    MetricSet,
    compare,
    cross_validate,
    cross_validate_methods,
    fit_targets,
    map_jobs,
    metrics,
)
from soilptf.cpxr import CpxrConfig
from soilptf.hydrology import MODEL_CONFIGS, ModelConfig
from soilptf.synth import generate, two_regime_config


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def test_rmse_hand_value():
    m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert m.rmse == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)


def test_perfect_prediction():
    m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert m.rmse == 0.0
    assert m.r2 == pytest.approx(1.0)


def test_rmsle_in_log_space_is_rmse():
    m = metrics([0.5, -1.0], [0.0, -2.0], log_space=True)
    assert m.rmsle == m.rmse


def test_rmsle_over_logs():
    e = math.e
    m = metrics([1.0, e], [e, 1.0])
    assert m.rmsle == pytest.approx(1.0, rel=1e-12)


def test_rmsle_undefined_for_nonpositive():
    assert metrics([1.0, -2.0], [1.0, 2.0]).rmsle is None
    assert metrics([1.0, 2.0], [0.0, 2.0]).rmsle is None


def test_r2_no_variance():
    # constant observations or constant predictions: correlation undefined
    assert metrics([1.0, 2.0], [3.0, 3.0]).r2 is None
    assert metrics([3.0, 3.0], [1.0, 2.0]).r2 is None


def test_metrics_validation():
    with pytest.raises(EvaluationError, match="at least 2"):
        metrics([1.0], [1.0])
    with pytest.raises(EvaluationError, match="shape"):
        metrics([1.0, 2.0], [1.0, 2.0, 3.0])


def test_metric_set_roundtrip():
    m = MetricSet(rmse=0.5, rmsle=None, r2=0.9)
    assert MetricSet.from_dict(json.loads(json.dumps(vars(m)))) == m
    assert MetricSet.from_dict({"rmse": 0.5}) == MetricSet(rmse=0.5)
    with pytest.raises(TypeError, match="mae"):
        MetricSet.from_dict({"rmse": 0.5, "mae": 0.4})


# ----------------------------------------------------------------------
# cross-validation protocol
# ----------------------------------------------------------------------

def _regime_dataset(n=100, seed=0, p_minor=0.2, noise=0.01):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 5, n)
    z = rng.choice([0.3, 0.7], n, p=[1.0 - p_minor, p_minor])
    y = np.where(z < 0.5, 2.0 * x, -2.0 * x + 10.0) + rng.normal(0, noise, n)
    ids = [f"s{i:03d}" for i in range(n)]
    dataset = Dataset(ids, {"x": x, "z": z, "y": y}, ["x", "z"], ["y"])
    return dataset, ModelConfig("TOY", ("x", "z"), ("y",))


def test_rotating_pair_coverage():
    ds, cfg = _regime_dataset(n=60)
    report = cross_validate(ds, cfg, method="mlr", repetitions=3, seed=5, k=5)
    assert len(report.records) == 15
    for rep in range(3):
        recs = [r for r in report.records if r.repetition == rep]
        assert len(recs) == 5
        seen = {}
        for r in recs:
            assert r.n_train + r.n_test == 60
            for sid in r.test_ids:
                seen[sid] = seen.get(sid, 0) + 1
        # every sample is tested exactly twice per repetition
        assert set(seen) == set(ds.ids)
        assert set(seen.values()) == {2}


def test_classic_scheme_tests_once():
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="mlr", repetitions=2, seed=1, k=4,
                            cv_scheme="classic")
    assert len(report.records) == 8
    for rep in range(2):
        recs = [r for r in report.records if r.repetition == rep]
        seen = [sid for r in recs for sid in r.test_ids]
        assert sorted(seen) == sorted(ds.ids)


def test_test_ids_follow_row_order():
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=3, k=4)
    order = {sid: i for i, sid in enumerate(ds.ids)}
    for rec in report.records:
        rows = [order[sid] for sid in rec.test_ids]
        assert rows == sorted(rows)


def test_shared_seed_shares_folds_across_methods():
    ds, cfg = _regime_dataset(n=60)
    a = cross_validate(ds, cfg, method="mlr", repetitions=2, seed=7, k=5)
    b = cross_validate(ds, cfg, method="cpxr", repetitions=2, seed=7, k=5)
    for ra, rb in zip(a.records, b.records):
        assert ra.test_ids == rb.test_ids


def test_scheme_and_input_validation():
    ds, cfg = _regime_dataset(n=30)
    with pytest.raises(EvaluationError, match="at least 3 folds"):
        cross_validate(ds, cfg, k=2)
    with pytest.raises(EvaluationError, match="cv scheme"):
        cross_validate(ds, cfg, cv_scheme="loo")
    with pytest.raises(EvaluationError, match="repetitions"):
        cross_validate(ds, cfg, repetitions=0)
    with pytest.raises(EvaluationError, match="method"):
        cross_validate(ds, cfg, method="boost")


def test_unknown_method_is_rejected_before_any_split(monkeypatch):
    def no_splits(*args):
        raise AssertionError("map_jobs ran")

    monkeypatch.setattr(soilptf.evaluation, "map_jobs", no_splits)
    ds, cfg = _regime_dataset(n=30)
    with pytest.raises(EvaluationError,
                       match="^unknown method 'boost'; expected 'mlr' or 'cpxr'$"):
        cross_validate(ds, cfg, method="boost", jobs=2)


def test_small_folds_degrade_cpxr_gracefully():
    # 40 samples, k=5 paired: 24 training rows, below the trainer minimum
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="cpxr", repetitions=1, seed=0, k=5)
    assert all(r.degraded for r in report.records)
    assert all(np.isfinite(r.test["y"].rmse) for r in report.records)
    mlr = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=5)
    assert not any(r.degraded for r in mlr.records)
    # the fallback is the baseline regression itself
    for ra, rb in zip(mlr.records, report.records):
        assert ra.test["y"].rmse == rb.test["y"].rmse


def _json(report):
    """A report or a model as JSON text, keys sorted as the CLI writes them."""
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def swrc2_table():
    dataset, _ = generate(two_regime_config(n_samples=80, seed=7))
    return dataset, MODEL_CONFIGS["SWRC2"]


@pytest.mark.parametrize("min_train", [30, 1000])
@pytest.mark.parametrize("jobs", [1, 2])
def test_one_pass_reports_equal_each_method_alone(swrc2_table, jobs, min_train):
    # ten SWRC2 targets, 48 training rows per split: the mlr models of the
    # one pass are the cpxr baselines and must give the reports of a
    # separate mlr run; at min_train=1000 every cpxr split falls back
    ds, cfg = swrc2_table
    run = dict(repetitions=2, seed=7, k=5, cpxr_config=CpxrConfig(min_train=min_train),
               jobs=jobs, collect_predictions=True)
    alone = {method: cross_validate(ds, cfg, method=method, **run).to_dict()
             for method in ("cpxr", "mlr")}
    assert all(r["degraded"] == (min_train == 1000) for r in alone["cpxr"]["records"])
    assert not any(r["degraded"] for r in alone["mlr"]["records"])
    for methods in (["cpxr", "mlr"], ["mlr", "cpxr"]):
        reports = cross_validate_methods(ds, cfg, methods, **run)
        assert list(reports) == methods
        assert {m: report.to_dict() for m, report in reports.items()} == alone


def test_one_pass_rejects_a_repeated_or_missing_method():
    ds, cfg = _regime_dataset(n=30)
    with pytest.raises(EvaluationError, match="named twice"):
        cross_validate_methods(ds, cfg, ["mlr", "mlr"])
    with pytest.raises(EvaluationError, match="no methods"):
        cross_validate_methods(ds, cfg, [])




def test_parallel_jobs_identical():
    ds, cfg = _regime_dataset(n=60)
    a = cross_validate(ds, cfg, method="mlr", repetitions=3, seed=2, k=5)
    b = cross_validate(ds, cfg, method="mlr", repetitions=3, seed=2, k=5, jobs=2)
    assert _json(a) == _json(b)


@pytest.mark.parametrize("jobs, tasks, cores, want", [
    (64, 2, 8, [2]),   # never more workers than tasks
    (64, 5, 2, [2]),   # never more workers than cores
    (3, 5, 8, [3]),
    (4, 1, 8, []),     # one task runs in-process
    (1, 5, 8, []),
    (8, 5, None, []),  # unknown core count counts as one
    (8, 0, 8, []),
])
def test_map_jobs_bounds_the_pool(monkeypatch, pool_sizes, jobs, tasks, cores, want):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert map_jobs(abs, list(range(-tasks, 0)), jobs) == list(range(tasks, 0, -1))
    assert pool_sizes == want


def test_cross_validate_pool_has_one_worker_per_repetition(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="mlr", repetitions=2, seed=0, k=4, jobs=64)
    assert pool_sizes == [2]
    serial = cross_validate(ds, cfg, method="mlr", repetitions=2, seed=0, k=4, jobs=1)
    assert _json(report) == _json(serial)


@pytest.mark.parametrize("jobs", [0, -1])
def test_cross_validate_rejects_jobs_below_one(jobs):
    ds, cfg = _regime_dataset(n=40)
    with pytest.raises(EvaluationError, match="jobs must be positive"):
        cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=4, jobs=jobs)


def test_collected_predictions():
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=4,
                            collect_predictions=True)
    for rec in report.records:
        assert len(rec.predictions) == rec.n_test  # one target
        for sid, target, obs, pred in rec.predictions:
            assert target == "y"
            assert obs == ds.columns["y"][ds.ids.index(sid)]
            assert np.isfinite(pred)
    plain = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=4)
    assert all(rec.predictions is None for rec in plain.records)


def test_summary_averages_records():
    ds, cfg = _regime_dataset(n=60)
    report = cross_validate(ds, cfg, method="mlr", repetitions=2, seed=4, k=5)
    want = float(np.mean([r.test["y"].rmse for r in report.records]))
    assert report.summary("test")["y"].rmse == pytest.approx(want, rel=1e-12)
    want_tr = float(np.mean([r.train["y"].rmse for r in report.records]))
    assert report.summary("train")["y"].rmse == pytest.approx(want_tr, rel=1e-12)
    with pytest.raises(EvaluationError, match="split"):
        report.summary("validation")


def test_report_json_roundtrip():
    ds, cfg = _regime_dataset(n=40)
    report = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=4,
                            collect_predictions=True)
    back = EvaluationReport.from_dict(json.loads(_json(report)))
    assert back.to_dict() == report.to_dict()


def _reference_to_dict(report):
    """The report dict written field by field, as earlier versions did."""

    def metric_set(m):
        return {"rmse": m.rmse, "rmsle": m.rmsle, "r2": m.r2}

    def record(r):
        return {
            "repetition": r.repetition,
            "split": r.split,
            "n_train": r.n_train,
            "n_test": r.n_test,
            "test_ids": list(r.test_ids),
            "degraded": r.degraded,
            "train": {t: metric_set(m) for t, m in r.train.items()},
            "test": {t: metric_set(m) for t, m in r.test.items()},
            "predictions": r.predictions,
        }

    return {
        "config_id": report.config_id,
        "method": report.method,
        "seed": report.seed,
        "repetitions": report.repetitions,
        "k": report.k,
        "cv_scheme": report.cv_scheme,
        "target_names": list(report.target_names),
        "records": [record(r) for r in report.records],
    }


_finite = st.floats(allow_nan=False, allow_infinity=False)
_names = st.text("abcxyz_0", min_size=1, max_size=4)


@st.composite
def reports(draw):
    targets = draw(st.lists(st.sampled_from(["theta_10", "theta_30", "log_ksat"]),
                            min_size=1, max_size=3, unique=True))
    metric_sets = st.dictionaries(
        st.sampled_from(targets),
        st.builds(MetricSet, rmse=_finite, rmsle=st.none() | _finite, r2=st.none() | _finite),
        min_size=len(targets),
    )
    rows = st.lists(st.tuples(_names, st.sampled_from(targets), _finite, _finite).map(list),
                    max_size=4)
    records = [
        IterationRecord(
            repetition=draw(st.integers(0, 9)),
            split=draw(st.integers(0, 9)),
            n_train=draw(st.integers(0, 500)),
            n_test=draw(st.integers(0, 500)),
            test_ids=draw(st.lists(_names, max_size=4)),
            degraded=draw(st.booleans()),
            train=draw(metric_sets),
            test=draw(metric_sets),
            predictions=draw(st.none() | rows),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return EvaluationReport(
        config_id=draw(_names), method=draw(st.sampled_from(["mlr", "cpxr"])),
        seed=draw(st.integers(0, 2**63)), repetitions=draw(st.integers(1, 10)),
        k=draw(st.integers(3, 10)), cv_scheme=draw(st.sampled_from(["paired", "classic"])),
        target_names=targets, records=records,
    )


@settings(max_examples=100, deadline=None)
@given(reports())
def test_report_dict_is_the_fields_and_round_trips(report):
    d = report.to_dict()
    assert d == _reference_to_dict(report)
    for rec, rec_d in zip(report.records, d["records"]):
        assert rec_d["predictions"] is rec.predictions  # rows are passed on, not copied
    back = EvaluationReport.from_dict(json.loads(json.dumps(d, sort_keys=True)))
    assert back.to_dict() == d


def test_cpxr_beats_mlr_on_regime_structure():
    ds, cfg = _regime_dataset()
    mlr = cross_validate(ds, cfg, method="mlr", repetitions=1, seed=0, k=5)
    px = cross_validate(ds, cfg, method="cpxr", repetitions=1, seed=0, k=5)
    assert not any(r.degraded for r in px.records)
    ratio = px.summary()["y"].rmse / mlr.summary()["y"].rmse
    assert ratio < 0.5
    table = compare(mlr, px)
    assert table.rows[0].pct_change > 50.0


# ----------------------------------------------------------------------
# comparison tables
# ----------------------------------------------------------------------

def _report_with(rmse_by_target, method, config_id="CFG", rmsle=None):
    targets = list(rmse_by_target)
    rec = IterationRecord(
        repetition=0, split=0, n_train=8, n_test=2, test_ids=["a", "b"],
        degraded=False,
        train={t: MetricSet(rmse=v) for t, v in rmse_by_target.items()},
        test={
            t: MetricSet(rmse=v, rmsle=(rmsle or {}).get(t))
            for t, v in rmse_by_target.items()
        },
    )
    return EvaluationReport(
        config_id=config_id, method=method, seed=0, repetitions=1, k=3,
        cv_scheme="paired", target_names=targets, records=[rec],
    )


def test_compare_percent_change():
    a = _report_with({"theta_10": 1.0}, "mlr")
    b = _report_with({"theta_10": 0.8}, "cpxr")
    table = compare(a, b)
    row = table.rows[0]
    assert (row.target, row.metric) == ("theta_10", "rmse")
    assert row.pct_change == pytest.approx(20.0)
    assert table.method_a == "mlr" and table.method_b == "cpxr"


def test_compare_uses_rmsle_for_log_targets():
    a = _report_with({"log_ksat": 9.0}, "mlr", rmsle={"log_ksat": 2.0})
    b = _report_with({"log_ksat": 9.0}, "cpxr", rmsle={"log_ksat": 1.0})
    row = compare(a, b).rows[0]
    assert row.metric == "rmsle"
    assert row.pct_change == pytest.approx(50.0)


def test_compare_zero_baseline():
    a = _report_with({"theta_10": 0.0}, "mlr")
    b = _report_with({"theta_10": 0.5}, "cpxr")
    assert compare(a, b).rows[0].pct_change == 0.0


def test_compare_mismatches():
    a = _report_with({"theta_10": 1.0}, "mlr", config_id="A")
    b = _report_with({"theta_10": 1.0}, "cpxr", config_id="B")
    with pytest.raises(EvaluationError, match="config mismatch"):
        compare(a, b)
    c = _report_with({"theta_30": 1.0}, "cpxr", config_id="A")
    with pytest.raises(EvaluationError, match="target mismatch"):
        compare(a, c)


_TABLE = ComparisonTable(
    method_a="mlr", method_b="cpxr", split="test",
    rows=[ComparisonRow("theta_10", "rmse", 1.0, 0.75, 25.0)],
)


def test_table_text():
    text = str(_TABLE)
    assert "change %" in text and "theta_10" in text


def test_comparison_csv_lines(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    meta = {"tool": "soilptf", "version": "0", "seed": 0, "config_hash": "0"}
    soilptf.cli._write_comparison(out, _TABLE, meta)
    assert capsys.readouterr().out == str(_TABLE) + "\n"
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["target,metric,mlr,cpxr,pct_change", "theta_10,rmse,1.0,0.75,25.0"]


def test_comparison_csv_of_one_method_keeps_both_columns(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    meta = {"tool": "soilptf", "version": "0", "seed": 0, "config_hash": "0"}
    soilptf.cli._write_comparison(out, ComparisonTable("cpxr", "cpxr", "test", _TABLE.rows), meta)
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["target,metric,cpxr,cpxr,pct_change", "theta_10,rmse,1.0,0.75,25.0"]


# ----------------------------------------------------------------------
# a change of unit
# ----------------------------------------------------------------------

# 2**k is exact in binary floating point while the results stay normal, so
# multiplying a measurement-scale column by it changes no prediction
_UNIT_EXPONENTS = (-40, -3, 5, 40)


@pytest.fixture(scope="module")
def two_regime_seed7():
    dataset, _ = generate(two_regime_config(n_samples=300, seed=7))
    return dataset


def _in_unit(dataset, column, k):
    """The dataset with one column multiplied by 2**k."""
    return dataclasses.replace(
        dataset, columns={**dataset.columns, column: np.ldexp(dataset.columns[column], k)})


@pytest.mark.parametrize("column", SCALE_FEATURES)
@pytest.mark.parametrize("config_id", ["SHC2", "SWRC4"])
def test_change_of_unit_changes_no_report(two_regime_seed7, config_id, column):
    def reports(dataset):
        got = cross_validate_methods(dataset, MODEL_CONFIGS[config_id], ["cpxr", "mlr"],
                                     repetitions=1, k=3, collect_predictions=True)
        return {method: _json(report) for method, report in got.items()}

    unscaled = reports(two_regime_seed7)
    for k in _UNIT_EXPONENTS:
        assert reports(_in_unit(two_regime_seed7, column, k)) == unscaled, k


def _linear_in_unit(doc, column, k):
    """Change a LinearModel dict's unit in place: the column's mean and
    scale times 2**k, its coefficient times 2**-k."""
    doc["coefficients"][column] = math.ldexp(doc["coefficients"][column], -k)
    for part in ("means", "scales"):
        doc["standardization"][part][column] = math.ldexp(doc["standardization"][part][column], k)


def _pxr_in_unit(doc, column, k):
    """A PxrModel dict after the change of unit: its linear models as in
    _linear_in_unit, the column's cuts and pattern bounds times 2**k."""
    doc = copy.deepcopy(doc)
    for linear in (doc["default_model"], doc["baseline"], *(p["model"] for p in doc["pairs"])):
        _linear_in_unit(linear, column, k)
    doc["scheme"][column] = [math.ldexp(cut, k) for cut in doc["scheme"][column]]
    for item in (item for pair in doc["pairs"] for item in pair["pattern"]):
        if item["feature"] == column:
            item.update((end, None if item[end] is None else math.ldexp(item[end], k))
                        for end in ("lo", "hi"))
    return doc


def _assert_models_rescale(dataset, config_id, column):
    def models(dataset):
        sel = select_columns(dataset, MODEL_CONFIGS[config_id])
        return fit_targets("cpxr", sel.X, list(sel.targets.values()), sel.feature_names,
                           CpxrConfig())

    unscaled = models(dataset)
    assert any(model.k for model in unscaled)
    for k in _UNIT_EXPONENTS:
        scaled = models(_in_unit(dataset, column, k))
        # JSON text, so a -0.0 for a 0.0 counts as a difference
        assert ([_json(m) for m in scaled]
                == [json.dumps(_pxr_in_unit(m.to_dict(), column, k), sort_keys=True)
                    for m in unscaled]), k
    return unscaled


@pytest.mark.parametrize("column", SCALE_FEATURES)
@pytest.mark.parametrize("config_id", ["SHC2", "SWRC4", "SWRC2"])
def test_change_of_unit_rescales_the_models_exactly(two_regime_seed7, config_id, column):
    _assert_models_rescale(two_regime_seed7, config_id, column)


def test_change_of_unit_rescales_cuts_and_pattern_bounds(clustered_length):
    # the seed-7 table cuts neither scale column; this one's patterns are on
    # length_cm
    (model,) = _assert_models_rescale(clustered_length, "SHC2", "length_cm")
    assert model.scheme.cuts["length_cm"]
    assert all(p.pattern.features == ("length_cm",) for p in model.pairs)
