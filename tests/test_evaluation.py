"""Metrics, rotating-pair cross-validation protocol, method comparison."""

import math

import numpy as np
import pytest

from soilptf.data import Dataset
from soilptf.evaluation import (
    ComparisonRow,
    ComparisonTable,
    EvaluationError,
    EvaluationReport,
    IterationRecord,
    MetricSet,
    compare,
    cross_validate,
    metrics,
)
from soilptf.hydrology import ModelConfig


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
    m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], r2_mode="determination")
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
    # constant observations: both modes undefined
    assert metrics([1.0, 2.0], [3.0, 3.0]).r2 is None
    assert metrics([1.0, 2.0], [3.0, 3.0], r2_mode="determination").r2 is None
    # constant predictions: correlation undefined, determination not
    assert metrics([3.0, 3.0], [1.0, 2.0]).r2 is None
    assert metrics([3.0, 3.0], [1.0, 2.0], r2_mode="determination").r2 is not None


def test_r2_modes_differ_under_bias():
    # a shifted perfect predictor keeps correlation 1 but loses determination
    o = [1.0, 2.0, 3.0, 4.0]
    p = [11.0, 12.0, 13.0, 14.0]
    assert metrics(p, o).r2 == pytest.approx(1.0)
    assert metrics(p, o, r2_mode="determination").r2 < 0


def test_metrics_validation():
    with pytest.raises(EvaluationError, match="at least 2"):
        metrics([1.0], [1.0])
    with pytest.raises(EvaluationError, match="shape"):
        metrics([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(EvaluationError, match="r2_mode"):
        metrics([1.0, 2.0], [1.0, 2.0], r2_mode="adjusted")


def test_metric_set_roundtrip():
    m = MetricSet(rmse=0.5, rmsle=None, r2=0.9)
    assert MetricSet.from_dict(m.to_dict()) == m


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
    assert report.iteration_count == 15
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
    assert report.iteration_count == 8
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


def test_parallel_jobs_identical():
    ds, cfg = _regime_dataset(n=60)
    a = cross_validate(ds, cfg, method="mlr", repetitions=3, seed=2, k=5)
    b = cross_validate(ds, cfg, method="mlr", repetitions=3, seed=2, k=5, jobs=2)
    assert a.to_json() == b.to_json()


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
    back = EvaluationReport.from_json(report.to_json())
    assert back.to_dict() == report.to_dict()


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


def test_table_text_and_csv():
    table = ComparisonTable(
        method_a="mlr", method_b="cpxr", split="test",
        rows=[ComparisonRow("theta_10", "rmse", 1.0, 0.75, 25.0)],
    )
    text = str(table)
    assert "change %" in text and "theta_10" in text
    csv = table.to_csv_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "target,metric,mlr,cpxr,pct_change"
    assert lines[1] == "theta_10,rmse,1.0,0.75,25.0"
