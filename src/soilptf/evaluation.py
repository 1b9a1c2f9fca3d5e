"""Evaluation protocol: error metrics and repeated cross-validation.

The default protocol is a rotating-pair split of k folds: split j tests
folds {j, (j+1) mod k} and trains on the remaining k-2, giving k
iterations per repetition and putting every sample in exactly two test
splits per repetition. Paired method comparisons reuse identical fold
assignments through a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import sys
from numbers import Real

import numpy as np

from .cpxr import CpxrConfig, CpxrError, train_cpxr_targets
from .cpxr import train_cpxr  # only benchmark/trace_child.py looks it up here
from .data import Dataset, SoilptfError, assign_folds, map_jobs, select_columns
from .hydrology import LOG_TARGETS, ModelConfig
from .linreg import fit_local_targets
from .linreg import fit_local  # only benchmark/trace_child.py looks it up here


class EvaluationError(SoilptfError):
    pass


MAX_REPETITIONS = 1000  # a hundred times the ten of the usual protocol


@dataclass(frozen=True)
class MetricSet:
    """RMSE plus (when defined) RMSLE and the squared Pearson correlation."""

    rmse: float
    rmsle: float | None = None
    r2: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "MetricSet":
        """Raises EvaluationError unless rmse is a finite number and rmsle
        and r2 are each null or a finite number."""
        metric_set = cls(**d)
        for name, v in vars(metric_set).items():
            if v is None and name != "rmse":
                continue
            # the bound also rejects NaN and integers past the float range
            if isinstance(v, bool) or not isinstance(v, Real) or not abs(v) <= sys.float_info.max:
                raise EvaluationError(f"{name} must be a finite number, got {v!r}")
        return metric_set


def metrics(predicted, observed, log_space: bool = False) -> MetricSet:
    """Error metrics over parallel prediction/observation vectors.

    log_space marks values that already live in natural-log space, where
    the plain RMSE doubles as the RMSLE. Otherwise the RMSLE is computed
    over the logs when every value is positive and omitted when not.
    R^2 is the squared correlation, None when either vector has no
    variance.
    """
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.shape != o.shape or p.ndim != 1:
        raise EvaluationError(f"shape mismatch: {p.shape} vs {o.shape}")
    if len(p) < 2:
        raise EvaluationError(f"need at least 2 values, got {len(p)}")
    rmse = float(np.sqrt(np.mean((p - o) ** 2)))
    if log_space:
        rmsle = rmse
    elif np.all(p > 0) and np.all(o > 0):
        rmsle = float(np.sqrt(np.mean((np.log(p) - np.log(o)) ** 2)))
    else:
        rmsle = None
    r2 = None
    sst = float(((o - o.mean()) ** 2).sum())
    vp = float(((p - p.mean()) ** 2).sum())
    if sst > 0 and vp > 0:
        cov = float(((p - p.mean()) * (o - o.mean())).sum())
        r2 = cov * cov / (vp * sst)
    return MetricSet(rmse=rmse, rmsle=rmsle, r2=r2)


@dataclass
class IterationRecord:
    """Metrics of one (repetition, split) iteration."""

    repetition: int
    split: int
    n_train: int
    n_test: int
    test_ids: list[str]
    degraded: bool
    train: dict[str, MetricSet]
    test: dict[str, MetricSet]
    predictions: list | None = None  # (id, target, observed, predicted) rows

    @classmethod
    def from_dict(cls, d: dict) -> "IterationRecord":
        return cls(**{
            **d,
            "train": {t: MetricSet.from_dict(m) for t, m in d["train"].items()},
            "test": {t: MetricSet.from_dict(m) for t, m in d["test"].items()},
        })


@dataclass
class EvaluationReport:
    """All per-iteration records of one method under one configuration."""

    config_id: str
    method: str
    seed: int
    repetitions: int
    k: int
    cv_scheme: str
    target_names: list[str]
    records: list[IterationRecord] = field(default_factory=list)

    def summary(self, split: str = "test") -> dict[str, MetricSet]:
        """Per-target metrics averaged over iterations; r2 and rmsle are
        averaged over the iterations where they are defined."""
        if split not in ("train", "test"):
            raise EvaluationError(f"split must be 'train' or 'test', got {split!r}")
        out = {}
        for t in self.target_names:
            sets = [getattr(rec, split)[t] for rec in self.records]
            rmse = float(np.mean([m.rmse for m in sets]))
            rmsles = [m.rmsle for m in sets if m.rmsle is not None]
            r2s = [m.r2 for m in sets if m.r2 is not None]
            out[t] = MetricSet(
                rmse=rmse,
                rmsle=float(np.mean(rmsles)) if rmsles else None,
                r2=float(np.mean(r2s)) if r2s else None,
            )
        return out

    def to_dict(self) -> dict:
        """The fields as plain data, records and metric sets as dicts.
        Lists (prediction rows among them) are shared, not copied."""
        return {
            **vars(self),
            "records": [
                {**vars(r), "train": _plain(r.train), "test": _plain(r.test)}
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationReport":
        """Inverse of to_dict. Raises TypeError for a key that is not a
        field, and EvaluationError for a report without records or with a
        record that lacks metrics of a target."""
        report = cls(**{**d, "records": [IterationRecord.from_dict(r) for r in d["records"]]})
        if not report.records:
            raise EvaluationError("report has no records")
        for rec in report.records:
            missing = [t for t in report.target_names if t not in rec.train or t not in rec.test]
            if missing:
                raise EvaluationError(
                    f"repetition {rec.repetition}, split {rec.split} lacks targets {missing}"
                )
        return report


def _plain(metric_sets: dict[str, MetricSet]) -> dict[str, dict]:
    return {t: vars(m).copy() for t, m in metric_sets.items()}


def _splits_for(k: int, scheme: str):
    if scheme == "paired":
        if k < 3:
            raise EvaluationError("rotating-pair validation needs at least 3 folds")
        return [(j, ((j, (j + 1) % k))) for j in range(k)]
    if scheme == "classic":
        return [(j, (j,)) for j in range(k)]
    raise EvaluationError(f"unknown cv scheme {scheme!r}")


def fit_targets(method, X, ys, names, config):
    """One model per target y of ys: cpxr trains all targets in one call
    and raises CpxrError where it cannot train; mlr fits each target's
    baseline regression."""
    if method == "cpxr":
        return train_cpxr_targets(X, ys, names, config=config)
    return fit_local_targets(X, ys, names)


def _fit_methods(methods, X, ys, names, cpxr_config):
    """({method: one model per target}, whether cpxr fell back) for one
    training split. The mlr models are the cpxr models' baselines, which
    are the same fits; where cpxr raises CpxrError, both methods take one
    mlr fit."""
    if "cpxr" not in methods:
        return {"mlr": fit_targets("mlr", X, ys, names, cpxr_config)}, False
    try:
        cpxr = fit_targets("cpxr", X, ys, names, cpxr_config)
    except CpxrError:  # every target falls back to the baseline regression
        mlr = fit_targets("mlr", X, ys, names, cpxr_config)
        return {"cpxr": mlr, "mlr": mlr}, True
    return {"cpxr": cpxr, "mlr": [model.baseline for model in cpxr]}, False


def _run_repetition(selection, k, scheme, seed, methods, cpxr_config, collect_predictions, rep):
    """{method: the records of repetition rep}, each split trained once for
    every method."""
    ids, X, names = selection.ids, selection.X, selection.feature_names
    fold = assign_folds(len(ids), k, seed ^ rep)
    records = {method: [] for method in methods}
    for split_id, test_folds in _splits_for(k, scheme):
        in_test = np.isin(fold, test_folds)
        test_idx = np.flatnonzero(in_test)
        train_idx = np.flatnonzero(~in_test)
        test_ids = [ids[i] for i in test_idx]
        X_tr, X_te = X[train_idx], X[test_idx]
        ys = [y[train_idx] for y in selection.targets.values()]
        fitted, degraded = _fit_methods(methods, X_tr, ys, names, cpxr_config)
        for method in methods:
            train_metrics, test_metrics = {}, {}
            rows = [] if collect_predictions else None
            for (t, y), y_tr, model in zip(selection.targets.items(), ys, fitted[method]):
                y_te = y[test_idx]
                log_space = t in LOG_TARGETS
                pred_tr = model.predict_matrix(X_tr, names)
                pred_te = model.predict_matrix(X_te, names)
                train_metrics[t] = metrics(pred_tr, y_tr, log_space=log_space)
                test_metrics[t] = metrics(pred_te, y_te, log_space=log_space)
                if rows is not None:
                    rows.extend(
                        [test_ids[i], t, float(y_te[i]), float(pred_te[i])]
                        for i in range(len(test_ids))
                    )
            records[method].append(
                IterationRecord(
                    repetition=rep,
                    split=split_id,
                    n_train=len(train_idx),
                    n_test=len(test_idx),
                    test_ids=list(test_ids),
                    degraded=degraded and method == "cpxr",
                    train=train_metrics,
                    test=test_metrics,
                    predictions=rows,
                )
            )
    return records


def cross_validate_methods(
    dataset: Dataset,
    config: ModelConfig,
    methods,
    repetitions: int = 10,
    seed: int = 0,
    k: int = 10,
    cv_scheme: str = "paired",
    cpxr_config: CpxrConfig = CpxrConfig(),
    jobs: int = 1,
    collect_predictions: bool = False,
) -> dict[str, EvaluationReport]:
    """Repeated k-fold cross-validation of several methods on one
    configuration, in one pass: {method: its report}, in the order given.

    Repetition r draws folds with seed XOR r, so runs sharing a seed share
    fold assignments across methods. Each training split is fitted once for
    all methods: the mlr models are the cpxr models' baseline regressions.
    Iterations whose training set cannot support the pattern trainer fall
    back to the baseline regression and are flagged degraded in the cpxr
    report rather than failing.
    """
    if not 1 <= repetitions <= MAX_REPETITIONS:
        raise EvaluationError(f"repetitions must be from 1 to {MAX_REPETITIONS}, got {repetitions}")
    if jobs < 1:
        raise EvaluationError(f"jobs must be positive, got {jobs}")
    methods = list(methods)
    if not methods:
        raise EvaluationError("no methods given")
    for method in methods:
        if method not in ("mlr", "cpxr"):
            raise EvaluationError(f"unknown method {method!r}; expected 'mlr' or 'cpxr'")
    if len(set(methods)) != len(methods):
        raise EvaluationError(f"a method is named twice: {methods}")
    selection = select_columns(dataset, config)
    # validate early, k against the sample count before k splits are listed
    assign_folds(len(selection.ids), k, seed)
    _splits_for(k, cv_scheme)
    run = partial(
        _run_repetition, selection, k, cv_scheme, seed, methods, cpxr_config, collect_predictions
    )
    chunks = map_jobs(run, range(repetitions), jobs)
    return {
        method: EvaluationReport(
            config_id=config.id,
            method=method,
            seed=seed,
            repetitions=repetitions,
            k=k,
            cv_scheme=cv_scheme,
            target_names=list(selection.targets),
            records=[rec for chunk in chunks for rec in chunk[method]],
        )
        for method in methods
    }


def cross_validate(dataset: Dataset, config: ModelConfig, method: str = "mlr",
                   **options) -> EvaluationReport:
    """Repeated k-fold cross-validation of one method on one configuration:
    the one-method call of cross_validate_methods, which takes the options."""
    return cross_validate_methods(dataset, config, [method], **options)[method]


@dataclass
class ComparisonRow:
    target: str
    metric: str
    value_a: float
    value_b: float
    pct_change: float  # positive: b improves on a


@dataclass
class ComparisonTable:
    method_a: str
    method_b: str
    split: str
    rows: list[ComparisonRow]

    def __str__(self) -> str:
        head = f"{'target':<12} {'metric':<6} {self.method_a:>12} {self.method_b:>12} {'change %':>9}"
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(
                f"{r.target:<12} {r.metric:<6} {r.value_a:>12.4f} {r.value_b:>12.4f} {r.pct_change:>8.1f}%"
            )
        return "\n".join(lines)


def compare(report_a: EvaluationReport, report_b: EvaluationReport, split: str = "test") -> ComparisonTable:
    """Per-target relative change of report_b versus report_a.

    Positive percentages mean report_b's method lowered the error. The two
    reports must cover the same configuration and targets; pair them from
    runs sharing a seed to keep fold assignments identical.
    """
    if report_a.config_id != report_b.config_id:
        raise EvaluationError(
            f"config mismatch: {report_a.config_id!r} vs {report_b.config_id!r}"
        )
    if report_a.target_names != report_b.target_names:
        raise EvaluationError("target mismatch between reports")
    sum_a = report_a.summary(split)
    sum_b = report_b.summary(split)
    rows = []
    for t in report_a.target_names:
        use_log = t in LOG_TARGETS
        metric = "rmsle" if use_log else "rmse"
        a = sum_a[t].rmsle if use_log else sum_a[t].rmse
        b = sum_b[t].rmsle if use_log else sum_b[t].rmse
        if a is None or b is None:
            continue
        pct = 0.0 if a == 0 else 100.0 * (a - b) / a
        rows.append(ComparisonRow(target=t, metric=metric, value_a=a, value_b=b, pct_change=pct))
    return ComparisonTable(
        method_a=report_a.method, method_b=report_b.method, split=split, rows=rows
    )
