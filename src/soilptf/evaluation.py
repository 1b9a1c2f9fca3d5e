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

import numpy as np

from .cpxr import CpxrConfig, CpxrError, TargetFit, _train_targets
from .cpxr import train_cpxr  # only benchmark/trace_child.py looks it up here
from .data import (BOOL, NON_NEGATIVE, STR, Dataset, Schema, SoilptfError, Value, assign_folds,
                   finite_number, integer, list_of, map_jobs, map_of, maybe, one_of, select_columns)
from .hydrology import LOG_TARGETS, ModelConfig
from .linreg import fit_local_targets
from .linreg import fit_local  # only benchmark/trace_child.py looks it up here


class EvaluationError(SoilptfError):
    pass


MAX_REPETITIONS = 1000  # a hundred times the ten of the usual protocol

# The forms of a report's parts. A record checks that n_test counts its
# test_ids, and a report that every record scores exactly its targets.
METRIC_SET = Schema({"rmse": NON_NEGATIVE, "rmsle": maybe(NON_NEGATIVE), "r2": maybe(NON_NEGATIVE)},
                    lambda **fields: MetricSet(**fields), EvaluationError)
PREDICTION = Value(lambda r: isinstance(r, list) and len(r) == 4 and isinstance(r[0], str)
                   and isinstance(r[1], str) and finite_number(r[2]) and finite_number(r[3]),
                   "a row [id, target, observed, predicted] of two strings and two finite numbers")
RECORD = Schema({
    "repetition": integer(0), "split": integer(0), "n_train": integer(0), "n_test": integer(0),
    "test_ids": list_of(STR), "degraded": BOOL, "train": map_of(METRIC_SET),
    "test": map_of(METRIC_SET), "predictions": maybe(list_of(PREDICTION)),
}, lambda **fields: IterationRecord(**fields), EvaluationError)
REPORT = Schema({
    "config_id": STR, "method": one_of("cpxr", "mlr"), "seed": integer(0),
    "repetitions": integer(1), "k": integer(2), "cv_scheme": one_of("paired", "classic"),
    "target_names": list_of(STR), "records": list_of(RECORD, least=1),
}, lambda **fields: EvaluationReport(**fields), EvaluationError)


@dataclass(frozen=True)
class MetricSet:
    """RMSE plus (when defined) RMSLE and the squared Pearson correlation."""

    rmse: float
    rmsle: float | None = None
    r2: float | None = None

    from_dict = METRIC_SET.load  # the inverse of vars; raises EvaluationError


def metrics(predicted, observed, log_space: bool = False) -> MetricSet:
    """Error metrics over parallel prediction/observation vectors: the
    one-row call of _metric_rows.

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
    (metric_set,) = _metric_rows(p[None], o[None], [log_space])
    return metric_set


def _metric_rows(P, O, log_space) -> list[MetricSet]:
    """metrics of each row pair of the (targets, rows) matrices P and O;
    log_space holds one flag per row. Every reduction runs along axis 1 of
    a C-contiguous matrix, which adds each row as the 1-D call adds the
    vector, so each MetricSet equals metrics of its row bit for bit."""
    P, O = np.ascontiguousarray(P, dtype=float), np.ascontiguousarray(O, dtype=float)
    rmse = np.sqrt(np.mean((P - O) ** 2, axis=1))
    logs = ~np.asarray(log_space, dtype=bool) & (P > 0).all(axis=1) & (O > 0).all(axis=1)
    rmsle = np.full(len(P), np.nan)
    rmsle[logs] = np.sqrt(np.mean((np.log(P[logs]) - np.log(O[logs])) ** 2, axis=1))
    dp = P - P.mean(axis=1, keepdims=True)
    do = O - O.mean(axis=1, keepdims=True)
    sst = (do**2).sum(axis=1)
    vp = (dp**2).sum(axis=1)
    cov = (dp * do).sum(axis=1)
    out = []
    for t, flag in enumerate(log_space):
        rmse_t = float(rmse[t])
        r2 = None
        if sst[t] > 0 and vp[t] > 0:
            r2 = float(cov[t]) * float(cov[t]) / (float(vp[t]) * float(sst[t]))
        rmsle_t = rmse_t if flag else float(rmsle[t]) if logs[t] else None
        out.append(MetricSet(rmse=rmse_t, rmsle=rmsle_t, r2=r2))
    return out


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

    def __post_init__(self):
        if self.n_test != len(self.test_ids):
            raise EvaluationError(f"n_test is {self.n_test}, but {len(self.test_ids)} test_ids")

    from_dict = RECORD.load  # the inverse of a to_dict record; raises EvaluationError


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

    def __post_init__(self):
        for rec in self.records:
            if not set(rec.train) == set(rec.test) == set(self.target_names):
                raise EvaluationError(f"repetition {rec.repetition}, split {rec.split} does not "
                                      f"score exactly the targets {self.target_names}")

    def summary(self, split: str = "test") -> dict[str, MetricSet]:
        """Per-target metrics averaged over iterations; r2 and rmsle are
        averaged over the iterations where they are defined. A mean past
        the float range is inf, without a warning."""
        if split not in ("train", "test"):
            raise EvaluationError(f"split must be 'train' or 'test', got {split!r}")
        out = {}
        for t in self.target_names:
            sets = [getattr(rec, split)[t] for rec in self.records]
            rmsles = [m.rmsle for m in sets if m.rmsle is not None]
            r2s = [m.r2 for m in sets if m.r2 is not None]
            with np.errstate(over="ignore"):
                out[t] = MetricSet(
                    rmse=float(np.mean([m.rmse for m in sets])),
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

    from_dict = REPORT.load  # the inverse of to_dict; raises EvaluationError


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


def fit_targets(method, X, ys, names, config) -> list[TargetFit]:
    """One TargetFit per target y of ys: cpxr trains all targets in one
    call and raises CpxrError where it cannot train; mlr fits each
    target's baseline regression."""
    if method == "cpxr":
        return _train_targets(X, ys, names, config)[0]
    return [TargetFit(model, model.predict_matrix(X, names))
            for model in fit_local_targets(X, ys, names)]


def _fit_methods(methods, X, ys, names, cpxr_config):
    """({method: one TargetFit per target}, whether cpxr fell back) for one
    training split. The mlr models are the cpxr models' baselines, which
    are the same fits, with the baseline predictions cpxr trained from;
    where cpxr raises CpxrError, both methods take one mlr fit."""
    if "cpxr" not in methods:
        return {"mlr": fit_targets("mlr", X, ys, names, cpxr_config)}, False
    try:
        cpxr, base_preds = _train_targets(X, ys, names, cpxr_config)
    except CpxrError:  # every target falls back to the baseline regression
        mlr = fit_targets("mlr", X, ys, names, cpxr_config)
        return {"cpxr": mlr, "mlr": mlr}, True
    mlr = [TargetFit(fit.model.baseline, pred) for fit, pred in zip(cpxr, base_preds)]
    return {"cpxr": cpxr, "mlr": mlr}, False


def _run_repetition(selection, k, scheme, seed, methods, cpxr_config, collect_predictions, rep):
    """{method: the records of repetition rep}, each split trained once for
    every method."""
    fold = assign_folds(len(selection.ids), k, seed ^ rep)
    splits = [_run_split(selection, np.isin(fold, test_folds), methods, cpxr_config,
                         collect_predictions, rep, split_id)
              for split_id, test_folds in _splits_for(k, scheme)]
    return {method: [split[method] for split in splits] for method in methods}


def _run_split(selection, in_test, methods, cpxr_config, collect_predictions, rep, split_id):
    """{method: the IterationRecord of one split}. The training metrics score
    the predictions training returned; each method's targets are scored
    together, as (targets, rows) matrices. The split's arrays go with the
    call, so none is held while the next split trains."""
    ids, X, names = selection.ids, selection.X, selection.feature_names
    targets = list(selection.targets)
    log_space = [t in LOG_TARGETS for t in targets]
    test_idx = np.flatnonzero(in_test)
    train_idx = np.flatnonzero(~in_test)
    test_ids = [ids[i] for i in test_idx]
    X_tr, X_te = X[train_idx], X[test_idx]
    ys = [y[train_idx] for y in selection.targets.values()]
    O_tr = np.array(ys)
    O_te = np.array([y[test_idx] for y in selection.targets.values()])
    fitted, degraded = _fit_methods(methods, X_tr, ys, names, cpxr_config)
    records, scored = {}, {}
    for method in methods:
        fits = fitted[method]
        if id(fits) not in scored:  # a degraded split gives both methods one fit list
            P_te = np.array([fit.model.predict_matrix(X_te, names) for fit in fits])
            rows = None
            if collect_predictions:
                rows = [[test_ids[i], t, float(o[i]), float(p[i])]
                        for t, o, p in zip(targets, O_te, P_te) for i in range(len(test_ids))]
            scored[id(fits)] = (
                _metric_rows(np.array([fit.train_pred for fit in fits]), O_tr, log_space),
                _metric_rows(P_te, O_te, log_space), rows)
        train, test, rows = scored[id(fits)]
        records[method] = IterationRecord(
            repetition=rep,
            split=split_id,
            n_train=len(train_idx),
            n_test=len(test_idx),
            test_ids=list(test_ids),
            degraded=degraded and method == "cpxr",
            train=dict(zip(targets, train)),
            test=dict(zip(targets, test)),
            predictions=rows,
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
    reports must cover the same configuration and targets over the same
    splits: the same cv_scheme, seed, k and repetitions, and records of the
    same (repetition, split, test_ids) in the same order. Raises
    EvaluationError naming the first difference.
    """
    if report_a.config_id != report_b.config_id:
        raise EvaluationError(
            f"config mismatch: {report_a.config_id!r} vs {report_b.config_id!r}"
        )
    if report_a.target_names != report_b.target_names:
        raise EvaluationError("target mismatch between reports")
    for name in ("cv_scheme", "seed", "k", "repetitions"):
        a, b = getattr(report_a, name), getattr(report_b, name)
        if a != b:
            raise EvaluationError(f"unpaired reports: {name} {a!r} vs {b!r}")
    if len(report_a.records) != len(report_b.records):
        raise EvaluationError(f"unpaired reports: {len(report_a.records)} vs "
                              f"{len(report_b.records)} records")
    for i, (rec_a, rec_b) in enumerate(zip(report_a.records, report_b.records)):
        for name in ("repetition", "split", "test_ids"):
            if getattr(rec_a, name) != getattr(rec_b, name):
                raise EvaluationError(f"unpaired reports: record {i} differs in {name}")
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
        if not all(map(finite_number, (a, b, pct))):
            raise EvaluationError(f"{t} {metric}: the means {a!r} and {b!r} or their change "
                                  f"({pct!r} %) is not finite")
        rows.append(ComparisonRow(target=t, metric=metric, value_a=a, value_b=b, pct_change=pct))
    return ComparisonTable(
        method_a=report_a.method, method_b=report_b.method, split=split, rows=rows
    )
