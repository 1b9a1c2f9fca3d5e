"""Contrast-pattern aided regression.

Training: fit a baseline multiple linear regression, split the samples
into large-error and small-error classes at a cumulative-error fraction,
mine contrast patterns of the large-error class over MDL-discretized
features, fit a local linear model on each pattern's matching samples,
then pick a small pattern set by greedy forward selection plus swap
passes. All targets of one table train together, in three stages: each
target's baseline and error split, one discretization pass (one sort of
the shared design matrix and one level loop) over every target's
large-error labeling, then each target's patterns over its scheme.
Prediction for a sample matching patterns p_i is the weighted mean
sum(w_i * f_i(x)) / sum(w_i); a sample matching none uses the default
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import math
import sys
from numbers import Integral, Real

import numpy as np

from .data import SoilptfError
from .discretize import MAX_DEPTH, DiscretizationScheme, build_schemes
from .discretize import build_scheme  # only benchmark/trace_child.py looks it up here
from .linreg import LinearModel, _model, _solve, _standardize, fit_local_targets, one_row
from .linreg import fit_local  # only benchmark/trace_child.py looks it up here
from .patterns import (
    Pattern,
    _mine_masks,
    filter_similar_masks,
    pattern_mask,
)


class CpxrError(SoilptfError):
    pass


@dataclass(frozen=True)
class CpxrConfig:
    """Hyperparameters of the trainer; defaults follow the package-wide
    documented values."""

    rho: float = 0.45              # cumulative |residual| fraction forming the LE class
    min_support_le: float = 0.02   # minimum LE support of a mined pattern
    min_count_le: int = 2          # absolute LE match floor
    min_growth: float = 2.0
    max_len: int = 4               # items per pattern
    jaccard_max: float = 0.9       # similarity filter threshold
    min_reduction: float = 0.05    # required local error reduction vs baseline
    max_k: int = 7                 # patterns kept in the final model
    max_passes: int = 20           # swap-pass limit
    max_depth: int = MAX_DEPTH     # number of MDL splitting levels
    weight_floor: float = 1e-6
    min_train: int = 30

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            kind, what = (Integral, "an integer") if f.type == "int" else (Real, "a finite number")
            # the bound also rejects NaN and integers past the float range
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not abs(value) <= sys.float_info.max):
                raise CpxrError(f"{name} must be {what}, got {value!r}")
        for name, ok, valid in (
            ("rho", 0 < self.rho < 1, "in (0, 1)"),
            ("min_support_le", 0 < self.min_support_le <= 1, "in (0, 1]"),
            ("min_count_le", self.min_count_le >= 1, "at least 1"),
            ("min_growth", self.min_growth > 0, "positive"),
            ("max_len", self.max_len >= 1, "positive"),
            ("jaccard_max", 0 <= self.jaccard_max <= 1, "in [0, 1]"),
            ("max_k", self.max_k >= 1, "positive"),
            ("max_passes", self.max_passes >= 1, "positive"),
            ("max_depth", self.max_depth >= 0, "non-negative"),
            ("weight_floor", self.weight_floor > 0, "positive"),
            ("min_train", self.min_train >= 2, "at least 2"),
        ):
            if not ok:
                raise CpxrError(f"{name} must be {valid}, got {getattr(self, name)}")

    @classmethod
    def from_mapping(cls, overrides: dict) -> "CpxrConfig":
        unknown = set(overrides) - set(cls.__dataclass_fields__)
        if unknown:
            raise CpxrError(f"unknown hyperparameters: {sorted(unknown)}")
        return replace(cls(), **overrides)


@dataclass(frozen=True)
class ErrorSplit:
    """Large-error / small-error partition of row indices."""

    le_ids: np.ndarray
    se_ids: np.ndarray
    total_abs_error: float
    cum_fraction: float


def split_le_se(residuals, rho: float = CpxrConfig.rho) -> ErrorSplit:
    """Partition row indices by descending |residual| at cumulative fraction rho.

    The large-error class is the minimal prefix of the sorted rows whose
    cumulative absolute residual reaches rho of the total; ties on
    |residual| put the larger row index last. All-zero residuals give an
    empty large-error class.
    """
    if not 0 < rho < 1:
        raise CpxrError(f"rho must be in (0, 1), got {rho}")
    a = np.abs(np.asarray(residuals, dtype=float))
    order = np.argsort(-a, kind="stable")
    # exclusive prefix sums, added in sorted order; the total is the last
    # one (np.sum adds pairwise and may differ in the last bits)
    cum = np.concatenate(([0.0], np.cumsum(a[order])))
    total = float(cum[-1])
    if total == 0.0:
        return ErrorSplit(le_ids=order[:0], se_ids=order, total_abs_error=0.0, cum_fraction=0.0)
    m = int(np.searchsorted(cum, rho * total, side="left"))
    return ErrorSplit(
        le_ids=order[:m],
        se_ids=order[m:],
        total_abs_error=total,
        cum_fraction=float(cum[m]) / total,
    )


def local_weight(baseline_abs_error: float, local_abs_error: float,
                 floor: float = CpxrConfig.weight_floor) -> float:
    """Weight of a local model: its relative error reduction on the
    pattern's matching samples, floored at a small positive value."""
    if baseline_abs_error < 0 or local_abs_error < 0:
        raise CpxrError("absolute errors cannot be negative")
    if baseline_abs_error == 0.0:
        return floor
    return max(floor, (baseline_abs_error - local_abs_error) / baseline_abs_error)


@dataclass
class PatternLocal:
    """One (pattern, local model, weight) entry of a fitted model."""

    pattern: Pattern
    model: LinearModel
    weight: float

    def __post_init__(self):
        if isinstance(self.weight, bool) or not (self.weight > 0 and math.isfinite(self.weight)):
            raise CpxrError(f"pattern weight must be a positive finite number, got {self.weight!r}")


@dataclass
class PxrModel:
    """Pattern-aided regression model: local models behind contrast
    patterns plus a default model for unmatched samples."""

    pairs: list[PatternLocal]
    default_model: LinearModel
    baseline: LinearModel
    scheme: DiscretizationScheme
    feature_names: list[str]
    train_rmse: float = float("nan")
    baseline_rmse: float = float("nan")
    trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len({p.pattern for p in self.pairs}) != len(self.pairs):
            raise CpxrError("duplicate patterns in model")
        unknown = {f for p in self.pairs for f in p.pattern.features} - set(self.feature_names)
        if unknown:
            raise CpxrError(f"patterns name features the model lacks: {sorted(unknown)}")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def predict(self, x) -> float:
        """Prediction for one sample mapping: a one-row predict_matrix."""
        return float(self.predict_matrix(one_row(x, self.feature_names), self.feature_names)[0])

    def predict_matrix(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Weighted mean of the local models whose patterns match each row;
        rows matching none get the default model."""
        X = np.asarray(X, dtype=float)
        default = self.default_model.predict_matrix(X, feature_names)
        num = np.zeros(len(X))
        den = np.zeros(len(X))
        for pair in self.pairs:
            m = pattern_mask(pair.pattern, X, feature_names)
            num += pair.weight * m * pair.model.predict_matrix(X, feature_names)
            den += pair.weight * m
        return _blend(num, den, default)

    def to_dict(self) -> dict:
        return {
            "kind": "pxr",
            "feature_names": list(self.feature_names),
            "pairs": [
                {
                    "pattern": p.pattern.to_dict(),
                    "model": p.model.to_dict(),
                    "weight": p.weight,
                }
                for p in self.pairs
            ],
            "default_model": self.default_model.to_dict(),
            "baseline": self.baseline.to_dict(),
            "scheme": self.scheme.to_dict(),
            "train_rmse": self.train_rmse,
            "baseline_rmse": self.baseline_rmse,
            "trace": list(self.trace),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PxrModel":
        return cls(
            pairs=[
                PatternLocal(
                    pattern=Pattern.from_dict(p["pattern"]),
                    model=LinearModel.from_dict(p["model"]),
                    weight=p["weight"],
                )
                for p in d["pairs"]
            ],
            default_model=LinearModel.from_dict(d["default_model"]),
            baseline=LinearModel.from_dict(d["baseline"]),
            scheme=DiscretizationScheme.from_dict(d["scheme"]),
            feature_names=list(d["feature_names"]),
            train_rmse=d["train_rmse"],
            baseline_rmse=d["baseline_rmse"],
            trace=list(d["trace"]),
        )


def _blend(num, den, default):
    """The weighted-mean rule: num / den on rows some pattern matches
    (den > 0), the default prediction elsewhere. Works row-wise on stacked
    (num, den) pairs too."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), default)


def _optimize(w, wp, y, default_pred, config: CpxrConfig):
    """Greedy forward selection then swap passes on total absolute error.

    The candidates are the rows of a table: w[i] is candidate i's weight
    on the rows its pattern matches (0 elsewhere) and wp[i] is w[i] times
    its local model's predictions. Returns (chosen row indices, objective
    trace); the trace is strictly decreasing by construction.
    """
    chosen: list[int] = []
    err = float(np.abs(y - default_pred).sum())
    trace = [err]

    def batch_errors(base_idx, pool):
        num = np.zeros(len(y))
        den = np.zeros(len(y))
        for i in base_idx:
            num += wp[i]
            den += w[i]
        return np.abs(y - _blend(num + wp[pool], den + w[pool], default_pred)).sum(axis=1)

    while len(chosen) < config.max_k:
        pool = [i for i in range(len(w)) if i not in chosen]
        if not pool:
            break
        errs = batch_errors(chosen, pool)
        best = int(np.argmin(errs))
        if errs[best] < err:
            chosen.append(pool[best])
            err = float(errs[best])
            trace.append(err)
        else:
            break

    for _ in range(config.max_passes):
        swapped = False
        for pos in range(len(chosen)):
            others = chosen[:pos] + chosen[pos + 1 :]
            pool = [i for i in range(len(w)) if i not in chosen]
            if not pool:
                break
            errs = batch_errors(others, pool)
            best = int(np.argmin(errs))
            if errs[best] < err:
                chosen[pos] = pool[best]
                err = float(errs[best])
                trace.append(err)
                swapped = True
        if not swapped:
            break

    for a, b in zip(trace, trace[1:]):
        if not b < a:
            raise CpxrError(f"optimizer accepted a non-improving move: {a} -> {b}")
    return chosen, trace


def train_cpxr_targets(
    X, ys, feature_names, config: CpxrConfig = CpxrConfig()
) -> list[PxrModel]:
    """Fit one pattern-aided regression model per target vector of ys on a
    shared design matrix: _error_split per target, one build_schemes call
    over the non-empty large-error labelings, then _fit_patterns per
    target. Raises CpxrError below config.min_train rows.

    No model predicts its training data worse (in RMSE) than the baseline
    regression: if the optimized pattern set loses to the baseline after
    the default-model refit, the empty set is returned.
    """
    X = np.asarray(X, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    names = list(feature_names)
    n, _ = X.shape
    if n < config.min_train:
        raise CpxrError(f"need at least {config.min_train} training rows, got {n}")
    baselines = fit_local_targets(X, ys, names)
    starts = [_error_split(X, y, baseline, names, config) for y, baseline in zip(ys, baselines)]
    schemes = [DiscretizationScheme() for _ in ys]
    le_targets = [t for t, start in enumerate(starts) if start[-1].any()]
    if le_targets:
        labels = np.column_stack([starts[t][-1].astype(int) for t in le_targets])
        shared = build_schemes(X, labels, names, max_depth=config.max_depth)
        for t, scheme in zip(le_targets, shared):
            schemes[t] = scheme
    designs = {}  # the targets mine many of the same row sets: one _standardize per set
    return [
        _fit_patterns(X, y, names, config, start, scheme, designs)
        for y, start, scheme in zip(ys, starts, schemes)
    ]


def train_cpxr(X, y, feature_names, config: CpxrConfig = CpxrConfig()) -> PxrModel:
    """Fit a pattern-aided regression model on a design matrix: the
    one-target call of train_cpxr_targets."""
    (model,) = train_cpxr_targets(X, [y], feature_names, config)
    return model


def _error_split(X, y, baseline: LinearModel, names, config: CpxrConfig):
    """Stage 1 of one target: (baseline, its training predictions, their
    residuals, their RMSE, the large-error row mask)."""
    base_pred = baseline.predict_matrix(X, names)
    r0 = y - base_pred
    baseline_rmse = float(np.sqrt(np.mean(r0**2)))
    le_rows = np.zeros(len(X), dtype=bool)
    le_rows[split_le_se(r0, config.rho).le_ids] = True
    return baseline, base_pred, r0, baseline_rmse, le_rows


def _local_fit(X, y, mask, names, designs):
    """(intercept, coefficients, means, scales) of the least-squares fit of
    y on X over the rows of a boolean mask; designs maps a mask's bytes to
    its _standardize result, which it is filled from and shared through."""
    key = mask.tobytes()
    design = designs.get(key)
    if design is None:
        design = designs[key] = _standardize(X[mask], names)
    A, means, scales = design
    return (*_solve(A, y[mask], means, scales), means, scales)


def _fit_patterns(X, y, names, config: CpxrConfig, start, scheme: DiscretizationScheme, designs):
    """Stage 3 of one target (start is its _error_split): mine, fit and
    select patterns over scheme; baseline-only where a step leaves none.
    The local fits go through _local_fit with designs; a LinearModel is
    built only for the chosen patterns and the default model."""
    baseline, base_pred, r0, baseline_rmse, le_rows = start
    n, p = X.shape

    def baseline_only(err_trace):
        return PxrModel(
            pairs=[], default_model=baseline, baseline=baseline, scheme=scheme,
            feature_names=names, train_rmse=baseline_rmse, baseline_rmse=baseline_rmse,
            trace=err_trace,
        )

    base_err = float(np.abs(r0).sum())
    items = scheme.alphabet()
    if not items:
        return baseline_only([base_err])
    col = {name: j for j, name in enumerate(names)}
    item_masks = np.array([it.covers_array(X[:, col[it.feature]]) for it in items])
    mined = _mine_masks(
        items,
        item_masks[:, le_rows],
        item_masks[:, ~le_rows],
        config.min_support_le,
        config.min_growth,
        config.max_len,
        config.min_count_le,
    )
    if not mined:
        return baseline_only([base_err])

    # each pattern's item rows, padded with an all-true row, ANDed in one gather
    table = np.full((len(mined), max(len(js) for js, _, _ in mined)), len(items))
    for r, (js, _, _) in enumerate(mined):
        table[r, : len(js)] = js
    full_masks = np.vstack([item_masks, np.ones((1, n), dtype=bool)])[table].all(axis=1)
    kept = filter_similar_masks(full_masks, config.jaccard_max)

    min_rows = max(p + 2, 10)
    # the candidate table: one row per candidate, see _optimize
    candidates = []  # (mined row, local fit, weight)
    w_rows, wp_rows = [], []
    for i in kept:
        mask = full_masks[i]
        if int(mask.sum()) < min_rows:
            continue
        e0 = float(np.abs(r0[mask]).sum())
        if e0 <= 0.0:
            continue
        local = _local_fit(X, y, mask, names, designs)
        local_pred = X @ local[1] + local[0]
        ei = float(np.abs(y[mask] - local_pred[mask]).sum())
        if (e0 - ei) / e0 < config.min_reduction:
            continue
        weight = local_weight(e0, ei, config.weight_floor)
        candidates.append((i, local, weight))
        w_rows.append(weight * mask)
        wp_rows.append(weight * mask * local_pred)
    if not candidates:
        return baseline_only([base_err])

    w, wp = np.array(w_rows), np.array(wp_rows)
    chosen, trace = _optimize(w, wp, y, base_pred, config)
    if not chosen:
        return baseline_only(trace)

    default = baseline
    unmatched = ~(w[chosen] > 0).any(axis=0)
    if int(unmatched.sum()) >= min_rows:
        default = _model(names, int(unmatched.sum()), *_local_fit(X, y, unmatched, names, designs))
    # the training prediction is PxrModel.predict_matrix's sum, taken from the
    # candidate table: the same rows added in the same order
    num, den = np.zeros(n), np.zeros(n)
    for i in chosen:
        num += wp[i]
        den += w[i]
    pred = _blend(num, den, default.predict_matrix(X, names))
    train_rmse = float(np.sqrt(np.mean((y - pred) ** 2)))
    if train_rmse > baseline_rmse:
        return baseline_only(trace)
    pairs = [PatternLocal(Pattern(tuple(items[j] for j in mined[i][0])),
                          _model(names, int(full_masks[i].sum()), *local), weight)
             for i, local, weight in (candidates[c] for c in chosen)]
    return PxrModel(
        pairs=pairs, default_model=default, baseline=baseline,
        scheme=scheme, feature_names=names, train_rmse=train_rmse,
        baseline_rmse=baseline_rmse, trace=trace,
    )
