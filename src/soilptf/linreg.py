"""Ordinary least squares with a ridge fallback for degenerate systems.

Features are standardized to zero mean and unit variance before solving;
the returned coefficients are mapped back to the original feature space,
so prediction is plain intercept + sum(coef * x). The ridge penalty is
applied in standardized space and never touches the intercept.
"""

from __future__ import annotations

from dataclasses import dataclass

import sys

import numpy as np

from .data import SoilptfError


class FitError(SoilptfError):
    pass


@dataclass
class LinearModel:
    """A fitted linear predictor in original feature units."""

    intercept: float
    coefficients: dict[str, float]
    training_count: int
    feature_means: dict[str, float]
    feature_scales: dict[str, float]

    def __post_init__(self):
        _check_coefficients([self.intercept, *self.coefficients.values()])

    @property
    def feature_names(self) -> list[str]:
        return list(self.coefficients)

    def predict(self, x) -> float:
        """Prediction for one sample mapping: a one-row predict_matrix."""
        return float(self.predict_matrix(one_row(x, self.feature_names), self.feature_names)[0])

    def predict_matrix(self, X: np.ndarray, feature_names) -> np.ndarray:
        """intercept + X @ beta, with beta taken in the caller's column order.

        The column names must be the model's features, each once, in any
        order.
        """
        names = list(feature_names)
        if len(names) != len(self.coefficients) or set(names) != set(self.coefficients):
            raise FitError(
                f"feature mismatch: model has {self.feature_names}, got {names}"
            )
        beta = np.array([self.coefficients[c] for c in names])
        return X @ beta + self.intercept

    def to_dict(self) -> dict:
        """Plain-data form; feature_names keeps the training column order,
        which JSON written with sorted keys loses from the dicts."""
        return {
            "intercept": self.intercept,
            "feature_names": self.feature_names,
            "coefficients": dict(self.coefficients),
            "training_count": self.training_count,
            "standardization": {
                "means": dict(self.feature_means),
                "scales": dict(self.feature_scales),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        """Inverse of to_dict. Raises FitError for a dict without
        feature_names (the form of earlier versions), one whose
        feature_names are not the coefficient names, each once, or one
        whose training_count or standardization no fit gives."""
        if "feature_names" not in d:
            raise FitError("no feature_names: a model of an earlier version; retrain it")
        names, coefs = d["feature_names"], d["coefficients"]
        if not isinstance(names, list) or len(set(names)) != len(names) or set(names) != set(coefs):
            raise FitError(f"feature_names {names!r} are not the coefficient names, each once")
        std = d["standardization"]
        count = d["training_count"]
        means = {c: std["means"][c] for c in names}
        scales = {c: std["scales"][c] for c in names}
        # a fit takes at least 2 rows, and gives finite means and positive
        # scales; the type tests also reject a bool
        if type(count) is not int or count < 2:
            raise FitError(f"training_count must be an integer of at least 2, got {count!r}")
        for c in names:
            if type(means[c]) not in (int, float) or not abs(means[c]) <= sys.float_info.max:
                raise FitError(f"mean of {c!r} is not a finite number: {means[c]!r}")
            if type(scales[c]) not in (int, float) or not 0 < scales[c] <= sys.float_info.max:
                raise FitError(f"scale of {c!r} is not a finite positive number: {scales[c]!r}")
        return cls(
            intercept=d["intercept"],
            coefficients={c: coefs[c] for c in names},
            training_count=count,
            feature_means=means,
            feature_scales=scales,
        )


def fit_local(X, y, feature_names) -> LinearModel:
    """Least-squares fit of y on X plus an intercept: the one-target call
    of fit_local_targets."""
    (model,) = fit_local_targets(X, [y], feature_names)
    return model


def fit_local_targets(X, ys, feature_names) -> list[LinearModel]:
    """Least-squares fit of each target vector of ys on X plus an intercept.

    X is checked and standardized once (_standardize), then each target is
    one _solve: a target's model is bit for bit the one a fit of that target
    alone gives. A system with fewer rows than coefficients, or one whose
    lstsq rank falls short of the coefficient count, is solved again with
    the ridge penalty 1e-8 * trace(Xs'Xs) / p taken from the standardized
    columns Xs (1e-8 when every column is constant). A column whose values
    are all equal takes its value as mean and 1 as scale, so it
    standardizes to exact zeros. A column whose mean or standard deviation
    overflows, or whose standard deviation underflows to 0, raises FitError.
    """
    X = np.asarray(X, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    if X.ndim != 2:
        raise FitError(f"X must be 2-d, got shape {X.shape}")
    for y in ys:
        if y.shape != (X.shape[0],):
            raise FitError(f"X has {X.shape[0]} rows but y has shape {y.shape}")
    if not np.isfinite(X).all() or not all(np.isfinite(y).all() for y in ys):
        raise FitError("X or y contains NaN or infinity")
    n, p = X.shape
    if n < 2:
        raise FitError(f"need at least 2 rows to fit, got {n}")
    names = list(feature_names)
    if len(names) != p:
        raise FitError(f"{len(names)} feature names for {p} columns")
    A, means, scales = _standardize(X, names)
    return [_model(names, n, *_solve(A, y, means, scales), means, scales) for y in ys]


def _standardize(X, names):
    """(A, means, scales) for a finite (n, p) float matrix X with n >= 2:
    the design matrix [1, Xs] of the standardized columns Xs, and the
    column means and scales.

    The means and scales are X.mean(axis=0) and X.std(axis=0), computed as
    numpy computes them from one centred copy of X, and A is written in
    place. Raises FitError naming the first column whose mean or standard
    deviation overflows, else the first whose standard deviation underflows
    to 0 although its values differ.
    """
    n, p = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        # the operations of X.mean(axis=0) and X.std(axis=0)
        means = X.sum(axis=0) / n
        d = X - means
        scales = np.sqrt((d * d).sum(axis=0) / n)
    const = X.min(axis=0) == X.max(axis=0)  # standardizes to exact zeros, whatever its mean
    if const.any():
        means[const], scales[const] = X[0, const], 1.0
    bad = ~(np.isfinite(means) & np.isfinite(scales))
    if bad.any():
        raise FitError(f"column {names[int(np.argmax(bad))]!r} is too large to standardize")
    flat = scales == 0.0  # values that differ, but whose squared deviations underflow
    if flat.any():
        raise FitError(f"column {names[int(np.argmax(flat))]!r} varies too little to standardize")
    A = np.empty((n, p + 1))
    A[:, 0] = 1.0
    Xs = np.subtract(X, means, out=A[:, 1:])
    Xs /= scales
    return A, means, scales


def _solve(A, y, means, scales):
    """(intercept, coefficients) in original units of the least-squares fit
    of y on a _standardize design: one lstsq, then the ridge fallback where
    the system is underdetermined or rank-deficient. Raises FitError
    (_check_coefficients) where a value is not finite."""
    n, p = A.shape[0], A.shape[1] - 1
    rank = 0
    if n > p:
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank <= p:
        Xs = A[:, 1:]
        t = float((Xs * Xs).sum())
        ridge = 1e-8 * (t / max(1, p) if t > 0.0 else 1.0)
        pen = np.hstack([np.zeros((p, 1)), np.sqrt(ridge) * np.eye(p)])
        beta = np.linalg.lstsq(
            np.vstack([A, pen]), np.concatenate([y, np.zeros(p)]), rcond=None
        )[0]

    coef = beta[1:] / scales
    intercept = float(beta[0] - (beta[1:] * means / scales).sum())
    _check_coefficients([intercept, *coef.tolist()])
    return intercept, coef


def _check_coefficients(values) -> None:
    """Raise FitError unless each of a model's intercept and coefficients
    is a finite number, and no bool."""
    # the bound also rejects NaN and integers past the float range
    if not all(abs(v) <= sys.float_info.max and not isinstance(v, bool) for v in values):
        raise FitError(f"non-finite model coefficients: {values}")


def _model(names, n, intercept, coef, means, scales) -> LinearModel:
    """The LinearModel of a _solve result on n rows."""
    return LinearModel(
        intercept=intercept,
        coefficients=dict(zip(names, coef.tolist())),
        training_count=n,
        feature_means=dict(zip(names, means.tolist())),
        feature_scales=dict(zip(names, scales.tolist())),
    )


def one_row(x, feature_names) -> np.ndarray:
    """One sample mapping as a one-row design matrix in the given column order."""
    row = np.empty((1, len(feature_names)))
    for j, name in enumerate(feature_names):
        try:
            v = x[name]
        except KeyError:
            raise FitError(f"sample lacks model feature {name!r}") from None
        if v is None:
            raise FitError(f"sample has no value for model feature {name!r}")
        row[0, j] = v
    return row
