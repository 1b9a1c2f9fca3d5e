"""Linear fitting: exact recovery, rank handling, ridge fallback."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from soilptf.linreg import (FitError, LinearModel, _model, _solve, _standardize, fit_local,
                            fit_local_targets)


class _RankDeficient(Exception):
    pass


def _reference_scales(X):
    """Column means and standard deviations, except that a column whose
    values are all equal takes its value as mean and 1 as scale."""
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    for j in range(X.shape[1]):
        if np.all(X[:, j] == X[0, j]):
            means[j], scales[j] = X[0, j], 1.0
    return means, scales


def _reference_solve(X, y, names, ridge):
    """The two-pass route fit_local replaced: standardize, then solve plain
    (ridge=0, raising _RankDeficient when lstsq's rank is short) or with
    the given ridge on every column but the intercept."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    means, scales = _reference_scales(X)
    Xs = (X - means) / scales
    A = np.hstack([np.ones((n, 1)), Xs])
    if ridge == 0.0:
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < A.shape[1]:
            raise _RankDeficient
    else:
        pen = np.hstack([np.zeros((p, 1)), np.sqrt(ridge) * np.eye(p)])
        beta = np.linalg.lstsq(
            np.vstack([A, pen]), np.concatenate([y, np.zeros(p)]), rcond=None
        )[0]
    coef = beta[1:] / scales
    intercept = float(beta[0] - (beta[1:] * means / scales).sum())
    return LinearModel(
        intercept=intercept,
        coefficients={c: float(v) for c, v in zip(names, coef)},
        training_count=n,
        feature_means={c: float(v) for c, v in zip(names, means)},
        feature_scales={c: float(v) for c, v in zip(names, scales)},
    )


def _reference_ridge(X):
    """1e-8 * trace(Xs'Xs) / p, standardizing X on its own, floored at 1e-8."""
    X = np.asarray(X, dtype=float)
    means, scales = _reference_scales(X)
    Xs = (X - means) / scales
    p = max(1, X.shape[1])
    t = float((Xs * Xs).sum())
    return 1e-8 * (t / p if t > 0.0 else 1.0)


def reference_fit(X, y, names):
    """Plain solve, falling back to the ridge solve on too few rows or a
    rank error."""
    n, p = np.shape(X)
    if n < p + 1:
        return _reference_solve(X, y, names, _reference_ridge(X))
    try:
        return _reference_solve(X, y, names, 0.0)
    except _RankDeficient:
        return _reference_solve(X, y, names, _reference_ridge(X))


def test_exact_line_recovery():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 3.0
    m = fit_local(X, y, ["x"])
    assert m.intercept == pytest.approx(3.0, abs=1e-10)
    assert m.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
    assert m.training_count == 4


def test_exact_plane_recovery():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 2, (40, 2))
    y = 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1]
    m = fit_local(X, y, ["a", "b"])
    assert m.intercept == pytest.approx(1.0, abs=1e-9)
    assert m.coefficients["a"] == pytest.approx(2.0, abs=1e-9)
    assert m.coefficients["b"] == pytest.approx(-3.0, abs=1e-9)
    assert np.max(np.abs(y - m.predict_matrix(X, ["a", "b"]))) < 1e-9


def test_ols_minimizes_sse():
    # perturbing the solution can only raise the squared error
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (50, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 + rng.normal(0, 0.5, 50)
    names = ["a", "b", "c"]
    m = fit_local(X, y, names)
    base = float(((y - m.predict_matrix(X, names)) ** 2).sum())
    for _ in range(20):
        bumped = LinearModel(
            intercept=m.intercept + rng.normal(0, 0.1),
            coefficients={k: v + rng.normal(0, 0.1) for k, v in m.coefficients.items()},
            training_count=m.training_count,
            feature_means=m.feature_means,
            feature_scales=m.feature_scales,
        )
        assert float(((y - bumped.predict_matrix(X, names)) ** 2).sum()) >= base


def test_input_validation():
    with pytest.raises(FitError, match="at least 2 rows"):
        fit_local([[1.0]], [1.0], ["x"])
    with pytest.raises(FitError, match="2-d"):
        fit_local([1.0, 2.0], [1.0, 2.0], ["x"])
    with pytest.raises(FitError, match="rows"):
        fit_local([[1.0], [2.0]], [1.0], ["x"])
    with pytest.raises(FitError, match="NaN"):
        fit_local([[1.0], [float("nan")]], [1.0, 2.0], ["x"])
    with pytest.raises(FitError, match="feature names"):
        fit_local([[1.0], [2.0]], [1.0, 2.0], ["a", "b"])


def _qr_rank_deficient(X) -> bool:
    """scipy's pivoted-QR rank test on the standardized design that fit_local solves."""
    means, scales = _reference_scales(X)
    A = np.hstack([np.ones((len(X), 1)), (X - means) / scales])
    diag = np.abs(np.diag(scipy.linalg.qr(A, mode="economic", pivoting=True)[1]))
    return int((diag > diag[0] * max(A.shape) * np.finfo(float).eps).sum()) < A.shape[1]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 12),
    st.lists(st.sampled_from(["duplicate", "scaled", "summed", "constant"]), max_size=2),
    st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
    st.integers(0, 2**32 - 1),
)
def test_rank_deficiency_matches_pivoted_qr(n_base, extra_rows, plants, factor, seed):
    # scipy serves only as the reference here; the package does not import it.
    # fit_local must take the ridge route exactly when the QR calls the
    # design deficient: its model equals the reference's ridge solve then,
    # and the plain solve otherwise
    rng = np.random.default_rng(seed)
    n = n_base + len(plants) + 2 + extra_rows
    columns = {f"x{j}": rng.normal(0.0, 1.0, n) for j in range(n_base)}
    for k, kind in enumerate(plants):
        a, b = (columns[f"x{j}"] for j in rng.integers(0, n_base, 2))
        columns[f"planted{k}"] = {
            "duplicate": a,
            "scaled": factor * a,
            "summed": a + b,
            "constant": np.full(n, factor),
        }[kind]
    names = [list(columns)[j] for j in rng.permutation(len(columns))]
    X = np.column_stack([columns[c] for c in names])
    y = rng.normal(0.0, 1.0, n)
    deficient = _qr_rank_deficient(X)
    assert deficient == bool(plants)
    got = fit_local(X, y, names).to_dict()
    try:
        plain = _reference_solve(X, y, names, 0.0)
    except _RankDeficient:
        assert deficient
        assert got == _reference_solve(X, y, names, _reference_ridge(X)).to_dict()
    else:
        assert not deficient
        assert got == plain.to_dict()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(["normal", "duplicate", "scaled", "summed", "constant", "binary"]),
        max_size=6,
    ),
    st.integers(2, 10),
    st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
    st.integers(0, 2**32 - 1),
)
def test_fit_local_matches_the_two_pass_reference(kinds, n, factor, seed):
    # p from 0 to 6 and n from 2 to 10: full-rank, rank-deficient and
    # underdetermined designs all come up, and each must give the
    # reference's model field for field
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind in ("duplicate", "scaled", "summed") and j > 0:
            a, b = X[:, rng.integers(0, j, 2)].T
            X[:, j] = {"duplicate": a, "scaled": factor * a, "summed": a + b}[kind]
        elif kind == "constant":
            X[:, j] = factor
        elif kind == "binary":
            X[:, j] = rng.integers(0, 2, n)
        else:
            X[:, j] = rng.normal(0.0, abs(factor), n)
    y = rng.normal(0.0, 1.0, n)
    names = [f"x{j}" for j in range(len(kinds))]
    assert fit_local(X, y, names).to_dict() == reference_fit(X, y, names).to_dict()


def reference_fit_local(X, y, feature_names):
    """fit_local as first written: np.mean and np.std, the min == max
    constant rule, an hstacked design and per-value float() dicts."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise FitError(f"X must be 2-d, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise FitError(f"X has {X.shape[0]} rows but y has shape {y.shape}")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise FitError("X or y contains NaN or infinity")
    n, p = X.shape
    if n < 2:
        raise FitError(f"need at least 2 rows to fit, got {n}")
    names = list(feature_names)
    if len(names) != p:
        raise FitError(f"{len(names)} feature names for {p} columns")
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        scales = X.std(axis=0)
    const = X.min(axis=0) == X.max(axis=0)
    means[const], scales[const] = X[0, const], 1.0
    bad = ~(np.isfinite(means) & np.isfinite(scales))
    if bad.any():
        raise FitError(f"column {names[int(np.argmax(bad))]!r} is too large to standardize")
    Xs = (X - means) / scales
    A = np.hstack([np.ones((n, 1)), Xs])
    rank = 0
    if n > p:
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank <= p:
        t = float((Xs * Xs).sum())
        ridge = 1e-8 * (t / max(1, p) if t > 0.0 else 1.0)
        pen = np.hstack([np.zeros((p, 1)), np.sqrt(ridge) * np.eye(p)])
        beta = np.linalg.lstsq(
            np.vstack([A, pen]), np.concatenate([y, np.zeros(p)]), rcond=None
        )[0]
    coef = beta[1:] / scales
    intercept = float(beta[0] - (beta[1:] * means / scales).sum())
    return LinearModel(
        intercept=intercept,
        coefficients={c: float(v) for c, v in zip(names, coef)},
        training_count=n,
        feature_means={c: float(v) for c, v in zip(names, means)},
        feature_scales={c: float(v) for c, v in zip(names, scales)},
    )


def _outcome(fit, X, y, names):
    """The model's JSON text (repr keeps every bit, and the sign of zero) or
    the FitError text."""
    try:
        return json.dumps(fit(X, y, names).to_dict())
    except FitError as exc:
        return f"FitError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(["normal", "duplicate", "scaled", "summed", "constant", "signed_zero",
                         "huge", "wide"]),
        max_size=6,
    ),
    st.integers(2, 12),
    st.floats(0.01, 100.0) | st.floats(-100.0, -0.01) | st.sampled_from([0.0, -0.0]),
    st.integers(0, 2**32 - 1),
)
def test_fit_local_matches_the_first_formula_bit_for_bit(kinds, n, factor, seed):
    # constant columns (0.0 and -0.0 among them), columns of mixed signed
    # zeros, collinear columns, n <= p (the ridge path), values whose mean or
    # spread overflows (the FitError text) and values near it that do not
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind in ("duplicate", "scaled", "summed") and j > 0:
            a, b = X[:, rng.integers(0, j, 2)].T
            with np.errstate(over="ignore", invalid="ignore"):
                X[:, j] = {"duplicate": a, "scaled": factor * a, "summed": a + b}[kind]
        elif kind == "constant":
            X[:, j] = factor
        elif kind == "signed_zero":
            X[:, j] = rng.choice([0.0, -0.0], n)
        elif kind == "huge":
            X[:, j] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5e308, 1.7e308, n)
        elif kind == "wide":
            X[:, j] = rng.uniform(-1e153, 1e153, n)
        else:
            X[:, j] = rng.normal(0.0, abs(factor) + 0.1, n)
    y = rng.normal(0.0, 1.0, n)
    names = [f"x{j}" for j in range(len(kinds))]
    assert _outcome(fit_local, X, y, names) == _outcome(reference_fit_local, X, y, names)


def one_target_fit_local(X, y, feature_names):
    """fit_local as a one-target call: checked, standardized in place from
    one centred copy of X, then one lstsq and the ridge fallback."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise FitError(f"X must be 2-d, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise FitError(f"X has {X.shape[0]} rows but y has shape {y.shape}")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise FitError("X or y contains NaN or infinity")
    n, p = X.shape
    if n < 2:
        raise FitError(f"need at least 2 rows to fit, got {n}")
    names = list(feature_names)
    if len(names) != p:
        raise FitError(f"{len(names)} feature names for {p} columns")

    with np.errstate(over="ignore", invalid="ignore"):
        means = X.sum(axis=0) / n
        d = X - means
        scales = np.sqrt((d * d).sum(axis=0) / n)
    const = X.min(axis=0) == X.max(axis=0)
    if const.any():
        means[const], scales[const] = X[0, const], 1.0
    bad = ~(np.isfinite(means) & np.isfinite(scales))
    if bad.any():
        raise FitError(f"column {names[int(np.argmax(bad))]!r} is too large to standardize")
    A = np.empty((n, p + 1))
    A[:, 0] = 1.0
    Xs = np.subtract(X, means, out=A[:, 1:])
    Xs /= scales

    rank = 0
    if n > p:
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank <= p:
        t = float((Xs * Xs).sum())
        ridge = 1e-8 * (t / max(1, p) if t > 0.0 else 1.0)
        pen = np.hstack([np.zeros((p, 1)), np.sqrt(ridge) * np.eye(p)])
        beta = np.linalg.lstsq(
            np.vstack([A, pen]), np.concatenate([y, np.zeros(p)]), rcond=None
        )[0]

    coef = beta[1:] / scales
    intercept = float(beta[0] - (beta[1:] * means / scales).sum())
    return LinearModel(
        intercept=intercept,
        coefficients=dict(zip(names, coef.tolist())),
        training_count=n,
        feature_means=dict(zip(names, means.tolist())),
        feature_scales=dict(zip(names, scales.tolist())),
    )


def _hexed(value):
    """value with every float replaced by its float.hex text (every bit,
    and the sign of zero)."""
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return float.hex(value) if isinstance(value, float) else value


def _outcomes(fit):
    """fit()'s models as hexed dicts, or the FitError text."""
    try:
        return [_hexed(m.to_dict()) for m in fit()]
    except FitError as exc:
        return f"FitError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["normal", "duplicate", "constant", "binary", "magnitude"]),
             min_size=1, max_size=6),
    st.integers(2, 16),
    st.integers(1, 4),
    st.sampled_from([None, None, None, "nan_x", "nan_y", "one_row", "names", "overflow"]),
    st.integers(0, 2**32 - 1),
)
def test_shared_design_fits_match_one_target_fits(kinds, n, targets, fault, seed):
    # constant and duplicated columns, columns of mixed magnitudes (1e-8 to
    # 1e8) and row masks that leave n <= p + 1 (the ridge route): each
    # target of fit_local_targets, and each _standardize/_solve fit of a
    # masked row set, gives the one-target fit's model bit for bit, and a
    # fault gives its FitError text
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "duplicate" and j > 0:
            X[:, j] = X[:, rng.integers(0, j)]
        elif kind == "constant":
            X[:, j] = rng.normal(0.0, 10.0)
        elif kind == "binary":
            X[:, j] = rng.integers(0, 2, n)
        elif kind == "magnitude":
            X[:, j] = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-8.0, 8.0)
        else:
            X[:, j] = rng.normal(0.0, 1.0, n)
    ys = [rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), n) for _ in range(targets)]
    names = [f"x{j}" for j in range(len(kinds))]
    mask = rng.random(n) < rng.uniform(0.3, 1.0)
    if mask.sum() < 2:
        mask[:2] = True
    if fault == "one_row":
        mask[:] = False
        mask[rng.integers(0, n)] = True
    Xm, yms = X[mask], [y[mask] for y in ys]
    if fault == "nan_x":
        Xm[rng.integers(0, len(Xm)), rng.integers(0, len(kinds))] = np.nan
    elif fault == "nan_y":
        yms[rng.integers(0, targets)][rng.integers(0, len(Xm))] = np.nan
    elif fault == "names":
        names = names + ["extra"]
    elif fault == "overflow":
        Xm[:, rng.integers(0, len(kinds))] = 1.5e308

    expected = [_outcomes(lambda: [one_target_fit_local(Xm, y, names)]) for y in yms]
    errors = [e for e in expected if isinstance(e, str)]
    expected = errors[0] if errors else [e[0] for e in expected]
    assert _outcomes(lambda: fit_local_targets(Xm, yms, names)) == expected
    if fault in (None, "overflow"):
        def kernel():
            A, means, scales = _standardize(Xm, names)
            return [_model(names, len(Xm), *_solve(A, y, means, scales), means, scales)
                    for y in yms]
        assert _outcomes(kernel) == expected


def test_solve_rejects_non_finite_coefficients_as_linear_model_does():
    # a column scale near 1e-160 against targets near 1e200 takes the
    # coefficient past the float range (numpy's overflow warning is not
    # what is checked here)
    X = np.column_stack([np.arange(5.0) * 1e-160, np.arange(5.0) ** 2])
    y = np.arange(5.0) ** 3 * 1e200
    A, means, scales = _standardize(X, ["a", "b"])
    with pytest.raises(FitError) as kernel, np.errstate(all="ignore"):
        _solve(A, y, means, scales)
    with pytest.raises(FitError) as one_target, np.errstate(all="ignore"):
        one_target_fit_local(X, y, ["a", "b"])
    assert str(kernel.value) == str(one_target.value)
    assert str(kernel.value).startswith("non-finite model coefficients: [")
    with pytest.raises(FitError) as model:
        LinearModel(intercept=float("inf"), coefficients={"a": 1.0}, training_count=5,
                    feature_means={"a": 0.0}, feature_scales={"a": 1.0})
    assert str(model.value) == "non-finite model coefficients: [inf, 1.0]"


def test_underflowing_column_raises_fit_error():
    # the values differ, but their squared deviations from the mean underflow to 0
    X = np.column_stack([np.arange(12.0), np.tile([1e-170, 2e-170, 3e-170], 4)])
    y = np.arange(12.0) ** 2
    with pytest.raises(FitError) as kernel:
        _standardize(X, ["x", "d"])
    with pytest.raises(FitError) as fit:
        fit_local_targets(X, [y, -y], ["x", "d"])
    assert str(kernel.value) == str(fit.value) == "column 'd' varies too little to standardize"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.integers(1, 3),
    k=st.integers(-1100, 1000),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=12, p=2, k=-600, seed=0)  # squared deviations underflow to 0
@example(n=12, p=2, k=-536, seed=0)  # some of them underflow
@example(n=12, p=2, k=1000, seed=0)  # squared deviations overflow
def test_least_squares_at_any_power_of_two_magnitude(n, p, k, seed):
    # one column scaled by 2**k: every model field is finite, or the fit
    # raises FitError; any other exception (a warning among them) fails
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, p))
    j = rng.integers(p)
    X[:, j] = np.ldexp(X[:, j], k)
    assume(np.isfinite(X).all())
    ys = [rng.normal(0.0, 1.0, n) for _ in range(2)]
    try:
        models = fit_local_targets(X, ys, [f"x{i}" for i in range(p)])
    except FitError:
        return
    for m in models:
        assert np.isfinite([m.intercept, *m.coefficients.values(),
                            *m.feature_means.values(), *m.feature_scales.values()]).all()


def test_constant_column_is_dependent():
    # constant column duplicates the intercept once standardized, so the
    # fit takes the ridge route, and still predicts the line
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    names = ["x", "const"]
    m = fit_local(X, y, names)
    assert m.to_dict() == _reference_solve(X, y, names, _reference_ridge(X)).to_dict()
    assert m.predict({"x": 2.5, "const": 7.0}) == pytest.approx(2.5, abs=1e-3)


def test_constant_column_with_inexact_mean_standardizes_to_zeros():
    # 0.05 in every row, but the float mean of the column is not 0.05 and
    # its standard deviation is about 2e-17: the column must still count
    # as constant, take the ridge route and get no weight
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 70)
    X = np.column_stack([x, np.full(70, 0.05)])
    assert X[:, 1].mean() != 0.05 and X[:, 1].std() > 0.0
    y = 1.0 + 0.5 * x + rng.normal(0.0, 0.1, 70)
    m = fit_local(X, y, ["x", "c"])
    assert (m.feature_means["c"], m.feature_scales["c"], m.coefficients["c"]) == (0.05, 1.0, 0.0)
    assert m.to_dict() == _reference_solve(X, y, ["x", "c"], _reference_ridge(X)).to_dict()
    assert m.predict({"x": 0.0, "c": 0.06}) == m.predict({"x": 0.0, "c": 0.05})


def test_fit_local_underdetermined():
    # 3 rows, 4 features: straight OLS is impossible, fallback must fit
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (3, 4))
    y = np.array([1.0, 2.0, 3.0])
    m = fit_local(X, y, feature_names=list("abcd"))
    assert np.all(np.isfinite(list(m.coefficients.values())))
    assert np.max(np.abs(y - m.predict_matrix(X, list("abcd")))) < 0.1  # near-interpolation


def test_fit_local_rank_deficient_fallback():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    m = fit_local(X, y, feature_names=["a", "b"])
    pred = m.predict_matrix(X, ["a", "b"])
    assert np.allclose(pred, y, atol=1e-3)


def test_predict_paths_agree():
    m = fit_local([[0.0], [1.0], [2.0]], [3.0, 5.0, 7.0], ["x"])
    assert m.predict({"x": 10.0}) == pytest.approx(23.0, abs=1e-9)
    got = m.predict_matrix(np.array([[10.0], [0.0]]), ["x"])
    assert got == pytest.approx([23.0, 3.0], abs=1e-9)
    with pytest.raises(FitError, match="feature mismatch"):
        m.predict_matrix(np.array([[1.0]]), ["y"])
    with pytest.raises(FitError, match="lacks model feature"):
        m.predict({"z": 1.0})
    with pytest.raises(FitError, match="no value"):
        m.predict({"x": None})


def test_model_finite_guard():
    # a bool is an int to Python, but no fit yields one
    for intercept, coef in ((float("inf"), 1.0), (True, 1.0), (0.0, False)):
        with pytest.raises(FitError, match="non-finite"):
            LinearModel(
                intercept=intercept, coefficients={"x": coef},
                training_count=2, feature_means={"x": 0.0}, feature_scales={"x": 1.0},
            )


def _via_json(model):
    """to_dict, JSON text as the CLI writes it, from_dict."""
    text = json.dumps(model.to_dict(), sort_keys=True, indent=2)
    return LinearModel.from_dict(json.loads(text))


def test_model_json_roundtrip():
    m = fit_local([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [1.0, 2.0, 3.0], ["a", "b"])
    back = _via_json(m)
    assert back == m
    doc = m.to_dict()
    assert set(doc) == {
        "intercept", "feature_names", "coefficients", "training_count", "standardization"
    }
    assert set(doc["standardization"]) == {"means", "scales"}


def test_json_roundtrip_keeps_predictions_for_unsorted_names():
    # JSON sorts the coefficients; feature_names keeps the training order,
    # and predict_matrix follows the caller's column order, giving the
    # in-memory model's bits
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (20, 2))
    y = 1.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1] + rng.normal(0, 0.1, 20)
    m = fit_local(X, y, ["z", "x"])
    back = _via_json(m)
    assert back.feature_names == ["z", "x"]
    assert back.predict_matrix(X, ["z", "x"]).tolist() == m.predict_matrix(X, ["z", "x"]).tolist()
    with pytest.raises(FitError, match="feature mismatch"):
        back.predict_matrix(X, ["x", "x"])
