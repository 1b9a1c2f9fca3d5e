"""Linear fitting: exact recovery, rank handling, ridge fallback."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from soilptf.linreg import (
    FitError,
    LinearModel,
    RankDeficientError,
    fit_local,
    local_ridge,
    ols_fit,
    residuals,
)


def test_exact_line_recovery():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 3.0
    m = ols_fit(X, y, feature_names=["x"])
    assert m.intercept == pytest.approx(3.0, abs=1e-10)
    assert m.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
    assert m.training_count == 4


def test_exact_plane_recovery():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 2, (40, 2))
    y = 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1]
    m = ols_fit(X, y, feature_names=["a", "b"])
    assert m.intercept == pytest.approx(1.0, abs=1e-9)
    assert m.coefficients["a"] == pytest.approx(2.0, abs=1e-9)
    assert m.coefficients["b"] == pytest.approx(-3.0, abs=1e-9)
    assert np.max(np.abs(residuals(m, X, y))) < 1e-9


def test_ols_minimizes_sse():
    # perturbing the solution can only raise the squared error
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (50, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 + rng.normal(0, 0.5, 50)
    m = ols_fit(X, y, feature_names=["a", "b", "c"])
    base = float((residuals(m, X, y) ** 2).sum())
    for _ in range(20):
        bumped = LinearModel(
            intercept=m.intercept + rng.normal(0, 0.1),
            coefficients={k: v + rng.normal(0, 0.1) for k, v in m.coefficients.items()},
            training_count=m.training_count,
            feature_means=m.feature_means,
            feature_scales=m.feature_scales,
        )
        assert float((residuals(bumped, X, y) ** 2).sum()) >= base


def test_input_validation():
    with pytest.raises(FitError, match="at least 2 rows"):
        ols_fit([[1.0]], [1.0])
    with pytest.raises(FitError, match="2-d"):
        ols_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(FitError, match="rows"):
        ols_fit([[1.0], [2.0]], [1.0])
    with pytest.raises(FitError, match="NaN"):
        ols_fit([[1.0], [float("nan")]], [1.0, 2.0])
    with pytest.raises(FitError, match="non-negative"):
        ols_fit([[1.0], [2.0]], [1.0, 2.0], ridge=-1.0)
    with pytest.raises(FitError, match="feature names"):
        ols_fit([[1.0], [2.0]], [1.0, 2.0], feature_names=["a", "b"])


def test_duplicate_column_named():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(RankDeficientError) as err:
        ols_fit(X, y, feature_names=["a", "a_copy"])
    assert set(err.value.columns) & {"a", "a_copy"}


def test_every_dependent_column_named():
    rng = np.random.default_rng(6)
    a, b = rng.normal(0, 1, (2, 10))
    X = np.column_stack([a, b, a])
    with pytest.raises(RankDeficientError) as err:
        ols_fit(X, rng.normal(0, 1, 10), feature_names=["a", "b", "a_copy"])
    assert err.value.columns == ["a", "a_copy"]


def _qr_rank_deficient(X) -> bool:
    """scipy's pivoted-QR rank test on the standardized design that ols_fit solves."""
    scales = X.std(axis=0)
    scales[scales == 0.0] = 1.0
    A = np.hstack([np.ones((len(X), 1)), (X - X.mean(axis=0)) / scales])
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
    # scipy serves only as the reference here; the package does not import it
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
    deficient = _qr_rank_deficient(X)
    assert deficient == bool(plants)
    try:
        ols_fit(X, rng.normal(0.0, 1.0, n), feature_names=names)
    except RankDeficientError as exc:
        assert deficient
        assert any(c.startswith("planted") for c in exc.columns)
    else:
        assert not deficient


def test_constant_column_is_dependent():
    # constant column duplicates the intercept once standardized
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(RankDeficientError):
        ols_fit(X, y, feature_names=["x", "const"])
    # ridge resolves it and still predicts the line
    m = ols_fit(X, y, ridge=1e-8, feature_names=["x", "const"])
    assert m.predict({"x": 2.5, "const": 7.0}) == pytest.approx(2.5, abs=1e-3)


def test_ridge_shrinks_toward_zero():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (60, 2))
    y = X @ np.array([3.0, -1.5]) + rng.normal(0, 0.1, 60)
    loose = ols_fit(X, y, feature_names=["a", "b"])
    tight = ols_fit(X, y, ridge=1e6, feature_names=["a", "b"])
    for k in ("a", "b"):
        assert abs(tight.coefficients[k]) < abs(loose.coefficients[k])
    assert abs(tight.coefficients["a"]) < 0.01


def test_local_ridge_scale():
    X = np.random.default_rng(4).normal(0, 5, (30, 3))
    r = local_ridge(X)
    assert 0 < r < 1e-5
    # standardized columns have unit variance, so trace/p is about n
    assert r == pytest.approx(1e-8 * 30, rel=0.05)


def test_fit_local_underdetermined():
    # 3 rows, 4 features: straight OLS is impossible, fallback must fit
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (3, 4))
    y = np.array([1.0, 2.0, 3.0])
    m = fit_local(X, y, feature_names=list("abcd"))
    assert np.all(np.isfinite(list(m.coefficients.values())))
    assert np.max(np.abs(residuals(m, X, y))) < 0.1  # near-interpolation


def test_fit_local_rank_deficient_fallback():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    m = fit_local(X, y, feature_names=["a", "b"])
    pred = m.predict_matrix(X, ["a", "b"])
    assert np.allclose(pred, y, atol=1e-3)


def test_predict_paths_agree():
    m = ols_fit([[0.0], [1.0], [2.0]], [3.0, 5.0, 7.0], feature_names=["x"])
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
    with pytest.raises(FitError, match="non-finite"):
        LinearModel(
            intercept=float("inf"), coefficients={"x": 1.0},
            training_count=2, feature_means={"x": 0.0}, feature_scales={"x": 1.0},
        )


def _via_json(model):
    """to_dict, JSON text as the CLI writes it, from_dict."""
    text = json.dumps(model.to_dict(), sort_keys=True, indent=2)
    return LinearModel.from_dict(json.loads(text))


def test_model_json_roundtrip():
    m = ols_fit([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [1.0, 2.0, 3.0],
                feature_names=["a", "b"])
    back = _via_json(m)
    assert back == m
    doc = m.to_dict()
    assert set(doc) == {
        "intercept", "feature_names", "coefficients", "training_count", "standardization"
    }
    assert set(doc["standardization"]) == {"means", "scales"}


def test_residuals_definition():
    m = ols_fit([[0.0], [1.0]], [1.0, 3.0], feature_names=["x"])
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([2.0, 3.0, 4.0])
    # observed minus predicted, with prediction 1 + 2x
    assert residuals(m, X, y) == pytest.approx([1.0, 0.0, -1.0], abs=1e-9)


def test_json_roundtrip_keeps_predictions_for_unsorted_names():
    # JSON sorts the coefficients; feature_names keeps the training order,
    # and predict_matrix follows the caller's column order, giving the
    # in-memory model's bits
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (20, 2))
    y = 1.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1] + rng.normal(0, 0.1, 20)
    m = ols_fit(X, y, feature_names=["z", "x"])
    back = _via_json(m)
    assert back.feature_names == ["z", "x"]
    assert back.predict_matrix(X, ["z", "x"]).tolist() == m.predict_matrix(X, ["z", "x"]).tolist()
    with pytest.raises(FitError, match="feature mismatch"):
        back.predict_matrix(X, ["x", "x"])
