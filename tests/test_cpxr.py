"""Pattern-aided regression: splitting, weighting, optimization, training."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilptf
import soilptf.cpxr
from soilptf.cpxr import (
    CpxrConfig,
    CpxrError,
    PatternLocal,
    PxrModel,
    _optimize,
    local_weight,
    split_le_se,
    train_cpxr,
    train_cpxr_targets,
)
from soilptf.data import select_columns
from soilptf.discretize import DiscretizationScheme
from soilptf.hydrology import MODEL_CONFIGS
from soilptf.linreg import FitError, LinearModel, fit_local
from soilptf.patterns import (
    Item,
    Pattern,
    _mine_masks,
    filter_similar_masks,
    pattern_mask,
)
from soilptf.synth import generate, two_regime_config


def _via_json(model):
    """to_dict, JSON text as the CLI writes it, from_dict."""
    text = json.dumps(model.to_dict(), sort_keys=True, indent=2)
    return type(model).from_dict(json.loads(text))


def lin(intercept, **coefs):
    return LinearModel(
        intercept=float(intercept),
        coefficients={k: float(v) for k, v in coefs.items()},
        training_count=2,
        feature_means={k: 0.0 for k in coefs},
        feature_scales={k: 1.0 for k in coefs},
    )


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_config_defaults():
    c = CpxrConfig()
    assert (c.rho, c.max_k, c.max_passes) == (0.45, 7, 20)
    assert (c.min_support_le, c.min_growth, c.max_len) == (0.02, 2.0, 4)
    assert (c.min_reduction, c.jaccard_max, c.min_train) == (0.05, 0.9, 30)


def test_config_from_mapping():
    c = CpxrConfig.from_mapping({"rho": 0.3, "max_k": 3})
    assert c.rho == 0.3 and c.max_k == 3 and c.max_passes == 20
    with pytest.raises(CpxrError, match="unknown hyperparameters"):
        CpxrConfig.from_mapping({"rho": 0.3, "bogus": 1})


def test_config_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(CpxrError, match="rho"):
            CpxrConfig(rho=bad)
    with pytest.raises(CpxrError, match="positive"):
        CpxrConfig(max_k=0)


# the CLI test covers the lower bounds of jaccard_max, min_support_le,
# min_growth, weight_floor and min_count_le
@pytest.mark.parametrize("field, bad", [
    ("jaccard_max", 1.5), ("min_support_le", 0.0), ("min_support_le", 1.5),
    ("min_growth", float("inf")), ("min_reduction", float("inf")), ("rho", float("nan")),
    ("max_depth", -1), ("min_train", 1),
])
def test_config_rejects_out_of_range(field, bad):
    with pytest.raises(CpxrError, match=field):
        CpxrConfig(**{field: bad})


def test_config_accepts_range_edges():
    CpxrConfig(min_support_le=1.0, jaccard_max=0.0, min_count_le=1, max_depth=0, min_train=2)
    CpxrConfig(jaccard_max=1.0, min_growth=1e-9, weight_floor=1e-12, min_reduction=-1.0)


# ----------------------------------------------------------------------
# error split
# ----------------------------------------------------------------------

def test_split_hand_example():
    split = split_le_se(np.array([3.0, -2.0, 1.0, 0.5]), rho=0.45)
    assert split.le_ids.tolist() == [0]
    assert split.se_ids.tolist() == [1, 2, 3]
    assert split.total_abs_error == 6.5
    assert split.cum_fraction == pytest.approx(3.0 / 6.5)


def test_split_tie_breaks_on_id():
    # the row index takes the place of the id
    split = split_le_se(np.array([0.1, -2.0, 2.0]), rho=0.6)
    assert split.le_ids.tolist() == [1, 2]
    assert split.se_ids.tolist() == [0]


def test_split_all_zero_residuals():
    split = split_le_se(np.array([0.0, -0.0]), rho=0.45)
    assert split.le_ids.size == 0
    assert sorted(split.se_ids.tolist()) == [0, 1]
    assert split.cum_fraction == 0.0


def test_split_rho_validation():
    with pytest.raises(CpxrError, match="rho"):
        split_le_se(np.array([1.0]), rho=1.0)


def test_split_minimal_prefix_property():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        res = rng.normal(0, 2, n)
        rho = float(rng.uniform(0.1, 0.9))
        split = split_le_se(res, rho)
        le, se = split.le_ids.tolist(), split.se_ids.tolist()
        assert sorted(le + se) == list(range(n))
        order = sorted(range(n), key=lambda i: (-abs(res[i]), i))
        assert le == order[: len(le)]
        total = float(np.abs(res).sum())
        le_sum = float(np.abs(res[le]).sum())
        assert le_sum >= rho * total - 1e-12
        if le:
            assert le_sum - abs(res[le[-1]]) < rho * total


def _split_reference(residuals_by_id: dict, rho: float):
    """Scalar reference: the id-keyed loop split_le_se replaced. The total
    is summed left to right, as sum() over floats does before Python 3.12."""
    order = sorted(residuals_by_id, key=lambda i: (-abs(residuals_by_id[i]), i))
    total = 0.0
    for i in order:
        total += abs(residuals_by_id[i])
    if total == 0.0:
        return [], order, 0.0, 0.0
    cum = 0.0
    le = []
    for i in order:
        if cum >= rho * total:
            break
        cum += abs(residuals_by_id[i])
        le.append(i)
    in_le = set(le)
    se = [i for i in order if i not in in_le]
    return le, se, total, cum / total


_residual = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -2.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_residual, min_size=1, max_size=60), st.floats(0.01, 0.99))
def test_split_matches_scalar_reference(values, rho):
    split = split_le_se(np.array(values), rho)
    le, se, total, frac = _split_reference(dict(enumerate(values)), rho)
    assert split.le_ids.tolist() == le
    assert split.se_ids.tolist() == se
    assert split.total_abs_error == total
    assert split.cum_fraction == frac


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def test_local_weight_reduction():
    assert local_weight(10.0, 5.0) == 0.5
    assert local_weight(10.0, 10.0) == 1e-6
    assert local_weight(10.0, 12.0) == 1e-6  # worse local model floors out
    assert local_weight(0.0, 5.0) == 1e-6
    assert local_weight(10.0, 0.0) == 1.0
    assert local_weight(10.0, 9.0, floor=0.5) == 0.5


def test_local_weight_negative_error():
    with pytest.raises(CpxrError, match="negative"):
        local_weight(-1.0, 0.0)


def test_pattern_local_weight_positive():
    with pytest.raises(CpxrError, match="positive"):
        PatternLocal(pattern=Pattern((Item("x"),)), model=lin(0, x=1), weight=0.0)


# ----------------------------------------------------------------------
# prediction rule
# ----------------------------------------------------------------------

def _toy_model():
    pairs = [
        PatternLocal(Pattern((Item("x", lo=0.0, hi=5.0),)), lin(1.0, x=0.0), 0.5),
        PatternLocal(Pattern((Item("x", lo=3.0),)), lin(4.0, x=0.0), 0.25),
    ]
    return PxrModel(
        pairs=pairs,
        default_model=lin(99.0, x=0.0),
        baseline=lin(99.0, x=0.0),
        scheme=DiscretizationScheme(cuts={"x": (3.0, 5.0)}),
        feature_names=["x"],
    )


def test_weighted_mean_prediction():
    m = _toy_model()
    assert m.k == 2
    # both patterns: (0.5*1 + 0.25*4) / 0.75
    assert m.predict({"x": 4.0}) == pytest.approx(2.0)
    assert m.predict({"x": 1.0}) == pytest.approx(1.0)   # first only
    assert m.predict({"x": 10.0}) == pytest.approx(4.0)  # second only
    assert m.predict({"x": -1.0}) == pytest.approx(99.0) # default


def test_predict_matrix_agrees_with_scalar():
    m = _toy_model()
    X = np.array([[4.0], [1.0], [10.0], [-1.0]])
    got = m.predict_matrix(X, ["x"])
    assert got == pytest.approx([2.0, 1.0, 4.0, 99.0])


def test_empty_model_uses_default():
    m = PxrModel(
        pairs=[], default_model=lin(7.0, x=0.0), baseline=lin(7.0, x=0.0),
        scheme=DiscretizationScheme(), feature_names=["x"],
    )
    assert m.k == 0
    assert m.predict({"x": 123.0}) == 7.0
    assert m.predict_matrix(np.array([[1.0], [2.0]]), ["x"]).tolist() == [7.0, 7.0]
    # no pattern matches, so every row gets the default model's bits
    X = np.random.default_rng(0).normal(0.0, 1e3, (50, 1))
    assert m.predict_matrix(X, ["x"]).tobytes() == m.default_model.predict_matrix(X, ["x"]).tobytes()


def test_duplicate_patterns_rejected():
    pair = PatternLocal(Pattern((Item("x", hi=1.0),)), lin(0, x=1), 1.0)
    with pytest.raises(CpxrError, match="duplicate"):
        PxrModel(
            pairs=[pair, PatternLocal(pair.pattern, lin(5, x=2), 0.5)],
            default_model=lin(0, x=1), baseline=lin(0, x=1),
            scheme=DiscretizationScheme(), feature_names=["x"],
        )


def _clustered(seed, n=300):
    """x in five clusters 1e-7 apart around 1.0, each 5e-8 wide, so cuts
    between them print alike; y shifted by +4 and -4 on clusters 1 and 3
    and linear in w elsewhere."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 5, n)
    x = 1.0 + c * 1e-7 + rng.uniform(0.0, 5e-8, n)
    w = rng.uniform(0.0, 1.0, n)
    y = w + np.select([c == 1, c == 3], [4.0, -4.0], 0.0) + rng.normal(0.0, 0.1, n)
    return np.column_stack([x, w]), y


def _print_alike_model():
    X, y = _clustered(5)
    return X, train_cpxr(X, y, ["x", "w"], CpxrConfig(min_train=10))


def test_train_keeps_patterns_that_print_alike():
    # two patterns whose bounds agree to 6 significant digits: a model
    # tells patterns apart by their items, not by their text
    _, model = _print_alike_model()
    texts = [str(p.pattern) for p in model.pairs]
    assert len(texts) == 2 and texts[0] == texts[1] == "1 <= x < 1"
    assert model.pairs[0].pattern != model.pairs[1].pattern


def test_model_json_roundtrip_keeps_patterns_that_print_alike():
    X, model = _print_alike_model()
    back = _via_json(model)
    assert [p.pattern for p in back.pairs] == [p.pattern for p in model.pairs]
    assert _json(back) == _json(model)
    assert back.predict_matrix(X, ["x", "w"]).tobytes() == model.predict_matrix(X, ["x", "w"]).tobytes()


def test_model_json_roundtrip():
    m = _toy_model()
    m.train_rmse = 0.25
    m.baseline_rmse = 0.5
    m.trace = [10.0, 4.0]
    doc = m.to_dict()
    assert doc["kind"] == "pxr"
    back = _via_json(m)
    assert back.train_rmse == 0.25 and back.baseline_rmse == 0.5
    assert back.trace == [10.0, 4.0]
    for x in (-1.0, 1.0, 4.0, 10.0):
        assert back.predict({"x": x}) == m.predict({"x": x})


# ----------------------------------------------------------------------
# pattern-set optimization
# ----------------------------------------------------------------------

def _table(cands, X, names):
    """The candidate table _optimize takes: weight x mask and
    weight x mask x local prediction, one row per candidate."""
    masks = [pattern_mask(c.pattern, X, names) for c in cands]
    w = np.array([c.weight * m for c, m in zip(cands, masks)])
    wp = np.array([c.weight * m * c.model.predict_matrix(X, names) for c, m in zip(cands, masks)])
    return w, wp


def _select(cands, X, y, names, baseline, config=CpxrConfig()):
    w, wp = _table(cands, X, names)
    chosen, trace = _optimize(w, wp, y, baseline.predict_matrix(X, names), config)
    return [cands[i] for i in chosen], trace


def _swap_fixture():
    n = 40
    x = np.arange(n, dtype=float)
    g = np.repeat([0.0, 1.0], n // 2)
    X = np.column_stack([x, g])
    y = x + 50.0 * g
    baseline = lin(25.0, x=1.0, g=0.0)  # err 25 on every row
    cand_a = PatternLocal(Pattern((Item("x"),)), lin(-4.0, x=1.0, g=50.0), 1.0)
    cand_b = PatternLocal(Pattern((Item("g", hi=0.5),)), lin(0.0, x=1.0, g=0.0), 1.0)
    cand_c = PatternLocal(Pattern((Item("g", lo=0.5),)), lin(0.0, x=1.0, g=50.0), 1.0)
    return [cand_a, cand_b, cand_c], X, y, baseline


def test_swap_pass_escapes_greedy_choice():
    # greedy forward picks the mediocre catch-all first; only a swap can
    # reach the perfect two-pattern cover
    cands, X, y, baseline = _swap_fixture()
    chosen, trace = _select(cands, X, y, ["x", "g"], baseline, CpxrConfig(max_k=2))
    assert sorted(str(c.pattern) for c in chosen) == ["g < 0.5", "g >= 0.5"]
    assert trace == [1000.0, 160.0, 120.0, 0.0]


def test_forward_only_when_k_is_one():
    cands, X, y, baseline = _swap_fixture()
    chosen, trace = _select(cands, X, y, ["x", "g"], baseline, CpxrConfig(max_k=1))
    assert [str(c.pattern) for c in chosen] == ["x any"]
    assert trace == [1000.0, 160.0]


def test_trace_strictly_decreasing():
    cands, X, y, baseline = _swap_fixture()
    for k in (1, 2, 3):
        _, trace = _select(cands, X, y, ["x", "g"], baseline, CpxrConfig(max_k=k))
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_no_candidate_helps():
    # candidates worse than the default everywhere are never selected
    n = 40
    X = np.column_stack([np.arange(n, dtype=float)])
    y = X[:, 0] * 2.0
    baseline = lin(0.0, x=2.0)  # exact
    bad = PatternLocal(Pattern((Item("x"),)), lin(5.0, x=0.0), 1.0)
    chosen, trace = _select([bad], X, y, ["x"], baseline)
    assert chosen == []
    assert trace == [0.0]


def _optimize_reference(cands, y, default_pred, config):
    """Scalar reference: the per-candidate loop _optimize replaced, over
    (weight, mask, predictions) triples, one candidate scored at a time."""
    chosen = []
    err = float(np.abs(y - default_pred).sum())
    trace = [err]

    def errors(base_idx, pool):
        num = np.zeros(len(y))
        den = np.zeros(len(y))
        for i in base_idx:
            weight, mask, pred = cands[i]
            num += weight * mask * pred
            den += weight * mask
        errs = np.empty(len(pool))
        for row, c in enumerate(pool):
            weight, mask, pred = cands[c]
            num_c = num + weight * mask * pred
            den_c = den + weight * mask
            blended = np.where(den_c > 0, num_c / np.where(den_c > 0, den_c, 1.0), default_pred)
            errs[row] = np.abs(y - blended).sum()
        return errs

    def best_move(base_idx):
        pool = [i for i in range(len(cands)) if i not in chosen]
        if not pool:
            return None
        errs = errors(base_idx, pool)
        best = int(np.argmin(errs))
        return (pool[best], float(errs[best])) if errs[best] < err else None

    while len(chosen) < config.max_k:
        move = best_move(chosen)
        if move is None:
            break
        chosen.append(move[0])
        err = move[1]
        trace.append(err)
    for _ in range(config.max_passes):
        swapped = False
        for pos in range(len(chosen)):
            move = best_move(chosen[:pos] + chosen[pos + 1:])
            if move is not None:
                chosen[pos], err = move
                trace.append(err)
                swapped = True
        if not swapped:
            break
    return chosen, trace


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cands=st.integers(0, 6),
    n_rows=st.integers(1, 25),
    max_k=st.integers(1, 4),
    max_passes=st.integers(1, 3),
    coarse=st.booleans(),
)
def test_optimize_matches_per_candidate_reference(seed, n_cands, n_rows, max_k, max_passes, coarse):
    rng = np.random.default_rng(seed)

    def values(size):
        # coarse values make tied errors, where the first best move must win
        return rng.integers(-3, 4, size).astype(float) if coarse else rng.normal(0, 2, size)

    y = values(n_rows)
    default = values(n_rows)
    cands = [
        (float(rng.choice([0.5, 1.0])) if coarse else float(rng.uniform(1e-6, 1.0)),
         rng.random(n_rows) < rng.uniform(0.1, 0.9),
         values(n_rows))
        for _ in range(n_cands)
    ]
    w = np.array([weight * mask for weight, mask, _ in cands]).reshape(n_cands, n_rows)
    wp = np.array([weight * mask * pred for weight, mask, pred in cands]).reshape(n_cands, n_rows)
    config = CpxrConfig(max_k=max_k, max_passes=max_passes)
    chosen, trace = _optimize(w, wp, y, default, config)
    want_chosen, want_trace = _optimize_reference(cands, y, default, config)
    assert chosen == want_chosen
    assert [t.hex() for t in trace] == [t.hex() for t in want_trace]


def test_train_passes_one_table_row_per_candidate(monkeypatch):
    calls = []
    real = soilptf.cpxr._optimize

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(soilptf.cpxr, "_optimize", spy)
    X, y = _two_regime()
    model = train_cpxr(X, y, ["x", "z"])
    assert len(calls) == 1
    (w, wp, *_), (chosen, trace) = calls[0]
    assert w.shape == wp.shape == (len(w), len(y)) and len(w) >= model.k >= 1
    assert model.trace == trace
    # each chosen row is that model pair's weight on its pattern's rows
    for i, pair in zip(chosen, model.pairs):
        mask = pattern_mask(pair.pattern, X, ["x", "z"])
        assert w[i].tobytes() == (pair.weight * mask).tobytes()
        pred = pair.model.predict_matrix(X, ["x", "z"])
        assert wp[i].tobytes() == (pair.weight * mask * pred).tobytes()


# ----------------------------------------------------------------------
# end-to-end training
# ----------------------------------------------------------------------

def _two_regime(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 5, n)
    z = rng.choice([0.3, 0.7], n, p=[0.8, 0.2])
    y = np.where(z < 0.5, 2.0 * x, -2.0 * x + 10.0)
    return np.column_stack([x, z]), y


def test_train_two_regimes_recovers_structure():
    X, y = _two_regime()
    model = train_cpxr(X, y, ["x", "z"])
    assert model.k >= 1
    assert model.baseline_rmse > 0.5
    assert model.train_rmse <= 1e-6
    assert all(b < a for a, b in zip(model.trace, model.trace[1:]))
    # regime-correct predictions for fresh points
    assert model.predict({"x": 1.0, "z": 0.3}) == pytest.approx(2.0, abs=1e-6)
    assert model.predict({"x": 1.0, "z": 0.7}) == pytest.approx(8.0, abs=1e-6)
    pred = model.predict_matrix(X, ["x", "z"])
    assert float(np.sqrt(np.mean((y - pred) ** 2))) == pytest.approx(model.train_rmse)


def test_train_never_worse_than_baseline():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (60, 3))
        y = rng.normal(0, 1, 60)  # pure noise
        model = train_cpxr(X, y, ["a", "b", "c"])
        assert model.train_rmse <= model.baseline_rmse
        if model.k == 0:
            assert model.train_rmse == model.baseline_rmse


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["two-regime", "noise"]),
    st.integers(40, 80),  # rows
    st.integers(0, 2**16),  # table seed
    st.sampled_from(MODEL_CONFIGS["SWRC2"].targets),  # two-regime target
    st.floats(0.05, 0.95),  # rho
    st.integers(1, 7),  # max_k
    st.floats(0.0, 0.5),  # min_reduction
    st.floats(0.0, 1.0),  # jaccard_max
    st.integers(1, 4),  # max_len
)
def test_train_never_worse_under_generated_hyperparameters(
        kind, n, seed, target, rho, max_k, min_reduction, jaccard_max, max_len):
    if kind == "two-regime":
        dataset, _ = generate(two_regime_config(n_samples=n, noise_sd=0.01, seed=seed))
        sel = select_columns(dataset, MODEL_CONFIGS["SWRC2"])
        X, y, names = sel.X, sel.targets[target], sel.feature_names
    else:
        rng = np.random.default_rng(seed)
        X, y, names = rng.normal(0, 1, (n, 3)), rng.normal(0, 1, n), ["a", "b", "c"]
    config = CpxrConfig(rho=rho, max_k=max_k, min_reduction=min_reduction,
                        jaccard_max=jaccard_max, max_len=max_len)
    model = train_cpxr(X, y, names, config)
    assert model.train_rmse <= model.baseline_rmse
    if model.k == 0:
        assert model.train_rmse == model.baseline_rmse


def test_mined_patterns_come_in_scan_order(monkeypatch):
    # the miner returns its patterns sorted by (-growth, -support_le,
    # length, text), and the filter gets each one's rows in that order
    mined, filtered = [], []

    def mine(items, masks_le, masks_se, *args):
        found = _mine_masks(items, masks_le, masks_se, *args)
        n_le, n_se = masks_le.shape[1], masks_se.shape[1]
        mined.append([(Pattern(tuple(items[j] for j in js)), c_le / n_le, c_se / n_se)
                      for js, c_le, c_se in found])
        return found

    def keep(masks, jaccard_max):
        filtered.append(masks)
        return filter_similar_masks(masks, jaccard_max)

    monkeypatch.setattr(soilptf.cpxr, "_mine_masks", mine)
    monkeypatch.setattr(soilptf.cpxr, "filter_similar_masks", keep)
    dataset, _ = generate(two_regime_config(n_samples=300, noise_sd=0.01, seed=7))
    sel = select_columns(dataset, MODEL_CONFIGS["SWRC2"])
    for y in sel.targets.values():
        train_cpxr(sel.X, y, sel.feature_names)
    assert sum(map(len, mined)) > 100 and max(len(pat) for m in mined for pat, _, _ in m) > 2
    for found, masks in zip(mined, filtered, strict=True):
        keys = [(-(s_le / s_se if s_se else np.inf), -s_le, len(pat), str(pat))
                for pat, s_le, s_se in found]
        assert keys == sorted(keys)
        assert [pattern_mask(pat, sel.X, sel.feature_names).tolist() for pat, _, _ in found] \
            == masks.tolist()


def test_training_decisions_the_tracer_counts(monkeypatch):
    # the readings benchmark/trace_child.py takes, on the ten SWRC2 targets
    # of the seed-7 two-regime table: patterns mined and kept, candidates
    # reaching the optimizer, local fits, and each model's pattern count
    counts = {"mined": 0, "kept": 0, "candidates": 0, "fits": 0}

    def count(name, key, reading):
        real = getattr(soilptf.cpxr, name)

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            counts[key] += reading(args, result)
            return result

        monkeypatch.setattr(soilptf.cpxr, name, spy)

    count("_mine_masks", "mined", lambda args, result: len(result))
    count("filter_similar_masks", "kept", lambda args, result: len(result))
    count("_optimize", "candidates", lambda args, result: len(args[0]))
    # every local fit: the baselines, one per target of fit_local_targets,
    # then one _solve per candidate and default fit
    count("fit_local_targets", "fits", lambda args, result: len(result))
    count("_solve", "fits", lambda args, result: 1)
    X, ys, names = _swrc2_seed7()
    models = train_cpxr_targets(X, ys, names)
    assert counts == {"mined": 235, "kept": 81, "candidates": 67, "fits": 90}
    assert [model.k for model in models] == [3, 2, 2, 2, 2, 2, 6, 5, 1, 7]


def test_train_rmse_is_the_rmse_of_predict_matrix():
    # train_rmse comes from the candidate table, not from predict_matrix:
    # for every SWRC2 target of a two-regime table the two must agree
    # exactly, and the model must not lose to its baseline
    dataset, _ = generate(two_regime_config(n_samples=120, noise_sd=0.01, seed=7))
    sel = select_columns(dataset, MODEL_CONFIGS["SWRC2"])
    ks = []
    for target, y in sel.targets.items():
        model = train_cpxr(sel.X, y, sel.feature_names)
        pred = model.predict_matrix(sel.X, sel.feature_names)
        assert model.train_rmse == float(np.sqrt(np.mean((y - pred) ** 2))), target
        assert model.train_rmse <= model.baseline_rmse, target
        ks.append(model.k)
    assert max(ks) > 0  # the pattern route ran


def test_weighted_mean_has_one_sum_and_the_optimizer_one_move():
    # train_rmse equals the RMSE of predict_matrix only while training, the
    # optimizer and predict_matrix add the same rows in the same order:
    # cpxr.py builds num and den in _sums alone, and the optimizer scores
    # its pool at one argmin. The source file is only read.
    source = (Path(soilptf.__file__).parent / "cpxr.py").read_text()
    (sums,) = [node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == "_sums"]
    lines = source.splitlines()
    adds = [n for n, line in enumerate(lines, 1) if re.search(r"\b(num|den)\s*\+=", line)]
    assert adds and all(sums.lineno <= n <= sums.end_lineno for n in adds), adds
    assert source.count("np.argmin") == 1


def test_train_exact_linear_falls_back_to_baseline():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (50, 2))
    y = 3.0 * X[:, 0] + 1.0
    model = train_cpxr(X, y, ["a", "b"])
    assert model.train_rmse <= model.baseline_rmse
    assert model.baseline_rmse < 1e-9


def test_train_constant_features_degrade_cleanly():
    X = np.full((40, 2), 3.0)
    y = np.random.default_rng(1).normal(0, 1, 40)
    model = train_cpxr(X, y, ["a", "b"])
    assert model.k == 0
    assert model.train_rmse == model.baseline_rmse


def test_train_minimum_rows():
    X, y = _two_regime(n=29)
    with pytest.raises(CpxrError, match="at least 30"):
        train_cpxr(X, y, ["x", "z"])


def _json(model):
    return json.dumps(model.to_dict(), sort_keys=True)


def _swrc2_seed7():
    dataset, _ = generate(two_regime_config(n_samples=300, seed=7))
    selection = select_columns(dataset, MODEL_CONFIGS["SWRC2"])
    return selection.X, list(selection.targets.values()), selection.feature_names


def test_targets_trained_together_match_each_trained_alone():
    X, ys, names = _swrc2_seed7()
    together = train_cpxr_targets(X, ys, names)
    assert len(together) == len(ys) == 10
    assert sum(model.k for model in together) > 0
    for y, model in zip(ys, together):
        assert _json(model) == _json(train_cpxr(X, y, names))


def test_constant_target_trains_baseline_only_beside_the_others():
    # a zero target leaves zero residuals: an empty large-error class, so it
    # takes no part in the shared discretization
    X, ys, names = _swrc2_seed7()
    ys = [ys[0], np.zeros(len(X)), ys[2]]
    together = train_cpxr_targets(X, ys, names)
    assert together[1].k == 0 and together[1].scheme.cuts == {}
    assert together[0].scheme.cuts and together[2].scheme.cuts
    for y, model in zip(ys, together):
        assert _json(model) == _json(train_cpxr(X, y, names))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(30, 80), p=st.integers(1, 4), targets=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_generated_targets_trained_together_match_each_trained_alone(n, p, targets, seed, data):
    # regime targets over coarse (tied) features, plus a zero target (an
    # empty large-error class) and one target given twice, in a drawn order
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(0, 5, (n, p)), int(rng.integers(0, 3)))
    ys = []
    for _ in range(targets):
        x = X[:, rng.integers(p)]
        shift = np.where(x > np.quantile(x, 0.7), rng.uniform(2, 5) * (1 + x), 0.0)
        ys.append(X @ rng.normal(size=p) + shift + rng.normal(0, 0.05, n))
    ys += [np.zeros(n), ys[data.draw(st.integers(0, targets - 1))]]
    ys = data.draw(st.permutations(ys))
    names = [f"f{j}" for j in range(p)]
    together = train_cpxr_targets(X, ys, names)
    assert [_json(model) for model in together] == [_json(train_cpxr(X, y, names)) for y in ys]
    zero = next(t for t, y in enumerate(ys) if not y.any())
    assert together[zero].to_dict()["scheme"] == {} and together[zero].k == 0


def test_too_few_rows_raise_the_error_train_cpxr_raises():
    X, ys, names = _swrc2_seed7()
    X, ys = X[:29], [y[:29] for y in ys[:3]]
    with pytest.raises(CpxrError) as together:
        train_cpxr_targets(X, ys, names)
    with pytest.raises(CpxrError) as alone:
        train_cpxr(X, ys[0], names)
    assert str(together.value) == str(alone.value) == "need at least 30 training rows, got 29"


def test_errors_are_raised_in_stage_order(monkeypatch):
    # every target's baseline (stage 1) fits before any target mines (stage
    # 3): target 1's short y fails first, although target 0 comes first
    X, ys, names = _swrc2_seed7()

    def mine(*args):
        raise RuntimeError("mining failed")

    monkeypatch.setattr(soilptf.cpxr, "_mine_masks", mine)
    with pytest.raises(FitError, match="but y has shape"):
        train_cpxr_targets(X, [ys[0], ys[1][:-1]], names)
    with pytest.raises(RuntimeError, match="^mining failed$"):
        train_cpxr_targets(X, ys[:2], names)


def test_trained_model_json_roundtrip():
    X, y = _two_regime()
    model = train_cpxr(X, y, ["x", "z"])
    back = _via_json(model)
    assert back.k == model.k
    assert back.predict_matrix(X, ["x", "z"]).tolist() == (
        model.predict_matrix(X, ["x", "z"]).tolist()
    )


def test_trained_model_json_roundtrip_unsorted_names():
    # feature names out of alphabetical order: the loaded local models keep
    # the training order, predictions must stay bit-identical
    X, y = _two_regime()
    X = X[:, ::-1].copy()
    model = train_cpxr(X, y, ["z", "x"])
    assert model.k >= 1
    back = _via_json(model)
    assert back.default_model.feature_names == ["z", "x"]
    assert back.predict_matrix(X, ["z", "x"]).tolist() == (
        model.predict_matrix(X, ["z", "x"]).tolist()
    )


def _linear_parts(model):
    if isinstance(model, LinearModel):
        return [model]
    return [model.default_model, model.baseline] + [p.model for p in model.pairs]


@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(st.sampled_from(["sand", "clay", "d_g", "n", "alpha", "length_cm"]),
                   min_size=1, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_files_keep_the_training_column_order(names, seed):
    # JSON with sorted keys loses the order of the coefficient dicts; the
    # loaded model must still list its features in training order and, fed
    # columns in that order, give the in-memory model's bits
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (12, len(names)))
    y = X @ rng.normal(0, 1, len(names)) + rng.normal(0, 0.1, 12)
    Xp, yp = _two_regime(seed=seed % 1000)
    Xp = Xp[:, ::-1].copy()
    cases = [
        (fit_local(X, y, names), X, names),
        (train_cpxr(Xp, yp, ["z", "x"]), Xp, ["z", "x"]),
    ]
    for model, cols, order in cases:
        back = _via_json(model)
        assert back.feature_names == order
        assert [m.feature_names for m in _linear_parts(back)] == (
            [m.feature_names for m in _linear_parts(model)]
        )
        assert back.predict_matrix(cols, back.feature_names).tobytes() == (
            model.predict_matrix(cols, order).tobytes()
        )


def _random_pxr(seed):
    rng = np.random.default_rng(seed)
    names = ["z", "x"]

    def linear():
        return LinearModel(
            intercept=float(rng.normal()),
            coefficients={f: float(rng.normal()) for f in names},
            training_count=5,
            feature_means={f: 0.0 for f in names},
            feature_scales={f: 1.0 for f in names},
        )

    pairs, seen = [], set()
    for _ in range(int(rng.integers(0, 4))):
        f = names[int(rng.integers(2))]
        lo = float(rng.normal())
        if rng.random() < 0.3:  # a unit bin around an integer
            v = float(rng.integers(-1, 2))
            item = Item(f, lo=v - 0.5, hi=v + 0.5)
        else:
            item = Item(f, lo=lo, hi=lo + float(rng.uniform(0.1, 2.0)))
        pattern = Pattern((item,))
        if str(pattern) not in seen:
            seen.add(str(pattern))
            pairs.append(PatternLocal(pattern, linear(), float(rng.uniform(1e-6, 2.0))))
    default = linear()
    # a model file holds its training summary, and from_dict checks it
    return PxrModel(pairs=pairs, default_model=default, baseline=default,
                    scheme=DiscretizationScheme(), feature_names=names,
                    train_rmse=1.0, baseline_rmse=1.0, trace=[1.0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    z=st.one_of(st.integers(-1, 1).map(float), st.floats(-3.0, 3.0)),
    x=st.one_of(st.integers(-1, 1).map(float), st.floats(-3.0, 3.0)),
)
def test_one_row_predict_is_predict_matrix(seed, z, x):
    model = _random_pxr(seed)
    sample = {"x": x, "z": z}
    row = np.array([[z, x]])
    for m in (model, _via_json(model)):
        assert m.predict(sample).hex() == float(m.predict_matrix(row, ["z", "x"])[0]).hex()
        assert m.predict(sample).hex() == model.predict(sample).hex()
        lin = m.default_model
        want = float(lin.predict_matrix(np.array([[sample[f] for f in lin.feature_names]]),
                                        lin.feature_names)[0])
        assert lin.predict(sample).hex() == want.hex()
