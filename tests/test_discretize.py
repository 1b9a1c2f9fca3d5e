"""MDL discretization against hand values and a brute-force oracle."""

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilptf.cpxr import CpxrConfig, split_le_se, train_cpxr
from soilptf.data import select_columns
from soilptf.discretize import (
    CutPoints,
    DiscretizationScheme,
    DiscretizeError,
    build_scheme,
    build_schemes,
    mdl_discretize,
)
from soilptf.hydrology import MODEL_CONFIGS
from soilptf.synth import generate, two_regime_config


# ----------------------------------------------------------------------
# independent oracle: exhaustive midpoint search with the same MDL rule
# ----------------------------------------------------------------------

def _ent(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log2(p)
    return h


def brute_force_cuts(values, labels, max_depth=3):
    pairs = sorted(zip(values, labels), key=lambda t: t[0])
    out = []

    def split(seg, depth):
        if depth >= max_depth or len(seg) < 2:
            return
        labs = [l for _, l in seg]
        distinct = sorted(set(v for v, _ in seg))
        best = None
        for a, b in zip(distinct, distinct[1:]):
            cut = (a + b) / 2.0
            left = [l for v, l in seg if v < cut]
            right = [l for v, l in seg if v >= cut]
            w = (len(left) * _ent(left) + len(right) * _ent(right)) / len(seg)
            if best is None or w < best[0]:
                best = (w, cut, left, right)
        if best is None:
            return
        w, cut, left, right = best
        n = len(seg)
        gain = _ent(labs) - w
        c, c1, c2 = len(set(labs)), len(set(left)), len(set(right))
        delta = math.log2(3**c - 2) - (c * _ent(labs) - c1 * _ent(left) - c2 * _ent(right))
        if gain <= (math.log2(n - 1) + delta) / n:
            return
        out.append(cut)
        split([t for t in seg if t[0] < cut], depth + 1)
        split([t for t in seg if t[0] >= cut], depth + 1)

    split(pairs, 0)
    return tuple(sorted(out))


# ----------------------------------------------------------------------
# scalar reference: the per-run loop with one _entropy call per cut
# ----------------------------------------------------------------------

def _entropy(counts):
    """Shannon entropy in bits of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _mdl_accepts(n, whole, left, right):
    """Fayyad-Irani acceptance of one split of n rows into class counts
    left and right, evaluated scalar by scalar."""
    h, h1, h2 = (_entropy(counts) for counts in (whole, left, right))
    gain = h - (left.sum() / n) * h1 - (right.sum() / n) * h2
    c, c1, c2 = (int((counts > 0).sum()) for counts in (whole, left, right))
    delta = math.log2(3**c - 2) - (c * h - c1 * h1 - c2 * h2)
    return gain > (math.log2(n - 1) + delta) / n


def scalar_reference_cuts(values, labels, max_depth):
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    _, class_idx = np.unique(np.asarray(labels)[order], return_inverse=True)
    k = int(class_idx.max()) + 1 if len(class_idx) else 0
    cuts = []

    def split(start, stop, depth):
        if depth >= max_depth or stop - start < 2:
            return
        n = stop - start
        groups = []
        g_start = start
        for i in range(start + 1, stop + 1):
            if i == stop or vals[i] != vals[g_start]:
                groups.append((vals[g_start], np.bincount(class_idx[g_start:i], minlength=k)))
                g_start = i
        if len(groups) < 2:
            return
        whole = np.bincount(class_idx[start:stop], minlength=k)
        best = None
        left = np.zeros(k, dtype=int)
        for (v_a, counts_a), (v_b, counts_b) in zip(groups, groups[1:]):
            left = left + counts_a
            if ((counts_a > 0) | (counts_b > 0)).sum() < 2:
                continue
            right = whole - left
            w = (left.sum() * _entropy(left) + right.sum() * _entropy(right)) / n
            if best is None or w < best[0]:
                best = (w, (v_a + v_b) / 2.0, left.copy())
        if best is None:
            return
        _, cut, left_counts = best
        if not _mdl_accepts(n, whole, left_counts, whole - left_counts):
            return
        cuts.append(cut)
        mid = start + int(left_counts.sum())
        split(start, mid, depth + 1)
        split(mid, stop, depth + 1)

    if len(vals) >= 2 and k >= 2:
        split(0, len(vals), 0)
    return tuple(sorted(cuts))


@st.composite
def tied_columns(draw):
    """A column of few distinct values (heavy ties), a share of its runs of
    equal values pure in one class, optionally followed by its mirror
    image with the classes reversed, whose cuts tie with the original's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    distinct = draw(st.integers(1, 40))
    k = draw(st.integers(1, 3))
    codes = rng.integers(0, distinct, n)
    pure = rng.random(distinct) < draw(st.floats(0.0, 1.0))
    run_class = rng.integers(0, k, distinct)
    labels = np.where(pure[codes], run_class[codes], rng.integers(0, k, n))
    if draw(st.booleans()):
        codes = np.concatenate([codes, 2 * distinct - 1 - codes])
        labels = np.concatenate([labels, k - 1 - labels])
    if draw(st.booleans()):
        labels = np.array(["SE", "LE", "mid"])[labels]
    values = codes * draw(st.sampled_from([1.0, 0.1, 0.37, -2.5]))
    return values, labels, draw(st.integers(0, 4))


# The best cuts 7.5 and 23.5 tie exactly; the first one wins.
_EQUAL_TIE = (np.arange(32.0), np.array([0] * 8 + [1] * 16 + [0] * 8), 1)
# The best cuts 3.5 and 9.5 tie in exact arithmetic; only adding the
# entropy terms in class order picks 3.5.
_MIRROR_TIE = (np.arange(14.0), np.array([0, 0, 0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 2, 2]), 1)


@settings(max_examples=200, deadline=None)
@example(_EQUAL_TIE)
@example(_MIRROR_TIE)
@given(tied_columns())
def test_cut_search_matches_scalar_reference(column):
    values, labels, max_depth = column
    got = mdl_discretize(values, labels, max_depth=max_depth).cuts
    assert got == scalar_reference_cuts(values, labels, max_depth)


@st.composite
def scheme_matrices(draw):
    """A design matrix of 1-6 columns sharing one labeling: a tied_columns
    column, plus heavy-tie columns of the same labels (a row takes one of
    its class's own values or one shared by all classes), constant columns
    and columns whose runs are pure and grouped by class, which run out of
    class boundaries after a cut per class change while others still split."""
    values, labels, _ = draw(tied_columns())
    n = len(values)
    _, codes = np.unique(labels, return_inverse=True)
    k = int(codes.max()) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [values]
    for kind in draw(st.lists(st.sampled_from(["tied", "constant", "grouped"]), max_size=5)):
        if kind == "tied":
            distinct = draw(st.integers(1, 20))
            own = rng.random(n) < draw(st.floats(0.0, 1.0))
            shared = rng.integers(0, distinct, n)
            column = np.where(own, (codes + 1) * distinct + shared, shared)
            column = rng.permutation((k + 1) * distinct)[column].astype(float)
        elif kind == "constant":
            column = np.full(n, draw(st.sampled_from([0.0, 1.0, 1e300])))
        else:
            column = codes * 10.0 + rng.integers(0, 3, n)
        columns.append(column * draw(st.sampled_from([1.0, 0.1, 0.37, -2.5])))
    order = draw(st.permutations(range(len(columns))))
    return np.column_stack([columns[j] for j in order]), labels, draw(st.integers(0, 5))


def _hex(cuts):
    return [float(c).hex() for c in cuts]


@settings(max_examples=100, deadline=None)
@given(scheme_matrices())
def test_scheme_matches_scalar_reference_per_column(matrix):
    X, labels, max_depth = matrix
    names = [f"x{j}" for j in range(X.shape[1])]
    scheme = build_scheme(X, labels, names, max_depth=max_depth)
    assert list(scheme.cuts) == names
    for j, name in enumerate(names):
        assert _hex(scheme.cuts[name]) == _hex(scalar_reference_cuts(X[:, j], labels, max_depth))


@st.composite
def labelled_matrices(draw):
    """A scheme_matrices design matrix with 1-5 labelings of its rows: its
    own labels, those labels with a share of rows relabelled, random labels
    of 1-3 classes, or one class only; then, sometimes, a NaN cell or a
    label matrix of the wrong row count."""
    X, labels, max_depth = draw(scheme_matrices())
    n = len(X)
    _, codes = np.unique(labels, return_inverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["own", "relabelled", "random", "one-class"]),
                              min_size=1, max_size=5)):
        if kind == "own":
            columns.append(codes)
        elif kind == "relabelled":
            flip = rng.random(n) < draw(st.floats(0.0, 1.0))
            columns.append(np.where(flip, rng.integers(0, 3, n), codes))
        elif kind == "random":
            columns.append(rng.integers(0, draw(st.integers(1, 3)), n))
        else:
            columns.append(np.full(n, draw(st.integers(0, 2))))
    L = np.column_stack(columns)
    if labels.dtype.kind == "U":
        L = np.array(["SE", "LE", "mid"])[L]
    fault = draw(st.sampled_from([None, None, None, "nan", "rows"]))
    if fault == "nan":
        X = X.copy()
        X[rng.integers(0, n), rng.integers(0, X.shape[1])] = np.nan
    elif fault == "rows":
        L = L[:-1] if draw(st.booleans()) else np.vstack([L, L[:1]])
    return X, L, max_depth


# the second labeling has one class, the third is the first relabelled
_ONE_CLASS = (np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 1e300], [4.0, 1e300], [5.0, 7.0]]),
              np.array([[0, 1, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [1, 1, 1]]), 2)


@settings(max_examples=100, deadline=None)
@example(_ONE_CLASS)
@given(labelled_matrices())
def test_schemes_match_one_scheme_per_labeling(matrix):
    X, L, max_depth = matrix
    names = [f"x{j}" for j in range(X.shape[1])]
    try:
        schemes = build_schemes(X, L, names, max_depth=max_depth)
    except DiscretizeError as exc:
        for t in range(L.shape[1]):
            with pytest.raises(DiscretizeError) as alone:
                build_scheme(X, L[:, t], names, max_depth=max_depth)
            assert str(alone.value) == str(exc)
        return
    assert len(schemes) == L.shape[1]
    for t, scheme in enumerate(schemes):
        alone = build_scheme(X, L[:, t], names, max_depth=max_depth)
        assert list(scheme.cuts) == names
        assert {f: _hex(c) for f, c in scheme.cuts.items()} == (
            {f: _hex(c) for f, c in alone.cuts.items()})


def test_schemes_need_a_label_matrix():
    with pytest.raises(DiscretizeError, match=re.escape("must form a 2-d matrix, got shape (3,)")):
        build_schemes(np.zeros((3, 1)), [0, 1, 0], ["a"])
    assert build_schemes(np.zeros((3, 1)), np.zeros((3, 0)), ["a"]) == []


def test_trained_schemes_match_scalar_reference_on_le_labels():
    # the labels a CPXR training discretizes against: the large-error rows
    # of its baseline's residuals
    dataset, _ = generate(two_regime_config(n_samples=120, noise_sd=0.01, seed=7))
    selection = select_columns(dataset, MODEL_CONFIGS["SWRC2"])
    X, names = selection.X, selection.feature_names
    config = CpxrConfig()
    total = 0
    for target, y in selection.targets.items():
        model = train_cpxr(X, y, names, config)
        labels = np.zeros(len(y), dtype=int)
        labels[split_le_se(y - model.baseline.predict_matrix(X, names), config.rho).le_ids] = 1
        for j, name in enumerate(names):
            expected = scalar_reference_cuts(X[:, j], labels, config.max_depth)
            assert _hex(model.scheme.cuts[name]) == _hex(expected), (target, name)
            total += len(expected)
    assert total > 0


def _ladder(x, below, above):
    """x with `below` adjacent doubles under it and `above` over it."""
    down = [x]
    for _ in range(below):
        down.append(math.nextafter(down[-1], -math.inf))
    up = [x]
    for _ in range(above):
        up.append(math.nextafter(up[-1], math.inf))
    return down[:0:-1] + up


@st.composite
def extreme_columns(draw):
    """A column of a few adjacent doubles near 1.0 or near +-1.7e308, where
    the plain midpoint (lo + hi) / 2 rounds onto an end or overflows, with
    labels that often make the MDL criterion accept splits."""
    pool = draw(st.sampled_from([
        _ladder(1.0, 2, 2),
        _ladder(1.7e308, 3, 3),
        _ladder(-1.7e308, 3, 3),
        [-1.7e308, -1e308, 1e308, 1.7e308],
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 80))
    codes = rng.integers(0, len(pool), n)
    pure = rng.random(len(pool)) < draw(st.floats(0.5, 1.0))
    labels = np.where(pure[codes], rng.integers(0, 2, len(pool))[codes], rng.integers(0, 2, n))
    return np.array(pool)[codes], labels, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(extreme_columns())
def test_cuts_between_extreme_values_split_as_scored(column):
    values, labels, max_depth = column
    cuts = mdl_discretize(values, labels, max_depth=max_depth).cuts
    # MDL sees only the order of the values, so the cuts of the ranks name
    # the pair of adjacent distinct values each cut has to separate
    distinct, ranks = np.unique(values, return_inverse=True)
    rank_cuts = scalar_reference_cuts(ranks.astype(float), labels, max_depth)
    assert len(cuts) == len(rank_cuts)
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    for cut, r in zip(cuts, rank_cuts):
        lo, hi = distinct[int(r - 0.5)], distinct[int(r + 0.5)]
        assert math.isfinite(cut) and lo < cut <= hi


def test_four_point_example():
    got = mdl_discretize([1, 2, 3, 4], ["SE", "SE", "LE", "LE"])
    assert got.cuts == (2.5,)
    # integer labels behave identically
    assert mdl_discretize([1, 2, 3, 4], [0, 0, 1, 1]).cuts == (2.5,)
    # the accepted split has gain 1.0 against a threshold just under 0.6
    threshold = (math.log2(3) + math.log2(7) - 2.0) / 4.0
    assert 0.59 < threshold < 0.60


def test_degenerate_inputs_yield_no_cuts():
    assert mdl_discretize([1, 2, 3, 4], ["LE", "LE", "LE", "LE"]).cuts == ()
    assert mdl_discretize([5, 5, 5, 5], ["LE", "SE", "LE", "SE"]).cuts == ()
    assert mdl_discretize([1.0], ["LE"]).cuts == ()


def test_shape_and_nan_errors():
    with pytest.raises(DiscretizeError, match=re.escape("values/labels shape mismatch: (3,) vs (2,)")):
        mdl_discretize([1, 2, 3], ["LE", "SE"])
    with pytest.raises(DiscretizeError, match="^values contain NaN$"):
        mdl_discretize([1, float("nan")], ["LE", "SE"])
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.nan]])
    with pytest.raises(DiscretizeError, match="^values contain NaN$"):
        build_scheme(X, [0, 1, 0], ["a", "b"])


def test_unbounded_depth_stops_when_no_segment_splits():
    # 16 alternating bands of 16 rows: splitting goes on for several levels
    # and ends when no segment passes the MDL test
    values = np.arange(256.0)
    X = np.column_stack([values, values[::-1], values % 7])
    labels = (values // 16) % 2
    names = ["up", "down", "mod"]
    began = time.perf_counter()
    unbounded = build_scheme(X, labels, names, max_depth=10**9)
    assert time.perf_counter() - began < 10
    assert unbounded.cuts == build_scheme(X, labels, names, max_depth=len(values)).cuts
    assert len(unbounded.cuts["up"]) > len(build_scheme(X, labels, names).cuts["up"])


def test_shift_invariance():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        values = rng.integers(0, 8, n).astype(float)
        labels = rng.integers(0, 2, n)
        base = mdl_discretize(values, labels).cuts
        shifted = mdl_discretize(values + 17.25, labels).cuts
        assert np.allclose(shifted, np.asarray(base) + 17.25)


def test_brute_force_agreement_sample():
    # a lighter sweep than the acceptance run, mixing duplicates and ties
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(2, 21))
        if trial % 2:
            values = rng.integers(0, 6, n).astype(float)
        else:
            values = np.round(rng.normal(0, 1, n), 2)
        labels = rng.integers(0, 2, n).tolist()
        got = mdl_discretize(values, labels).cuts
        assert got == brute_force_cuts(values.tolist(), labels)


def test_depth_cap_limits_recursion():
    # nested structure: a middle band of one class flanked by the other
    values = np.arange(64, dtype=float)
    labels = [1 if 16 <= i < 48 else 0 for i in range(64)]
    assert mdl_discretize(values, labels).cuts == (15.5, 47.5)
    assert mdl_discretize(values, labels, max_depth=1).cuts == (15.5,)


def test_cuts_inside_observed_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = rng.normal(0, 5, 25)
        labels = rng.integers(0, 2, 25)
        cuts = mdl_discretize(values, labels).cuts
        for c in cuts:
            assert values.min() < c < values.max()


def test_cutpoints_must_increase():
    with pytest.raises(DiscretizeError):
        CutPoints(cuts=(3.0, 3.0))


def test_interval_item_partition():
    scheme = DiscretizationScheme(cuts={"x": (2.5, 7.0)})
    xs = np.array([-10.0, 0.0, 2.4999, 2.5, 5.0, 6.999, 7.0, 99.0])
    covers = np.array([it.covers_array(xs) for it in scheme.alphabet()])
    # exactly one alphabet item covers each x
    assert covers.sum(axis=0).tolist() == [1] * len(xs)
    # boundary value falls in the right (half-open) bin
    (bin_of_cut,) = [it for it, hit in zip(scheme.alphabet(), covers[:, 3]) if hit]
    assert str(bin_of_cut) == "2.5 <= x < 7"


def test_interval_item_zero_cuts_and_errors():
    scheme = DiscretizationScheme(cuts={"x": ()})
    assert scheme.alphabet() == []  # all-range items are not discriminative


def test_alphabet_single_cut():
    scheme = DiscretizationScheme(cuts={"x": (2.5,)})
    assert [str(it) for it in scheme.alphabet()] == ["x < 2.5", "x >= 2.5"]


def test_build_scheme_and_categorical():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [4.0, 1.0]])
    scheme = build_scheme(X, [0, 0, 1, 1], ["x", "g"])
    assert scheme.cuts["x"] == (2.5,)
    with pytest.raises(DiscretizeError):
        build_scheme(X, [0, 0, 1, 1], ["x"])


def test_scheme_serialization_roundtrip():
    scheme = DiscretizationScheme(cuts={"x": (2.5, 7.0), "y": ()})
    back = DiscretizationScheme.from_dict(json.loads(json.dumps(scheme.to_dict(), sort_keys=True)))
    assert back.cuts == scheme.cuts
    assert scheme.to_dict() == {"x": [2.5, 7.0], "y": []}


@pytest.mark.parametrize("entry, message", [
    ({"values": [0, 1]}, "list of finite numbers"),
    ("2.5", "list of finite numbers"),
    (2.5, "list of finite numbers"),
    (None, "list of finite numbers"),
    (["2.5"], "list of finite numbers"),
    ([True], "list of finite numbers"),
    ([1.0, math.nan], "list of finite numbers"),
    ([math.inf], "list of finite numbers"),
    ([7.0, 2.5], "not strictly increasing"),
    ([2.5, 2.5], "not strictly increasing"),
], ids=["values-dict", "string", "number", "null", "string-cut", "bool-cut", "nan-cut",
        "inf-cut", "decreasing", "repeated"])
def test_scheme_entry_must_be_finite_increasing_numbers(entry, message):
    with pytest.raises(DiscretizeError, match=message):
        DiscretizationScheme.from_dict({"x": [1.0], "g": entry})
