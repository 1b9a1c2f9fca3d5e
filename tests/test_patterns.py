"""Pattern algebra and contrast mining, checked against an exhaustive oracle."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilptf.discretize import DiscretizationScheme
from soilptf.patterns import (
    INF,
    Item,
    Pattern,
    PatternError,
    _mine_masks,
    filter_similar_masks,
    pattern_mask,
)


def test_item_text_forms():
    assert str(Item("Sand", lo=82.0, hi=86.0)) == "82 <= Sand < 86"
    assert str(Item("Silt", hi=20.0)) == "Silt < 20"
    assert str(Item("x", lo=2.5)) == "x >= 2.5"
    assert str(Item("x")) == "x any"


def _covers(it, x):
    """Scalar reference for Item.covers_array."""
    return it.lo <= x < it.hi


def test_item_covers_half_open():
    it = Item("x", lo=2.0, hi=5.0)
    assert it.covers_array(np.array([2.0, 4.999, 5.0, 1.999])).tolist() == [
        True, True, False, False,
    ]
    assert Item("x").covers_array(np.array([-1e300, 1e300])).all()


def test_item_covers_array_matches_scalar():
    rng = np.random.default_rng(5)
    xs = rng.normal(0, 3, 200)
    for it in (Item("x", lo=-1.0, hi=2.0), Item("x", hi=0.0), Item("x", lo=float(xs[0]))):
        mask = it.covers_array(xs)
        assert mask.tolist() == [_covers(it, float(x)) for x in xs]


def test_item_empty_interval_rejected():
    with pytest.raises(PatternError, match="empty interval"):
        Item("x", lo=5.0, hi=5.0)


def test_item_dict_roundtrip():
    for it in (Item("x", lo=1.0, hi=2.0), Item("x", hi=2.0), Item("x", lo=1.0), Item("x")):
        assert Item.from_dict(it.to_dict()) == it
    assert Item("x", hi=2.0).to_dict() == {"feature": "x", "lo": None, "hi": 2.0}


@pytest.mark.parametrize("d", [
    {"feature": "x"},
    {"feature": "x", "lo": 1.0},
    {"feature": "x", "value": 3.0},
    {"feature": "x", "lo": None, "hi": None, "value": 3.0},
    {"feature": "x", "lo": 1.0, "hi": 2.0, "note": ""},
], ids=["feature-only", "no-hi", "equality", "equality-plus-bounds", "extra-key"])
def test_item_from_dict_takes_exactly_its_keys(d):
    with pytest.raises(PatternError, match="exactly the keys feature, lo and hi"):
        Item.from_dict(d)


def test_pattern_canonical_order():
    a = Item("a", lo=1.0)
    z = Item("z", hi=2.0)
    p = Pattern((z, a))
    assert str(p) == "a >= 1 & z < 2"
    assert p == Pattern((a, z))
    assert p.features == ("a", "z")
    assert len(p) == 2


def test_pattern_rejects_duplicates_and_empty():
    with pytest.raises(PatternError, match="more than one item"):
        Pattern((Item("x", hi=2.0), Item("x", lo=2.0)))
    with pytest.raises(PatternError, match="at least one item"):
        Pattern(())


def test_pattern_dict_roundtrip():
    p = Pattern((Item("x", lo=1.0, hi=2.0), Item("g", lo=-0.5, hi=0.5)))
    assert Pattern.from_dict(p.to_dict()) == p


def _matches(pattern, x):
    """Scalar reference: every item covers the sample's value."""
    return all(_covers(it, x[it.feature]) for it in pattern.items)


def test_pattern_mask_against_matches():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 5, (30, 2)).astype(float)
    names = ["x", "y"]
    p = Pattern((Item("x", lo=1.0, hi=4.0), Item("y", hi=3.0)))
    mask = pattern_mask(p, X, names)
    expect = [_matches(p, dict(zip(names, row))) for row in X]
    assert mask.tolist() == expect
    with pytest.raises(PatternError, match="lacks feature"):
        pattern_mask(p, X, ["x", "z"])


# ----------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Stats:
    """A mined pattern's supports on the two error classes and their ratio."""

    support_le: float
    support_se: float
    count_le: int
    count_se: int

    @property
    def growth(self) -> float:
        return INF if self.support_se == 0.0 else self.support_le / self.support_se


def _order_key(pair):
    """The scan order of a mined (pattern, stats) pair: descending growth,
    then descending support_le, then shorter, then text."""
    pattern, stats = pair
    return (-stats.growth, -stats.support_le, len(pattern), str(pattern))


def _pairs(items, found, n_le, n_se):
    """_mine_masks's (item indices, LE count, SE count) triples as
    (pattern, stats) pairs, in the order given."""
    return [
        (Pattern(tuple(items[j] for j in js)),
         Stats(c_le / n_le, c_se / n_se if n_se else 0.0, c_le, c_se))
        for js, c_le, c_se in found
    ]


def _mine(le_rows, se_rows, names, scheme, min_support_le=0.02, min_growth=2.0,
          max_len=4, min_count_le=2):
    """Item masks from Item.covers_array over the two classes' rows, mined
    by _mine_masks: (pattern, stats) pairs in the miner's order."""
    items = scheme.alphabet()
    col = {name: j for j, name in enumerate(names)}

    def masks(rows):
        X = np.asarray(rows, dtype=float).reshape(len(rows), len(names))
        cover = [it.covers_array(X[:, col[it.feature]]) for it in items]
        return np.array(cover, dtype=bool).reshape(len(items), len(X))

    found = _mine_masks(items, masks(le_rows), masks(se_rows), min_support_le, min_growth,
                        max_len, min_count_le)
    return _pairs(items, found, len(le_rows), len(se_rows))


def test_growth_ratio_and_infinite():
    # 'x < 2.5' has growth 1.0 / 0.5 = 2.0 exactly, kept at min_growth 2.0
    # and dropped just above it; the patterns without SE rows have infinite
    # growth and come first
    names = ["x", "y"]
    le = [[0, 0], [0, 0], [0, 5], [0, 5]]
    se = [[0, 5], [0, 5], [5, 5], [5, 5]]
    scheme = DiscretizationScheme(cuts={"x": (2.5,), "y": (2.5,)})
    found = _mine(le, se, names, scheme, min_growth=2.0)
    assert [(str(p), st.growth) for p, st in found] == [
        ("y < 2.5", INF), ("x < 2.5 & y < 2.5", INF), ("x < 2.5", 2.0)]
    above = _mine(le, se, names, scheme, min_growth=math.nextafter(2.0, 3.0))
    assert [str(p) for p, _ in above] == ["y < 2.5", "x < 2.5 & y < 2.5"]


def test_mine_pure_bins():
    # LE entirely below the cut, SE entirely above: only the LE-frequent
    # item survives; its mirror has zero large-error support.
    scheme = DiscretizationScheme(cuts={"x": (2.5,)})
    found = _mine([[0], [1], [2], [1], [0]], [[3], [4], [5], [4]], ["x"], scheme)
    assert [str(p) for p, _ in found] == ["x < 2.5"]
    st = found[0][1]
    assert (st.support_le, st.support_se, st.count_le, st.count_se) == (1.0, 0.0, 5, 0)
    assert st.growth == INF


def test_mine_growth_threshold():
    le = [[0], [0], [0], [5], [5]]
    se = [[0], [0], [5], [5], [5]]
    scheme = DiscretizationScheme(cuts={"x": (2.5,)})
    # 'x < 2.5': growth (3/5)/(2/5) = 1.5
    assert _mine(le, se, ["x"], scheme, min_growth=2.0) == []
    found = _mine(le, se, ["x"], scheme, min_growth=1.2)
    assert [str(p) for p, _ in found] == ["x < 2.5"]


def test_mine_max_len_and_counts():
    names = ["a", "b", "c"]
    le = [[0, 0, 0]] * 4
    se = [[5, 5, 5]] * 4
    scheme = DiscretizationScheme(cuts={n: (2.5,) for n in names})
    short = _mine(le, se, names, scheme, max_len=2)
    assert len(short) == 6  # 3 singles + 3 pairs over the low bins
    full = _mine(le, se, names, scheme, max_len=3)
    assert len(full) == 7
    assert max(len(p) for p, _ in full) == 3


def test_mine_input_errors():
    scheme = DiscretizationScheme(cuts={"x": (0.5,)})
    with pytest.raises(PatternError, match="empty"):
        _mine([], [[0], [1]], ["x"], scheme)
    with pytest.raises(PatternError, match="positive"):
        _mine([[0], [1]], [], ["x"], scheme, min_support_le=0.0)
    with pytest.raises(PatternError, match="positive"):
        _mine([[0], [1]], [], ["x"], scheme, min_growth=0.0)
    items = scheme.alphabet()
    with pytest.raises(PatternError, match="one mask row per item"):
        _mine_masks(items, np.ones((1, 3), dtype=bool), np.ones((2, 3), dtype=bool),
                    0.1, 1.5, 2, 1)


def exhaustive_mine(le_rows, se_rows, names, scheme, min_support_le, min_growth, max_len,
                    min_count_le):
    """Brute-force reference: test every feature-distinct item combination."""
    items = scheme.alphabet()
    le = [dict(zip(names, map(float, row))) for row in le_rows]
    se = [dict(zip(names, map(float, row))) for row in se_rows]
    n_le, n_se = len(le), len(se)
    min_cnt = max(min_count_le, math.ceil(min_support_le * n_le))
    out = []
    for r in range(1, max_len + 1):
        for combo in itertools.combinations(items, r):
            feats = [it.feature for it in combo]
            if len(set(feats)) != len(feats):
                continue
            p = Pattern(tuple(combo))
            c_le = sum(1 for x in le if _matches(p, x))
            if c_le < min_cnt:
                continue
            c_se = sum(1 for x in se if _matches(p, x))
            s_le = c_le / n_le
            s_se = c_se / n_se if n_se else 0.0
            growth = math.inf if s_se == 0.0 else s_le / s_se
            if growth < min_growth:
                continue
            out.append((p, Stats(s_le, s_se, c_le, c_se)))
    out.sort(key=_order_key)
    return out


def test_mine_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(33)
    for trial in range(100):
        cuts = {}
        for name in ("x", "y"):
            k = int(rng.integers(0, 3))
            cuts[name] = tuple(sorted(rng.choice([0.5, 1.5, 2.5, 3.5, 4.5], k, replace=False)))
        with_g = trial % 3 == 0
        if with_g:
            cuts["g"] = (0.5,)  # g is drawn from {0, 1}
        scheme = DiscretizationScheme(cuts=cuts)
        names = ["x", "y"] + (["g"] if with_g else [])
        n_le = int(rng.integers(2, 21))
        n_se = int(rng.integers(2, 21))
        draw = lambda n: np.column_stack(
            [rng.integers(0, 6, n), rng.integers(0, 6, n)]
            + ([rng.integers(0, 2, n)] if with_g else [])
        )
        le, se = draw(n_le), draw(n_se)
        got = _mine(le, se, names, scheme, min_support_le=0.1, min_growth=1.5, max_len=3,
                    min_count_le=2)
        want = exhaustive_mine(le, se, names, scheme, 0.1, 1.5, 3, 2)
        flat = lambda rows: [
            (str(p), st.support_le, st.support_se, st.count_le, st.count_se)
            for p, st in rows
        ]
        assert flat(got) == flat(want), f"trial {trial}"


def reference_mine_masks(items, masks_le, masks_se, min_support_le, min_growth, max_len,
                         min_count_le):
    """The nested-loop miner _mine_masks replaced: one array call per
    extension, in the same level, frontier and item order, then a stable
    sort of the (item indices, LE count, SE count) triples by _order_key."""
    n_le, n_se = masks_le.shape[1], masks_se.shape[1]
    min_cnt = max(min_count_le, math.ceil(min_support_le * n_le))

    def emit(frontier):
        for idxs, m_le, m_se in frontier:
            c_le, c_se = int(m_le.sum()), int(m_se.sum())
            st_ = Stats(c_le / n_le, c_se / n_se if n_se else 0.0, c_le, c_se)
            if st_.growth >= min_growth:
                results.append(((Pattern(tuple(items[j] for j in idxs)), st_), (idxs, c_le, c_se)))

    results = []
    frontier = [((j,), masks_le[j], masks_se[j]) for j in range(len(items))
                if int(masks_le[j].sum()) >= min_cnt]
    emit(frontier)
    for _level in range(2, max_len + 1):
        nxt = []
        for idxs, m_le, m_se in frontier:
            used = {items[j].feature for j in idxs}
            for j in range(idxs[-1] + 1, len(items)):
                if items[j].feature in used:
                    continue
                ext_le = m_le & masks_le[j]
                if int(ext_le.sum()) < min_cnt:
                    continue
                nxt.append((idxs + (j,), ext_le, m_se & masks_se[j]))
        emit(nxt)
        frontier = nxt
        if not frontier:
            break
    return [triple for _, triple in sorted(results, key=lambda r: _order_key(r[0]))]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bins=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_le=st.integers(1, 40),
    n_se=st.integers(0, 40),
    min_support_le=st.sampled_from([0.01, 0.1, 0.25, 0.5, 1.0]),
    min_growth=st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]),
    max_len=st.integers(1, 4),
    min_count_le=st.integers(1, 45),
    free_masks=st.booleans(),
)
@example(seed=1, bins=[2, 3, 2], n_le=12, n_se=0, min_support_le=0.1, min_growth=2.0,
         max_len=3, min_count_le=2, free_masks=False)  # empty SE class: every growth is infinite
@example(seed=2, bins=[3, 3], n_le=10, n_se=10, min_support_le=0.1, min_growth=1.0,
         max_len=4, min_count_le=11, free_masks=False)  # no item survives level 1
@example(seed=3, bins=[4, 4, 4, 4, 4], n_le=30, n_se=30, min_support_le=0.01,
         min_growth=0.5, max_len=4, min_count_le=1, free_masks=True)  # deep levels
def test_mine_masks_matches_nested_loop_reference(seed, bins, n_le, n_se, min_support_le,
                                                  min_growth, max_len, min_count_le, free_masks):
    # same list, same scan order, same item indices and counts, all ints;
    # the masks cover the rows by each item's interval, or freely, so that
    # two items of one feature can overlap and only the feature rule keeps
    # them out of one pattern
    rng = np.random.default_rng(seed)
    names = [f"f{i}" for i in range(len(bins))]
    scheme = DiscretizationScheme(cuts={
        name: tuple(sorted(rng.choice([0.5, 1.5, 2.5, 3.5], b - 1, replace=False).tolist()))
        for name, b in zip(names, bins)
    })
    items = scheme.alphabet()
    col = {name: j for j, name in enumerate(names)}
    X = rng.integers(0, 5, (n_le + n_se, len(names))).astype(float)
    masks = np.array([it.covers_array(X[:, col[it.feature]]) for it in items], dtype=bool)
    masks = masks.reshape(len(items), len(X))
    if free_masks:
        masks = rng.random(masks.shape) < rng.uniform(0.2, 0.9)
    masks_le, masks_se = masks[:, :n_le], masks[:, n_le:]
    args = (min_support_le, min_growth, max_len, min_count_le)
    got = _mine_masks(items, masks_le, masks_se, *args)
    assert got == reference_mine_masks(items, masks_le, masks_se, *args)
    for js, c_le, c_se in got:
        assert type(js) is tuple and all(type(j) is int for j in js)
        assert type(c_le) is int and type(c_se) is int


# ----------------------------------------------------------------------
# redundancy filtering
# ----------------------------------------------------------------------

def _stats(s_le, s_se):
    return Stats(s_le, s_se, int(s_le * 10), int(s_se * 10))


def _nested_candidates():
    X = np.array([[float(i)] for i in range(10)])
    cands = [
        (Pattern((Item("x", hi=20.0),)), _stats(1.0, 0.2)),   # growth 5, all 10 rows
        (Pattern((Item("x", hi=9.0),)), _stats(0.9, 0.3)),    # growth 3, 9 rows
        (Pattern((Item("x", hi=5.0),)), _stats(0.5, 0.25)),   # growth 2, 5 rows
    ]
    return cands, X


def _filter(cands, X, jaccard_max):
    """Run filter_similar_masks on (pattern, stats) pairs sorted by
    _order_key; kept pattern texts."""
    cands = sorted(cands, key=_order_key)
    masks = np.array([pattern_mask(p, X, ["x"]) for p, _ in cands])
    return [str(cands[i][0]) for i in filter_similar_masks(masks, jaccard_max)]


def test_filter_similar_drops_near_duplicates():
    cands, X = _nested_candidates()
    assert _filter(cands, X, 0.8) == ["x < 20", "x < 5"]


def test_filter_similar_threshold_is_strict():
    cands, X = _nested_candidates()
    # jaccard('x < 9', 'x < 20') is exactly 0.9: not above the cap, so kept
    assert _filter(cands, X, 0.9) == ["x < 20", "x < 9", "x < 5"]


def test_filter_similar_empty_sets_are_duplicates():
    X = np.array([[0.0], [1.0]])
    cands = [
        (Pattern((Item("x", lo=100.0),)), _stats(0.4, 0.1)),
        (Pattern((Item("x", lo=200.0),)), _stats(0.2, 0.1)),
    ]
    assert _filter(cands, X, 0.9) == ["x >= 100"]


def _jaccard(a: set, b: set) -> float:
    return 1.0 if not a and not b else len(a & b) / len(a | b)


def set_route_filter(masks, cap):
    """Reference: the greedy scan over row-id sets with int / int Jaccard."""
    kept, kept_sets = [], []
    for i in range(len(masks)):
        rows = set(np.flatnonzero(masks[i]).tolist())
        if any(_jaccard(rows, other) > cap for other in kept_sets):
            continue
        kept.append(i)
        kept_sets.append(rows)
    return kept


def test_filter_similar_masks_matches_set_route():
    rng = np.random.default_rng(21)
    for trial in range(200):
        n_cand, n_rows = int(rng.integers(1, 9)), int(rng.integers(0, 12))
        masks = rng.random((n_cand, n_rows)) < rng.uniform(0.1, 0.9)
        keys = [(float(rng.integers(0, 3)), i) for i in range(n_cand)]
        masks = masks[sorted(range(n_cand), key=lambda i: keys[i])]
        cap = float(rng.choice([0.0, 0.3, 0.5, 0.8, 0.9, 1.0]))
        want = set_route_filter(masks, cap)
        assert filter_similar_masks(masks, cap) == want, f"trial {trial}"


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cand=st.integers(0, 40),
    n_rows=st.integers(0, 300),
    kinds=st.lists(st.sampled_from(["random", "duplicate", "empty", "subset"]), max_size=40),
    cap_from_pair=st.booleans(),
    cap=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
)
def test_filter_similar_masks_matches_set_route_on_generated_masks(seed, n_cand, n_rows, kinds,
                                                                   cap_from_pair, cap):
    # up to 300 rows, duplicate, empty and nested masks, and caps equal to
    # the exact similarity of some pair, where "exceeds" must stay strict
    rng = np.random.default_rng(seed)
    masks = rng.random((n_cand, n_rows)) < rng.uniform(0.05, 0.95, (n_cand, 1))
    for i, kind in enumerate(kinds[:n_cand]):
        if kind == "empty":
            masks[i] = False
        elif kind in ("duplicate", "subset") and i > 0:
            masks[i] = masks[rng.integers(0, i)]
            if kind == "subset":
                masks[i] &= rng.random(n_rows) < 0.9
    if cap_from_pair and n_cand >= 2:
        a, b = (set(np.flatnonzero(masks[i]).tolist()) for i in rng.choice(n_cand, 2, False))
        cap = _jaccard(a, b)
    keys = [(float(rng.integers(0, 4)), i) for i in range(n_cand)]
    masks = masks[sorted(range(n_cand), key=lambda i: keys[i])]
    assert filter_similar_masks(masks, cap) == set_route_filter(masks, cap)
