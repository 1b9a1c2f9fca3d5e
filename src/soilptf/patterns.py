"""Contrast patterns over discretized features.

A pattern is a conjunction of items, each a half-open interval condition
lo <= feature < hi on a numeric feature, with at most one item per feature.
An item serializes as {"feature", "lo", "hi"}, null for an open end, and
parses back from exactly those keys. Contrast patterns are those much
more frequent in the large-error class than in the small-error class.

Mining and the similarity filter count supports on vertical row sets
(Zaki 2000, Eclat): each item or pattern is a boolean row mask, and the
counts of a whole level come from one 0/1 matrix product in float64,
exact for counts below 2**53, instead of one small array call per pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

INF = float("inf")


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class Item:
    """One condition: lo <= feature < hi."""

    feature: str
    lo: float = -INF
    hi: float = INF

    def __post_init__(self):
        if isinstance(self.lo, bool) or isinstance(self.hi, bool):
            raise PatternError(f"interval bounds on {self.feature!r} must be numbers, "
                               f"got {self.lo!r}, {self.hi!r}")
        if not self.lo < self.hi:
            raise PatternError(f"empty interval [{self.lo}, {self.hi}) on {self.feature!r}")

    def covers_array(self, col: np.ndarray) -> np.ndarray:
        return (col >= self.lo) & (col < self.hi)

    def __str__(self) -> str:
        if self.lo == -INF and self.hi == INF:
            return f"{self.feature} any"
        if self.lo == -INF:
            return f"{self.feature} < {self.hi:g}"
        if self.hi == INF:
            return f"{self.feature} >= {self.lo:g}"
        return f"{self.lo:g} <= {self.feature} < {self.hi:g}"

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "lo": None if self.lo == -INF else self.lo,
            "hi": None if self.hi == INF else self.hi,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Item":
        """Inverse of to_dict; raises PatternError unless d has exactly the
        keys feature, lo and hi."""
        if set(d) != {"feature", "lo", "hi"}:
            raise PatternError(f"pattern item {d!r} needs exactly the keys feature, lo and hi")
        lo = -INF if d["lo"] is None else d["lo"]
        hi = INF if d["hi"] is None else d["hi"]
        return cls(feature=d["feature"], lo=lo, hi=hi)


@dataclass(frozen=True)
class Pattern:
    """Conjunction of items, at most one per feature."""

    items: tuple[Item, ...]

    def __post_init__(self):
        if not self.items:
            raise PatternError("pattern needs at least one item")
        feats = [it.feature for it in self.items]
        if len(set(feats)) != len(feats):
            raise PatternError(f"more than one item on a feature: {feats}")
        ordered = tuple(sorted(self.items, key=lambda it: it.feature))
        object.__setattr__(self, "items", ordered)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(it.feature for it in self.items)

    def __str__(self) -> str:
        return " & ".join(str(it) for it in self.items)

    def to_dict(self) -> list:
        return [it.to_dict() for it in self.items]

    @classmethod
    def from_dict(cls, items: list) -> "Pattern":
        return cls(tuple(Item.from_dict(d) for d in items))


def pattern_mask(pattern: Pattern, X: np.ndarray, feature_names) -> np.ndarray:
    """Boolean row mask of the pattern over a design matrix."""
    idx = {name: j for j, name in enumerate(feature_names)}
    mask = np.ones(len(X), dtype=bool)
    for it in pattern.items:
        if it.feature not in idx:
            raise PatternError(f"design matrix lacks feature {it.feature!r}")
        mask &= it.covers_array(X[:, idx[it.feature]])
    return mask


@dataclass(frozen=True)
class ContrastStats:
    """Supports on the two error classes and their ratio."""

    support_le: float
    support_se: float
    count_le: int
    count_se: int

    @property
    def growth(self) -> float:
        if self.support_se == 0.0:
            return INF
        return self.support_le / self.support_se


def _mine_masks(
    items: list[Item],
    masks_le: np.ndarray,
    masks_se: np.ndarray,
    min_support_le: float,
    min_growth: float,
    max_len: int,
    min_count_le: int,
) -> list[tuple[Pattern, ContrastStats]]:
    """Enumerate all contrast patterns of the large-error class.

    masks_le and masks_se hold one boolean row per item of the alphabet
    over the large-error and small-error samples. Level-wise search: a
    pattern survives when its large-error support is at least
    min_support_le (and at least min_count_le samples), its growth rate is
    at least min_growth and it has at most max_len items. Support is
    anti-monotone, so candidates are pruned on it alone; growth is checked
    at emission. Patterns come out level by level, not in the order
    train_cpxr scans them in; within a level, pattern by pattern of the
    level before, each extended by every later item of another feature in
    item order.

    A level's extensions are counted at once: the frontier's LE masks times
    the items' LE masks give every extension's LE count, the allowed pairs
    become the next frontier by one gather-AND, and its SE counts are one
    row sum.
    """
    if min_support_le <= 0 or min_growth <= 0 or max_len < 1:
        raise PatternError("mining thresholds must be positive")
    if len(masks_le) != len(items) or len(masks_se) != len(items):
        raise PatternError(
            f"need one mask row per item: {len(items)} items, "
            f"{len(masks_le)} and {len(masks_se)} rows"
        )
    n_le = masks_le.shape[1]
    n_se = masks_se.shape[1]
    if n_le == 0:
        raise PatternError("large-error class is empty")
    min_cnt = max(min_count_le, math.ceil(min_support_le * n_le))

    feature_of: dict[str, int] = {}
    feat = np.array([feature_of.setdefault(it.feature, len(feature_of)) for it in items],
                    dtype=np.intp)
    after = np.arange(len(items))
    items_le = masks_le.T.astype(float)  # (n_le, items): counts are exact float sums

    # the frontier: item index tuples, their row masks on both classes, the
    # LE counts, each pattern's last item and the features it uses
    counts = masks_le.sum(axis=1)
    rows = np.flatnonzero(counts >= min_cnt)
    idxs = [(j,) for j in rows.tolist()]
    f_le, f_se, c_le, last = masks_le[rows], masks_se[rows], counts[rows], rows
    used = np.zeros((len(rows), len(feature_of)), dtype=bool)
    used[np.arange(len(rows)), feat[rows]] = True
    results: list[tuple[Pattern, ContrastStats]] = []
    _emit(results, items, idxs, c_le, f_se.sum(axis=1), n_le, n_se, min_growth)

    for _level in range(2, max_len + 1):
        if not idxs:
            break
        # LE count of every (frontier pattern, item) extension in one product;
        # nonzero walks the allowed pairs frontier-major, item-minor
        ext = f_le.astype(float) @ items_le
        allowed = (after > last[:, None]) & ~used[:, feat] & (ext >= min_cnt)
        fi, ji = np.nonzero(allowed)
        idxs = [idxs[f] + (j,) for f, j in zip(fi.tolist(), ji.tolist())]
        f_le, f_se, c_le, last = f_le[fi] & masks_le[ji], f_se[fi] & masks_se[ji], ext[fi, ji], ji
        used = used[fi]
        used[np.arange(len(ji)), feat[ji]] = True
        _emit(results, items, idxs, c_le, f_se.sum(axis=1), n_le, n_se, min_growth)
    return results


def _emit(results, items, idxs, counts_le, counts_se, n_le, n_se, min_growth):
    """Append each frontier pattern whose growth rate reaches min_growth."""
    for js, c_le, c_se in zip(idxs, counts_le.astype(int).tolist(), counts_se.tolist()):
        st = ContrastStats(
            support_le=c_le / n_le,
            support_se=c_se / n_se if n_se else 0.0,
            count_le=c_le,
            count_se=c_se,
        )
        if st.growth >= min_growth:
            results.append((Pattern(tuple(items[j] for j in js)), st))


def filter_similar_masks(order_keys, masks: np.ndarray, jaccard_max: float) -> list[int]:
    """Drop candidates whose matching rows nearly duplicate a kept one's.

    Greedy scan in ascending order_keys order (for mined patterns,
    train_cpxr's (-growth, -support_le, length, text) tuples); masks holds
    one boolean row per candidate.
    A candidate is dropped when the Jaccard similarity of its rows with
    any kept candidate's exceeds jaccard_max; two empty row sets count as
    identical. Returns the kept indices in scan order.

    Every pairwise intersection comes from one Gram product of the 0/1
    masks, exact in float64 below 2**53 rows; the quotient of these exact
    counts is correctly rounded, so it is the int / int of a pairwise loop.
    """
    m = np.asarray(masks, dtype=float)
    inter = m @ m.T
    sizes = m.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    sim = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
    similar = (sim > jaccard_max).tolist()
    kept: list[int] = []
    for i in sorted(range(len(order_keys)), key=lambda i: order_keys[i]):
        row = similar[i]
        if not any(row[j] for j in kept):
            kept.append(i)
    return kept
