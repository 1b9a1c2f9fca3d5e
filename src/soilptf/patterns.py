"""Contrast patterns over discretized features.

A pattern is a conjunction of items, each a half-open interval condition
lo <= feature < hi on a numeric feature, with at most one item per feature.
An item serializes as {"feature", "lo", "hi"}, null for an open end, and
reads back from exactly those keys (ITEM). Contrast patterns are those much
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

from .data import ANY, STR, Schema, SoilptfError, finite_number, list_of, maybe

INF = float("inf")


class PatternError(SoilptfError):
    pass


# the item checks its bounds itself
ITEM = Schema({"feature": STR, "lo": maybe(ANY, -INF), "hi": maybe(ANY, INF)},
              lambda **fields: Item(**fields), PatternError)
PATTERN = list_of(ITEM, unbuild=lambda p: p.items, build=lambda items: Pattern(tuple(items)),
                  error=PatternError)


@dataclass(frozen=True)
class Item:
    """One condition: lo <= feature < hi."""

    feature: str
    lo: float = -INF
    hi: float = INF

    def __post_init__(self):
        if not all(finite_number(b) or b == end for b, end in ((self.lo, -INF), (self.hi, INF))):
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
        return ITEM.write(self)

    from_dict = ITEM.load  # the inverse of to_dict; raises PatternError


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
        return PATTERN.write(self)

    from_dict = PATTERN.load  # the inverse of to_dict; raises PatternError


def pattern_mask(pattern: Pattern, X: np.ndarray, feature_names) -> np.ndarray:
    """Boolean row mask of the pattern over a design matrix."""
    idx = {name: j for j, name in enumerate(feature_names)}
    mask = np.ones(len(X), dtype=bool)
    for it in pattern.items:
        if it.feature not in idx:
            raise PatternError(f"design matrix lacks feature {it.feature!r}")
        mask &= it.covers_array(X[:, idx[it.feature]])
    return mask


def _mine_masks(
    items: list[Item],
    masks_le: np.ndarray,
    masks_se: np.ndarray,
    min_support_le: float,
    min_growth: float,
    max_len: int,
    min_count_le: int,
) -> list[tuple[tuple[int, ...], int, int]]:
    """Enumerate all contrast patterns of the large-error class.

    masks_le and masks_se hold one boolean row per item of the alphabet
    over the large-error and small-error samples. Level-wise search: a
    pattern survives when its large-error support is at least
    min_support_le (and at least min_count_le samples), its growth rate is
    at least min_growth and it has at most max_len items. Support is
    anti-monotone, so candidates are pruned on it alone; growth is checked
    at emission. Returns one (item indices, LE count, SE count) triple per
    pattern, the indices ascending, in the scan order of _emit.

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
    levels = [(idxs, c_le, f_se.sum(axis=1))]

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
        levels.append((idxs, c_le, f_se.sum(axis=1)))
    return _emit(items, levels, n_le, n_se, min_growth)


def _emit(items, levels, n_le, n_se, min_growth):
    """The triples of the patterns of every (indices, LE counts, SE counts)
    level whose growth rate reaches min_growth, in scan order.

    Growth is support_le / support_se, infinite where the SE support is 0.
    The scan order is descending growth, then descending support_le, then
    fewer items, then text: the item texts joined by " & " in item order,
    the pattern's str for an alphabet's items. The sort is stable, so ties
    keep the emission order: level by level, within a level pattern by
    pattern of the level before, each extended in item order.
    """
    idxs = [js for level, _, _ in levels for js in level]
    counts_le = np.concatenate([c for _, c, _ in levels]).astype(int)
    counts_se = np.concatenate([c for _, _, c in levels])
    support_le = counts_le / n_le
    support_se = counts_se / n_se if n_se else np.zeros(len(idxs))
    growth = np.divide(support_le, support_se, out=np.full(len(idxs), INF),
                       where=support_se > 0)
    text = [str(it) for it in items]
    g, s = growth.tolist(), support_le.tolist()
    keep = [i for i in range(len(idxs)) if g[i] >= min_growth]
    keep.sort(key=lambda i: (-g[i], -s[i], len(idxs[i]), " & ".join(text[j] for j in idxs[i])))
    c_le, c_se = counts_le.tolist(), counts_se.tolist()
    return [(idxs[i], c_le[i], c_se[i]) for i in keep]


def filter_similar_masks(masks: np.ndarray, jaccard_max: float) -> list[int]:
    """Drop candidates whose matching rows nearly duplicate a kept one's.

    Greedy scan of the rows of masks, one boolean row per candidate, in
    the order given (for mined patterns, _mine_masks's scan order). A
    candidate is dropped when the Jaccard similarity of its rows with any
    kept candidate's exceeds jaccard_max; two empty row sets count as
    identical. Returns the kept indices, ascending.

    Every pairwise intersection comes from one Gram product of the 0/1
    masks, exact in float64 below 2**53 rows; the quotient of these exact
    counts is correctly rounded, so it is the int / int of a pairwise loop.
    """
    m = np.asarray(masks, dtype=float)
    inter = m @ m.T
    sizes = m.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    sim = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
    kept: list[int] = []
    for i, row in enumerate((sim > jaccard_max).tolist()):
        if not any(row[j] for j in kept):
            kept.append(i)
    return kept
