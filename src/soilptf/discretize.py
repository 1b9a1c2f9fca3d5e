"""Entropy/MDL discretization of numeric features against a binary labeling.

Binary splitting (Fayyad & Irani 1993): candidate cuts are midpoints
between adjacent distinct values whose surrounding label sets differ; a
split is kept only when its information gain clears the
minimum-description-length threshold, and each half is split again, up to
max_depth levels. All columns of a design matrix split together, level by
level: one stable sort of the matrix and one prefix table of class counts
make the class counts left of any cut a difference of two table entries,
and one array pass per level scores every candidate cut of every open
segment of every column and tests all segment winners at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
from numbers import Real

import numpy as np

from .patterns import Item

# Splitting levels; at most 2**MAX_DEPTH bins per feature.
MAX_DEPTH = 3


class DiscretizeError(ValueError):
    pass


@dataclass(frozen=True)
class CutPoints:
    """Strictly increasing, finite cut positions for one numeric feature."""

    cuts: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.cuts, tuple) or not all(
            isinstance(c, Real) and not isinstance(c, bool) and math.isfinite(c)
            for c in self.cuts
        ):
            raise DiscretizeError(f"cuts must be a list of finite numbers, got {self.cuts!r}")
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise DiscretizeError(f"cuts not strictly increasing: {self.cuts}")


@dataclass
class DiscretizationScheme:
    """Per-feature cut points, each a valid CutPoints tuple."""

    cuts: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for cuts in self.cuts.values():
            CutPoints(cuts)

    def alphabet(self) -> list[Item]:
        """One interval item per bin of every feature with cuts. Features
        without cuts contribute nothing (their single item covers every
        value)."""
        items = []
        for feature, cuts in sorted(self.cuts.items()):
            if cuts:
                edges = (-math.inf, *cuts, math.inf)
                items.extend(Item(feature, lo, hi) for lo, hi in zip(edges, edges[1:]))
        return items

    def to_dict(self) -> dict:
        return {f: list(c) for f, c in sorted(self.cuts.items())}

    @classmethod
    def from_dict(cls, doc: dict) -> "DiscretizationScheme":
        """Inverse of to_dict; raises DiscretizeError unless every entry is
        a list of finite, strictly increasing numbers."""
        return cls(cuts={f: tuple(c) if isinstance(c, list) else c for f, c in doc.items()})


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of every column of a (classes, columns)
    count table; the per-class terms are added in class order, an absent
    class adding 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=0)
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    h = terms[0]
    for term in terms[1:]:
        h = h + term
    return -h


def _cut_columns(X: np.ndarray, labels, max_depth) -> list[tuple[float, ...]]:
    """Cut points of every column of a (rows, columns) float matrix.

    All columns split level by level together: at each level one array
    pass scores every candidate cut of every open segment, takes the first
    minimum of each segment and applies the MDL test to all winners.
    """
    n, p = X.shape
    labs = np.asarray(labels)
    if labs.shape != (n,):
        raise DiscretizeError(f"values/labels shape mismatch: {(n,)} vs {labs.shape}")
    if np.isnan(X).any():
        raise DiscretizeError("values contain NaN")
    classes, class_idx = np.unique(labs, return_inverse=True)
    k = len(classes)
    if n < 2 or k < 2:
        return [()] * p
    # A position j * (n + 1) + i of the flat tables below is the gap left
    # of row i of sorted column j; i = n is the column's end.
    order = np.argsort(X, axis=0, kind="stable")
    vals = np.zeros((p, n + 1))
    vals[:, :n] = np.take_along_axis(X, order, axis=0).T
    # cum[c, position]: rows of class c in the column left of the position.
    cum = np.zeros((k, p, n + 1), dtype=np.int64)
    np.cumsum(class_idx[order.T] == np.arange(k)[:, None, None], axis=2, out=cum[:, :, 1:])
    cum = cum.reshape(k, -1)
    # Run edges: both ends of each column and each end of a run of equal
    # values, where a candidate cut sits.
    edge = np.ones((p, n + 1), dtype=bool)
    edge[:, 1:n] = vals[:, 1:n] != vals[:, : n - 1]
    edges = np.flatnonzero(edge)
    vals = vals.ravel()
    present = np.diff(cum[:, edges], axis=1) > 0
    gap = edges % (n + 1)
    ends = np.flatnonzero((gap > 0) & (gap < n))
    # Both neighbouring runs pure in the same class: not a boundary.
    boundary = (present[:, ends - 1] | present[:, ends]).sum(axis=0) >= 2
    pos = edges[ends[boundary]]
    start = pos - pos % (n + 1)
    stop = start + n

    log2_classes = np.array([math.log2(3**c - 2) if c else 0.0 for c in range(k + 1)])
    cuts: list[list[float]] = [[] for _ in range(p)]
    depth = 0
    while depth < max_depth and len(pos):
        left = cum[:, pos] - cum[:, start]
        whole = cum[:, stop] - cum[:, start]
        right = whole - left
        size = stop - start
        weighted = ((pos - start) * _entropies(left) + (stop - pos) * _entropies(right)) / size
        # Candidates are in position order, so each segment's are adjacent;
        # the winner is the first of its equal minima.
        opens = np.concatenate(([True], start[1:] != start[:-1]))
        first = np.flatnonzero(opens)
        segment = np.cumsum(opens) - 1
        lowest = np.minimum.reduceat(weighted, first)
        at_lowest = np.where(weighted == lowest[segment], np.arange(len(pos)), len(pos))
        win = np.minimum.reduceat(at_lowest, first)

        at, n_win = pos[win], size[win]
        w_left, w_whole, w_right = left[:, win], whole[:, win], right[:, win]
        h, h1, h2 = _entropies(np.concatenate([w_whole, w_left, w_right], axis=1)).reshape(3, -1)
        gain = h - ((at - start[win]) / n_win) * h1 - ((stop[win] - at) / n_win) * h2
        c, c1, c2 = ((w > 0).sum(axis=0) for w in (w_whole, w_left, w_right))
        delta = log2_classes[c] - (c * h - c1 * h1 - c2 * h2)
        log2_n = np.array([math.log2(m - 1) for m in n_win.tolist()])
        accept = gain > (log2_n + delta) / n_win

        lo, hi = vals[at[accept] - 1], vals[at[accept]]
        # Halving first keeps a cut between huge values finite; between
        # adjacent doubles the midpoint rounds onto lo or hi, and hi is the
        # one that still puts lo on the left of `v < cut`.
        mid = lo / 2 + hi / 2
        for j, cut in zip((at[accept] // (n + 1)).tolist(), np.where(mid > lo, mid, hi).tolist()):
            cuts[j].append(cut)
        # A rejected segment is final; the other candidates of a split one
        # fall on either side of its cut.
        cut_at = at[segment]
        keep = accept[segment] & (pos != cut_at)
        start = np.where(pos > cut_at, cut_at, start)[keep]
        stop = np.where(pos < cut_at, cut_at, stop)[keep]
        pos = pos[keep]
        depth += 1
    return [tuple(sorted(c)) for c in cuts]


def mdl_discretize(values, labels, max_depth: int = MAX_DEPTH) -> CutPoints:
    """Split a value axis while the MDL criterion holds, at most max_depth
    levels deep.

    values are one numeric column, labels the parallel class assignment
    (any hashable labels; here large-error vs small-error). Each cut lies
    in (lo, hi] for the adjacent distinct values lo < hi it separates, so
    `v < cut` splits the rows as scored; degenerate input (fewer than 2
    rows, constant values, one class) yields no cuts.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DiscretizeError(f"values/labels shape mismatch: {vals.shape} vs {np.shape(labels)}")
    (cuts,) = _cut_columns(vals[:, None], labels, max_depth)
    return CutPoints(cuts=cuts)


def build_scheme(X, labels, feature_names, max_depth: int = MAX_DEPTH) -> DiscretizationScheme:
    """Discretize every column of a design matrix against labels."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise DiscretizeError(f"matrix shape {X.shape} does not fit {len(feature_names)} features")
    cuts = _cut_columns(X, labels, max_depth)
    return DiscretizationScheme(cuts=dict(zip(feature_names, cuts)))
