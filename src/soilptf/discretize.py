"""Entropy/MDL discretization of numeric features against a binary labeling.

Binary splitting (Fayyad & Irani 1993): candidate cuts are midpoints
between adjacent distinct values whose surrounding label sets differ; a
split is kept only when its information gain clears the
minimum-description-length threshold, and each half is split again, up to
max_depth levels. All columns of a design matrix split together against
every labeling of its rows (one per CPXR target), level by level: one
stable sort of the matrix and one prefix table of class counts, all
labelings side by side, make the class counts left of any cut a
difference of two table entries, and one array pass per level scores
every candidate cut of every open segment of every (labeling, column)
pair and tests all segment winners at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
from numbers import Real

import numpy as np

from .data import SoilptfError
from .patterns import Item

# Splitting levels; at most 2**MAX_DEPTH bins per feature.
MAX_DEPTH = 3


class DiscretizeError(SoilptfError):
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


def _cut_columns(X: np.ndarray, label_columns, max_depth) -> list[list[tuple[float, ...]]]:
    """Cut points of every column of a (rows, columns) float matrix against
    every column of a (rows, labelings) label matrix: one list of per-column
    cuts per labeling.

    The matrix is sorted once. Every (labeling, column) pair then splits
    level by level together: at each level one array pass scores every
    candidate cut of every open segment, takes the first minimum of each
    segment and applies the MDL test to all winners.
    """
    n, p = X.shape
    labs = np.asarray(label_columns)
    if labs.ndim != 2:
        raise DiscretizeError(f"label columns must form a 2-d matrix, got shape {labs.shape}")
    if len(labs) != n:
        raise DiscretizeError(f"values/labels shape mismatch: {(n,)} vs {labs.shape[:1]}")
    if np.isnan(X).any():
        raise DiscretizeError("values contain NaN")
    codes, n_classes = [], []
    for column in labs.T:
        classes, class_idx = np.unique(column, return_inverse=True)
        codes.append(class_idx)
        n_classes.append(len(classes))
    # fewer than 2 rows or one class: no cuts
    found: list[list[tuple[float, ...]]] = [[()] * p for _ in n_classes]
    active = [t for t, k in enumerate(n_classes) if k >= 2]
    if not active:
        return found
    T, k = len(active), max(n_classes[t] for t in active)
    # A position (t * p + j) * (n + 1) + i of the flat tables below is the
    # gap left of row i of sorted column j under active labeling t; i = n
    # is the column's end. The sorted values are indexed by the position
    # modulo one labeling's width.
    width = p * (n + 1)
    order = np.argsort(X, axis=0, kind="stable")
    vals = np.zeros((p, n + 1))
    vals[:, :n] = np.take_along_axis(X, order, axis=0).T
    # cum[c, position]: rows of class c in the column left of the position;
    # a labeling with fewer than k classes has all-zero rows for the rest.
    # Counts stay below n, far below 2**31 for tables this package handles.
    cum = np.zeros((k, T, p, n + 1), dtype=np.int32)
    in_class = np.array([codes[t] for t in active]) == np.arange(k)[:, None, None]
    np.cumsum(in_class[:, :, order.T], axis=3, out=cum[..., 1:])
    # Run edges: both ends of each column and each end of a run of equal
    # values, where a candidate cut sits; the same for every labeling.
    edge = np.ones((p, n + 1), dtype=bool)
    edge[:, 1:n] = vals[:, 1:n] != vals[:, : n - 1]
    edges = np.flatnonzero(edge)
    vals = vals.ravel()
    cum = cum.reshape(k, T, width)
    present = np.diff(cum[:, :, edges], axis=2) > 0
    cum = cum.reshape(k, -1)
    gap = edges % (n + 1)
    ends = np.flatnonzero((gap > 0) & (gap < n))
    # Both neighbouring runs pure in the same class: not a boundary.
    boundary = (present[:, :, ends - 1] | present[:, :, ends]).sum(axis=0) >= 2
    labeling, end = np.nonzero(boundary)
    pos = labeling * width + edges[ends[end]]
    start = pos - pos % (n + 1)
    stop = start + n

    log2_classes = np.array([math.log2(3**c - 2) if c else 0.0 for c in range(k + 1)])
    cuts: list[list[float]] = [[] for _ in range(T * p)]
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

        lo, hi = vals[at[accept] % width - 1], vals[at[accept] % width]
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
    for a, t in enumerate(active):
        found[t] = [tuple(sorted(c)) for c in cuts[a * p : (a + 1) * p]]
    return found


def _label_column(labels, n: int) -> np.ndarray:
    """One labeling of n rows as an (n, 1) label matrix."""
    labs = np.asarray(labels)
    if labs.shape != (n,):
        raise DiscretizeError(f"values/labels shape mismatch: {(n,)} vs {labs.shape}")
    return labs[:, None]


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
    ((cuts,),) = _cut_columns(vals[:, None], _label_column(labels, len(vals)), max_depth)
    return CutPoints(cuts=cuts)


def _design_matrix(X, feature_names) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise DiscretizeError(f"matrix shape {X.shape} does not fit {len(feature_names)} features")
    return X


def build_schemes(
    X, label_columns, feature_names, max_depth: int = MAX_DEPTH
) -> list[DiscretizationScheme]:
    """Discretize every column of a design matrix against each column of
    an (n, labelings) label matrix: one scheme per labeling, in order. The
    matrix is sorted once and all labelings split in one level loop."""
    X = _design_matrix(X, feature_names)
    return [
        DiscretizationScheme(cuts=dict(zip(feature_names, cuts)))
        for cuts in _cut_columns(X, label_columns, max_depth)
    ]


def build_scheme(X, labels, feature_names, max_depth: int = MAX_DEPTH) -> DiscretizationScheme:
    """Discretize every column of a design matrix against labels: the
    one-labeling call of build_schemes."""
    X = _design_matrix(X, feature_names)
    (scheme,) = build_schemes(X, _label_column(labels, len(X)), feature_names, max_depth)
    return scheme
