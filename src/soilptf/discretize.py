"""Entropy/MDL discretization of numeric features against a binary labeling.

Recursive binary splitting (Fayyad & Irani 1993): candidate cuts are
midpoints between adjacent distinct values whose surrounding label sets
differ; a split is kept only when its information gain clears the
minimum-description-length threshold. Each column is sorted once and gets
one prefix table of class counts, so the class counts left of any cut are
a difference of two table rows, and all candidate cuts of a segment are
scored in one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
from numbers import Real

import numpy as np

from .patterns import Item

# Recursion depth cap; at most 2**MAX_DEPTH bins per feature.
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


def _mdl_accepts(n: int, whole: np.ndarray, left: np.ndarray, right: np.ndarray) -> bool:
    h, h1, h2 = _entropies(np.stack([whole, left, right])).tolist()
    gain = h - (left.sum() / n) * h1 - (right.sum() / n) * h2
    c = int((whole > 0).sum())
    c1 = int((left > 0).sum())
    c2 = int((right > 0).sum())
    delta = math.log2(3**c - 2) - (c * h - c1 * h1 - c2 * h2)
    return gain > (math.log2(n - 1) + delta) / n


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of every row of a class-count table; the
    per-class terms are added in class order, an absent class adding 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=1, keepdims=True)
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    h = terms[:, 0]
    for c in range(1, counts.shape[1]):
        h = h + terms[:, c]
    return -h


def mdl_discretize(values, labels, max_depth: int = MAX_DEPTH) -> CutPoints:
    """Split a value axis recursively while the MDL criterion holds.

    values are one numeric column, labels the parallel class assignment
    (any hashable labels; here large-error vs small-error). Each cut lies
    in (lo, hi] for the adjacent distinct values lo < hi it separates, so
    `v < cut` splits the rows as scored; degenerate input (fewer than 2
    rows, constant values, one class) yields no cuts.
    """
    vals = np.asarray(values, dtype=float)
    labs = np.asarray(labels)
    if vals.shape != labs.shape or vals.ndim != 1:
        raise DiscretizeError(f"values/labels shape mismatch: {vals.shape} vs {labs.shape}")
    if np.isnan(vals).any():
        raise DiscretizeError("values contain NaN")
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    classes, class_idx = np.unique(labs[order], return_inverse=True)
    k = len(classes)
    cuts: list[float] = []
    if len(vals) >= 2 and k >= 2:
        # cum[i] holds the class counts of the first i sorted rows.
        cum = np.zeros((len(vals) + 1, k), dtype=np.int64)
        np.cumsum(np.eye(k, dtype=np.int64)[class_idx], axis=0, out=cum[1:])
        _split_segment(vals, cum, 0, len(vals), 0, max_depth, cuts)
    return CutPoints(cuts=tuple(sorted(cuts)))


def _split_segment(vals, cum, start, stop, depth, max_depth, cuts):
    if depth >= max_depth or stop - start < 2:
        return
    # A candidate cut sits at each end of a run of equal values.
    ends = start + 1 + np.flatnonzero(vals[start : stop - 1] != vals[start + 1 : stop])
    if not len(ends):
        return
    present = np.diff(cum[np.concatenate(([start], ends, [stop]))], axis=0) > 0
    # Both neighbouring runs pure in the same class: not a boundary.
    boundary = (present[:-1] | present[1:]).sum(axis=1) >= 2
    whole = cum[stop] - cum[start]
    left = cum[ends] - cum[start]
    right = whole - left
    n = stop - start
    weighted = (left.sum(axis=1) * _entropies(left) + right.sum(axis=1) * _entropies(right)) / n
    best = int(np.argmin(np.where(boundary, weighted, np.inf)))  # first of equal minima
    if not boundary[best] or not _mdl_accepts(n, whole, left[best], right[best]):
        return
    mid = int(ends[best])
    lo, hi = vals[mid - 1], vals[mid]
    # Halving first keeps a cut between huge values finite; between adjacent
    # doubles the midpoint rounds onto lo or hi, and hi is the one that
    # still puts lo on the left of `v < cut`.
    cut = lo / 2 + hi / 2
    cuts.append(cut if cut > lo else hi)
    _split_segment(vals, cum, start, mid, depth + 1, max_depth, cuts)
    _split_segment(vals, cum, mid, stop, depth + 1, max_depth, cuts)


def build_scheme(X, labels, feature_names, max_depth: int = MAX_DEPTH) -> DiscretizationScheme:
    """Discretize every column of a design matrix against labels."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise DiscretizeError(f"matrix shape {X.shape} does not fit {len(feature_names)} features")
    cuts = {
        name: mdl_discretize(X[:, j], labels, max_depth=max_depth).cuts
        for j, name in enumerate(feature_names)
    }
    return DiscretizationScheme(cuts=cuts)
