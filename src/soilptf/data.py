"""Tabular soil-sample handling: CSV ingestion, column selection, fold assignment.

The canonical table layout is one row per sample with an ``id`` column,
basic-property feature columns and any number of numeric target columns.
Missing entries are empty cells (or na/nan/null tokens); lines starting
with ``#`` are metadata comments and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import csv
import math

import numpy as np

# Column names understood as sample properties (model inputs). Anything
# else in a header, apart from the id column, is treated as a target
# when no explicit schema is given.
KNOWN_FEATURES = (
    "sand",
    "silt",
    "clay",
    "bulk_density",
    "d_g",
    "sigma_g",
    "internal_diameter_cm",
    "length_cm",
    "theta_r",
    "theta_s",
    "alpha",
    "n",
)

MISSING_TOKENS = {"", "na", "nan", "none", "null"}

# Measured sand/silt/clay percentages carry rounding error; their sum must
# still be close to 100.
TEXTURE_SUM_TOL = 0.5


class DataError(ValueError):
    """Malformed input table, schema violation or unusable selection."""


@dataclass(frozen=True)
class ColumnSchema:
    """Role declaration for the columns of a sample table."""

    features: tuple[str, ...]
    targets: tuple[str, ...]
    id_column: str = "id"

    def __post_init__(self):
        names = (self.id_column,) + self.features + self.targets
        if len(set(names)) != len(names):
            raise DataError(f"schema declares duplicate columns: {sorted(names)}")


@dataclass
class Sample:
    """One soil sample.

    Feature units: sand/silt/clay in mass percent, bulk_density in g cm^-3,
    d_g and sigma_g in mm, internal_diameter_cm and length_cm in cm.
    Water-content targets are volumetric fractions; conductivity targets
    are natural-log cm day^-1. A value of None marks a missing entry.
    """

    id: str
    features: dict[str, float | None] = field(default_factory=dict)
    targets: dict[str, float | None] = field(default_factory=dict)

    def value(self, name: str) -> float | None:
        """Look up a column by name, checking features before targets."""
        if name in self.features:
            return self.features[name]
        if name in self.targets:
            return self.targets[name]
        raise KeyError(f"sample {self.id!r} has no column {name!r}")

    def has(self, name: str) -> bool:
        return name in self.features or name in self.targets


def validate_sample(sample: Sample) -> list[str]:
    """Return invariant violations for one sample (empty list if clean)."""
    problems = []
    texture = [sample.features.get(c) for c in ("sand", "silt", "clay")]
    if all(v is not None for v in texture):
        total = sum(texture)
        if abs(total - 100.0) > TEXTURE_SUM_TOL:
            problems.append(f"sand+silt+clay = {total:g}, expected 100 +/- {TEXTURE_SUM_TOL}")
    for name in ("internal_diameter_cm", "length_cm"):
        v = sample.features.get(name)
        if v is not None and v <= 0:
            problems.append(f"{name} = {v:g} must be positive")
    for name, v in sample.targets.items():
        if v is None:
            continue
        if name.startswith("theta_") and not 0.0 <= v <= 1.0:
            problems.append(f"{name} = {v:g} outside [0, 1]")
    return problems


@dataclass
class Dataset:
    """A collection of samples sharing one column layout."""

    samples: list[Sample]
    feature_names: list[str]
    target_names: list[str]

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
        for s in self.samples:
            for name in self.feature_names:
                if name not in s.features:
                    raise DataError(f"sample {s.id!r} lacks declared feature {name!r}")
            for name in self.target_names:
                if name not in s.targets and name not in s.features:
                    raise DataError(f"sample {s.id!r} lacks declared target {name!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def by_id(self, sample_id: str) -> Sample:
        for s in self.samples:
            if s.id == sample_id:
                return s
        raise KeyError(sample_id)

    def subset(self, ids) -> "Dataset":
        wanted = set(ids)
        kept = [s for s in self.samples if s.id in wanted]
        return Dataset(kept, list(self.feature_names), list(self.target_names))


def _parse_cell(token: str, column: str, row: int) -> float | None:
    text = token.strip()
    if text.lower() in MISSING_TOKENS:
        return None
    try:
        return float(text)
    except ValueError:
        raise DataError(f"row {row}: column {column!r} value {token!r} is not numeric") from None


def infer_schema(header: list[str], id_column: str = "id") -> ColumnSchema:
    """Classify header columns into features and targets by known names."""
    if id_column not in header:
        raise DataError(f"header has no {id_column!r} column: {header}")
    features = tuple(c for c in header if c in KNOWN_FEATURES)
    targets = tuple(c for c in header if c != id_column and c not in KNOWN_FEATURES)
    return ColumnSchema(features=features, targets=targets, id_column=id_column)


def load_dataset(path, schema: ColumnSchema | None = None, strict: bool = True) -> Dataset:
    """Read a sample table from CSV.

    Raises DataError for a missing file, a header that does not match the
    schema, duplicate ids, non-numeric cells or (with strict=True) sample
    invariant violations; every diagnostic names the offending row.
    """
    try:
        with open(path, "r", newline="") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    rows = list(csv.reader(lines))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header: {header}")
    if schema is None:
        schema = infer_schema(header)
    declared = {schema.id_column, *schema.features, *schema.targets}
    missing = declared - set(header)
    extra = set(header) - declared
    if missing or extra:
        raise DataError(
            f"{path}: header does not match schema "
            f"(missing {sorted(missing)}, undeclared {sorted(extra)})"
        )
    col_index = {c: header.index(c) for c in header}

    samples = []
    problems = []
    for i, raw in enumerate(rows[1:], start=2):
        if len(raw) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(raw)}")
        sid = raw[col_index[schema.id_column]].strip()
        if not sid:
            raise DataError(f"row {i}: empty sample id")
        features = {c: _parse_cell(raw[col_index[c]], c, i) for c in schema.features}
        targets = {c: _parse_cell(raw[col_index[c]], c, i) for c in schema.targets}
        sample = Sample(id=sid, features=features, targets=targets)
        if strict:
            problems.extend(f"row {i}: {p}" for p in validate_sample(sample))
        samples.append(sample)
    if problems:
        raise DataError(f"{path}: invalid samples:\n  " + "\n  ".join(problems))
    return Dataset(samples, list(schema.features), list(schema.targets))


@dataclass
class Selection:
    """Complete-case design matrix and target vectors for one model config."""

    ids: list[str]
    X: np.ndarray
    targets: dict[str, np.ndarray]
    feature_names: list[str]
    excluded_ids: list[str]


def select_columns(dataset: Dataset, config) -> Selection:
    """Build the design matrix and target vectors for a model configuration.

    Samples missing any required feature or target are excluded and
    reported via Selection.excluded_ids. Column order follows the
    configuration; no intercept column is added.
    """
    feats = list(config.features)
    targs = list(config.targets)
    for name in feats + targs:
        probe = dataset.samples[0] if dataset.samples else None
        if probe is not None and not probe.has(name):
            raise DataError(f"configuration column {name!r} not present in dataset")
    kept, excluded = [], []
    for s in dataset.samples:
        vals = [s.value(c) for c in feats + targs]
        if any(v is None for v in vals):
            excluded.append(s.id)
        else:
            kept.append((s.id, vals))
    if not kept:
        raise DataError(f"no usable rows for configuration {getattr(config, 'id', '?')!r}")
    ids = [sid for sid, _ in kept]
    data = np.array([vals for _, vals in kept], dtype=float)
    X = data[:, : len(feats)]
    targets = {t: data[:, len(feats) + j].copy() for j, t in enumerate(targs)}
    return Selection(ids=ids, X=X, targets=targets, feature_names=feats, excluded_ids=excluded)


def assign_folds(n: int, k: int, seed: int) -> np.ndarray:
    """Deterministically assign each of n rows to one of k folds of near-equal size.

    Returns an int array holding each row's fold.
    """
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    if n < k:
        raise DataError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=int)
    fold[rng.permutation(n)] = np.arange(n) % k
    sizes = np.bincount(fold, minlength=k)
    if sizes.max() - sizes.min() > 1:
        raise DataError(f"fold sizes differ by more than one: {sizes.tolist()}")
    return fold
