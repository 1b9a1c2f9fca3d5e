"""Tabular soil-sample handling: CSV ingestion, column selection, fold assignment.

The canonical table layout is one row per sample with an ``id`` column,
basic-property feature columns and any number of numeric target columns.
Missing entries are empty cells (or na/nan/none/null tokens); any other
cell must hold a finite number. Lines starting with ``#`` are metadata
comments and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class Dataset:
    """Samples stored by column: one float64 array per column, NaN marking a
    missing entry.

    Feature units: sand/silt/clay in mass percent, bulk_density in g cm^-3,
    d_g and sigma_g in mm, internal_diameter_cm and length_cm in cm.
    Water-content targets are volumetric fractions; conductivity targets
    are natural-log cm day^-1. Features and targets are disjoint, and
    ``columns`` holds exactly the declared ones, each with one entry per id.
    """

    ids: list[str]
    columns: dict[str, np.ndarray]
    feature_names: list[str]
    target_names: list[str]

    def __post_init__(self):
        self.columns = {name: np.asarray(col, dtype=float) for name, col in self.columns.items()}
        seen = set()
        for sid in self.ids:
            if sid in seen:
                raise DataError(f"duplicate sample id {sid!r}")
            seen.add(sid)
        declared = set()
        for role, names in (("feature", self.feature_names), ("target", self.target_names)):
            for name in names:
                if name in declared:
                    raise DataError(f"column {name!r} is declared twice among features and targets")
                if name not in self.columns:
                    raise DataError(f"dataset lacks declared {role} {name!r}")
                declared.add(name)
        for name, col in self.columns.items():
            if name not in declared:
                raise DataError(f"column {name!r} is neither a feature nor a target")
            if col.shape != (len(self.ids),):
                raise DataError(f"column {name!r} has shape {col.shape}, not ({len(self.ids)},)")

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self, names) -> np.ndarray:
        """The named columns side by side, one row per sample."""
        out = np.empty((len(self.ids), len(names)))
        for j, name in enumerate(names):
            out[:, j] = self.columns[name]
        return out


def validate_dataset(dataset: Dataset) -> list[tuple[int, str]]:
    """Return (row index, problem) pairs for invariant violations, in row
    order and, within a row, in rule order; empty if the data are clean."""
    cols = dataset.columns
    features = set(dataset.feature_names)
    found = []
    if {"sand", "silt", "clay"} <= features:
        total = cols["sand"] + cols["silt"] + cols["clay"]
        for i in np.flatnonzero(np.abs(total - 100.0) > TEXTURE_SUM_TOL):
            found.append((i, f"sand+silt+clay = {total[i]:g}, expected 100 +/- {TEXTURE_SUM_TOL}"))
    for name in ("internal_diameter_cm", "length_cm"):
        if name in features:
            for i in np.flatnonzero(cols[name] <= 0):
                found.append((i, f"{name} = {cols[name][i]:g} must be positive"))
    for name in dataset.target_names:
        if name.startswith("theta_"):
            v = cols[name]
            for i in np.flatnonzero((v < 0.0) | (v > 1.0)):
                found.append((i, f"{name} = {v[i]:g} outside [0, 1]"))
    found.sort(key=lambda item: item[0])
    return [(int(i), problem) for i, problem in found]


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV table as its stripped header and its raw data rows.

    Lines starting with ``#`` are skipped; the data row at index i is
    called row i + 2 in diagnostics. Raises DataError for a missing or
    empty file, a repeated column name or a row whose length differs
    from the header's.
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
    for i, raw in enumerate(rows[1:], start=2):
        if len(raw) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(raw)}")
    return header, rows[1:]


def _parse_cell(token: str, column: str, row: int) -> float:
    """One numeric cell: NaN for a missing token, else a finite float.

    Raises DataError naming the row, the column and the token for text
    that is not a number and for infinities or NaN spelled other than
    as a missing token.
    """
    text = token.strip()
    if text.lower() in MISSING_TOKENS:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}: column {column!r} value {token!r} is not numeric") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: column {column!r} value {token!r} is not a finite number")
    return value


def parse_columns(
    header: list[str], rows: list[list[str]], names, id_column: str = "id"
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Parse the ids and the named numeric columns of rows from read_rows.

    A name absent from the header reads as an all-NaN column. Raises
    DataError for an empty id or a bad cell, the first met in (row, name)
    order.
    """
    at = {c: j for j, c in enumerate(header)}
    if id_column not in at:
        raise DataError(f"header has no {id_column!r} column: {header}")
    ids = []
    values = np.full((len(names), len(rows)), math.nan)
    present = [(k, name, at[name]) for k, name in enumerate(names) if name in at]
    for i, raw in enumerate(rows):
        sid = raw[at[id_column]].strip()
        if not sid:
            raise DataError(f"row {i + 2}: empty sample id")
        ids.append(sid)
        for k, name, j in present:
            values[k, i] = _parse_cell(raw[j], name, i + 2)
    return ids, dict(zip(names, values))


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
    schema, duplicate ids, non-numeric or non-finite cells or (with
    strict=True) sample invariant violations; every diagnostic about a
    cell names its row.
    """
    header, rows = read_rows(path)
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
    ids, columns = parse_columns(header, rows, schema.features + schema.targets, schema.id_column)
    dataset = Dataset(ids, columns, list(schema.features), list(schema.targets))
    if strict:
        problems = [f"row {i + 2}: {p}" for i, p in validate_dataset(dataset)]
        if problems:
            raise DataError(f"{path}: invalid samples:\n  " + "\n  ".join(problems))
    return dataset


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
        if name not in dataset.columns:
            raise DataError(f"configuration column {name!r} not present in dataset")
    data = dataset.matrix(feats + targs)
    complete = ~np.isnan(data).any(axis=1)
    if not complete.any():
        raise DataError(f"no usable rows for configuration {getattr(config, 'id', '?')!r}")
    ids = [sid for sid, keep in zip(dataset.ids, complete) if keep]
    excluded = [sid for sid, keep in zip(dataset.ids, complete) if not keep]
    data = data[complete]
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
