"""Tabular soil-sample handling: the CSV table format in both directions,
column selection, fold assignment.

The canonical table layout is one row per sample with an ``id`` column,
basic-property feature columns and any number of numeric target columns.
Missing entries are empty cells (or na/nan/none/null tokens); any other
cell must hold a finite number. Lines starting with ``#`` before the
header are metadata comments and are skipped; below the header such a
line is a data row whose sample id starts with ``#``. read_rows and
parse_columns read tables, and table_text writes them: for two or more
columns and no carriage return in a cell, as csv.writer(lineterminator=
"\\n") does, which leaves a lone carriage return unquoted.
"""

from __future__ import annotations

from dataclasses import dataclass

import csv
import itertools
import math
import re

import numpy as np

# Column names understood as sample properties (model inputs). Anything
# else in a header, apart from the id column, is treated as a target.
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
    """Malformed input table or unusable selection."""


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


@np.errstate(over="ignore")  # an inf sum is refused like any other
def texture_sum_faults(sand, silt, clay) -> list[tuple[int, str]]:
    """(row index, problem) of each row whose texture is not 100 +/- TEXTURE_SUM_TOL."""
    total = sand + silt + clay
    return [(i, f"sand+silt+clay = {total[i]:g}, expected 100 +/- {TEXTURE_SUM_TOL}")
            for i in np.flatnonzero(np.abs(total - 100.0) > TEXTURE_SUM_TOL).tolist()]


def validate_dataset(dataset: Dataset) -> list[tuple[int, str]]:
    """Return (row index, problem) pairs for invariant violations, in row
    order and, within a row, in rule order; empty if the data are clean."""
    cols = dataset.columns
    features = set(dataset.feature_names)
    found = []
    if {"sand", "silt", "clay"} <= features:
        found.extend(texture_sum_faults(cols["sand"], cols["silt"], cols["clay"]))
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

    Lines starting with ``#`` before the header are skipped; the data row
    at index i is called row i + 2 in diagnostics. Raises DataError for a
    missing, empty or non-UTF-8 file, a repeated column name or a row whose
    length differs from the header's.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = list(itertools.dropwhile(lambda ln: ln.startswith("#"), fh))
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
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
    header: list[str], rows: list[list[str]], names
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Parse the ids and the named numeric columns of rows from read_rows.

    A name absent from the header reads as an all-NaN column. Raises
    DataError for an empty id or a bad cell, the first met in (row, name)
    order.
    """
    at = {c: j for j, c in enumerate(header)}
    if "id" not in at:
        raise DataError(f"header has no 'id' column: {header}")
    ids = []
    values = np.full((len(names), len(rows)), math.nan)
    present = [(k, name, at[name]) for k, name in enumerate(names) if name in at]
    for i, raw in enumerate(rows):
        sid = raw[at["id"]].strip()
        if not sid:
            raise DataError(f"row {i + 2}: empty sample id")
        ids.append(sid)
        for k, name, j in present:
            values[k, i] = _parse_cell(raw[j], name, i + 2)
    return ids, dict(zip(names, values))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def table_text(columns, comments=()) -> str:
    """The CSV text of a table under its ``# comment`` lines, each line
    ended by a newline. columns maps each header name, in order, to its
    column, or lists (name, column) pairs where two names are one. A numpy
    array is numeric: each value its repr, NaN an empty cell, so
    parse_columns reads it back bit for bit. Any other column holds text.
    A cell holding a comma, a quote or a line break is quoted, its quotes
    doubled.
    """
    names, values = zip(*(columns.items() if isinstance(columns, dict) else columns))
    cells = [["" if math.isnan(v) else repr(v) for v in np.asarray(col, dtype=float).tolist()]
             if isinstance(col, np.ndarray) else list(map(_quote, col)) for col in values]
    lines = [f"# {comment}" for comment in comments] + [",".join(map(_quote, names))]
    return "\n".join(lines + list(map(",".join, zip(*cells)))) + "\n"


def retention_columns(ids, tensions, theta) -> dict:
    """The long table id, tension_cm, theta of the water contents theta
    (samples, points) at the finite tensions (points,), sample by sample.
    The tensions repeat for every sample, so their text is formatted once,
    as table_text would format each cell."""
    return {"id": [sid for sid in ids for _ in range(len(tensions))],
            "tension_cm": [repr(v) for v in tensions.tolist()] * len(ids), "theta": theta.ravel()}


def load_dataset(path, strict: bool = True) -> Dataset:
    """Read a sample table from CSV.

    Header columns named in KNOWN_FEATURES are features, in header order;
    every other column but ``id`` is a target. Raises DataError for a
    missing file, a header without an ``id`` column, duplicate ids,
    non-numeric or non-finite cells or (with strict=True) sample invariant
    violations; every diagnostic about a cell names its row, and the
    invariant violations of all rows share one line.
    """
    header, rows = read_rows(path)
    features = [c for c in header if c in KNOWN_FEATURES]
    targets = [c for c in header if c != "id" and c not in KNOWN_FEATURES]
    ids, columns = parse_columns(header, rows, features + targets)
    dataset = Dataset(ids, columns, features, targets)
    if strict:
        found = validate_dataset(dataset)
        if found:
            bad = len({i for i, _ in found})
            noun = "sample" if bad == 1 else "samples"
            listed = "; ".join(f"row {i + 2}: {p}" for i, p in found)
            raise DataError(f"{path}: {bad} invalid {noun}: {listed}")
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
