"""Tabular soil-sample handling: the CSV table format in both directions,
column selection, fold assignment; also the package's error base class,
the kinds of value that declare the JSON forms of its types, and the
worker-pool map its commands share.

The canonical table layout is one row per sample with an ``id`` column,
basic-property feature columns and any number of numeric target columns.
Missing entries are empty cells (or na/nan/none/null tokens); any other
cell must hold a finite number. Lines starting with ``#`` before the
header are metadata comments and are skipped; below the header such a
line is a data row whose sample id starts with ``#``. read_table reads a
table from file to columns in one pass, parsing each cell as it reads,
and table_text writes one: for two or more columns and no carriage return
in a cell, as csv.writer(lineterminator="\\n") does, which leaves a lone
carriage return unquoted.
"""

from __future__ import annotations

from dataclasses import dataclass

import csv
import itertools
from array import array
import math
from numbers import Real
import os
import re
import sys

import numpy as np

# Column names understood as sample properties (model inputs), by group.
# Anything else in a header, apart from the id column, is treated as a target.
BASE_FEATURES = ("sand", "silt", "clay", "bulk_density", "d_g", "sigma_g")
SCALE_FEATURES = ("internal_diameter_cm", "length_cm")
VG_FEATURES = ("theta_r", "theta_s", "alpha", "n")
KNOWN_FEATURES = BASE_FEATURES + SCALE_FEATURES + VG_FEATURES

MISSING_TOKENS = {"", "na", "nan", "none", "null"}

# Measured sand/silt/clay percentages carry rounding error; their sum must
# still be close to 100.
TEXTURE_SUM_TOL = 0.5


class SoilptfError(ValueError):
    """Base of every error the package raises for input it cannot use; the
    command line turns one into a one-line message at exit 1."""


class DataError(SoilptfError):
    """Malformed input table or unusable selection."""


def finite_number(v) -> bool:
    """True for a real number within the float range: no bool, NaN or
    infinity, and no integer too large for a float. The comparisons never
    raise, and need no abs(), which warns on numpy's most negative integers."""
    if type(v) not in (int, float) and (isinstance(v, bool) or not isinstance(v, Real)):
        return False
    top = sys.float_info.max
    return -top <= v <= top


class Value:
    """A kind of JSON value: test(v) says whether v is one and what names
    one, parts(v, path, error) reads the values it holds and build makes
    the type of them. load raises error naming the key path of the first
    bad value ("pairs[0].weight must be ..."), or of a build that raised."""

    def __init__(self, test, what, parts=None, build=None, error=SoilptfError):
        self.test, self.what, self.parts, self.build, self.error = test, what, parts, build, error

    def load(self, doc):
        return self.read(doc, "", self.error)

    def read(self, v, path, error):
        if not self.test(v):
            got = sorted(v, key=str) if isinstance(v, dict) else v  # an object by its keys
            # the path of a key at the top starts with "."; "" is the whole file
            raise error(f"{path} must be {self.what}, got {got!r}".lstrip(". "))
        if self.parts:
            v = self.parts(v, path, error)
        if self.build is None:
            return v
        try:
            return self.build(v)
        except SoilptfError as exc:
            if not path:
                raise
            raise error(f"{path}: {exc}".lstrip(".")) from None


ANY = Value(lambda v: True, "any value")  # a value its type checks when built
FINITE = Value(finite_number, "a finite number")
NON_NEGATIVE = Value(lambda v: finite_number(v) and v >= 0, "a non-negative finite number")
POSITIVE = Value(lambda v: finite_number(v) and v > 0, "a finite positive number")
STR = Value(lambda v: isinstance(v, str), "a string")
BOOL = Value(lambda v: isinstance(v, bool), "true or false")


def integer(least: int) -> Value:
    return Value(lambda v: type(v) is int and v >= least, f"an integer of at least {least}")


def one_of(*names) -> Value:
    return Value(lambda v: isinstance(v, str) and v in names, f"one of {', '.join(names)}")


def maybe(kind, default=None) -> Value:
    """null, read as default, or a value of kind."""
    return Value(lambda v: True, f"null or {kind.what}",
                 lambda v, path, error: default if v is None else kind.read(v, path, error))


def list_of(kind, least: int = 0, **options) -> Value:
    """A list of at least least values of kind; options are build and error."""
    return Value(lambda v: isinstance(v, list) and len(v) >= least,
                 "a non-empty list" if least else "a list",
                 lambda v, path, error: [kind.read(x, f"{path}[{i}]", error)
                                         for i, x in enumerate(v)], **options)


def map_of(kind, **options) -> Value:
    """An object whose every value is of kind; options are build and error."""
    return Value(lambda v: isinstance(v, dict), "an object", lambda v, path, error: {
        key: kind.read(x, f"{path}.{key}", error) for key, x in v.items()}, **options)


class Schema(Value):
    """The form of a type that serializes as an object: table maps each of
    its keys, every one required and no other allowed, to the key's kind,
    and the type is build(**values)."""

    def __init__(self, table, build=dict, error=SoilptfError):
        self.table = table
        *keys, last = table
        super().__init__(lambda v: isinstance(v, dict) and v.keys() == table.keys(),
                         f"an object of exactly the keys {', '.join(keys)} and {last}",
                         lambda v, path, error: {key: kind.read(v[key], f"{path}.{key}", error)
                                                 for key, kind in table.items()},
                         lambda values: build(**values), error)


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], spread over min(jobs, len(items),
    cores) worker processes; with one worker it runs in this process."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: not a start-up cost
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    for name in SCALE_FEATURES:
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


def _parse_cell(token: str, column: str, row: int) -> float:
    """One numeric cell: NaN for a missing token, else a finite float.

    Raises DataError naming the row, the column and the token for text
    that is not a number and for infinities or NaN spelled other than
    as a missing token.
    """
    try:  # most cells: float strips no more than str.strip, so a finite value is the same
        value = float(token)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
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


def read_table(path, names=None, required=()) -> tuple[list[str], list[str], dict[str, np.ndarray]]:
    """Read a CSV table in one pass: its stripped header, its sample ids and
    the named numeric columns (every column but ``id`` for names=None).

    Lines starting with ``#`` before the header are skipped; the data row
    at index i is called row i + 2 in diagnostics. A name absent from the
    header reads as an all-NaN column. Each cell is parsed as it is read,
    and no row is kept. Faults are held until the whole file is read, then
    the first of these raises DataError: a missing or non-UTF-8 file or a
    line csv cannot read (a cell past its field size limit), an empty
    file, a repeated column name, a row whose length differs from the
    header's, a required column or the ``id`` column missing from the
    header, and the first empty id or bad cell in (row, name) order.
    """
    faults = {}  # its place in that order (3 to 7) -> the first fault of that kind
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(itertools.dropwhile(lambda ln: ln.startswith("#"), fh))
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = [c.strip() for c in header]
            at = {c: j for j, c in enumerate(header)}
            if len(at) != len(header):
                faults[3] = f"{path}: duplicate column names in header: {header}"
            if not set(required) <= set(at):
                faults[5] = f"{path}: table needs columns {sorted(required)}, has {header}"
            if "id" not in at:
                faults[6] = f"header has no 'id' column: {header}"
            names = [c for c in header if c != "id"] if names is None else list(names)
            values = {name: array("d") for name in names if name in at}
            cells = [(values[name].append, name, at[name]) for name in values]
            ids, id_at = [], at.get("id")
            for i, raw in enumerate(rows, start=2):
                if len(raw) != len(header):
                    faults.setdefault(4, f"row {i}: expected {len(header)} cells, got {len(raw)}")
                elif not faults:
                    ids.append(sid := raw[id_at].strip())
                    try:
                        if not sid:
                            raise DataError(f"row {i}: empty sample id")
                        for append, name, j in cells:
                            append(_parse_cell(raw[j], name, i))
                    except DataError as exc:
                        faults[7] = str(exc)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # a cell past csv's field size limit
        raise DataError(f"{path}: {exc}") from None
    if faults:
        raise DataError(faults[min(faults)])
    return header, ids, {name: np.asarray(values[name]) if name in values
                         else np.full(len(ids), math.nan) for name in names}


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def table_text(columns, comments=()) -> str:
    """The CSV text of a table under its ``# comment`` lines, each line
    ended by a newline. columns maps each header name, in order, to its
    column, or lists (name, column) pairs where two names are one. A numpy
    array is numeric: each value its repr, NaN an empty cell, so
    read_table reads it back bit for bit. Any other column holds text.
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
    header, ids, columns = read_table(path)
    features = [c for c in header if c in KNOWN_FEATURES]
    targets = [c for c in header if c != "id" and c not in KNOWN_FEATURES]
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
