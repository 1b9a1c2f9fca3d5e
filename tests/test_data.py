"""Tables, feature/target inference, column selection and fold assignment."""

import ast
import csv
import io
import itertools
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soilptf
from soilptf.cli import _meta, _meta_comments, _write_text, main
from soilptf.cpxr import PXR_MODEL
from soilptf.data import (
    FINITE,
    KNOWN_FEATURES,
    STR,
    DataError,
    Dataset,
    Schema,
    assign_folds,
    finite_number,
    list_of,
    _parse_cell,
    load_dataset,
    maybe,
    read_table,
    select_columns,
    table_text,
    validate_dataset,
)
from soilptf.discretize import SCHEME
from soilptf.evaluation import METRIC_SET, RECORD, REPORT
from soilptf.hydrology import MODEL_CONFIGS, POINT_TARGETS, ModelConfig
from soilptf.linreg import LINEAR_MODEL
from soilptf.patterns import ITEM, PATTERN


FOUR_ROWS = """id,sand,silt,clay,bulk_density,theta_10
1,83,14,3,1.5,0.21
2,84.6,12.4,3,1.4,0.19
3,78,19,3,1.6,0.25
4,85,14,1,1.3,0.17
"""


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_four_row_csv(tmp_path):
    ds = load_dataset(write(tmp_path, FOUR_ROWS))
    assert len(ds) == 4
    assert ds.feature_names == ["sand", "silt", "clay", "bulk_density"]
    assert ds.target_names == ["theta_10"]
    assert ds.ids == ["1", "2", "3", "4"]
    assert ds.columns["sand"][1] == 84.6
    assert ds.columns["theta_10"][3] == 0.17
    assert all(col.dtype == np.float64 for col in ds.columns.values())


def test_load_header_only(tmp_path):
    ds = load_dataset(write(tmp_path, "id,sand,silt,clay\n"))
    assert len(ds) == 0
    assert ds.feature_names == ["sand", "silt", "clay"]


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_dataset(tmp_path / "absent.csv")


def test_load_bad_numeric_names_row(tmp_path):
    bad = FOUR_ROWS.replace("78,19,3", "abc,19,3")
    with pytest.raises(DataError, match="row 4"):
        load_dataset(write(tmp_path, bad))


def test_load_duplicate_ids(tmp_path):
    bad = FOUR_ROWS.replace("4,85,14,1", "1,85,14,1")
    with pytest.raises(DataError, match="duplicate sample id"):
        load_dataset(write(tmp_path, bad))


def test_load_skips_comment_lines(tmp_path):
    ds = load_dataset(write(tmp_path, "# generated by something\n# seed=5\n" + FOUR_ROWS))
    assert len(ds) == 4


def test_load_texture_sum_enforced(tmp_path):
    bad = FOUR_ROWS.replace("83,14,3", "83,14,1")  # sums to 98
    with pytest.raises(DataError, match="row 2"):
        load_dataset(write(tmp_path, bad))
    ds = load_dataset(write(tmp_path, bad, name="loose.csv"), strict=False)
    assert len(ds) == 4


def test_load_missing_tokens(tmp_path):
    text = "id,sand,silt,clay,theta_10\n1,83,14,3,na\n2,84,13,3,\n"
    ds = load_dataset(write(tmp_path, text))
    assert np.isnan(ds.columns["theta_10"]).all()
    assert ds.columns["sand"].tolist() == [83.0, 84.0]


@pytest.mark.parametrize("token", ["inf", "-inf", "+nan", "-nan", "Infinity", "1e999"])
def test_load_rejects_non_finite_cells(tmp_path, token):
    bad = FOUR_ROWS.replace("78,19,3,1.6", f"78,19,3,{token}")
    with pytest.raises(DataError) as exc:
        load_dataset(write(tmp_path, bad), strict=False)
    assert str(exc.value) == (
        f"row 4: column 'bulk_density' value {token!r} is not a finite number"
    )


def test_load_duplicate_header(tmp_path):
    with pytest.raises(DataError, match="duplicate column"):
        load_dataset(write(tmp_path, "id,sand,sand\n1,2,3\n"))


def test_load_ragged_row(tmp_path):
    with pytest.raises(DataError, match="row 3"):
        load_dataset(write(tmp_path, "id,sand\n1,5\n2,5,9\n"))


def test_infer_schema_split(tmp_path):
    # load_dataset infers the roles from the header: known names are features
    ds = load_dataset(write(tmp_path, "id,theta_10,sand,log_ksat,clay\n"))
    assert ds.feature_names == ["sand", "clay"]
    assert ds.target_names == ["theta_10", "log_ksat"]
    with pytest.raises(DataError, match="no 'id' column"):
        load_dataset(write(tmp_path, "sand,clay\n1,2\n", name="no_id.csv"))


def test_load_keeps_hash_ids_below_header(tmp_path):
    text = "# meta\nid,sand,theta_10\na,1,0.1\n#b,2,0.2\n# c,3,0.3\n"
    ds = load_dataset(write(tmp_path, text), strict=False)
    assert ds.ids == ["a", "#b", "# c"]
    assert ds.columns["sand"].tolist() == [1.0, 2.0, 3.0]


def test_validate_dataset_rules():
    def check(features, targets):
        columns = {**features, **targets}
        n = len(next(iter(columns.values())))
        ds = Dataset([f"r{i}" for i in range(n)], columns, list(features), list(targets))
        return validate_dataset(ds)

    assert check({"sand": [50.0], "silt": [30.0], "clay": [20.0]}, {}) == []
    problems = check({"sand": [50.0], "silt": [30.0], "clay": [18.0]}, {})
    assert [i for i, _ in problems] == [0] and "sand+silt+clay" in problems[0][1]
    problems = check({"length_cm": [-1.0]}, {"theta_10": [1.4]})
    assert problems == [(0, "length_cm = -1 must be positive"), (0, "theta_10 = 1.4 outside [0, 1]")]
    # missing entries break no rule; a target named like a feature rule is not checked
    assert check({"length_cm": [math.nan]}, {"theta_10": [math.nan], "length": [-1.0]}) == []
    # problems come in row order, then in rule order within a row
    problems = check(
        {"sand": [50.0, 50.0, 60.0], "silt": [30.0, 30.0, 30.0], "clay": [20.0, 18.0, 20.0],
         "internal_diameter_cm": [5.0, 0.0, -2.0], "length_cm": [1.0, -3.0, 1.0]},
        {"theta_s": [0.4, 1.2, -0.1], "theta_10": [0.3, 0.3, 2.0]},
    )
    assert problems == [
        (1, "sand+silt+clay = 98, expected 100 +/- 0.5"),
        (1, "internal_diameter_cm = 0 must be positive"),
        (1, "length_cm = -3 must be positive"),
        (1, "theta_s = 1.2 outside [0, 1]"),
        (2, "sand+silt+clay = 110, expected 100 +/- 0.5"),
        (2, "internal_diameter_cm = -2 must be positive"),
        (2, "theta_s = -0.1 outside [0, 1]"),
        (2, "theta_10 = 2 outside [0, 1]"),
    ]


def test_load_reports_problems_by_row(tmp_path):
    text = (
        "id,sand,silt,clay,length_cm,theta_10\n"
        "a,50,30,20,1,0.3\n"
        "b,50,30,10,-1,0.3\n"
        "c,50,30,20,1,1.5\n"
    )
    path = write(tmp_path, "# comment lines do not count\n" + text)
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    # one line: two rows are invalid, row 3 on two counts
    assert str(exc.value) == (
        f"{path}: 2 invalid samples: "
        "row 3: sand+silt+clay = 90, expected 100 +/- 0.5; "
        "row 3: length_cm = -1 must be positive; "
        "row 4: theta_10 = 1.5 outside [0, 1]"
    )


def test_dataset_invariants():
    def make(ids=("a", "b"), columns=None, features=("sand",), targets=()):
        columns = {"sand": [1.0, 2.0]} if columns is None else columns
        return Dataset(list(ids), columns, list(features), list(targets))

    ds = make()
    assert len(ds) == 2 and ds.ids == ["a", "b"]
    assert ds.columns["sand"].dtype == np.float64
    assert ds.matrix(["sand", "sand"]).tolist() == [[1.0, 1.0], [2.0, 2.0]]
    assert ds.matrix([]).shape == (2, 0)
    with pytest.raises(DataError, match="duplicate sample id 'a'"):
        make(ids=("a", "a"))
    with pytest.raises(DataError, match="lacks declared feature 'clay'"):
        make(features=("sand", "clay"))
    with pytest.raises(DataError, match="lacks declared target 'theta_10'"):
        make(targets=("theta_10",))
    with pytest.raises(DataError, match="column 'sand' has shape"):
        make(columns={"sand": [1.0, 2.0, 3.0]})
    with pytest.raises(DataError, match="column 'sand' has shape"):
        make(columns={"sand": [[1.0], [2.0]]})
    with pytest.raises(DataError, match="column 'sand' is declared twice"):
        make(targets=("sand",))
    with pytest.raises(DataError, match="column 'clay' is neither"):
        make(columns={"sand": [1.0, 2.0], "clay": [3.0, 4.0]})
    assert len(make(ids=(), columns={"sand": []})) == 0


def synth_rows(n, rng, drop_length_for=()):
    point_cols = ",".join(POINT_TARGETS)
    rows = []
    for i in range(n):
        sand = round(float(rng.uniform(5, 90)), 2)
        clay = round(float(rng.uniform(1, 100 - sand - 1)), 2)
        silt = round(100.0 - sand - clay, 2)
        length = "" if i in drop_length_for else "10"
        # monotone decreasing water contents along the tension ladder
        thetas = ",".join(f"{0.45 - 0.02 * j:.3f}" for j in range(len(POINT_TARGETS)))
        rows.append(
            f"s{i},{sand},{silt},{clay},1.4,0.05,10.0,8,{length},{thetas},{-1 - i * 0.01}"
        )
    head = (
        "id,sand,silt,clay,bulk_density,d_g,sigma_g,internal_diameter_cm,length_cm,"
        + point_cols
        + ",log_ksat"
    )
    return head + "\n" + "\n".join(rows) + "\n"


def test_select_columns_swrc_layouts(tmp_path):
    ds = load_dataset(write(tmp_path, synth_rows(8, np.random.default_rng(0))))
    sel1 = select_columns(ds, MODEL_CONFIGS["SWRC1"])
    assert sel1.X.shape == (8, 6)
    assert sel1.feature_names == list(MODEL_CONFIGS["SWRC1"].features)
    sel2 = select_columns(ds, MODEL_CONFIGS["SWRC2"])
    assert sel2.X.shape == (8, 8)
    assert sel2.feature_names[-2:] == ["internal_diameter_cm", "length_cm"]


def test_select_columns_excludes_incomplete(tmp_path):
    ds = load_dataset(write(tmp_path, synth_rows(8, np.random.default_rng(1), drop_length_for={2, 5})))
    sel = select_columns(ds, MODEL_CONFIGS["SWRC2"])
    assert sel.excluded_ids == ["s2", "s5"]
    assert sel.X.shape == (6, 8)
    # the scale-free config still uses every sample
    assert select_columns(ds, MODEL_CONFIGS["SWRC1"]).X.shape == (8, 6)


def csv_oracle(path, features, targets):
    """select_columns rebuilt from the csv module and float(): kept ids, their
    feature rows and target values, and the excluded ids. Only the lines
    before the header are comments."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(itertools.dropwhile(lambda ln: ln.startswith("#"), fh))
    header = [c.strip() for c in header]
    ids, rows, excluded = [], [], []
    p = len(features)
    for raw in body:
        cell = dict(zip(header, raw))
        values = [cell[c].strip() for c in list(features) + list(targets)]
        if any(v.lower() in ("", "na", "nan", "none", "null") for v in values):
            excluded.append(cell["id"].strip())
        else:
            ids.append(cell["id"].strip())
            rows.append([float(v) for v in values])
    targets = {t: [r[p + j] for r in rows] for j, t in enumerate(targets)}
    return ids, [r[:p] for r in rows], targets, excluded


def assert_matches_oracle(path, config):
    sel = select_columns(load_dataset(path, strict=False), config)
    ids, X, targets, excluded = csv_oracle(path, config.features, config.targets)
    assert sel.ids == ids and sel.excluded_ids == excluded
    assert sel.feature_names == list(config.features)
    assert sel.X.tobytes() == np.array(X, dtype=float).tobytes()
    for t in config.targets:
        assert sel.targets[t].tobytes() == np.array(targets[t], dtype=float).tobytes()


def test_select_columns_rejoin_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    path = write(tmp_path, synth_rows(12, rng, drop_length_for={3, 7}))
    assert_matches_oracle(path, MODEL_CONFIGS["SHC2"])
    assert_matches_oracle(path, MODEL_CONFIGS["SWRC1"])


_finite = st.floats(allow_nan=False, allow_infinity=False)
_cell_value = st.one_of(_finite, st.sampled_from([-0.0, 5e-324, -1e-310]), st.just(math.nan))
_ids = st.lists(st.from_regex(r"[A-Za-z0-9_.#-]{1,8}", fullmatch=True), min_size=0, max_size=12,
                unique=True)
# Ids that survive the reader's strip: no space at either end, but commas,
# quotes, line breaks, "#" and non-ASCII text inside.
_id_end = "-A-Za-z0-9_.#\u00e9\u540d"
_written_ids = st.lists(
    st.from_regex(rf'[{_id_end}]([{_id_end},"\r\n ]{{0,6}}[{_id_end}])?', fullmatch=True),
    min_size=0, max_size=12, unique=True)
_ROUND_TRIP_COLUMNS = (("sand", "bulk_density", "length_cm"), ("theta_10", "log_ksat"))


@settings(max_examples=150, deadline=None)
@given(_written_ids.flatmap(lambda ids: st.tuples(
    st.just(ids),
    st.lists(st.lists(_cell_value, min_size=len(ids), max_size=len(ids)), min_size=5, max_size=5),
)))
def test_written_table_reads_back_bit_exact(tmp_path_factory, table):
    ids, values = table
    features, targets = _ROUND_TRIP_COLUMNS
    ds = Dataset(ids, dict(zip(features + targets, values)), list(features), list(targets))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    _write_text(path, table_text({"id": ds.ids, **ds.columns}, _meta_comments(_meta(0, {}))))
    back = load_dataset(path, strict=False)
    assert back.ids == ds.ids
    assert back.feature_names == list(features) and back.target_names == list(targets)
    for name in features + targets:
        assert back.columns[name].tobytes() == ds.columns[name].tobytes(), name


_any_text = st.text(st.one_of(st.sampled_from(',"\r\n# \u00e9\u540d'),
                             st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
                   max_size=6)
# Header names the reader gives back: stripped, and not taken for a comment.
_header_name = _any_text.filter(lambda s: s == s.strip() and not s.startswith("#"))


@st.composite
def _tables(draw):
    """Two to five uniquely named columns of one length, each numeric (an
    array) or text (a list of str)."""
    n = draw(st.integers(0, 8))
    columns = {}
    for name in draw(st.lists(_header_name, min_size=2, max_size=5, unique=True)):
        if draw(st.booleans()):
            columns[name] = np.array(draw(st.lists(st.one_of(st.floats(), _cell_value),
                                                   min_size=n, max_size=n)), dtype=float)
        else:
            columns[name] = draw(st.lists(_any_text, min_size=n, max_size=n))
    return columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_table_text_is_the_csv_writers_text(tmp_path_factory, columns):
    text = table_text(columns)
    assert table_text(columns, ["a", "b c"]) == "# a\n# b c\n" + text
    cells = [["" if math.isnan(v) else repr(v) for v in col.tolist()]
             if isinstance(col, np.ndarray) else col for col in columns.values()]
    rows = [list(columns)] + [list(row) for row in zip(*cells)]
    if not any("\r" in cell for row in rows for cell in row):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert text == buf.getvalue()
    path = tmp_path_factory.getbasetemp() / "table_text.csv"
    _write_text(path, text)
    assert ref_read_rows(path) == (rows[0], rows[1:])


_text_cell = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: f" {v!r} "),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "na", "NaN", "nan", "None", "NULL", " na "]),
)


@settings(max_examples=150, deadline=None)
@given(_ids.flatmap(lambda ids: st.lists(
    st.lists(_text_cell, min_size=4, max_size=4), min_size=len(ids), max_size=len(ids),
).map(lambda cells: (ids, cells))))
def test_select_columns_matches_csv_oracle(tmp_path_factory, table):
    ids, cells = table
    lines = ["# header comment", "id,sand,length_cm,theta_10,log_ksat"]
    lines += [",".join([sid] + row) for sid, row in zip(ids, cells)]
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_text("\n".join(lines) + "\n")
    config = ModelConfig("T", ("length_cm", "sand"), ("log_ksat", "theta_10"))
    if csv_oracle(path, config.features, config.targets)[0]:
        assert_matches_oracle(path, config)
    else:
        with pytest.raises(DataError, match="no usable rows"):
            select_columns(load_dataset(path, strict=False), config)


# ----------------------------------------------------------------------
# The reader read_table replaced, kept as a reference: read_rows held
# every row before parse_columns parsed the cells, and fit-vg checked its
# header in between ("retention table needs columns"). read_table must
# give the same ids, the same array bytes or the same error text.
# ----------------------------------------------------------------------


def ref_read_rows(path):
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


def ref_parse_cell(token, column, row):
    text = token.strip()
    if text.lower() in ("", "na", "nan", "none", "null"):
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}: column {column!r} value {token!r} is not numeric") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: column {column!r} value {token!r} is not a finite number")
    return value


def ref_parse_columns(header, rows, names):
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
            values[k, i] = ref_parse_cell(raw[j], name, i + 2)
    return ids, dict(zip(names, values))


def ref_read_table(path, names=None, required=()):
    header, rows = ref_read_rows(path)
    if not set(required) <= set(header):
        raise DataError(f"{path}: retention table needs columns {sorted(required)}, has {header}")
    names = [c for c in header if c != "id"] if names is None else names
    return (header, *ref_parse_columns(header, rows, names))


def _read_outcome(read, path, names, required):
    """The header, ids and (name, dtype, bytes) of each column, or the
    error text; the reference's one retired word is mapped to today's."""
    try:
        header, ids, columns = read(path, names, required)
    except DataError as exc:
        return str(exc).replace(": retention table needs", ": table needs")
    return header, ids, [(name, col.dtype.str, col.tobytes()) for name, col in columns.items()]


def assert_reads_as_reference(path, names=None, required=()):
    got = _read_outcome(read_table, path, names, required)
    assert got == _read_outcome(ref_read_table, path, names, required)
    return got


RETENTION = ("id", "tension_cm", "theta")


@pytest.mark.parametrize("text, names, required, outcome", [
    # bad tokens, each the row's first fault, and 1_0 read as 10
    (b"id,a\ns1,text\n", None, (), "row 2: column 'a' value 'text' is not numeric"),
    (b"id,a\ns1,1\ns2, inf\n", None, (), "row 3: column 'a' value ' inf' is not a finite number"),
    (b"id,a\ns1,-nan\n", None, (), "row 2: column 'a' value '-nan' is not a finite number"),
    (b"id,a\ns1,1e999\n", None, (), "row 2: column 'a' value '1e999' is not a finite number"),
    (b"id,a\ns1,1_0\n", None, (), None),
    # missing tokens in mixed case; an empty id is met before its row's cells
    (b"id,a,b\ns1,NA,nUlL\ns2, None ,NaN\n", None, (), None),
    (b"id,a\ns1,1\n  ,text\n", None, (), "row 3: empty sample id"),
    # padding: ASCII spaces, no-break spaces and the separators \x1c-\x1f
    ("id,a,b\n s1 ,\xa0 2.5\xa0, \x1c3\x1f\n\x1ds2\x1e,\x1e-1e3\x1d,\x1c\n".encode(), None, (), None),
    # a short row after or before a bad cell wins
    (b"id,a\ns1,text\ns2\n", None, (), "row 3: expected 2 cells, got 1"),
    (b"id,a\ns1\ns2,text\n", None, (), "row 2: expected 2 cells, got 1"),
    # a non-UTF-8 byte after a short row, and after a duplicate header
    (b"id,a\ns1\ns2,\xff\n", None, (), "not UTF-8 text"),
    (b"id,a,a\ns1,1,2\n\xfe,1,2\n", None, (), "not UTF-8 text"),
    (b"id,a,a\ns1,1,2\n", None, (), "duplicate column names in header: ['id', 'a', 'a']"),
    # a blank first line is a header with no names; only comments are an empty file
    (b"\nid,a\ns1,1\n", None, (), "row 2: expected 0 cells, got 2"),
    (b"\n", None, (), "header has no 'id' column: []"),
    (b"# one\n# two\n", None, (), "empty file"),
    (b"", None, (), "empty file"),
    # comments before the header only; CRLF line ends; quoted cells holding newlines
    (b"# meta\r\n#x\r\nid,a\r\n#s1,1\r\n\"s\r\n2\",\"\n3\n\"\r\n", None, (), None),
    # names: a name the header lacks is all NaN; required columns come before the id column
    (b"id,a\ns1,1\ns2,2\n", ("zz", "a"), (), None),
    (b"tension_cm,theta\n1,text\n", ("tension_cm", "theta"), RETENTION,
     "table needs columns ['id', 'tension_cm', 'theta'], has ['tension_cm', 'theta']"),
    (b"a,b\n1,text\n", (), (), "header has no 'id' column: ['a', 'b']"),
    (b"tension_cm,theta\n1\n", ("tension_cm", "theta"), RETENTION, "row 2: expected 2 cells, got 1"),
])
def test_read_table_matches_the_reference(tmp_path, text, names, required, outcome):
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    got = assert_reads_as_reference(path, names, required)
    if outcome is None:
        assert not isinstance(got, str), got
    else:
        assert isinstance(got, str) and outcome in got


def test_read_table_non_utf8_text_past_the_first_chunk(tmp_path):
    # the decoder's error names a position within the chunk it was given
    rows = "".join(f"s{i},{i}.5\n" for i in range(3000))
    for tail in (b"s,\xff\n", b"s\n", b"s,text\n"):
        path = tmp_path / "long.csv"
        path.write_bytes(b"id,a\n" + rows.encode() + b"x\n" + tail)
        assert isinstance(assert_reads_as_reference(path), str)


_PAD = st.text(st.sampled_from(" \xa0\x1c\x1d\x1e\x1f\t"), max_size=2)
_TOKEN = st.one_of(
    _finite.map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "", "na", "NA", "NaN", "None", "nULL", "-0.0", "5e-324", '"4.5"']),
    st.sampled_from(["text", "inf", "-nan", "1e999", '"1\n2"']),
)
_CELL = st.tuples(_PAD, _TOKEN, _PAD).map("".join)
_ID = st.sampled_from(["s1", "s2", " s3 ", "#4", '"a\nb"', '"c,d"', "s\x1c", "", "\xa0"])


@st.composite
def _csv_files(draw):
    """CSV bytes with comment lines, a header that may repeat a name, lack
    id or be blank, rows that may be short or long, CRLF or LF line ends,
    and maybe one byte that is not UTF-8 at a random line."""
    header = draw(st.lists(st.sampled_from(["id", "tension_cm", "theta", " a "]), max_size=5))
    if draw(st.sampled_from([True] * 3 + [False])):  # mostly the id first and no name twice
        header = ["id"] + [c for c in dict.fromkeys(header) if c != "id"]
    lines = [draw(st.sampled_from(["# c", "#", "#id,a"])) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.sampled_from([True] * 15 + [False])):
        lines.append(",".join(header))
    for _ in range(draw(st.integers(0, 6))):
        width = max(len(header) + draw(st.sampled_from([0] * 16 + [-1, 1])), 0)
        cells = [draw(_ID)] + [draw(_CELL) for _ in range(width - 1)]
        lines.append(",".join(cells[:width]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + ("\n" if lines else "")
    data = text.encode()
    if draw(st.sampled_from([False] * 7 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(_csv_files(), st.sampled_from([None, ("tension_cm", "theta"), ("theta", "zz"), ()]),
       st.sampled_from([(), RETENTION]))
def test_read_table_matches_the_reference_on_generated_files(tmp_path_factory, data, names,
                                                              required):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(data)
    assert_reads_as_reference(path, names, required)


_SPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_WHITE = st.text(st.sampled_from(_SPACE), max_size=3)


def _cell_outcome(parse, token):
    try:
        return np.float64(parse(token, "c", 2)).tobytes()
    except DataError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.tuples(_WHITE, st.one_of(_TOKEN, st.text(max_size=5)), _WHITE).map("".join))
def test_parse_cell_matches_the_reference(token):
    assert _cell_outcome(_parse_cell, token) == _cell_outcome(ref_parse_cell, token)


_FLOAT_MAX = int(np.finfo(np.float64).max)


def ref_finite_number(v) -> bool:
    # the rule spelled out per type: never a bool, integers compared exactly
    # with the largest float, floats by math.isfinite, nothing else
    if isinstance(v, (bool, np.bool_)):
        return False
    if isinstance(v, (int, np.integer)):
        return abs(int(v)) <= _FLOAT_MAX
    if isinstance(v, (float, np.floating)):
        return math.isfinite(v)
    return False


_INT64 = np.iinfo(np.int64)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.floats(),  # NaN, both infinities and subnormals included
    st.integers(-10**400, 10**400),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(_INT64.min, _INT64.max).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=5),
    st.none(),
    st.lists(st.floats(), max_size=2),
))
@example(_FLOAT_MAX)
@example(_FLOAT_MAX + 1)
@example(-_FLOAT_MAX - 1)
@example(10**400)
@example(-10**400)
@example(5e-324)
@example(np.int64(_INT64.min))
@example("1.0")
def test_finite_number_matches_the_reference(value):
    # truth, not identity: a numpy number's comparison gives numpy's bool
    assert bool(finite_number(value)) is ref_finite_number(value)


def test_float_range_bound_is_spelled_once():
    # every finite-number check goes through data.finite_number, the one
    # place that names the largest float
    src = Path(soilptf.__file__).resolve().parent
    found = [(path.name, text[:m.start()].count("\n") + 1)
             for path in sorted(src.glob("*.py")) for text in [path.read_text()]
             for m in re.finditer(r"float_info\.max", text)]
    rule = next(node for node in ast.parse((src / "data.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "finite_number")
    inside = range(rule.lineno, rule.end_lineno + 1)
    assert found and all(name == "data.py" and line in inside for name, line in found), found


# ----------------------------------------------------------------------
# the write side of the forms
# ----------------------------------------------------------------------


def test_maybe_writes_its_default_as_null():
    kind = maybe(FINITE, -math.inf)
    assert kind.write(-math.inf) is None
    assert kind.write(2.5) == 2.5 and kind.load(None) == -math.inf


def test_list_of_plain_values_writes_the_list_itself():
    names = ["a", "b"]
    assert list_of(STR).write(names) is names


def test_schema_writes_through_its_attribute_map():
    form = Schema({"x": FINITE, "label": maybe(STR)})
    assert form.write(types.SimpleNamespace(x=1.5, label=None, other=3)) == {"x": 1.5, "label": None}
    moved = Schema({"x": FINITE, "y": STR}, fields=lambda v: {**vars(v), "y": "added"})
    assert moved.write(types.SimpleNamespace(x=1.5)) == {"x": 1.5, "y": "added"}


@pytest.fixture(scope="module")
def seed7_files(tmp_path_factory):
    """The model files of train SWRC2 cpxr and the reports of evaluate
    SWRC2 cpxr,mlr --reps 1 --k 3, all --seed 7, on the seed-7 two-regime
    table (n = 300)."""
    out = tmp_path_factory.mktemp("seed7")
    table = ["--features", str(out / "dataset.csv"), "--config", "SWRC2", "--seed", "7"]
    assert main(["synth", "--out-dir", str(out), "--kind", "two-regime", "--n", "300",
                 "--seed", "7"]) == 0
    assert main(["train", *table, "--method", "cpxr", "--out-dir", str(out / "models")]) == 0
    assert main(["evaluate", *table, "--reps", "1", "--k", "3", "--jobs", "1",
                 "--dump-predictions", "--out-dir", str(out / "eval")]) == 0
    models = sorted(p for p in (out / "models").glob("*.json") if "training" not in p.name)
    return ([json.loads(p.read_text())["model"] for p in models],
            [json.loads(p.read_text())["report"] for p in sorted((out / "eval").glob("report_*"))])


def test_each_form_writes_what_it_reads(seed7_files):
    models, reports = seed7_files
    assert len(models) == 10 and len(reports) == 2
    docs = [(REPORT, r) for r in reports] + [(RECORD, r["records"][0]) for r in reports]
    docs += [(METRIC_SET, m) for r in reports for m in r["records"][0]["test"].values()]
    for m in models:
        docs += [(PXR_MODEL, m), (LINEAR_MODEL, m["baseline"]), (SCHEME, m["scheme"])]
        docs += [(PATTERN, p["pattern"]) for p in m["pairs"]]
        docs += [(ITEM, it) for p in m["pairs"] for it in p["pattern"]]
    items = [doc for form, doc in docs if form is ITEM]
    assert any(it["lo"] is None for it in items) and any(it["hi"] is None for it in items)
    for form, doc in docs:
        assert form.write(form.load(doc)) == doc


def test_select_columns_zero_usable(tmp_path):
    ds = load_dataset(write(tmp_path, synth_rows(3, np.random.default_rng(3), drop_length_for={0, 1, 2})))
    with pytest.raises(DataError, match="no usable rows"):
        select_columns(ds, MODEL_CONFIGS["SWRC2"])


def test_select_columns_unknown_column(tmp_path):
    ds = load_dataset(write(tmp_path, FOUR_ROWS))
    with pytest.raises(DataError, match="not present"):
        select_columns(ds, MODEL_CONFIGS["SWRC1"])  # dataset lacks d_g etc.


def test_assign_folds_equal_n_k():
    fold = assign_folds(10, k=10, seed=0)
    assert np.bincount(fold, minlength=10).tolist() == [1] * 10


def test_assign_folds_213_sizes():
    fold = assign_folds(213, k=10, seed=4)
    assert sorted(np.bincount(fold, minlength=10).tolist()) == [21] * 7 + [22] * 3


def test_assign_folds_deterministic():
    fold = assign_folds(50, k=10, seed=7)
    assert fold.tolist() == assign_folds(50, k=10, seed=7).tolist()
    # the i-th row of the seed's permutation goes to fold i mod k
    perm = np.random.default_rng(7).permutation(50)
    assert fold[perm].tolist() == [i % 10 for i in range(50)]


def test_assign_folds_partition_property():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(10, 120))
        k = int(rng.integers(2, 11))
        if n < k:
            continue
        fold = assign_folds(n, k=k, seed=int(rng.integers(0, 1000)))
        assert fold.shape == (n,) and fold.min() >= 0 and fold.max() < k
        sizes = np.bincount(fold, minlength=k)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1


def test_assign_folds_errors():
    with pytest.raises(DataError):
        assign_folds(10, k=1, seed=0)
    with pytest.raises(DataError):
        assign_folds(3, k=5, seed=0)
