"""Tables, schema inference, column selection and fold assignment."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilptf.cli import _dataset_to_rows, _meta, _write_csv
from soilptf.data import (
    KNOWN_FEATURES,
    ColumnSchema,
    DataError,
    Dataset,
    assign_folds,
    infer_schema,
    load_dataset,
    select_columns,
    validate_dataset,
)
from soilptf.hydrology import MODEL_CONFIGS, POINT_TARGETS, ModelConfig


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


def test_load_schema_mismatch(tmp_path):
    schema = ColumnSchema(features=("sand", "silt"), targets=("theta_10",))
    with pytest.raises(DataError, match="does not match schema"):
        load_dataset(write(tmp_path, FOUR_ROWS), schema=schema)


def test_load_duplicate_header(tmp_path):
    with pytest.raises(DataError, match="duplicate column"):
        load_dataset(write(tmp_path, "id,sand,sand\n1,2,3\n"))


def test_load_ragged_row(tmp_path):
    with pytest.raises(DataError, match="row 3"):
        load_dataset(write(tmp_path, "id,sand\n1,5\n2,5,9\n"))


def test_infer_schema_split():
    schema = infer_schema(["id", "sand", "clay", "theta_10", "log_ksat"])
    assert schema.features == ("sand", "clay")
    assert schema.targets == ("theta_10", "log_ksat")
    with pytest.raises(DataError, match="no 'id' column"):
        infer_schema(["sand", "clay"])


def test_schema_duplicate_names():
    with pytest.raises(DataError):
        ColumnSchema(features=("sand",), targets=("sand",))


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
    with pytest.raises(DataError) as exc:
        load_dataset(write(tmp_path, "# comment lines do not count\n" + text))
    assert str(exc.value).splitlines()[1:] == [
        "  row 3: sand+silt+clay = 90, expected 100 +/- 0.5",
        "  row 3: length_cm = -1 must be positive",
        "  row 4: theta_10 = 1.5 outside [0, 1]",
    ]


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
    feature rows and target values, and the excluded ids."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(ln for ln in fh if not ln.startswith("#"))
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
_ids = st.lists(st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True), min_size=0, max_size=12,
                unique=True)
_ROUND_TRIP_COLUMNS = (("sand", "bulk_density", "length_cm"), ("theta_10", "log_ksat"))


@settings(max_examples=150, deadline=None)
@given(_ids.flatmap(lambda ids: st.tuples(
    st.just(ids),
    st.lists(st.lists(_cell_value, min_size=len(ids), max_size=len(ids)), min_size=5, max_size=5),
)))
def test_written_table_reads_back_bit_exact(tmp_path_factory, table):
    ids, values = table
    features, targets = _ROUND_TRIP_COLUMNS
    ds = Dataset(ids, dict(zip(features + targets, values)), list(features), list(targets))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    header, rows = _dataset_to_rows(ds)
    _write_csv(path, header, rows, _meta(0, {}))
    back = load_dataset(path, strict=False)
    assert back.ids == ds.ids
    assert back.feature_names == list(features) and back.target_names == list(targets)
    for name in features + targets:
        assert back.columns[name].tobytes() == ds.columns[name].tobytes(), name


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
