"""Tables, schema inference, column selection and fold assignment."""

import numpy as np
import pytest

from soilptf.data import (
    KNOWN_FEATURES,
    ColumnSchema,
    DataError,
    Dataset,
    Sample,
    assign_folds,
    infer_schema,
    load_dataset,
    select_columns,
    validate_sample,
)
from soilptf.hydrology import MODEL_CONFIGS, POINT_TARGETS


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
    assert ds.by_id("2").features["sand"] == 84.6
    assert ds.by_id("4").targets["theta_10"] == 0.17


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
    assert ds.by_id("1").targets["theta_10"] is None
    assert ds.by_id("2").targets["theta_10"] is None


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


def test_validate_sample_rules():
    s = Sample(id="x", features={"sand": 50.0, "silt": 30.0, "clay": 20.0}, targets={})
    assert validate_sample(s) == []
    s = Sample(id="x", features={"sand": 50.0, "silt": 30.0, "clay": 18.0}, targets={})
    assert any("sand+silt+clay" in p for p in validate_sample(s))
    s = Sample(id="x", features={"length_cm": -1.0}, targets={"theta_10": 1.4})
    problems = validate_sample(s)
    assert any("length_cm" in p for p in problems)
    assert any("theta_10" in p for p in problems)


def test_sample_value_checks_features_first():
    s = Sample(id="x", features={"theta_s": 0.4}, targets={"theta_s": 0.9})
    assert s.value("theta_s") == 0.4
    with pytest.raises(KeyError):
        s.value("nope")


def test_dataset_invariants():
    a = Sample(id="a", features={"sand": 1.0}, targets={})
    with pytest.raises(DataError, match="duplicate"):
        Dataset([a, Sample(id="a", features={"sand": 2.0}, targets={})], ["sand"], [])
    with pytest.raises(DataError, match="lacks declared feature"):
        Dataset([a], ["sand", "clay"], [])
    ds = Dataset([a, Sample(id="b", features={"sand": 2.0}, targets={})], ["sand"], [])
    sub = ds.subset(["b"])
    assert sub.ids() == ["b"]
    with pytest.raises(KeyError):
        ds.by_id("zz")


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


def test_select_columns_rejoin_bit_exact(tmp_path):
    ds = load_dataset(write(tmp_path, synth_rows(12, np.random.default_rng(2))))
    sel = select_columns(ds, MODEL_CONFIGS["SHC2"])
    for row, sid in zip(sel.X, sel.ids):
        s = ds.by_id(sid)
        for j, name in enumerate(sel.feature_names):
            assert row[j] == s.value(name)
    for sid, y in zip(sel.ids, sel.targets["log_ksat"]):
        assert y == ds.by_id(sid).value("log_ksat")


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
