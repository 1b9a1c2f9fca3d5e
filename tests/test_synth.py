"""Synthetic dataset generator: regimes, scale rule, jitter, retention points."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilptf.data import KNOWN_FEATURES, Dataset, validate_dataset
from soilptf.hydrology import (
    CLAY_DIAMETER_MM,
    KPA_TO_CM,
    SAND_DIAMETER_MM,
    SILT_DIAMETER_MM,
    TENSION_LADDER_KPA,
    HydrologyError,
    VgParameters,
    derived_water_contents,
    inflection_point,
    texture_statistics,
    vg_theta,
)
from soilptf.synth import (
    BULK_DENSITY_RANGE,
    COARSE,
    FINE,
    INTERNAL_DIAMETERS_CM,
    LENGTHS_CM,
    SAND_SPLIT,
    TARGET_COLUMNS,
    LinearSpec,
    SynthConfig,
    SynthError,
    default_synth_config,
    derive_columns,
    generate,
    generate_retention,
    scale_effect_config,
    two_regime_config,
)


def _reference_texture(sand, silt, clay):
    """texture_statistics of one sample as a 1-D dot, without its checks."""
    fractions = np.array([sand, silt, clay], dtype=float) / 100.0
    log_d = np.log(np.array([SAND_DIAMETER_MM, SILT_DIAMETER_MM, CLAY_DIAMETER_MM]))
    a = float(fractions @ log_d)
    spread = float(fractions @ log_d**2) - a * a
    return math.exp(a), math.exp(math.sqrt(max(spread, 0.0)))


def _reference_water_contents(params):
    """derived_water_contents of one sample: one vg_theta call over the
    ladder and the inflection by Python's **."""
    theta = vg_theta(params, (0.0,) + tuple(kpa * KPA_TO_CM for kpa in TENSION_LADDER_KPA))
    m = params.m
    theta_i = params.theta_r + (params.theta_s - params.theta_r) * (1.0 + m) ** (-m)
    out = {"theta_s": float(theta[0]), "theta_i": theta_i}
    out.update((f"theta_{kpa}", float(t)) for kpa, t in zip(TENSION_LADDER_KPA, theta[1:]))
    return out


def derive_row(basic, params, log_ksat):
    """One sample's features and targets, as synth and derive-features built
    them before derive_columns; basic maps the six basic columns to floats."""
    d_g, sigma_g = _reference_texture(basic["sand"], basic["silt"], basic["clay"])
    # the theta_s feature is the parameter, not the curve's value at h = 0
    return {
        **_reference_water_contents(params),
        **basic,
        "d_g": d_g,
        "sigma_g": sigma_g,
        "theta_r": params.theta_r,
        "theta_s": params.theta_s,
        "alpha": params.alpha,
        "n": params.n,
        "log_alpha": math.log(params.alpha),
        "log_n": math.log(params.n),
        "log_ksat": log_ksat,
    }


def feature_table(ids, rows):
    """The KNOWN_FEATURES + TARGET_COLUMNS table of rows from derive_row."""
    columns = {name: [row[name] for row in rows] for name in KNOWN_FEATURES + TARGET_COLUMNS}
    return Dataset(list(ids), columns, list(KNOWN_FEATURES), list(TARGET_COLUMNS))


def regime_of(sand):
    """FINE below SAND_SPLIT percent sand, COARSE at and above it."""
    return FINE if sand < SAND_SPLIT else COARSE


def rows(ds):
    """(id, features, targets) per sample, with Python float values."""
    for i, sid in enumerate(ds.ids):
        yield (
            sid,
            {c: ds.columns[c][i].item() for c in ds.feature_names},
            {c: ds.columns[c][i].item() for c in ds.target_names},
        )


def test_linear_spec_evaluate():
    spec = LinearSpec(1.5, (("a", 2.0), ("b", -0.5)))
    assert spec.evaluate({"a": 3.0, "b": 4.0}) == pytest.approx(1.5 + 6.0 - 2.0)
    assert LinearSpec(7.0).evaluate({}) == 7.0


def test_config_defaults_and_factories():
    c = default_synth_config()
    assert (c.n_samples, c.seed, c.noise_sd) == (300, 0, 0.01)
    assert SAND_SPLIT == 60.0
    assert [r.name for r in (FINE, COARSE)] == ["fine", "coarse"]
    assert (c.scale_alpha_per_cm, c.scale_theta_s_per_cm) == (-0.004, -0.0005)
    assert scale_effect_config(n_samples=50, seed=3) == default_synth_config(n_samples=50, seed=3)
    nr = two_regime_config()
    assert (nr.scale_alpha_per_cm, nr.scale_theta_s_per_cm) == (0.0, 0.0)


def test_config_validation():
    with pytest.raises(SynthError, match="n_samples"):
        SynthConfig(n_samples=0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(SynthError, match="noise_sd"):
            SynthConfig(noise_sd=bad)


def test_regime_boundary_belongs_right():
    # seed 18 draws sand of exactly 60.0 % once and 59.99 % twice
    ds, truth = generate(two_regime_config(n_samples=2000, seed=18))
    sand = ds.columns["sand"]
    at, below = np.flatnonzero(sand == 60.0).tolist(), np.flatnonzero(sand == 59.99).tolist()
    assert (at, below) == ([1385], [265, 679])
    assert [truth["regimes"][ds.ids[i]] for i in at + below] == ["coarse", "fine", "fine"]


def test_generate_shapes_and_ids():
    ds, truth = generate(default_synth_config(n_samples=40, seed=1))
    assert len(ds) == 40
    assert ds.ids[0] == "s0000" and ds.ids[-1] == "s0039"
    assert ds.feature_names == list(KNOWN_FEATURES)
    # point and parametric targets minus what doubles as a feature
    assert len(ds.target_names) == 12
    assert "theta_s" not in ds.target_names and "theta_i" in ds.target_names
    assert set(truth) == {"config", "regimes", "effective_params"}
    assert set(truth["regimes"]) == set(ds.ids)


def test_generate_deterministic():
    a, ta = generate(default_synth_config(n_samples=25, seed=9))
    b, tb = generate(default_synth_config(n_samples=25, seed=9))
    assert a.ids == b.ids
    for name, col in a.columns.items():
        assert col.tobytes() == b.columns[name].tobytes(), name
    assert ta["effective_params"] == tb["effective_params"]
    c, _ = generate(default_synth_config(n_samples=25, seed=10))
    assert any(not np.array_equal(col, c.columns[name]) for name, col in a.columns.items())


def test_generate_samples_are_valid():
    ds, _ = generate(default_synth_config(n_samples=60, seed=2))
    assert validate_dataset(ds) == []
    assert not any(np.isnan(col).any() for col in ds.columns.values())
    for _, features, _ in rows(ds):
        assert abs(features["sand"] + features["silt"] + features["clay"] - 100.0) < 0.02
        assert 1.1 <= features["bulk_density"] <= 1.7
        assert features["internal_diameter_cm"] in INTERNAL_DIAMETERS_CM
        assert features["length_cm"] in LENGTHS_CM


def test_regime_assignment_follows_sand():
    ds, truth = generate(default_synth_config(n_samples=80, seed=3))
    for sid, features, _ in rows(ds):
        want = "fine" if features["sand"] < 60.0 else "coarse"
        assert truth["regimes"][sid] == want
    assert set(truth["regimes"].values()) == {"fine", "coarse"}


def test_targets_consistent_with_effective_params():
    ds, truth = generate(default_synth_config(n_samples=30, seed=4))
    for sid, features, targets in rows(ds):
        p = truth["effective_params"][sid]
        params = VgParameters(theta_r=p["theta_r"], theta_s=p["theta_s"],
                              alpha=p["alpha"], n=p["n"])
        assert targets["theta_10"] == pytest.approx(
            vg_theta(params, 10 * KPA_TO_CM), rel=1e-12)
        assert targets["theta_1500"] == pytest.approx(
            vg_theta(params, 1500 * KPA_TO_CM), rel=1e-12)
        assert targets["log_alpha"] == pytest.approx(math.log(p["alpha"]), rel=1e-12)
        assert targets["log_n"] == pytest.approx(math.log(p["n"]), rel=1e-12)
        assert targets["log_ksat"] == p["log_ksat"]
        assert features["theta_s"] == p["theta_s"]
        # water contents decrease along the tension ladder
        ladder = [targets[f"theta_{k}"] for k in (10, 30, 50, 100, 300, 500, 1000, 1500)]
        assert all(b < a for a, b in zip(ladder, ladder[1:]))


def test_noise_free_two_regime_is_exact():
    cfg = two_regime_config(n_samples=50, noise_sd=0.0, seed=5)
    ds, truth = generate(cfg)
    for sid, features, _ in rows(ds):
        regime = regime_of(features["sand"])
        feats = {k: features[k] for k in
                 ("sand", "silt", "clay", "bulk_density", "d_g", "sigma_g",
                  "internal_diameter_cm", "length_cm")}
        p = truth["effective_params"][sid]
        assert p["theta_r"] == pytest.approx(regime.formula("theta_r").evaluate(feats), rel=1e-14)
        assert p["theta_s"] == pytest.approx(regime.formula("theta_s").evaluate(feats), rel=1e-14)
        assert math.log(p["alpha"]) == pytest.approx(
            regime.formula("log_alpha").evaluate(feats), rel=1e-12)
        assert p["log_ksat"] == pytest.approx(
            regime.formula("log_ksat").evaluate(feats), rel=1e-12)


def test_scale_rule_shifts_parameters():
    cfg = scale_effect_config(n_samples=50, noise_sd=0.0, seed=6)
    ds, truth = generate(cfg)
    for sid, feats, _ in rows(ds):
        regime = regime_of(feats["sand"])
        p = truth["effective_params"][sid]
        length = feats["length_cm"]
        want_log_alpha = regime.formula("log_alpha").evaluate(feats) - 0.004 * length
        want_theta_s = regime.formula("theta_s").evaluate(feats) - 0.0005 * length
        assert math.log(p["alpha"]) == pytest.approx(want_log_alpha, rel=1e-12)
        assert p["theta_s"] == pytest.approx(want_theta_s, rel=1e-12)


def test_jitter_scales_with_noise_sd():
    noise_sd = 0.01
    cfg = two_regime_config(n_samples=300, noise_sd=noise_sd, seed=7)
    ds, truth = generate(cfg)
    dev_alpha, dev_ksat = [], []
    for sid, feats, _ in rows(ds):
        regime = regime_of(feats["sand"])
        p = truth["effective_params"][sid]
        dev_alpha.append(math.log(p["alpha"]) - regime.formula("log_alpha").evaluate(feats))
        dev_ksat.append(p["log_ksat"] - regime.formula("log_ksat").evaluate(feats))
    assert np.std(dev_alpha) == pytest.approx(5.0 * noise_sd, rel=0.35)
    assert np.std(dev_ksat) == pytest.approx(noise_sd, rel=0.35)
    assert abs(np.mean(dev_alpha)) < 0.02


def _reference_generate(config):
    """generate sample by sample, as it was before its columnar form: one
    regime lookup, five formula evaluations and four jitter draws per
    sample."""
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    texture = np.round(rng.dirichlet((1.0, 1.0, 1.0), size=n) * 100.0, 2)
    bulk = np.round(rng.uniform(*BULK_DENSITY_RANGE, size=n), 3)
    inner = rng.choice(np.asarray(INTERNAL_DIAMETERS_CM), size=n)
    length = rng.choice(np.asarray(LENGTHS_CM), size=n)
    ids, rows, regimes, effective = [], [], {}, {}
    for i in range(n):
        sand, silt, clay = texture[i]
        basic = {"sand": float(sand), "silt": float(silt), "clay": float(clay),
                 "bulk_density": float(bulk[i]), "internal_diameter_cm": float(inner[i]),
                 "length_cm": float(length[i])}
        regime = regime_of(basic["sand"])
        theta_r, theta_s, log_alpha, log_n1, log_ksat = (
            regime.formula(q).evaluate(basic)
            for q in ("theta_r", "theta_s", "log_alpha", "log_n1", "log_ksat"))
        log_alpha += config.scale_alpha_per_cm * basic["length_cm"]
        theta_s += config.scale_theta_s_per_cm * basic["length_cm"]
        if config.noise_sd > 0:
            log_alpha += rng.normal(0.0, 5.0 * config.noise_sd)
            log_n1 += rng.normal(0.0, 2.0 * config.noise_sd)
            theta_s += rng.normal(0.0, 0.5 * config.noise_sd)
            log_ksat += rng.normal(0.0, config.noise_sd)
        theta_r = float(np.clip(theta_r, 0.0, 0.3))
        theta_s = float(np.clip(theta_s, theta_r + 0.02, 0.99))
        params = VgParameters(theta_r=theta_r, theta_s=theta_s, alpha=math.exp(log_alpha),
                              n=1.0 + math.exp(log_n1))
        sid = f"s{i:04d}"
        ids.append(sid)
        rows.append(derive_row(basic, params, float(log_ksat)))
        regimes[sid] = regime.name
        effective[sid] = {"theta_r": params.theta_r, "theta_s": params.theta_s,
                          "alpha": params.alpha, "n": params.n, "log_ksat": float(log_ksat)}
    truth = {"config": config.to_dict(), "regimes": regimes, "effective_params": effective}
    return feature_table(ids, rows), truth


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([default_synth_config, two_regime_config, scale_effect_config]),
       st.integers(1, 60), st.integers(0, 2**32), st.sampled_from([0.0, 0.01, 0.05, 1.0]))
def test_generate_matches_the_per_sample_route(factory, n, seed, noise_sd):
    # the dataset columns bit for bit, and truth as truth.json writes it
    config = factory(n_samples=n, noise_sd=noise_sd, seed=seed)
    outcomes = []
    for route in (generate, _reference_generate):
        try:
            ds, truth = route(config)
        except HydrologyError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            continue
        columns = {c: col.tobytes() for c, col in ds.columns.items()}
        outcomes.append((ds.ids, columns, json.dumps(truth, sort_keys=True)))
    assert outcomes[0] == outcomes[1]


_ABOVE_ONE = math.nextafter(1.0, 2.0)


@st.composite
def _derive_sample(draw):
    """(basic, params, log_ksat) of one sample, with texture sums at the
    +/- 0.5 edge, theta_r = 0, theta_s = 1, n just above 1 and unmeasured
    conductivity among the draws."""
    sand = draw(st.sampled_from([0.0, 100.0, 59.95, 28.38]) | st.floats(0.0, 100.0))
    silt = draw(st.sampled_from([0.0, 26.04, 31.41]) | st.floats(0.0, 100.0 - sand))
    off = draw(st.sampled_from([0.0, 0.5, -0.5, 0.4999, -0.4999]) | st.floats(-0.5, 0.5))
    clay = max(100.0 - sand - silt + off, 0.0)
    basic = {"sand": sand, "silt": silt, "clay": clay,
             "bulk_density": draw(st.floats(0.8, 2.0)),
             "internal_diameter_cm": draw(st.sampled_from(INTERNAL_DIAMETERS_CM)),
             "length_cm": draw(st.sampled_from(LENGTHS_CM + (math.nan,)))}
    theta_r = draw(st.sampled_from([0.0]) | st.floats(0.0, 0.5))
    theta_s = draw(st.sampled_from([1.0]) | st.floats(theta_r, 1.0, exclude_min=True))
    params = VgParameters(theta_r=theta_r, theta_s=theta_s,
                          alpha=draw(st.floats(1e-6, 50.0)),
                          n=draw(st.sampled_from([_ABOVE_ONE])
                                 | st.floats(1.0, 20.0, exclude_min=True)))
    return basic, params, draw(st.sampled_from([math.nan]) | st.floats(-20.0, 20.0))


_CLAY = {"sand": 0.0, "silt": 0.0, "clay": 100.0, "bulk_density": 1.0,
         "internal_diameter_cm": 5.0, "length_cm": 1.0}


@settings(max_examples=150, deadline=None)
@given(st.lists(_derive_sample(), min_size=1, max_size=25))
# n = 2 beside another row: numpy squared a one-row base, but not a batch's
@example([(_CLAY, VgParameters(0.0, 1.0, 1.0, _ABOVE_ONE), math.nan),
          (_CLAY, VgParameters(0.0, 1.0, 21.0, 2.0), math.nan)])
def test_derive_columns_matches_the_per_sample_route(samples):
    # every column bit for bit, and the one-row calls give each row's values
    ids = [f"x{i}" for i in range(len(samples))]
    expected = feature_table(ids, [derive_row(*sample) for sample in samples])
    basic = {c: np.array([b[c] for b, _, _ in samples]) for c in samples[0][0]}
    vg = {c: np.array([getattr(p, c) for _, p, _ in samples])
          for c in ("theta_r", "theta_s", "alpha", "n")}
    got = derive_columns(ids, basic, vg, np.array([k for _, _, k in samples]))
    assert got.ids == expected.ids
    assert (got.feature_names, got.target_names) == (expected.feature_names, expected.target_names)
    assert {c: col.tobytes() for c, col in got.columns.items()} == {
        c: col.tobytes() for c, col in expected.columns.items()}
    for b, p, _ in samples:
        assert _reference_water_contents(p) == derived_water_contents(p)
        assert inflection_point(p)[1] == _reference_water_contents(p)["theta_i"]
        if abs(b["sand"] + b["silt"] + b["clay"] - 100.0) <= 0.5:
            assert texture_statistics(b["sand"], b["silt"], b["clay"]) == _reference_texture(
                b["sand"], b["silt"], b["clay"])


def _retention_rows(columns):
    """The rows of generate_retention's id, tension_cm and theta columns;
    tension_cm holds each tension's repr, which float reads back exactly."""
    return list(zip(columns["id"], map(float, columns["tension_cm"]), columns["theta"].tolist()))


def test_generate_retention_rows():
    cfg = two_regime_config(n_samples=8, noise_sd=0.0, seed=8)
    _, truth = generate(cfg)
    rows = _retention_rows(generate_retention(truth, noise_sd=0.0))
    assert len(rows) == 8 * 13  # saturation plus 12 ladder tensions
    by_id = {}
    for sid, h, theta in rows:
        assert 0.0 <= theta <= 1.0
        by_id.setdefault(sid, []).append((h, theta))
    assert set(by_id) == set(truth["effective_params"])
    for sid, pts in by_id.items():
        p = truth["effective_params"][sid]
        params = VgParameters(theta_r=p["theta_r"], theta_s=p["theta_s"],
                              alpha=p["alpha"], n=p["n"])
        assert pts[0][0] == 0.0
        for h, theta in pts:
            assert theta == pytest.approx(vg_theta(params, h), rel=1e-12)


def test_generate_retention_noise_and_custom_ladder():
    cfg = two_regime_config(n_samples=5, noise_sd=0.0, seed=8)
    _, truth = generate(cfg)
    rows = _retention_rows(generate_retention(truth, noise_sd=0.004, seed=1))
    assert len(rows) == 5 * 13
    again = _retention_rows(generate_retention(truth, noise_sd=0.004, seed=1))
    assert rows == again
    devs = []
    for sid, h, theta in rows:
        p = truth["effective_params"][sid]
        params = VgParameters(theta_r=p["theta_r"], theta_s=p["theta_s"],
                              alpha=p["alpha"], n=p["n"])
        devs.append(theta - vg_theta(params, h))
    assert 0.001 < np.std(devs) < 0.01


def _retention_point_by_point(truth, noise_sd, seed):
    """The reference of generate_retention: one vg_theta call and one
    normal draw per point."""
    rng = np.random.default_rng(seed)
    rows = []
    for sid, p in truth["effective_params"].items():
        params = VgParameters(theta_r=p["theta_r"], theta_s=p["theta_s"],
                              alpha=p["alpha"], n=p["n"])
        for h in [0.0] + list(np.geomspace(10.0, 15000.0, 12)):
            theta = vg_theta(params, float(h))
            if noise_sd > 0:
                theta += rng.normal(0.0, noise_sd)
            rows.append((sid, float(h), float(np.clip(theta, 0.0, 1.0))))
    return rows


@pytest.mark.parametrize("noise_sd, seed", [(0.0, 0), (0.002, 1), (0.004, 11), (0.05, 13)])
def test_generate_retention_matches_point_by_point(noise_sd, seed):
    # noise_sd 0.05 clips some dry points to 0
    _, truth = generate(two_regime_config(n_samples=30, noise_sd=0.1, seed=seed))
    rows = _retention_rows(generate_retention(truth, noise_sd=noise_sd, seed=seed))
    assert rows == _retention_point_by_point(truth, noise_sd, seed)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_generate_retention_rejects_bad_noise(bad):
    _, truth = generate(two_regime_config(n_samples=2, seed=8))
    with pytest.raises(SynthError, match="retention noise_sd"):
        generate_retention(truth, noise_sd=bad)


def test_config_to_dict_serializable():
    doc = default_synth_config().to_dict()
    assert doc["n_samples"] == 300
    assert doc["thresholds"] == (60.0,)
    assert json.dumps(doc)  # nested regime specs stay JSON-friendly


def test_config_record_is_pinned():
    # truth.json and the config_hash of every synth artifact are built from
    # this record, fixed regimes and draw menus included
    for factory, digest in (
        (default_synth_config, "6617efbc624532c5"),
        (two_regime_config, "192bce240c0d3368"),
    ):
        doc = factory(n_samples=300, noise_sd=0.01, seed=7).to_dict()
        assert len(doc) == 11
        blob = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest, factory.__name__
