"""Synthetic dataset generator: regimes, scale rule, jitter, retention points."""

import math

import numpy as np
import pytest

from soilptf.data import KNOWN_FEATURES, validate_dataset
from soilptf.hydrology import KPA_TO_CM, VgParameters, vg_theta
from soilptf.synth import (
    LinearSpec,
    RegimeSpec,
    SynthConfig,
    SynthError,
    default_synth_config,
    generate,
    generate_retention,
    scale_effect_config,
    two_regime_config,
)


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


def test_regime_spec_requires_all_quantities():
    with pytest.raises(SynthError, match="must define"):
        RegimeSpec(name="half", formulas=(("theta_r", LinearSpec(0.1)),))


def test_config_defaults_and_factories():
    c = default_synth_config()
    assert (c.n_samples, c.seed, c.noise_sd) == (300, 0, 0.01)
    assert c.thresholds == (60.0,)
    assert [r.name for r in c.regimes] == ["fine", "coarse"]
    assert (c.scale_alpha_per_cm, c.scale_theta_s_per_cm) == (-0.004, -0.0005)
    assert scale_effect_config(n_samples=50, seed=3) == default_synth_config(n_samples=50, seed=3)
    nr = two_regime_config()
    assert (nr.scale_alpha_per_cm, nr.scale_theta_s_per_cm) == (0.0, 0.0)


def test_config_validation():
    with pytest.raises(SynthError, match="n_samples"):
        SynthConfig(n_samples=0)
    with pytest.raises(SynthError, match="noise_sd"):
        SynthConfig(noise_sd=-0.1)
    with pytest.raises(SynthError, match="thresholds need"):
        SynthConfig(thresholds=(40.0, 60.0))  # default pair of regimes
    with pytest.raises(SynthError, match="increase"):
        SynthConfig(
            thresholds=(60.0, 60.0),
            regimes=(SynthConfig().regimes[0],) * 3,
        )


def test_regime_boundary_belongs_right():
    c = default_synth_config()
    assert c.regime_of(59.99).name == "fine"
    assert c.regime_of(60.0).name == "coarse"
    assert c.regime_of(95.0).name == "coarse"


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
    cfg = default_synth_config()
    assert validate_dataset(ds) == []
    assert not any(np.isnan(col).any() for col in ds.columns.values())
    for _, features, _ in rows(ds):
        assert abs(features["sand"] + features["silt"] + features["clay"] - 100.0) < 0.02
        assert 1.1 <= features["bulk_density"] <= 1.7
        assert features["internal_diameter_cm"] in cfg.id_choices
        assert features["length_cm"] in cfg.length_choices


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
        regime = cfg.regime_of(features[cfg.regime_feature])
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
        regime = cfg.regime_of(feats[cfg.regime_feature])
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
        regime = cfg.regime_of(feats[cfg.regime_feature])
        p = truth["effective_params"][sid]
        dev_alpha.append(math.log(p["alpha"]) - regime.formula("log_alpha").evaluate(feats))
        dev_ksat.append(p["log_ksat"] - regime.formula("log_ksat").evaluate(feats))
    assert np.std(dev_alpha) == pytest.approx(5.0 * noise_sd, rel=0.35)
    assert np.std(dev_ksat) == pytest.approx(noise_sd, rel=0.35)
    assert abs(np.mean(dev_alpha)) < 0.02


def test_generate_retention_rows():
    cfg = two_regime_config(n_samples=8, noise_sd=0.0, seed=8)
    _, truth = generate(cfg)
    rows = generate_retention(truth, noise_sd=0.0)
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
    rows = generate_retention(truth, tensions_cm=[0.0, 10.0, 100.0, 1000.0],
                              noise_sd=0.004, seed=1)
    assert len(rows) == 5 * 4
    again = generate_retention(truth, tensions_cm=[0.0, 10.0, 100.0, 1000.0],
                               noise_sd=0.004, seed=1)
    assert rows == again
    devs = []
    for sid, h, theta in rows:
        p = truth["effective_params"][sid]
        params = VgParameters(theta_r=p["theta_r"], theta_s=p["theta_s"],
                              alpha=p["alpha"], n=p["n"])
        devs.append(theta - vg_theta(params, h))
    assert 0.001 < np.std(devs) < 0.01


def test_config_to_dict_serializable():
    import json

    doc = default_synth_config().to_dict()
    assert doc["n_samples"] == 300
    assert doc["thresholds"] == (60.0,)
    assert json.dumps(doc)  # nested regime specs stay JSON-friendly
