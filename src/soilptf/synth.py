"""Synthetic soil datasets with known regime structure and scale effects.

Feature space mirrors the measured tables: texture drawn uniformly on the
simplex, bulk density uniform, core internal diameter and length from
small discrete menus. Sand below 60 % makes a sample fine, sand at or
above it coarse; every generated quantity (retention parameters,
conductivity) is a regime-specific linear function of the features.
Sample length perturbs the effective retention parameters through the
documented scale rule, and noise enters the retention targets through
small parameter jitter so the derived water contents keep their curve
invariants.

generate evaluates each regime's formulas, the scale rule, the jitter and
the clipping over whole columns, and derive_columns builds the
feature/target table from columns, here and in derive-features alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import math

import numpy as np

from .data import KNOWN_FEATURES, VG_FEATURES, Dataset, SoilptfError, finite_number, retention_columns
from .hydrology import (
    LOG_TARGETS,
    POINT_TARGETS,
    each,
    parameter_faults,
    texture_columns,
    vg_curve,
    water_content_columns,
)


class SynthError(SoilptfError):
    pass


# Column order of the targets in feature tables written by synth and
# derive-features.
TARGET_COLUMNS = tuple(t for t in POINT_TARGETS if t not in KNOWN_FEATURES) + LOG_TARGETS


def derive_columns(ids, basic_columns: dict, vg_columns: dict, log_ksat) -> Dataset:
    """The KNOWN_FEATURES + TARGET_COLUMNS table of the samples ids,
    unchecked (texture_faults, parameter_faults). basic_columns maps the six
    basic columns, sand to length_cm, and vg_columns theta_r, theta_s, alpha
    and n; log_ksat is NaN where the conductivity was not measured."""
    d_g, sigma_g = texture_columns(*(basic_columns[c] for c in ("sand", "silt", "clay")))
    # the theta_s feature is the parameter, not the curve's value at h = 0
    columns = {
        **water_content_columns(**vg_columns),
        **basic_columns,
        "d_g": d_g,
        "sigma_g": sigma_g,
        **vg_columns,
        "log_alpha": each(math.log, vg_columns["alpha"]),
        "log_n": each(math.log, vg_columns["n"]),
        "log_ksat": log_ksat,
    }
    return Dataset(list(ids), {name: columns[name] for name in KNOWN_FEATURES + TARGET_COLUMNS},
                   list(KNOWN_FEATURES), list(TARGET_COLUMNS))


@dataclass(frozen=True)
class LinearSpec:
    """intercept + sum(coef * feature) over named features; the features
    may be floats or columns of one length."""

    intercept: float
    coefs: tuple[tuple[str, float], ...] = ()

    def evaluate(self, features: dict):
        return self.intercept + sum(c * features[name] for name, c in self.coefs)


@dataclass(frozen=True)
class RegimeSpec:
    """Linear generating formulas of one regime."""

    name: str
    formulas: tuple[tuple[str, LinearSpec], ...]

    def formula(self, quantity: str) -> LinearSpec:
        return dict(self.formulas)[quantity]


# The two texture regimes. Their formulas read sand, silt, clay (mass
# percent) and bulk_density only.
FINE = RegimeSpec(
    name="fine",
    formulas=(
        ("theta_r", LinearSpec(0.05, (("clay", 0.0012),))),
        ("theta_s", LinearSpec(0.77, (("bulk_density", -0.20), ("sand", -0.0006)))),
        ("log_alpha", LinearSpec(-4.6, (("sand", 0.015), ("clay", -0.006)))),
        ("log_n1", LinearSpec(-1.1, (("sand", 0.010), ("clay", -0.008)))),
        ("log_ksat", LinearSpec(3.3, (("sand", 0.045), ("clay", -0.035), ("bulk_density", -2.0)))),
    ),
)
COARSE = RegimeSpec(
    name="coarse",
    formulas=(
        ("theta_r", LinearSpec(0.02, (("clay", 0.0008),))),
        ("theta_s", LinearSpec(0.605, (("bulk_density", -0.15), ("silt", 0.0005)))),
        ("log_alpha", LinearSpec(-5.8, (("sand", 0.020), ("clay", -0.004)))),
        ("log_n1", LinearSpec(1.0, (("sand", 0.004), ("clay", -0.004)))),
        ("log_ksat", LinearSpec(13.0, (("silt", -0.030), ("clay", -0.090), ("bulk_density", -6.0)))),
    ),
)
SAND_SPLIT = 60.0  # mass percent sand; a sample at the split is coarse

# Draw menus: core internal diameter and length (cm), bulk density range.
INTERNAL_DIAMETERS_CM = (5.0, 8.0, 10.0, 20.0, 30.0)
LENGTHS_CM = (1.0, 5.0, 10.0, 20.0, 100.0)
BULK_DENSITY_RANGE = (1.1, 1.7)

# Most samples one dataset holds, far above the few thousand the pipeline
# is built for; a larger n is refused before anything is allocated.
MAX_SAMPLES = 100_000


def _check_noise_sd(name: str, value: float):
    if not (finite_number(value) and value >= 0):
        raise SynthError(f"{name} must be a finite number of at least 0, got {value}")


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; the regimes and draw menus are the module
    constants above."""

    n_samples: int = 300
    seed: int = 0
    noise_sd: float = 0.01
    scale_alpha_per_cm: float = -0.004     # d log_alpha per cm of sample length
    scale_theta_s_per_cm: float = -0.0005  # d theta_s per cm of sample length

    def __post_init__(self):
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise SynthError(f"n_samples must be from 1 to {MAX_SAMPLES}, got {self.n_samples}")
        _check_noise_sd("noise_sd", self.noise_sd)

    def to_dict(self) -> dict:
        # truth.json and the config_hash of every synth artifact are built
        # from this dict, so it still records the fixed regimes and draw
        # menus under the keys they had as settings.
        return {
            **asdict(self),
            "regime_feature": "sand",
            "thresholds": (SAND_SPLIT,),
            "regimes": (asdict(FINE), asdict(COARSE)),
            "id_choices": INTERNAL_DIAMETERS_CM,
            "length_choices": LENGTHS_CM,
            "bulk_density_range": BULK_DENSITY_RANGE,
        }


def default_synth_config(n_samples: int = 300, noise_sd: float = 0.01, seed: int = 0) -> SynthConfig:
    """Default generator: two regimes plus the documented scale rule."""
    return SynthConfig(n_samples=n_samples, noise_sd=noise_sd, seed=seed)


def scale_effect_config(n_samples: int = 300, noise_sd: float = 0.01, seed: int = 0) -> SynthConfig:
    """Dataset for measurement-scale studies (alias of the default)."""
    return default_synth_config(n_samples=n_samples, noise_sd=noise_sd, seed=seed)


def two_regime_config(n_samples: int = 300, noise_sd: float = 0.01, seed: int = 0) -> SynthConfig:
    """Two-regime dataset without scale effects."""
    return SynthConfig(
        n_samples=n_samples,
        noise_sd=noise_sd,
        seed=seed,
        scale_alpha_per_cm=0.0,
        scale_theta_s_per_cm=0.0,
    )


# Standard deviations of the jitter of log_alpha, log_n1, theta_s and
# log_ksat per unit of noise_sd, which maps noise_sd to an approximate
# water-content noise scale.
_JITTER = (5.0, 2.0, 0.5, 1.0)


def generate(config: SynthConfig) -> tuple[Dataset, dict]:
    """Draw one synthetic dataset.

    Returns (dataset, truth) where truth records the per-sample regime
    names and effective retention parameters plus the generating config.
    With noise_sd=0 and zero scale coefficients every target is an exact
    function of the features through the regime formulas.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    texture = np.round(rng.dirichlet((1.0, 1.0, 1.0), size=n) * 100.0, 2)
    basic = {
        "sand": texture[:, 0],
        "silt": texture[:, 1],
        "clay": texture[:, 2],
        "bulk_density": np.round(rng.uniform(*BULK_DENSITY_RANGE, size=n), 3),
        "internal_diameter_cm": rng.choice(np.asarray(INTERNAL_DIAMETERS_CM), size=n),
        "length_cm": rng.choice(np.asarray(LENGTHS_CM), size=n),
    }
    fine = basic["sand"] < SAND_SPLIT
    theta_r, theta_s, log_alpha, log_n1, log_ksat = (
        np.where(fine, FINE.formula(q).evaluate(basic), COARSE.formula(q).evaluate(basic))
        for q in ("theta_r", "theta_s", "log_alpha", "log_n1", "log_ksat")
    )
    log_alpha = log_alpha + config.scale_alpha_per_cm * basic["length_cm"]
    theta_s = theta_s + config.scale_theta_s_per_cm * basic["length_cm"]
    if config.noise_sd > 0:  # drawn row-major: sample by sample, in this order
        noise = rng.normal(0.0, [j * config.noise_sd for j in _JITTER], size=(n, 4))
        jittered = np.stack([log_alpha, log_n1, theta_s, log_ksat]) + noise.T
        log_alpha, log_n1, theta_s, log_ksat = jittered
    theta_r = np.clip(theta_r, 0.0, 0.3)
    theta_s = np.clip(theta_s, theta_r + 0.02, 0.99)

    ids = [f"s{i:04d}" for i in range(n)]
    alpha, n_1 = each(math.exp, log_alpha), each(math.exp, log_n1)
    vg = {"theta_r": theta_r, "theta_s": theta_s, "alpha": alpha, "n": 1.0 + n_1}
    faults = [(i, f"{name} = exp({x[i].item()!r}) lies beyond float range")
              for name, x, y in (("alpha", log_alpha, alpha), ("n - 1", log_n1, n_1))
              for i in np.flatnonzero(~(y < math.inf)).tolist()] + parameter_faults(**vg)
    if faults:  # the lowest row's first: alpha, then n - 1, then the parameters
        i, problem = min(faults, key=lambda fault: fault[0])
        raise SynthError(f"sample {ids[i]}: {problem}")

    dataset = derive_columns(ids, basic, vg, log_ksat)
    regimes = dict(zip(ids, np.where(fine, FINE.name, COARSE.name).tolist()))
    effective = {sid: dict(zip(VG_FEATURES + ("log_ksat",), values))
                 for sid, values in zip(ids, zip(*(c.tolist() for c in (*vg.values(), log_ksat))))}
    truth = {"config": config.to_dict(), "regimes": regimes, "effective_params": effective}
    return dataset, truth


def generate_retention(truth: dict, noise_sd: float = 0.002, seed: int = 0) -> dict:
    """The retention table (data.retention_columns) synthesized from the
    truth record's effective parameters, at saturation and 12 log-spaced
    tensions from 10 to 15000 cm."""
    _check_noise_sd("retention noise_sd", noise_sd)
    tensions_cm = np.concatenate([[0.0], np.geomspace(10.0, 15000.0, 12)])
    effective = truth["effective_params"]
    columns = np.array([[p[k] for k in VG_FEATURES] for p in effective.values()]).reshape(-1, 4)
    theta = vg_curve(*columns.T[:, :, None], tensions_cm)  # (samples, tensions)
    if noise_sd > 0:  # drawn row-major, the order of the points in the output
        theta = theta + np.random.default_rng(seed).normal(0.0, noise_sd, size=theta.shape)
    return retention_columns(list(effective), tensions_cm, np.clip(theta, 0.0, 1.0))
