"""Synthetic soil datasets with known regime structure and scale effects.

Feature space mirrors the measured tables: texture drawn uniformly on the
simplex, bulk density uniform, core internal diameter and length from
small discrete menus. A threshold rule on one feature assigns each sample
to a regime; every generated quantity (retention parameters, conductivity)
is a regime-specific linear function of the features. Sample length
perturbs the effective retention parameters through the documented scale
rule, and noise enters the retention targets through small parameter
jitter so the derived water contents keep their curve invariants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import math

import numpy as np

from .data import KNOWN_FEATURES, Dataset
from .hydrology import (
    PARAMETRIC_TARGETS,
    POINT_TARGETS,
    VgParameters,
    derived_water_contents,
    texture_statistics,
    vg_theta,
)


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class LinearSpec:
    """intercept + sum(coef * feature) over named features."""

    intercept: float
    coefs: tuple[tuple[str, float], ...] = ()

    def evaluate(self, features: dict[str, float]) -> float:
        return self.intercept + sum(c * features[name] for name, c in self.coefs)


# Quantities every regime must define.
REGIME_QUANTITIES = ("theta_r", "theta_s", "log_alpha", "log_n1", "log_ksat")


@dataclass(frozen=True)
class RegimeSpec:
    """Linear generating formulas of one regime."""

    name: str
    formulas: tuple[tuple[str, LinearSpec], ...]

    def __post_init__(self):
        have = {q for q, _ in self.formulas}
        if have != set(REGIME_QUANTITIES):
            raise SynthError(f"regime {self.name!r} must define {REGIME_QUANTITIES}, has {sorted(have)}")

    def formula(self, quantity: str) -> LinearSpec:
        for q, spec in self.formulas:
            if q == quantity:
                return spec
        raise KeyError(quantity)


def _fine_regime() -> RegimeSpec:
    return RegimeSpec(
        name="fine",
        formulas=(
            ("theta_r", LinearSpec(0.05, (("clay", 0.0012),))),
            ("theta_s", LinearSpec(0.77, (("bulk_density", -0.20), ("sand", -0.0006)))),
            ("log_alpha", LinearSpec(-4.6, (("sand", 0.015), ("clay", -0.006)))),
            ("log_n1", LinearSpec(-1.1, (("sand", 0.010), ("clay", -0.008)))),
            ("log_ksat", LinearSpec(3.3, (("sand", 0.045), ("clay", -0.035), ("bulk_density", -2.0)))),
        ),
    )


def _coarse_regime() -> RegimeSpec:
    return RegimeSpec(
        name="coarse",
        formulas=(
            ("theta_r", LinearSpec(0.02, (("clay", 0.0008),))),
            ("theta_s", LinearSpec(0.605, (("bulk_density", -0.15), ("silt", 0.0005)))),
            ("log_alpha", LinearSpec(-5.8, (("sand", 0.020), ("clay", -0.004)))),
            ("log_n1", LinearSpec(1.0, (("sand", 0.004), ("clay", -0.004)))),
            ("log_ksat", LinearSpec(13.0, (("silt", -0.030), ("clay", -0.090), ("bulk_density", -6.0)))),
        ),
    )


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; regimes partition the regime feature's axis at
    the thresholds (value below the first threshold is the first regime)."""

    n_samples: int = 300
    seed: int = 0
    noise_sd: float = 0.01
    regime_feature: str = "sand"
    thresholds: tuple[float, ...] = (60.0,)
    regimes: tuple[RegimeSpec, ...] = (None, None)  # replaced in __post_init__
    scale_alpha_per_cm: float = -0.004     # d log_alpha per cm of sample length
    scale_theta_s_per_cm: float = -0.0005  # d theta_s per cm of sample length
    id_choices: tuple[float, ...] = (5.0, 8.0, 10.0, 20.0, 30.0)
    length_choices: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0, 100.0)
    bulk_density_range: tuple[float, float] = (1.1, 1.7)

    def __post_init__(self):
        if self.regimes == (None, None):
            object.__setattr__(self, "regimes", (_fine_regime(), _coarse_regime()))
        if self.n_samples < 1:
            raise SynthError(f"n_samples must be positive, got {self.n_samples}")
        if self.noise_sd < 0:
            raise SynthError(f"noise_sd cannot be negative, got {self.noise_sd}")
        if len(self.regimes) != len(self.thresholds) + 1:
            raise SynthError(
                f"{len(self.thresholds)} thresholds need {len(self.thresholds) + 1} regimes, "
                f"got {len(self.regimes)}"
            )
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise SynthError(f"thresholds must increase: {self.thresholds}")

    def regime_of(self, value: float) -> RegimeSpec:
        idx = int(np.searchsorted(np.asarray(self.thresholds), value, side="right"))
        return self.regimes[idx]

    def to_dict(self) -> dict:
        return asdict(self)


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


# Relative sizes of the parameter jitter mapping noise_sd to an
# approximate water-content noise scale.
_JITTER_LOG_ALPHA = 5.0
_JITTER_LOG_N1 = 2.0
_JITTER_THETA_S = 0.5


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
    lo, hi = config.bulk_density_range
    bulk = np.round(rng.uniform(lo, hi, size=n), 3)
    inner = rng.choice(np.asarray(config.id_choices, dtype=float), size=n)
    length = rng.choice(np.asarray(config.length_choices, dtype=float), size=n)

    target_names = [
        t
        for t in dict.fromkeys(POINT_TARGETS + PARAMETRIC_TARGETS + ("log_ksat",))
        if t not in KNOWN_FEATURES
    ]
    ids = []
    columns: dict[str, list[float]] = {name: [] for name in KNOWN_FEATURES + tuple(target_names)}
    regimes: dict[str, str] = {}
    effective: dict[str, dict[str, float]] = {}
    for i in range(n):
        sand, silt, clay = texture[i]
        d_g, sigma_g = texture_statistics(sand, silt, clay)
        feats = {
            "sand": float(sand),
            "silt": float(silt),
            "clay": float(clay),
            "bulk_density": float(bulk[i]),
            "d_g": d_g,
            "sigma_g": sigma_g,
            "internal_diameter_cm": float(inner[i]),
            "length_cm": float(length[i]),
        }
        regime = config.regime_of(feats[config.regime_feature])
        theta_r = regime.formula("theta_r").evaluate(feats)
        theta_s = regime.formula("theta_s").evaluate(feats)
        log_alpha = regime.formula("log_alpha").evaluate(feats)
        log_n1 = regime.formula("log_n1").evaluate(feats)
        log_ksat = regime.formula("log_ksat").evaluate(feats)

        log_alpha += config.scale_alpha_per_cm * feats["length_cm"]
        theta_s += config.scale_theta_s_per_cm * feats["length_cm"]

        if config.noise_sd > 0:
            log_alpha += rng.normal(0.0, _JITTER_LOG_ALPHA * config.noise_sd)
            log_n1 += rng.normal(0.0, _JITTER_LOG_N1 * config.noise_sd)
            theta_s += rng.normal(0.0, _JITTER_THETA_S * config.noise_sd)
            log_ksat += rng.normal(0.0, config.noise_sd)

        theta_r = float(np.clip(theta_r, 0.0, 0.3))
        theta_s = float(np.clip(theta_s, theta_r + 0.02, 0.99))
        params = VgParameters(
            theta_r=theta_r,
            theta_s=theta_s,
            alpha=math.exp(log_alpha),
            n=1.0 + math.exp(log_n1),
        )
        targets: dict[str, float] = derived_water_contents(params)
        targets["log_alpha"] = math.log(params.alpha)
        targets["log_n"] = math.log(params.n)
        targets["log_ksat"] = float(log_ksat)

        sid = f"s{i:04d}"
        feats.update(
            theta_r=params.theta_r, theta_s=params.theta_s, alpha=params.alpha, n=params.n
        )
        ids.append(sid)
        values = {**targets, **feats}
        for name, col in columns.items():
            col.append(values[name])
        regimes[sid] = regime.name
        effective[sid] = {
            "theta_r": params.theta_r,
            "theta_s": params.theta_s,
            "alpha": params.alpha,
            "n": params.n,
            "log_ksat": float(log_ksat),
        }

    dataset = Dataset(ids, columns, feature_names=list(KNOWN_FEATURES), target_names=target_names)
    truth = {"config": config.to_dict(), "regimes": regimes, "effective_params": effective}
    return dataset, truth


def generate_retention(
    truth: dict,
    tensions_cm=None,
    noise_sd: float = 0.002,
    seed: int = 0,
) -> list[tuple[str, float, float]]:
    """Long-format retention points (id, tension_cm, theta) synthesized
    from the truth record's effective parameters."""
    if tensions_cm is None:
        tensions_cm = [0.0] + list(np.geomspace(10.0, 15000.0, 12))
    rng = np.random.default_rng(seed)
    rows = []
    for sid, p in truth["effective_params"].items():
        params = VgParameters(
            theta_r=p["theta_r"], theta_s=p["theta_s"], alpha=p["alpha"], n=p["n"]
        )
        for h in tensions_cm:
            theta = vg_theta(params, float(h))
            if noise_sd > 0:
                theta += rng.normal(0.0, noise_sd)
            rows.append((sid, float(h), float(np.clip(theta, 0.0, 1.0))))
    return rows
