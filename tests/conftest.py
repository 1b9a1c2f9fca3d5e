"""Fixtures shared by the test modules."""

import concurrent.futures
import contextlib
import dataclasses
import types

import numpy as np
import pytest

from soilptf.synth import generate, two_regime_config


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts asked of ProcessPoolExecutor; the stand-in maps in this
    process, so no worker is ever started."""
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return sizes


@pytest.fixture(scope="session")
def clustered_length():
    """The seed-7 two-regime table (n = 300) with length_cm in five clusters
    1e-7 apart around 1 cm, so the cuts between them print alike. Texture,
    d_g, sigma_g and internal_diameter_cm are held at the first sample's
    values, bulk_density is drawn from U(1.1, 1.7), and log_ksat is the
    first sample's value, shifted by +4 and -4 on clusters 1 and 3, plus
    N(0, 0.1) noise."""
    dataset, _ = generate(two_regime_config(n_samples=300, seed=7))
    cols = dict(dataset.columns)
    n = len(dataset)
    rng = np.random.default_rng(17)
    c = rng.integers(0, 5, n)
    for name in ("sand", "silt", "clay", "d_g", "sigma_g", "internal_diameter_cm"):
        cols[name] = np.full(n, cols[name][0])
    cols["length_cm"] = 1.0 + c * 1e-7 + rng.uniform(0.0, 5e-8, n)
    cols["bulk_density"] = rng.uniform(1.1, 1.7, n)
    cols["log_ksat"] = (cols["log_ksat"][0] + np.select([c == 1, c == 3], [4.0, -4.0], 0.0)
                        + rng.normal(0.0, 0.1, n))
    return dataclasses.replace(dataset, columns=cols)
