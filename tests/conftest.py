"""Fixtures shared by the test modules."""

import concurrent.futures
import contextlib
import types

import pytest


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
