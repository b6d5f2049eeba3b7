"""Shared fixtures: small, session-scoped synthetic fleets.

Fleet simulation is the expensive part of most tests, so the fixtures
are simulated once per session; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preprocess import preprocess
from repro.scale import write_dataset_sharded
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_fleet():
    """~200 drives of vendor I with boosted failures; 360-day horizon."""
    config = FleetConfig(
        mix=VendorMix({"I": 200}),
        horizon_days=360,
        failure_boost=25.0,
        seed=42,
    )
    return simulate_fleet(config)


@pytest.fixture(scope="session")
def mixed_fleet():
    """All four vendors, 60 drives each, boosted failures."""
    config = FleetConfig(
        mix=VendorMix.uniform(60),
        horizon_days=360,
        failure_boost=30.0,
        seed=7,
    )
    return simulate_fleet(config)


@pytest.fixture(scope="session")
def prepared_fleet(small_fleet):
    """The small fleet after the full §III-C(1) preprocessing stage."""
    prepared, report, encoder = preprocess(small_fleet)
    return prepared, report, encoder


@pytest.fixture(scope="session")
def shard_store(small_fleet, tmp_path_factory):
    """The small fleet written as a 3-shard store (read-only)."""
    root = tmp_path_factory.mktemp("scale-store") / "store"
    return write_dataset_sharded(small_fleet, root, n_shards=3)


@pytest.fixture(scope="session")
def binary_blobs():
    """A simple separable 2-class dataset for estimator tests."""
    generator = np.random.default_rng(0)
    n = 300
    X0 = generator.normal(0.0, 1.0, (n, 8))
    X1 = generator.normal(1.5, 1.0, (n, 8))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    order = generator.permutation(2 * n)
    return X[order], y[order]


class CommitCrash(Exception):
    """A simulated ``kill -9`` inside ``robustness.checkpoint.commit``."""


@pytest.fixture()
def crash_commit(monkeypatch):
    """``crash_commit(directory, on_call, after_manifest)`` makes the
    ``on_call``-th manifest write into ``directory`` raise
    :class:`CommitCrash`: before the manifest lands, or, with
    ``after_manifest``, after it lands but before the pending payloads
    are renamed into place. Later writes go through, so the resumed run
    commits normally."""
    from pathlib import Path

    from repro.robustness import checkpoint

    def install(directory, on_call: int, after_manifest: bool) -> None:
        real = checkpoint.write_manifest
        calls = 0

        def crashing(path, *args, **kwargs):
            nonlocal calls
            if Path(path) != Path(directory):
                return real(path, *args, **kwargs)
            calls += 1
            if calls != on_call:
                return real(path, *args, **kwargs)
            if after_manifest:
                real(path, *args, **kwargs)
            raise CommitCrash(f"killed at manifest write {on_call}")

        monkeypatch.setattr(checkpoint, "write_manifest", crashing)

    return install


def write_parent_layout_manifest(directory, filenames) -> None:
    """Rewrite a checkpoint's ``manifest.json`` byte-for-byte as
    checkpoints wrote it before the shared commit protocol: compact
    JSON, sorted keys, ``version`` plus per-file sha256 and size —
    hashed here with plain hashlib, independent of the code under
    test."""
    import hashlib
    import json
    from pathlib import Path

    path = Path(directory)
    files = {
        name: {
            "sha256": hashlib.sha256((path / name).read_bytes()).hexdigest(),
            "size": (path / name).stat().st_size,
        }
        for name in filenames
    }
    (path / "manifest.json").write_text(
        json.dumps({"version": 1, "files": files}, sort_keys=True)
    )
