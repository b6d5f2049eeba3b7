"""Shared helpers for the out-of-core (scale) tests.

The session-scoped ``shard_store`` (the ``small_fleet`` as a 3-shard
store, written once and treated read-only) lives in the top-level
conftest, where the parallel tests share it.
"""

from __future__ import annotations

from repro.core.pipeline import MFPAConfig
from repro.ml.forest import RandomForestClassifier


def cheap_config(**overrides) -> MFPAConfig:
    """A fast MFPA config (small forest) for parity tests."""
    return MFPAConfig(
        algorithm=RandomForestClassifier(n_estimators=8, max_depth=6, seed=0),
        **overrides,
    )
