"""The arena's input layout and its leaf-value aggregation.

:meth:`FeatureAssembler.assemble` returns a column-major matrix — the
transpose of a C-contiguous ``(features, rows)`` block — which
:meth:`ForestArena.encode` hands to the walks without a copy; a
row-major batch is copied into that layout.  Whatever the layout, every
aggregation (``predict_mean``, ``predict_raw``, ``predict_stack``) must
equal the per-tree loops of ``tests/ml/arena_oracle.py`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureAssembler
from repro.ml import arena
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier

from tests.ml.arena_oracle import predict_exact

N_FEATURES = 5
#: Walk -> the partition threshold that forces it on every chunk.
WALKS = {"lanes": 1 << 40, "partition": 0}


def _problem(seed: int, n: int = 300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    X[:, 2] = rng.integers(0, 4, n)
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.3 * rng.normal(size=n) > 0.8)
    return X, y.astype(int)


@pytest.fixture(scope="module")
def classifier():
    """A forest whose member trees do not all see every class, so their
    leaf values land zero-padded on the forest's columns."""
    X, y = _problem(0)
    y[:1] = 2  # a rare third class most bootstraps miss
    model = RandomForestClassifier(n_estimators=12, max_depth=7, seed=0).fit(X, y)
    assert min(len(tree.classes_) for tree in model.trees_) < model.classes_.size
    return model


@pytest.fixture(scope="module")
def regressor():
    X, _ = _problem(1)
    y = X[:, 1] * 2 + np.abs(X[:, 0])
    return RandomForestRegressor(n_estimators=6, max_depth=6, seed=0).fit(X, y)


@pytest.fixture(scope="module")
def gbdt():
    X, y = _problem(2)
    return GradientBoostingClassifier(n_estimators=10, max_depth=3).fit(X, y)


def _rows(order: str, n: int = 257) -> np.ndarray:
    rows = np.random.default_rng(3).normal(scale=2.5, size=(n, N_FEATURES))
    rows[::7, 1] = 0.0  # repeated values, some on split thresholds
    return np.asarray(rows, order=order)


def _assembled(n: int = 64) -> np.ndarray:
    rng = np.random.default_rng(4)
    size = 3 * n
    columns = {
        "serial": np.repeat(np.arange(3), n),
        **{f"f{k}": rng.normal(size=size) for k in range(N_FEATURES)},
    }
    assembler = FeatureAssembler(tuple(f"f{k}" for k in range(N_FEATURES)))
    return assembler.assemble(columns, np.arange(0, size, 2))


class TestLayout:
    @pytest.mark.parametrize("history_length", [1, 3])
    def test_assembler_output_is_column_major(self, history_length):
        columns = {"serial": np.array([1, 1, 1, 2, 2]),
                   "a": np.arange(5.0), "b": np.arange(5) * 10}
        X = FeatureAssembler(("a", "b"), history_length).assemble(
            columns, np.array([0, 2, 4])
        )
        assert X.shape == (3, 2 * history_length)
        assert X.dtype == np.float64
        assert X.T.flags.c_contiguous

    def test_encode_of_assembler_output_is_a_view(self, classifier):
        X = _assembled()
        classifier.predict_proba(X[:1])  # build the arena
        columns = classifier._arena_.encode(X)
        assert np.shares_memory(columns, X)
        assert columns.flags.c_contiguous
        assert np.array_equal(columns, X.T)

    def test_encode_copies_a_row_major_batch(self, classifier):
        X = _rows("C")
        classifier.predict_proba(X[:1])
        columns = classifier._arena_.encode(X)
        assert not np.shares_memory(columns, X)
        assert columns.flags.c_contiguous
        assert np.array_equal(columns, X.T)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("order", ["C", "F"])
class TestAggregationMatchesOracle:
    def _walk(self, monkeypatch, walk):
        monkeypatch.setattr(arena, "_PARTITION_MIN_ROWS", WALKS[walk])
        monkeypatch.setattr(arena, "_PARTITION_LANE_STEPS_PER_NODE", 0)

    def test_predict_mean(self, monkeypatch, classifier, order, walk):
        self._walk(monkeypatch, walk)
        rows = _rows(order)
        assert np.array_equal(
            classifier.predict_proba(rows), predict_exact(classifier, rows)
        )

    def test_predict_raw(self, monkeypatch, gbdt, order, walk):
        self._walk(monkeypatch, walk)
        rows = _rows(order)
        assert np.array_equal(
            gbdt.decision_function(rows), predict_exact(gbdt, rows)
        )

    def test_predict_stack(self, monkeypatch, regressor, order, walk):
        self._walk(monkeypatch, walk)
        rows = _rows(order)
        regressor.predict(rows[:1])  # build the arena
        per_tree = np.stack([tree._predict(rows) for tree in regressor.trees_])
        assert np.array_equal(regressor._arena_.predict_stack(rows), per_tree)
        assert np.array_equal(regressor.predict(rows), predict_exact(regressor, rows))
