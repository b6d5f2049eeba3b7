"""Forest-arena prediction: bit-identity with the per-tree loops, NaN routing.

The arena (:mod:`repro.ml.arena`) packs every tree of a fitted ensemble
into one contiguous node table and descends all (row, tree) pairs at
once, comparing raw feature floats against the stored thresholds. It
must reproduce the seed per-tree traversal (``predict_exact`` in
``tests/ml/arena_oracle.py``) **bit for bit**, and route NaN right
exactly like ``_Tree.predict_value`` (a NaN comparison is False).
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier

from tests.ml.arena_oracle import predict_exact


def _problem(seed: int = 0, n: int = 400, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 3] = rng.integers(0, 5, n)
    y = ((X[:, 0] + 0.5 * X[:, 1] ** 2 > 1) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


def _fresh_rows(seed: int = 99, n: int = 500, d: int = 6) -> np.ndarray:
    """Unseen rows, deliberately wider-ranged than the training data so
    values fall outside every split's training range as well as inside."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=3.0, size=(n, d))


class TestEngineParity:
    """The arena is bit-identical to the per-tree loops."""

    @pytest.mark.parametrize("algo", ["exact", "hist"])
    def test_forest_probas_bit_identical(self, algo):
        X, y = _problem()
        model = RandomForestClassifier(
            n_estimators=8, max_depth=6, seed=0, split_algorithm=algo
        ).fit(X, y)
        rows = _fresh_rows()
        np.testing.assert_array_equal(
            model.predict_proba(rows), predict_exact(model, rows)
        )

    @pytest.mark.parametrize("algo", ["exact", "hist"])
    def test_gbdt_probas_bit_identical(self, algo):
        X, y = _problem(seed=1)
        model = GradientBoostingClassifier(
            n_estimators=12, max_depth=3, split_algorithm=algo
        ).fit(X, y)
        rows = _fresh_rows(seed=7)
        # predict_proba is a pure function of this raw score.
        np.testing.assert_array_equal(
            model.decision_function(rows), predict_exact(model, rows)
        )

    def test_forest_regressor_bit_identical(self):
        X, _ = _problem(seed=2)
        y = X[:, 1] * 2 + np.abs(X[:, 0])
        model = RandomForestRegressor(n_estimators=6, max_depth=6, seed=0).fit(
            X, y
        )
        rows = _fresh_rows(seed=3)
        np.testing.assert_array_equal(
            model.predict(rows), predict_exact(model, rows)
        )

    def test_alarm_parity(self):
        """Thresholded alarms — the operational output — are identical,
        not merely the probabilities (ΔTPR 0.000, ΔFPR 0.000)."""
        X, y = _problem(seed=4)
        model = RandomForestClassifier(
            n_estimators=10, max_depth=8, seed=0
        ).fit(X, y)
        rows = _fresh_rows(seed=5)
        exact = predict_exact(model, rows)[:, 1]
        arena = model.predict_proba(rows)[:, 1]
        np.testing.assert_array_equal(arena >= 0.5, exact >= 0.5)

    def test_unbounded_depth_parity(self):
        """max_depth=None trees terminate through the arena's measured
        BFS depth bound, not a guessed iteration cap."""
        X, y = _problem(seed=6, n=600)
        model = RandomForestClassifier(n_estimators=4, seed=0).fit(X, y)
        rows = _fresh_rows(seed=8)
        np.testing.assert_array_equal(
            model.predict_proba(rows), predict_exact(model, rows)
        )


class TestNaNRouting:
    """The pinned NaN contract: a NaN feature fails ``value <= threshold``
    at every split and routes right, in ``_Tree.predict_value`` and both
    arena walks alike."""

    def _nan_fixture(self):
        X, y = _problem(seed=11)
        model = RandomForestClassifier(
            n_estimators=5, max_depth=6, seed=0
        ).fit(X, y)
        model.predict_proba(X[:4])  # build the arena
        rows = _fresh_rows(seed=12, n=64)
        rows[::3, 0] = np.nan
        rows[::5, 3] = np.nan
        rows[7] = np.nan  # an all-NaN row
        return model, rows

    def test_tree_predict_value_routes_nan_right(self):
        model, rows = self._nan_fixture()
        for tree_model in model.trees_:
            tree = tree_model.tree_
            leaf_values = tree.predict_value(rows)
            # Manually walk each row: NaN comparison is False -> right.
            for i, row in enumerate(rows):
                node = 0
                while tree.feature[node] >= 0:
                    value = row[tree.feature[node]]
                    if value <= tree.threshold[node]:
                        node = tree.left[node]
                    else:
                        node = tree.right[node]
                np.testing.assert_array_equal(
                    leaf_values[i], tree.value[node]
                )

    def test_engines_match_trees_on_nan(self):
        """``check_X`` rejects NaN, so the rows go straight into both
        walks: lanes and row partition."""
        model, rows = self._nan_fixture()
        arena = model._arena_
        columns = arena.encode(rows)
        lane_leaves = arena._descend(columns)
        np.testing.assert_array_equal(arena._partition(columns), lane_leaves)
        expected = np.stack(
            [m.tree_.predict_value(rows) for m in model.trees_], axis=1
        )
        got = arena.values[lane_leaves.T]
        np.testing.assert_array_equal(got[:, :, : expected.shape[2]], expected)


class TestModeControl:
    """The arena cached on the model."""

    def test_cached_arena_reused_and_reset_by_fit(self):
        X, y = _problem(seed=14)
        model = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0).fit(
            X, y
        )
        model.predict_proba(X[:8])
        first = model._arena_
        assert first is not None
        model.predict_proba(X[:8])
        assert model._arena_ is first
        model.fit(X, y)
        assert model._arena_ is None


class TestPickleLeavesArena:
    """The cached arena is derived data: a pickle is the same size before
    and after a predict, and a round trip predicts identically."""

    @pytest.mark.parametrize(
        "make, predict",
        [
            (lambda X, y: RandomForestClassifier(
                n_estimators=6, max_depth=6, seed=0).fit(X, y),
             lambda m, rows: m.predict_proba(rows)),
            (lambda X, y: RandomForestRegressor(
                n_estimators=6, max_depth=6, seed=0).fit(X, X[:, 0]),
             lambda m, rows: m.predict(rows)),
            (lambda X, y: GradientBoostingClassifier(
                n_estimators=8, max_depth=3).fit(X, y),
             lambda m, rows: m.predict_proba(rows)),
        ],
        ids=["forest", "regressor", "gbdt"],
    )
    def test_pickle_drops_cached_arena(self, make, predict):
        import pickle

        X, y = _problem(seed=15)
        model = make(X, y)
        rows = _fresh_rows(seed=16)
        before = pickle.dumps(model)
        expected = predict(model, rows)
        assert model._arena_ is not None
        after = pickle.dumps(model)
        assert len(after) == len(before)
        restored = pickle.loads(after)
        assert "_arena_" not in vars(restored)
        np.testing.assert_array_equal(predict(restored, rows), expected)
        assert restored._arena_ is not None  # rebuilt on demand
