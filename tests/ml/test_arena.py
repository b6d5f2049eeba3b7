"""Binned forest-arena prediction engine: bit-identity and NaN routing.

The arena (:mod:`repro.ml.arena`) packs every tree of a fitted ensemble
into one contiguous node table and descends all (row, tree) lanes
simultaneously — either comparing raw feature floats ("float" engine) or
integer bin codes against quantized thresholds ("binned" engine). Both
must reproduce the seed per-tree traversal **bit for bit**: every
threshold appears verbatim in its feature's code table, so
``code(v) <= code(t)`` iff ``v <= t``, and NaN routes right exactly like
``_Tree.predict_value`` (a NaN comparison is False) via a reserved
largest bin code.
"""

import numpy as np
import pytest

from repro.ml.arena import (
    ForestArena,
    get_inference_mode,
    set_inference_mode,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture(autouse=True)
def restore_mode():
    previous = get_inference_mode()
    yield
    set_inference_mode(previous)


def _problem(seed: int = 0, n: int = 400, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 3] = rng.integers(0, 5, n)
    y = ((X[:, 0] + 0.5 * X[:, 1] ** 2 > 1) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


def _fresh_rows(seed: int = 99, n: int = 500, d: int = 6) -> np.ndarray:
    """Unseen rows, deliberately wider-ranged than the training data so
    codes fall outside every table's interior as well as inside it."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=3.0, size=(n, d))


def _with_mode(mode, fn):
    previous = set_inference_mode(mode)
    try:
        return fn()
    finally:
        set_inference_mode(previous)


class TestEngineParity:
    """Float and binned engines are bit-identical to the seed loops."""

    @pytest.mark.parametrize("algo", ["exact", "hist"])
    def test_forest_probas_bit_identical(self, algo):
        X, y = _problem()
        model = RandomForestClassifier(
            n_estimators=8, max_depth=6, seed=0, split_algorithm=algo
        ).fit(X, y)
        rows = _fresh_rows()
        exact = _with_mode("exact", lambda: model.predict_proba(rows))
        for mode in ("float", "binned", "auto"):
            got = _with_mode(mode, lambda: model.predict_proba(rows))
            np.testing.assert_array_equal(got, exact)

    @pytest.mark.parametrize("algo", ["exact", "hist"])
    def test_gbdt_probas_bit_identical(self, algo):
        X, y = _problem(seed=1)
        model = GradientBoostingClassifier(
            n_estimators=12, max_depth=3, split_algorithm=algo
        ).fit(X, y)
        rows = _fresh_rows(seed=7)
        exact = _with_mode("exact", lambda: model.predict_proba(rows))
        for mode in ("float", "binned", "auto"):
            got = _with_mode(mode, lambda: model.predict_proba(rows))
            np.testing.assert_array_equal(got, exact)

    def test_forest_regressor_bit_identical(self):
        X, _ = _problem(seed=2)
        y = X[:, 1] * 2 + np.abs(X[:, 0])
        model = RandomForestRegressor(n_estimators=6, max_depth=6, seed=0).fit(
            X, y
        )
        rows = _fresh_rows(seed=3)
        exact = _with_mode("exact", lambda: model.predict(rows))
        for mode in ("float", "binned", "auto"):
            got = _with_mode(mode, lambda: model.predict(rows))
            np.testing.assert_array_equal(got, exact)

    def test_alarm_parity(self):
        """Thresholded alarms — the operational output — are identical,
        not merely the probabilities (ΔTPR 0.000, ΔFPR 0.000)."""
        X, y = _problem(seed=4)
        model = RandomForestClassifier(
            n_estimators=10, max_depth=8, seed=0
        ).fit(X, y)
        rows = _fresh_rows(seed=5)
        exact = _with_mode("exact", lambda: model.predict_proba(rows))[:, 1]
        binned = _with_mode("binned", lambda: model.predict_proba(rows))[:, 1]
        np.testing.assert_array_equal(binned >= 0.5, exact >= 0.5)

    def test_unbounded_depth_parity(self):
        """max_depth=None trees terminate through the arena's measured
        BFS depth bound, not a guessed iteration cap."""
        X, y = _problem(seed=6, n=600)
        model = RandomForestClassifier(n_estimators=4, seed=0).fit(X, y)
        rows = _fresh_rows(seed=8)
        exact = _with_mode("exact", lambda: model.predict_proba(rows))
        binned = _with_mode("binned", lambda: model.predict_proba(rows))
        np.testing.assert_array_equal(binned, exact)


class TestNaNRouting:
    """The pinned NaN contract: a NaN feature fails ``value <= threshold``
    at every split and routes right, in ``_Tree.predict_value``, the
    float engine, and the binned engine's reserved NaN bin alike."""

    def _nan_fixture(self):
        X, y = _problem(seed=11)
        model = RandomForestClassifier(
            n_estimators=5, max_depth=6, seed=0
        ).fit(X, y)
        _with_mode("auto", lambda: model.predict_proba(X[:4]))  # build arena
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
        model, rows = self._nan_fixture()
        arena = model._arena_
        float_leaves = arena._descend(np.ascontiguousarray(rows.T), "float")
        binned_leaves = arena._descend(arena.encode(rows), "binned")
        np.testing.assert_array_equal(binned_leaves, float_leaves)
        expected = np.stack(
            [m.tree_.predict_value(rows) for m in model.trees_], axis=1
        )
        got = arena.values[float_leaves.T]
        np.testing.assert_array_equal(got[:, :, : expected.shape[2]], expected)

    def test_nan_codes_use_reserved_bin(self):
        model, rows = self._nan_fixture()
        arena = model._arena_
        codes = arena.encode(rows)
        for feature_index in range(arena.n_features):
            table = arena.code_tables[feature_index]
            nan_rows = np.isnan(rows[:, feature_index])
            assert np.all(codes[feature_index, nan_rows] == table.size + 1)
            assert np.all(codes[feature_index, ~nan_rows] <= table.size)


class TestModeControl:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown inference mode"):
            set_inference_mode("vectorized")

    def test_set_returns_previous(self):
        first = set_inference_mode("exact")
        assert set_inference_mode(first) == "exact"

    def test_forced_binned_without_tables_raises(self):
        X, y = _problem(seed=13)
        trees = [
            DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y).tree_
        ]
        arena = ForestArena.from_trees(trees, n_features=X.shape[1])
        set_inference_mode("binned")
        with pytest.raises(RuntimeError, match="code tables"):
            arena.predict_mean(X[:8])

    def test_cached_arena_reused_and_reset_by_fit(self):
        X, y = _problem(seed=14)
        model = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0).fit(
            X, y
        )
        _with_mode("auto", lambda: model.predict_proba(X[:8]))
        first = model._arena_
        assert first is not None
        _with_mode("auto", lambda: model.predict_proba(X[:8]))
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
