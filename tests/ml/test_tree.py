"""Unit tests for CART classification and regression trees."""

import numpy as np
import pytest

from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _resolve_max_features,
)


class TestClassificationTree:
    def test_memorizes_training_data_unbounded(self, binary_blobs):
        X, y = binary_blobs
        model = DecisionTreeClassifier().fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)

    def test_single_split_problem(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert model.score(X, y) == 1.0
        assert model.tree_.n_leaves == 2
        # Threshold must sit between the class clusters.
        assert 2.0 < model.tree_.threshold[0] < 10.0

    def test_max_depth_respected(self, binary_blobs):
        X, y = binary_blobs
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert model.tree_.depth() <= 3

    def test_min_samples_leaf_respected(self, binary_blobs):
        X, y = binary_blobs
        model = DecisionTreeClassifier(min_samples_leaf=30).fit(X, y)
        # Every leaf's probability vector comes from >= 30 samples; the
        # tree cannot have more than n/30 leaves.
        assert model.tree_.n_leaves <= X.shape[0] // 30

    def test_pure_node_stops_splitting(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.tree_.n_nodes == 1

    def test_feature_importances_sum_to_one(self, binary_blobs):
        X, y = binary_blobs
        model = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_irrelevant_feature_gets_no_importance(self):
        generator = np.random.default_rng(0)
        informative = np.concatenate([np.zeros(100), np.ones(100)])
        noise = generator.random(200)
        X = np.column_stack([informative, noise])
        y = informative.astype(int)
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert model.feature_importances_[0] > 0.95

    def test_predict_proba_rows_sum_to_one(self, binary_blobs):
        X, y = binary_blobs
        probabilities = DecisionTreeClassifier(max_depth=4).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.tree_.n_nodes == 1
        assert np.all(model.predict_proba(X)[:, 0] == 0.5)

    def test_invalid_params_raise(self):
        for factory in (DecisionTreeClassifier, DecisionTreeRegressor):
            with pytest.raises(ValueError, match="max_depth"):
                factory(max_depth=0)
            with pytest.raises(ValueError, match="min_samples_split"):
                factory(min_samples_split=1)
            with pytest.raises(ValueError, match="min_samples_leaf"):
                factory(min_samples_leaf=0)

    def test_deterministic_with_max_features(self, binary_blobs):
        X, y = binary_blobs
        a = DecisionTreeClassifier(max_features="sqrt", seed=5).fit(X, y)
        b = DecisionTreeClassifier(max_features="sqrt", seed=5).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        predictions = model.predict(X)
        np.testing.assert_allclose(predictions, y, atol=1e-9)

    def test_depth_limits_approximation(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = np.sin(2 * np.pi * X[:, 0])
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        err_shallow = np.mean((shallow.predict(X) - y) ** 2)
        err_deep = np.mean((deep.predict(X) - y) ** 2)
        assert err_deep < err_shallow

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.3)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.tree_.n_nodes == 1
        np.testing.assert_allclose(model.predict(X), 3.3)

    def test_prediction_is_leaf_mean(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 10.0, 20.0])
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        np.testing.assert_allclose(model.predict(np.array([[0.0]])), [2.0])
        np.testing.assert_allclose(model.predict(np.array([[1.0]])), [15.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((3, 1)), np.ones(4))

    def test_predict_validates_input(self):
        X = np.random.default_rng(0).normal(size=(30, 5))
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeRegressor().predict(X)
        model = DecisionTreeRegressor().fit(X, X[:, 0])
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((30, 10)))
        with pytest.raises(ValueError, match="NaN"):
            model.predict(np.full((2, 5), np.nan))


class TestMaxFeatures:
    def test_resolution_table(self):
        assert _resolve_max_features(None, 10) == 10
        assert _resolve_max_features("sqrt", 16) == 4
        assert _resolve_max_features("log2", 16) == 4
        assert _resolve_max_features(0.5, 10) == 5
        assert _resolve_max_features(3, 10) == 3
        assert _resolve_max_features(99, 10) == 10

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            _resolve_max_features("cube", 10)
        with pytest.raises(ValueError):
            _resolve_max_features(-1, 10)

    def test_booleans_rejected(self):
        # bool is an int subclass: True must not silently mean "1
        # feature per split".
        with pytest.raises(ValueError, match="boolean"):
            _resolve_max_features(True, 10)
        with pytest.raises(ValueError, match="boolean"):
            _resolve_max_features(False, 10)
        with pytest.raises(ValueError, match="boolean"):
            _resolve_max_features(np.True_, 10)
        with pytest.raises(ValueError, match="boolean"):
            DecisionTreeClassifier(max_features=True).fit(
                np.array([[0.0], [1.0]]), np.array([0, 1])
            )


class TestSplitAlgorithmParam:
    def test_unknown_backend_rejected(self):
        for factory in (DecisionTreeClassifier, DecisionTreeRegressor):
            with pytest.raises(ValueError, match="split_algorithm"):
                factory(split_algorithm="histo")

    def test_both_backends_accepted(self):
        assert DecisionTreeClassifier(split_algorithm="hist").split_algorithm == "hist"
        assert DecisionTreeRegressor(split_algorithm="exact").split_algorithm == "exact"

    def test_mismatched_binned_shape_rejected(self):
        from repro.ml.binning import build_binned

        X = np.arange(20, dtype=float).reshape(-1, 2)
        y = np.array([0, 1] * 5)
        wrong = build_binned(X[:5])
        with pytest.raises(ValueError, match="does not match"):
            DecisionTreeClassifier(split_algorithm="hist").fit(X, y, binned=wrong)
