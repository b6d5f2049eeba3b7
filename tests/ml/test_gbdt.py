"""Unit tests for GradientBoostingClassifier."""

import numpy as np
import pytest

from repro.ml.gbdt import GradientBoostingClassifier


class TestGBDT:
    def test_separable_blobs_high_accuracy(self, binary_blobs):
        X, y = binary_blobs
        model = GradientBoostingClassifier(n_estimators=30, seed=0).fit(X, y)
        assert model.score(X, y) > 0.97

    def test_training_deviance_decreases(self, binary_blobs):
        X, y = binary_blobs
        model = GradientBoostingClassifier(n_estimators=40, seed=0).fit(X, y)
        deviance = model.train_deviance_
        assert deviance[-1] < deviance[0]
        # Deviance should be mostly monotone decreasing.
        decreases = sum(b <= a for a, b in zip(deviance, deviance[1:]))
        assert decreases >= 0.9 * (len(deviance) - 1)

    def test_initial_score_is_log_odds(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.array([1] * 25 + [0] * 75)
        model = GradientBoostingClassifier(n_estimators=1).fit(X, y)
        assert model.initial_score_ == pytest.approx(np.log(25 / 75))

    def test_more_rounds_fit_tighter(self, binary_blobs):
        X, y = binary_blobs
        few = GradientBoostingClassifier(n_estimators=5, seed=0).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=60, seed=0).fit(X, y)
        assert many.train_deviance_[-1] < few.train_deviance_[-1]

    def test_learning_rate_zero_point_one_vs_one(self, binary_blobs):
        X, y = binary_blobs
        slow = GradientBoostingClassifier(n_estimators=10, learning_rate=0.05, seed=0)
        fast = GradientBoostingClassifier(n_estimators=10, learning_rate=0.5, seed=0)
        slow.fit(X, y)
        fast.fit(X, y)
        assert fast.train_deviance_[-1] < slow.train_deviance_[-1]

    def test_subsample_still_learns(self, binary_blobs):
        X, y = binary_blobs
        model = GradientBoostingClassifier(n_estimators=30, subsample=0.5, seed=0)
        assert model.fit(X, y).score(X, y) > 0.9

    def test_decision_function_matches_proba(self, binary_blobs):
        X, y = binary_blobs
        model = GradientBoostingClassifier(n_estimators=10, seed=0).fit(X, y)
        raw = model.decision_function(X[:5])
        proba = model.predict_proba(X[:5])[:, 1]
        np.testing.assert_allclose(proba, 1 / (1 + np.exp(-raw)))

    def test_multiclass_rejected(self):
        X = np.arange(9, dtype=float).reshape(-1, 1)
        y = np.array([0, 1, 2] * 3)
        with pytest.raises(ValueError, match="binary"):
            GradientBoostingClassifier().fit(X, y)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=1.5)
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostingClassifier(max_depth=0)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            GradientBoostingClassifier(min_samples_leaf=0, split_algorithm="hist")

    def test_rounds_do_not_revalidate_training_matrix(self, binary_blobs, monkeypatch):
        import repro.ml.tree as tree_module

        calls = []
        original = tree_module.check_X

        def counting_check_X(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_module, "check_X", counting_check_X)
        X, y = binary_blobs
        GradientBoostingClassifier(n_estimators=5, seed=0).fit(X, y)
        assert calls == []

    def test_single_sigmoid_per_round_matches_reference(self, binary_blobs):
        """The carried-over sigmoid must be bit-identical to the old
        compute-twice-per-round loop (residuals from sigmoid(raw_t),
        deviance from sigmoid(raw_{t+1}))."""
        from repro.ml.gbdt import _sigmoid
        from repro.ml.tree import DecisionTreeRegressor

        X, y = binary_blobs
        model = GradientBoostingClassifier(
            n_estimators=12, subsample=0.8, max_depth=2, seed=5
        ).fit(X, y)

        # Reference: the naive loop recomputing the sigmoid twice.
        targets = (y == model.classes_[1]).astype(float)
        raw = np.full(X.shape[0], model.initial_score_)
        rng = np.random.default_rng(5)
        n_samples = X.shape[0]
        subsample_size = max(1, int(round(0.8 * n_samples)))
        deviances = []
        for _ in range(12):
            probabilities = _sigmoid(raw)
            residuals = targets - probabilities
            rows = rng.choice(n_samples, size=subsample_size, replace=False)
            tree = DecisionTreeRegressor(
                max_depth=2, min_samples_leaf=1, seed=int(rng.integers(0, 2**31 - 1))
            )
            tree.fit(X[rows], residuals[rows])
            raw += 0.1 * tree.predict(X)
            clipped = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
            deviances.append(
                float(
                    -np.mean(
                        targets * np.log(clipped)
                        + (1 - targets) * np.log(1 - clipped)
                    )
                )
            )
        np.testing.assert_array_equal(model.train_deviance_, deviances)
        np.testing.assert_array_equal(
            model.predict_proba(X)[:, 1],
            _sigmoid(model.decision_function(X)),
        )
        np.testing.assert_allclose(model.decision_function(X), raw, atol=1e-12)

    def test_deterministic_by_seed(self, binary_blobs):
        X, y = binary_blobs
        a = GradientBoostingClassifier(n_estimators=8, subsample=0.7, seed=4).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=8, subsample=0.7, seed=4).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
