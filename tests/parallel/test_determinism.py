"""Determinism suite: every ``n_jobs`` setting must be bit-identical.

The parallel layer's contract is that worker pools only change
wall-clock, never results: randomness is pre-derived in serial order and
task outputs are recombined in task order. These tests pin that contract
for each parallelized surface.
"""

import numpy as np
import pytest

from repro.core.selection import SequentialForwardSelector, youden_score
from repro.core.splitting import TimeSeriesCrossValidator
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.model_selection import GridSearchCV, KFold, cross_val_score
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.parallel import fork_available

pytestmark = [
    pytest.mark.smoke,
    pytest.mark.skipif(not fork_available(), reason="parallel path requires fork"),
]


class TestForestDeterminism:
    def test_classifier_identical_across_n_jobs(self, binary_blobs):
        X, y = binary_blobs
        serial = RandomForestClassifier(n_estimators=12, max_depth=5, seed=9, n_jobs=1)
        parallel = RandomForestClassifier(n_estimators=12, max_depth=5, seed=9, n_jobs=4)
        serial.fit(X, y)
        parallel.fit(X, y)
        np.testing.assert_array_equal(
            serial.predict_proba(X), parallel.predict_proba(X)
        )
        np.testing.assert_array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )

    def test_regressor_identical_across_n_jobs(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (200, 6))
        y = X[:, 0] * 2 + rng.normal(0, 0.1, 200)
        serial = RandomForestRegressor(n_estimators=10, max_depth=4, seed=2, n_jobs=1)
        parallel = RandomForestRegressor(n_estimators=10, max_depth=4, seed=2, n_jobs=4)
        np.testing.assert_array_equal(
            serial.fit(X, y).predict(X), parallel.fit(X, y).predict(X)
        )


class TestSearchDeterminism:
    def test_cross_val_score_identical(self, binary_blobs):
        X, y = binary_blobs
        splitter = KFold(n_splits=4, seed=0)
        serial = cross_val_score(GaussianNaiveBayes(), X, y, splitter, n_jobs=1)
        parallel = cross_val_score(GaussianNaiveBayes(), X, y, splitter, n_jobs=4)
        np.testing.assert_array_equal(serial, parallel)

    def test_grid_search_identical(self, binary_blobs):
        from repro.ml.tree import DecisionTreeClassifier

        X, y = binary_blobs
        grid = {"max_depth": [1, 3, 6], "min_samples_leaf": [1, 5]}

        def search(n_jobs):
            return GridSearchCV(
                DecisionTreeClassifier(seed=0),
                grid,
                splitter=KFold(n_splits=3, seed=0),
                n_jobs=n_jobs,
            ).fit(X, y)

        serial, parallel = search(1), search(4)
        assert serial.best_params_ == parallel.best_params_
        assert serial.best_score_ == parallel.best_score_
        assert serial.results_ == parallel.results_
        np.testing.assert_array_equal(
            serial.predict_proba(X), parallel.predict_proba(X)
        )

    def test_forward_selection_identical(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 200)
        X = rng.normal(0, 1, (200, 6))
        X[:, 1] += 2.0 * y
        X[:, 4] -= 1.5 * y

        def select(n_jobs):
            selector = SequentialForwardSelector(
                GaussianNaiveBayes(),
                KFold(n_splits=3, seed=0),
                scoring=youden_score,
                n_jobs=n_jobs,
            )
            return selector.select(X, y), selector.history_

        serial, parallel = select(1), select(4)
        assert serial == parallel


class TestPipelineDeterminism:
    def test_grid_searched_pipeline_uses_sorted_days(self, small_fleet):
        """The pipeline's CV now carries the sorted day array; fitting
        with a grid must succeed (monotonic guard satisfied) and stay
        deterministic across n_jobs."""
        from repro.core.pipeline import MFPA, MFPAConfig
        from repro.ml.tree import DecisionTreeClassifier

        def fit(n_jobs):
            config = MFPAConfig(
                feature_group_name="S",
                algorithm=DecisionTreeClassifier(seed=0),
                param_grid={"max_depth": [3, 6]},
                n_jobs=n_jobs,
            )
            model = MFPA(config)
            model.fit(small_fleet, train_end_day=240)
            return model

        serial, parallel = fit(1), fit(2)
        assert serial.search_.best_params_ == parallel.search_.best_params_
        assert serial.search_.results_ == parallel.search_.results_


class TestMonitorDeterminism:
    def test_time_series_cv_selection_identical(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 240)
        X = rng.normal(0, 1, (240, 5))
        X[:, 0] += 2.5 * y
        days = np.arange(240)

        def select(n_jobs):
            return SequentialForwardSelector(
                GaussianNaiveBayes(),
                TimeSeriesCrossValidator(k=3, days=days),
                scoring=youden_score,
                max_features=3,
                n_jobs=n_jobs,
            ).select(X, y)

        assert select(1) == select(4)
