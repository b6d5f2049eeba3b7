"""Gradient-boosted decision trees with binomial deviance loss.

The paper evaluates GBDT as one of its five MFPA algorithms. This
implementation boosts shallow regression trees on the logistic-loss
gradient, with shrinkage and optional stochastic row subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.ml.arena import ArenaCached, ForestArena, cached_arena
from repro.ml.base import BaseClassifier, check_X, check_X_y
from repro.ml.binning import BinnedDataset
from repro.ml.tree import (
    DecisionTreeRegressor,
    _binned_for_fit,
    _check_growth_params,
    _check_split_algorithm,
)
from repro.obs import inc_counter, trace_span


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class GradientBoostingClassifier(ArenaCached, BaseClassifier):
    """Binary gradient boosting on shallow CART regression trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of each weak learner (paper-typical: 3).
    subsample:
        Fraction of rows sampled (without replacement) per round;
        ``1.0`` disables stochastic boosting.
    min_samples_leaf:
        Leaf-size floor for the weak learners.
    split_algorithm:
        ``"exact"`` (default) or ``"hist"``. With ``"hist"`` the feature
        matrix is quantile-binned once and every boosting round reuses
        the codes — residuals change each round, the bins do not.
    seed:
        RNG seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        split_algorithm: str = "exact",
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        _check_growth_params(max_depth, min_samples_leaf=min_samples_leaf)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.split_algorithm = _check_split_algorithm(split_algorithm)
        self.seed = seed

    def fit(
        self, X: np.ndarray, y: np.ndarray, binned: BinnedDataset | None = None
    ) -> "GradientBoostingClassifier":
        with trace_span("gbdt.fit"):
            self._fit(X, y, binned)
        inc_counter("gbdt_boosting_rounds_total", len(self.trees_))
        return self

    def _fit(
        self, X: np.ndarray, y: np.ndarray, binned: BinnedDataset | None = None
    ) -> None:
        X, y = check_X_y(X, y, ndims=(2,))
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("GradientBoostingClassifier is binary")
        self.n_features_ = X.shape[1]
        targets = (y == self.classes_[1]).astype(float)

        # Initial raw score: log-odds of the positive class.
        positive_rate = np.clip(targets.mean(), 1e-9, 1 - 1e-9)
        self.initial_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(X.shape[0], self.initial_score_)

        rng = np.random.default_rng(self.seed)
        n_samples = X.shape[0]
        subsample_size = max(1, int(round(self.subsample * n_samples)))
        # Bin once; all boosting rounds reuse the codes (the residual
        # targets change, the feature matrix never does).
        binned = _binned_for_fit(self.split_algorithm, X, binned)
        self.trees_: list[DecisionTreeRegressor] = []
        self.train_deviance_: list[float] = []
        # One sigmoid per boosting round: the probabilities used for this
        # round's deviance are exactly next round's residual base, so
        # carry them across iterations instead of recomputing _sigmoid(raw)
        # at the top of every loop.
        probabilities = _sigmoid(raw)
        for _ in range(self.n_estimators):
            residuals = targets - probabilities
            if self.subsample < 1.0:
                rows = rng.choice(n_samples, size=subsample_size, replace=False)
            else:
                rows = np.arange(n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                split_algorithm=self.split_algorithm,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            if binned is None:
                tree.fit(X[rows], residuals[rows])
            elif self.subsample < 1.0:
                tree.fit(X[rows], residuals[rows], binned=binned.take(rows))
            else:
                # rows is the identity permutation; skip the row gather.
                tree.fit(X, residuals, binned=binned)
            # X was validated once above; skip per-round re-validation.
            raw += self.learning_rate * tree._predict(X)
            self.trees_.append(tree)
            probabilities = _sigmoid(raw)
            clipped = np.clip(probabilities, 1e-12, 1 - 1e-12)
            deviance = -np.mean(
                targets * np.log(clipped) + (1 - targets) * np.log(1 - clipped)
            )
            self.train_deviance_.append(float(deviance))
        self.bin_edges_ = binned.bin_edges if binned is not None else None
        self._arena_ = None

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds scale)."""
        self._check_fitted()
        X = check_X(X, self.n_features_, ndims=(2,))
        arena = cached_arena(
            self,
            lambda: ForestArena.from_trees(
                [tree.tree_ for tree in self.trees_], self.n_features_
            ),
        )
        return arena.predict_raw(X, self.initial_score_, self.learning_rate)

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])
