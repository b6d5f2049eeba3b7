"""Isolation forest — unsupervised anomaly baseline.

Some prior storage-failure work detects anomalies without labels; this
from-scratch isolation forest (Liu et al. 2008) serves as the
unsupervised comparator: it never sees failure labels yet should score
degraded drives as anomalous. Exposed with the same ``predict_proba``
surface as the supervised models so it drops into the evaluation
harness (scores are anomaly degrees, not calibrated probabilities).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y


def _average_path_length(n: int | np.ndarray) -> np.ndarray:
    """Expected unsuccessful-search path length in a BST of n points."""
    n = np.asarray(n, dtype=float)
    result = np.zeros_like(n)
    valid = n > 1
    harmonic = np.log(n[valid] - 1) + np.euler_gamma
    result[valid] = 2.0 * harmonic - 2.0 * (n[valid] - 1) / n[valid]
    return result


class _IsolationTree:
    """One random isolation tree stored as parallel arrays."""

    def __init__(self, X: np.ndarray, height_limit: int, rng: np.random.Generator):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.size: list[int] = []
        self.depth: list[int] = []
        self._grow(X, np.arange(X.shape[0]), 0, height_limit, rng)
        self.feature_arr = np.asarray(self.feature)
        self.threshold_arr = np.asarray(self.threshold)
        self.left_arr = np.asarray(self.left)
        self.right_arr = np.asarray(self.right)
        self.size_arr = np.asarray(self.size)
        self.depth_arr = np.asarray(self.depth)

    def _grow(self, X, indices, depth, height_limit, rng) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.size.append(int(indices.size))
        self.depth.append(depth)
        if depth >= height_limit or indices.size <= 1:
            return node
        candidates = np.flatnonzero(
            X[indices].min(axis=0) < X[indices].max(axis=0)
        )
        if candidates.size == 0:
            return node
        feature = int(rng.choice(candidates))
        low = X[indices, feature].min()
        high = X[indices, feature].max()
        threshold = float(rng.uniform(low, high))
        go_left = X[indices, feature] <= threshold
        left = self._grow(X, indices[go_left], depth + 1, height_limit, rng)
        right = self._grow(X, indices[~go_left], depth + 1, height_limit, rng)
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        return node

    def path_length(self, X: np.ndarray) -> np.ndarray:
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_arr[nodes] != -1
        while np.any(active):
            rows = np.flatnonzero(active)
            current = nodes[rows]
            go_left = X[rows, self.feature_arr[current]] <= self.threshold_arr[current]
            nodes[rows] = np.where(
                go_left, self.left_arr[current], self.right_arr[current]
            )
            active[rows] = self.feature_arr[nodes[rows]] != -1
        return self.depth_arr[nodes] + _average_path_length(self.size_arr[nodes])


class IsolationForest(BaseClassifier):
    """Unsupervised anomaly scorer with a classifier-compatible surface.

    ``fit(X, y)`` ignores ``y`` beyond remembering the class labels so
    ``predict_proba`` can emit an (anomaly, normal)-shaped matrix;
    ``anomaly_score`` is the standard ``2^(-E[h(x)]/c(n))`` in (0, 1].

    Parameters
    ----------
    n_estimators / max_samples:
        Ensemble size and per-tree subsample.
    contamination:
        Expected anomaly fraction; sets the ``predict`` cutoff at the
        corresponding training-score quantile.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.05,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        if not 0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "IsolationForest":
        if y is None:
            y = np.zeros(np.asarray(X).shape[0], dtype=int)
        X, y = check_X_y(X, y)
        if X.ndim != 2:
            raise ValueError("IsolationForest expects 2-D input")
        labels = np.unique(y)
        self.classes_ = labels if labels.size == 2 else np.array([0, 1])
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        sample_size = min(self.max_samples, X.shape[0])
        height_limit = int(np.ceil(np.log2(max(sample_size, 2))))
        self.trees_ = []
        for _ in range(self.n_estimators):
            rows = rng.choice(X.shape[0], size=sample_size, replace=False)
            self.trees_.append(_IsolationTree(X[rows], height_limit, rng))
        self._normalizer = float(_average_path_length(np.array([sample_size]))[0])
        self.offset_ = float(
            np.quantile(self.anomaly_score(X), 1.0 - self.contamination)
        )
        return self

    def anomaly_score(self, X: np.ndarray) -> np.ndarray:
        """Scores in (0, 1]; higher = more anomalous."""
        self._check_fitted()
        X = check_X(X, self.n_features_)
        mean_path = np.mean([tree.path_length(X) for tree in self.trees_], axis=0)
        return 2.0 ** (-mean_path / self._normalizer)

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        scores = self.anomaly_score(X)
        return np.column_stack([1.0 - scores, scores])

    def predict(self, X: np.ndarray) -> np.ndarray:
        flagged = self.anomaly_score(X) >= self.offset_
        return self.classes_[flagged.astype(int)]
