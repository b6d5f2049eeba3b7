"""Linear support vector machine trained with Pegasos-style SGD.

A linear SVM is the paper's "SVM" comparator. Probabilities come from a
logistic squashing of the signed margin (a cheap stand-in for Platt
scaling that preserves score ordering, which is all AUC needs).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y


class LinearSVM(BaseClassifier):
    """Binary L2-regularized hinge-loss classifier.

    Parameters
    ----------
    C:
        Inverse regularization strength; larger fits the training set
        harder.
    n_epochs:
        Passes over the (shuffled) training data.
    batch_size:
        Mini-batch size for the subgradient steps.
    seed:
        RNG seed for shuffling.
    """

    def __init__(
        self,
        C: float = 1.0,
        n_epochs: int = 30,
        batch_size: int = 64,
        seed: int = 0,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if n_epochs < 1:
            raise ValueError("n_epochs must be at least 1")
        self.C = C
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X, y = check_X_y(X, y)
        if X.ndim != 2:
            raise ValueError("LinearSVM expects 2-D input")
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError(f"LinearSVM is binary; got {self.classes_.size} classes")
        # Standardize internally: hinge-loss SGD is scale-sensitive and
        # raw SMART counters span ~9 orders of magnitude.
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        self._scale = np.where(scale == 0, 1.0, scale)
        Xs = (X - self._mean) / self._scale
        signs = np.where(y == self.classes_[1], 1.0, -1.0)

        n_samples, n_features = Xs.shape
        lam = 1.0 / (self.C * n_samples)
        weights = np.zeros(n_features)
        bias = 0.0
        rng = np.random.default_rng(self.seed)
        step = 0
        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, self.batch_size):
                step += 1
                batch = order[start : start + self.batch_size]
                learning_rate = 1.0 / (lam * (step + 10))
                margins = signs[batch] * (Xs[batch] @ weights + bias)
                violators = margins < 1
                gradient_w = lam * weights
                gradient_b = 0.0
                if np.any(violators):
                    rows = Xs[batch][violators]
                    ys = signs[batch][violators]
                    gradient_w -= (ys[:, None] * rows).mean(axis=0)
                    gradient_b -= ys.mean()
                weights -= learning_rate * gradient_w
                bias -= learning_rate * gradient_b

        self.coef_ = weights
        self.intercept_ = bias
        self.n_features_ = n_features
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance to the separating hyperplane (scaled space)."""
        self._check_fitted()
        X = check_X(X, self.n_features_)
        Xs = (X - self._mean) / self._scale
        return Xs @ self.coef_ + self.intercept_

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        margins = self.decision_function(X)
        positive = 1.0 / (1.0 + np.exp(-np.clip(margins, -500, 500)))
        return np.column_stack([1.0 - positive, positive])
