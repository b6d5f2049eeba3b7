"""L2-regularized logistic regression (gradient descent + momentum).

A standard baseline in the disk-failure literature (several of the
paper's §II citations evaluate it alongside trees and SVMs). Trained
full-batch with Nesterov-style momentum on the regularized
cross-entropy; inputs are standardized internally like the SVM's.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class LogisticRegression(BaseClassifier):
    """Binary logistic regression.

    Parameters
    ----------
    C:
        Inverse L2 regularization strength.
    learning_rate / n_iterations:
        Full-batch gradient descent configuration.
    momentum:
        Nesterov momentum coefficient.
    class_weight:
        ``None``, ``"balanced"`` or a label -> weight dict; reweights
        the per-sample loss (cost-sensitive fitting).
    tolerance:
        Early-stop threshold on the gradient norm.
    """

    def __init__(
        self,
        C: float = 1.0,
        learning_rate: float = 0.1,
        n_iterations: int = 500,
        momentum: float = 0.9,
        class_weight=None,
        tolerance: float = 1e-6,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        self.C = C
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.momentum = momentum
        self.class_weight = class_weight
        self.tolerance = tolerance

    def _weights(self, y: np.ndarray, targets: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(y.size)
        if self.class_weight == "balanced":
            positive_share = targets.mean()
            weight_positive = 0.5 / max(positive_share, 1e-12)
            weight_negative = 0.5 / max(1 - positive_share, 1e-12)
            return np.where(targets == 1, weight_positive, weight_negative)
        if isinstance(self.class_weight, dict):
            try:
                per_class = {label: float(w) for label, w in self.class_weight.items()}
                return np.array([per_class[label] for label in y])
            except KeyError as error:
                raise ValueError(
                    f"class_weight is missing label {error.args[0]!r}"
                ) from error
        raise ValueError(f"invalid class_weight: {self.class_weight!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        if X.ndim != 2:
            raise ValueError("LogisticRegression expects 2-D input")
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("LogisticRegression is binary")
        targets = (y == self.classes_[1]).astype(float)
        sample_weight = self._weights(y, targets)
        sample_weight = sample_weight / sample_weight.mean()

        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        self._scale = np.where(scale == 0, 1.0, scale)
        Xs = (X - self._mean) / self._scale

        n_samples, n_features = Xs.shape
        lam = 1.0 / (self.C * n_samples)
        weights = np.zeros(n_features)
        bias = 0.0
        velocity_w = np.zeros(n_features)
        velocity_b = 0.0
        self.loss_history_ = []
        for _ in range(self.n_iterations):
            probabilities = _sigmoid(Xs @ weights + bias)
            error = sample_weight * (probabilities - targets)
            gradient_w = Xs.T @ error / n_samples + lam * weights
            gradient_b = float(error.mean())
            velocity_w = self.momentum * velocity_w - self.learning_rate * gradient_w
            velocity_b = self.momentum * velocity_b - self.learning_rate * gradient_b
            weights += velocity_w
            bias += velocity_b
            clipped = np.clip(probabilities, 1e-12, 1 - 1e-12)
            loss = -np.mean(
                sample_weight
                * (targets * np.log(clipped) + (1 - targets) * np.log(1 - clipped))
            ) + 0.5 * lam * float(weights @ weights)
            self.loss_history_.append(float(loss))
            if np.linalg.norm(gradient_w) < self.tolerance:
                break
        self.coef_ = weights
        self.intercept_ = bias
        self.n_features_ = n_features
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X, self.n_features_)
        Xs = (X - self._mean) / self._scale
        return Xs @ self.coef_ + self.intercept_

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])
