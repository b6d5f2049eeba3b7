"""Gaussian naive Bayes classifier (the paper's "Bayes" algorithm)."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y


class GaussianNaiveBayes(BaseClassifier):
    """Naive Bayes with per-class Gaussian feature likelihoods.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every variance
        to keep likelihoods finite for near-constant features (SMART
        attributes like *Available Spare Threshold* barely move on
        healthy drives).
    """

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be non-negative")
        self.var_smoothing = var_smoothing

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        X, y = check_X_y(X, y)
        if X.ndim != 2:
            raise ValueError("GaussianNaiveBayes expects 2-D input")
        self.classes_ = np.unique(y)
        n_classes = self.classes_.size
        n_features = X.shape[1]

        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.class_log_prior_ = np.zeros(n_classes)
        epsilon = self.var_smoothing * max(float(X.var(axis=0).max()), 1e-12)
        for index, label in enumerate(self.classes_):
            members = X[y == label]
            self.theta_[index] = members.mean(axis=0)
            self.var_[index] = members.var(axis=0) + epsilon
            self.class_log_prior_[index] = np.log(members.shape[0] / X.shape[0])
        self.n_features_ = n_features
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features_)
        # log N(x | mu, var) summed over features, per class.
        log_likelihood = -0.5 * (
            np.log(2.0 * np.pi * self.var_)[None, :, :]
            + (X[:, None, :] - self.theta_[None, :, :]) ** 2 / self.var_[None, :, :]
        ).sum(axis=2)
        return log_likelihood + self.class_log_prior_[None, :]

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        self._check_fitted()
        joint = self._joint_log_likelihood(X)
        joint -= joint.max(axis=1, keepdims=True)
        probabilities = np.exp(joint)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return probabilities
