"""Soft-voting ensembles of heterogeneous classifiers.

The paper evaluates five algorithm families separately (Figs 10/14);
production systems routinely blend them. :class:`VotingClassifier`
averages member probabilities (optionally weighted), giving variance
reduction across model families rather than across bootstraps.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, clone


class VotingClassifier(BaseClassifier):
    """Weighted soft-voting over independently fitted members.

    Parameters
    ----------
    estimators:
        ``(name, estimator)`` pairs; each is cloned and fitted.
    weights:
        Optional per-member weights (normalized internally).
    """

    def __init__(
        self,
        estimators: list[tuple[str, BaseClassifier]],
        weights: list[float] | None = None,
    ):
        if not estimators:
            raise ValueError("estimators must not be empty")
        names = [name for name, _ in estimators]
        if len(set(names)) != len(names):
            raise ValueError("estimator names must be unique")
        if weights is not None:
            if len(weights) != len(estimators):
                raise ValueError("weights must match estimators")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("weights must be non-negative with positive sum")
        self.estimators = estimators
        self.weights = weights

    def fit(self, X: np.ndarray, y: np.ndarray) -> "VotingClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        self.fitted_: dict[str, BaseClassifier] = {}
        for name, prototype in self.estimators:
            member = clone(prototype)
            member.fit(X, y)
            if not np.array_equal(member.classes_, self.classes_):
                raise ValueError(f"member {name!r} saw different classes")
            self.fitted_[name] = member
        if self.weights is None:
            self._normalized_weights = np.full(
                len(self.estimators), 1.0 / len(self.estimators)
            )
        else:
            weights = np.asarray(self.weights, dtype=float)
            self._normalized_weights = weights / weights.sum()
        return self

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        self._check_fitted()
        aggregate = None
        for (name, _), weight in zip(self.estimators, self._normalized_weights):
            probabilities = self.fitted_[name].predict_proba(np.asarray(X, dtype=float))
            contribution = weight * probabilities
            aggregate = contribution if aggregate is None else aggregate + contribution
        return aggregate

    def member_probabilities(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """Positive-class probability per member (for disagreement
        analysis — members that disagree flag uncertain drives)."""
        self._check_fitted()
        return {
            name: member.predict_proba(np.asarray(X, dtype=float))[:, 1]
            for name, member in self.fitted_.items()
        }
