"""Estimator base class and cloning support.

Estimators follow two conventions that the rest of the library relies on:

* every constructor argument is stored verbatim on ``self`` under the same
  name, which lets :func:`clone` rebuild an unfitted copy, and
* fitted state uses a trailing-underscore name (``classes_``, ``trees_``)
  so it is easy to tell configuration from learned parameters.
"""

from __future__ import annotations

import inspect
from typing import Any

import numpy as np


class BaseClassifier:
    """Common behaviour for all binary/multiclass classifiers.

    Subclasses implement :meth:`fit` and :meth:`predict_proba`;
    :meth:`predict` and parameter management are shared.
    """

    def get_params(self) -> dict[str, Any]:
        """Return constructor parameters as a dict (for cloning/grid search)."""
        signature = inspect.signature(type(self).__init__)
        names = [
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params: Any) -> "BaseClassifier":
        """Set constructor parameters in place and return self."""
        valid = set(self.get_params())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        """Return an ``(n_samples, n_classes)`` array of class probabilities.

        ``at_least`` lets a model skip work on rows whose positive-class
        (second column) probability it can prove is below that value:
        such rows may come back NaN in every column.  Rows at or above
        it are always exact, and a model that cannot screen ignores it.
        """
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the most probable class for each sample."""
        probabilities = self.predict_proba(X)
        indices = np.argmax(probabilities, axis=1)
        return self.classes_[indices]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Return mean accuracy on the given data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def _check_fitted(self) -> None:
        if not hasattr(self, "classes_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted yet; call fit() first")


def clone(estimator: BaseClassifier) -> BaseClassifier:
    """Return an unfitted copy of ``estimator`` with identical parameters."""
    return type(estimator)(**estimator.get_params())


def _check_ndim(X: np.ndarray, ndims: tuple[int, ...]) -> None:
    if X.ndim not in ndims:
        allowed = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"X must be {allowed}, got shape {X.shape}")


def check_X_y(
    X: Any, y: Any, ndims: tuple[int, ...] = (2, 3)
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and convert a feature matrix / label vector pair.

    Sequence inputs of shape ``(n, t, f)`` are accepted for the neural
    models; tabular models (the trees and their ensembles) pass
    ``ndims=(2,)`` to admit only ``(rows, features)`` matrices.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_ndim(X, ndims)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} samples but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit with zero samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    return X, y


def check_X(
    X: Any, n_features: int | None = None, ndims: tuple[int, ...] = (2, 3)
) -> np.ndarray:
    """Validate a prediction-time feature matrix (``ndims`` as in
    :func:`check_X_y`)."""
    X = np.asarray(X, dtype=float)
    _check_ndim(X, ndims)
    if n_features is not None and X.shape[-1] != n_features:
        raise ValueError(
            f"X has {X.shape[-1]} features but the model was fitted with {n_features}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    return X
