"""Plain LSTM classifier (no convolutional front-end).

The failure-prediction literature the paper surveys (§II) uses both
LSTM and CNN_LSTM models; this variant drops the Conv1D feature
extractor so the two can be compared directly on the same sequences.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y
from repro.ml.nn.layers import LSTM, Dense, LastTimestep
from repro.ml.nn.optimizers import Adam


class LSTMClassifier(BaseClassifier):
    """Binary LSTM-over-sequences classifier.

    Accepts the same inputs as :class:`CNNLSTMClassifier`: 3-D
    ``(n, time, features)`` sequences or 2-D rows reshaped with
    ``time_steps``.
    """

    def __init__(
        self,
        time_steps: int = 7,
        hidden_size: int = 32,
        learning_rate: float = 0.005,
        batch_size: int = 32,
        n_epochs: int = 30,
        seed: int = 0,
    ):
        if time_steps < 1:
            raise ValueError("time_steps must be at least 1")
        self.time_steps = time_steps
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.n_epochs = n_epochs
        self.seed = seed

    def _to_sequences(self, X: np.ndarray) -> np.ndarray:
        if X.ndim == 3:
            return X
        n_samples, n_columns = X.shape
        if n_columns % self.time_steps != 0:
            raise ValueError(
                f"{n_columns} columns not divisible by time_steps={self.time_steps}"
            )
        return X.reshape(n_samples, self.time_steps, n_columns // self.time_steps)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSTMClassifier":
        X, y = check_X_y(X, y)
        sequences = self._to_sequences(X)
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("LSTMClassifier is binary")
        targets = (y == self.classes_[1]).astype(float)

        flat = sequences.reshape(-1, sequences.shape[2])
        self._mean = flat.mean(axis=0)
        scale = flat.std(axis=0)
        self._scale = np.where(scale == 0, 1.0, scale)
        sequences = (sequences - self._mean) / self._scale

        rng = np.random.default_rng(self.seed)
        n_features = sequences.shape[2]
        self.n_features_ = X.shape[-1] if X.ndim == 2 else n_features
        self._layers = [
            LSTM(n_features, self.hidden_size, rng),
            LastTimestep(),
            Dense(self.hidden_size, 1, rng),
        ]
        optimizer = Adam(learning_rate=self.learning_rate)
        params = [p for layer in self._layers for p in layer.params]
        grads = [g for layer in self._layers for g in layer.grads]

        n_samples = sequences.shape[0]
        self.loss_history_ = []
        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, self.batch_size):
                batch = order[start : start + self.batch_size]
                activations = sequences[batch]
                for layer in self._layers:
                    activations = layer.forward(activations)
                logits = activations[:, 0]
                probabilities = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
                batch_targets = targets[batch]
                clipped = np.clip(probabilities, 1e-12, 1 - 1e-12)
                loss = -np.mean(
                    batch_targets * np.log(clipped)
                    + (1 - batch_targets) * np.log(1 - clipped)
                )
                epoch_loss += loss * batch.size
                grad = ((probabilities - batch_targets) / batch.size)[:, None]
                for layer in reversed(self._layers):
                    grad = layer.backward(grad)
                optimizer.step(params, grads)
            self.loss_history_.append(epoch_loss / n_samples)
        return self

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        self._check_fitted()
        X = check_X(X)
        sequences = (self._to_sequences(X) - self._mean) / self._scale
        activations = sequences
        for layer in self._layers:
            activations = layer.forward(activations)
        logits = activations[:, 0]
        positive = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        return np.column_stack([1.0 - positive, positive])
