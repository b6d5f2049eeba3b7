"""The paper's CNN_LSTM failure predictor.

Architecture: Conv1D (temporal feature extraction) -> ReLU -> LSTM ->
last hidden state -> Dense -> sigmoid, trained with binary cross-entropy
and Adam. Accepts either 3-D sequence input ``(n, time, features)`` or
2-D input that is reshaped using ``time_steps`` — the latter keeps it
plug-compatible with the tabular estimators inside the MFPA pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y
from repro.ml.nn.layers import LSTM, Conv1D, Dense, LastTimestep, ReLU
from repro.ml.nn.optimizers import Adam


class CNNLSTMClassifier(BaseClassifier):
    """Binary CNN+LSTM classifier over feature sequences.

    Parameters
    ----------
    time_steps:
        When input is 2-D with ``t*f`` columns, it is reshaped to
        ``(n, time_steps, f)``; the column count must divide evenly.
    conv_channels / kernel_size:
        Conv1D configuration.
    hidden_size:
        LSTM hidden width.
    learning_rate / batch_size / n_epochs:
        Adam + mini-batch training configuration (the paper's tunable
        hyperparameters for the neural model).
    seed:
        Seed for weight init and batch shuffling.
    """

    def __init__(
        self,
        time_steps: int = 7,
        conv_channels: int = 16,
        kernel_size: int = 3,
        hidden_size: int = 32,
        learning_rate: float = 0.005,
        batch_size: int = 32,
        n_epochs: int = 30,
        seed: int = 0,
    ):
        if time_steps < 1:
            raise ValueError("time_steps must be at least 1")
        self.time_steps = time_steps
        self.conv_channels = conv_channels
        self.kernel_size = kernel_size
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CNNLSTMClassifier":
        X, y = check_X_y(X, y)
        sequences = self._to_sequences(X)
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("CNNLSTMClassifier is binary")
        targets = (y == self.classes_[1]).astype(float)

        # Standardize per feature channel across samples and time.
        flat = sequences.reshape(-1, sequences.shape[2])
        self._mean = flat.mean(axis=0)
        scale = flat.std(axis=0)
        self._scale = np.where(scale == 0, 1.0, scale)
        sequences = (sequences - self._mean) / self._scale

        rng = np.random.default_rng(self.seed)
        n_features = sequences.shape[2]
        self.n_features_ = X.shape[-1] if X.ndim == 2 else n_features
        self._layers = [
            Conv1D(n_features, self.conv_channels, self.kernel_size, rng),
            ReLU(),
            LSTM(self.conv_channels, self.hidden_size, rng),
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
                # d(BCE)/d(logit) = p - y, averaged over the batch.
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
        sequences = self._to_sequences(X)
        sequences = (sequences - self._mean) / self._scale
        activations = sequences
        for layer in self._layers:
            activations = layer.forward(activations)
        logits = activations[:, 0]
        positive = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        return np.column_stack([1.0 - positive, positive])
