"""Reference exact split search: one feature at a time.

This is the per-feature loop the exact backend ran before it scored a
node's candidate features as one block. ``test_exact_split.py`` requires
:func:`repro.ml.tree._exact_split` to return the same
``(feature, threshold, gain)`` bit for bit. The per-feature gains are the
same float arithmetic as before: a dense ``(n, n_classes)`` class-mass
prefix fed to ``_gini_gains``, or the target prefix fed to
``_sse_gains``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_SPLIT, _Gini, _gini_gains, _sse_gains


def _gini_exact_gains(criterion: _Gini, indices: np.ndarray):
    node_y = criterion.y_codes[indices]
    n = node_y.size
    weights = (
        np.ones(n)
        if criterion.sample_weight is None
        else criterion.sample_weight[indices]
    )
    one_hot = np.zeros((n, criterion.n_outputs))
    one_hot[np.arange(n), node_y] = weights
    counts = one_hot.sum(axis=0)
    total_mass = counts.sum()
    parent_impurity = 1.0 - np.sum((counts / total_mass) ** 2)

    def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
        left = np.cumsum(one_hot[order], axis=0)[:-1]
        return _gini_gains(left, counts, total_mass, parent_impurity, valid)

    return gains


def _sse_exact_gains(criterion, indices: np.ndarray):
    node_y = criterion.y[indices]
    n = node_y.size
    total = node_y.sum()
    k = np.arange(1, n)

    def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
        return _sse_gains(np.cumsum(node_y[order])[:-1], k, total, n, valid)

    return gains


def exact_split_oracle(
    X: np.ndarray,
    indices: np.ndarray,
    candidates: np.ndarray,
    min_samples_leaf: int,
    criterion,
) -> tuple[int, float, float]:
    """Best ``(feature, threshold, gain)``, one candidate feature at a time."""
    if isinstance(criterion, _Gini):
        gains = _gini_exact_gains(criterion, indices)
    else:
        gains = _sse_exact_gains(criterion, indices)
    n = indices.size
    k = np.arange(1, n)
    size_ok = (k >= min_samples_leaf) & (n - k >= min_samples_leaf)
    best_feature, best_threshold, best_gain = _NO_SPLIT, 0.0, -np.inf
    for feature in candidates:
        values = X[indices, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        valid = (sorted_values[:-1] < sorted_values[1:]) & size_ok
        if not np.any(valid):
            continue
        gain = gains(order, valid)
        best_index = int(np.argmax(gain))
        if gain[best_index] > best_gain:
            best_gain = float(gain[best_index])
            best_feature = int(feature)
            best_threshold = float(
                (sorted_values[best_index] + sorted_values[best_index + 1]) / 2.0
            )
    return best_feature, best_threshold, best_gain
