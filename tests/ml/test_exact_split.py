"""The block exact split search against the per-feature loop it replaced.

``_exact_split`` scores every candidate feature of a node as one
``(n_node, block)`` block; ``exact_split_oracle`` is the former loop,
one feature at a time. For every criterion the two must return the same
``(feature, threshold, gain)`` bit for bit — the tie-break (first
candidate in draw order, then lowest cut) and the float operation order
of every gain included. A patched cell budget forces the search to
carry its running best across several column blocks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree
from repro.ml.tree import _SSE, _Gini, _exact_split

from .exact_split_oracle import exact_split_oracle

pytestmark = pytest.mark.smoke

CRITERIA = ("binary", "balanced", "weighted", "three_class", "sse")


def _column(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "discrete":
        # few distinct values: many ties, some cuts invalid
        return rng.integers(0, 3, size=n).astype(float)
    return rng.normal(size=n)


def _criterion(rng: np.random.Generator, n: int, kind: str):
    if kind == "sse":
        # rounded targets tie many cut gains exactly
        return _SSE(np.round(rng.normal(size=n), 1))
    n_classes = 3 if kind == "three_class" else 2
    y = rng.integers(0, n_classes, size=n)
    if kind == "balanced":
        # DecisionTreeClassifier(class_weight="balanced")'s weights
        counts = np.bincount(y, minlength=n_classes).astype(float)
        with np.errstate(divide="ignore"):
            per_class = n / (n_classes * counts)
        return _Gini(y, n_classes, per_class[y])
    if kind == "weighted":
        return _Gini(y, n_classes, rng.uniform(0.0, 3.0, size=n))
    return _Gini(y, n_classes, None)


def _bits(split: tuple[int, float, float]) -> tuple[int, bytes, bytes]:
    feature, threshold, gain = split
    return feature, np.float64(threshold).tobytes(), np.float64(gain).tobytes()


class TestExactSplitParity:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 40),
        column_kinds=st.lists(
            st.sampled_from(["constant", "discrete", "continuous"]),
            min_size=1,
            max_size=7,
        ),
        criterion_kind=st.sampled_from(CRITERIA),
        leaf_fraction=st.floats(0.0, 0.7),
        budget=st.sampled_from([1, 7, 40, 100, tree._MAX_SPLIT_CELLS]),
        data=st.data(),
    )
    def test_matches_per_feature_loop(
        self, seed, n_rows, column_kinds, criterion_kind, leaf_fraction, budget, data
    ):
        rng = np.random.default_rng(seed)
        n_total = n_rows + 5
        X = np.column_stack([_column(rng, n_total, kind) for kind in column_kinds])
        criterion = _criterion(rng, n_total, criterion_kind)
        # a node is any subset of rows, in any order
        indices = rng.permutation(n_total)[:n_rows]
        n_features = X.shape[1]
        candidates = np.array(
            data.draw(st.permutations(range(n_features)))[
                : data.draw(st.integers(1, n_features))
            ]
        )
        # from 1 up to infeasible (above n_rows / 2)
        min_samples_leaf = 1 + int(leaf_fraction * n_rows)
        expected = exact_split_oracle(
            X, indices, candidates, min_samples_leaf, criterion
        )
        with mock.patch.object(tree, "_MAX_SPLIT_CELLS", budget):
            actual = _exact_split(X, indices, candidates, min_samples_leaf, criterion)
        assert _bits(actual) == _bits(expected)

    @pytest.mark.parametrize("criterion_kind", CRITERIA)
    def test_all_constant_node_has_no_split(self, criterion_kind):
        rng = np.random.default_rng(0)
        X = np.ones((12, 3))
        criterion = _criterion(rng, 12, criterion_kind)
        split = _exact_split(X, np.arange(12), np.arange(3), 1, criterion)
        assert split == exact_split_oracle(X, np.arange(12), np.arange(3), 1, criterion)
        assert split == (tree._NO_SPLIT, 0.0, -np.inf)

    def test_tiny_budget_scores_one_column_per_block(self):
        # Feature 2 alone separates the classes; the one-column blocks
        # must carry the best across blocks, and the strict ">" keeps the
        # first of the two identical winners (features 2 and 4).
        rng = np.random.default_rng(1)
        y = np.array([0] * 10 + [1] * 10)
        X = rng.normal(size=(20, 5))
        X[:, 2] = y
        X[:, 4] = y
        criterion = _Gini(y, 2, None)
        candidates = np.array([0, 2, 1, 4, 3])
        with mock.patch.object(tree, "_MAX_SPLIT_CELLS", 1):
            split = _exact_split(X, np.arange(20), candidates, 1, criterion)
        assert split == (2, 0.5, 0.5)
        assert split == exact_split_oracle(X, np.arange(20), candidates, 1, criterion)
