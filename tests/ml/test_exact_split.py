"""The block exact split search against the per-feature loop it replaced.

``_exact_split`` scores every candidate feature of a node as one
``(n_node, block)`` block; ``exact_split_oracle`` is the former loop,
one feature at a time. For every criterion the two must return the same
``(feature, threshold, gain)`` bit for bit — the tie-break (first
candidate in draw order, then lowest cut) and the float operation order
of every gain included. A patched cell budget forces the search to
carry its running best across several column blocks.

For the unweighted two-class gini, ``_count_split`` finds the split by
counting rows per (candidate, value rank) instead of sorting; it must
return the same bytes as the same loop, and the grower must grow the
same trees whichever side of its size rule a node falls on.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import (
    _SSE,
    DecisionTreeClassifier,
    _count_split,
    _exact_split,
    _Gini,
    _ValueRanks,
)
from repro.obs import get_registry
from repro.parallel import shutdown_pool
from repro.parallel.calibration import set_serial_fallback_mode

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


def _tree_bytes(grown) -> bytes:
    arrays = (
        grown.feature_arr,
        grown.threshold_arr,
        grown.left_arr,
        grown.right_arr,
        grown.value_arr,
    )
    return b"".join(array.tobytes() for array in arrays)


def _node_counts() -> tuple[float, float]:
    registry = get_registry()
    return (
        registry.counter("tree_exact_nodes_total").value,
        registry.counter("tree_exact_count_nodes_total").value,
    )


class TestCountSplitParity:
    """The counting search against the same per-feature loop.

    Only the unweighted two-class gini counts. A node's rows are a
    forest member's: a bootstrap draw (duplicate rows included) whose
    rank codes are a row view of the forest-level build, so the member
    holds ranks of values none of its rows carry.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 40),
        column_kinds=st.lists(
            st.sampled_from(["constant", "discrete", "continuous"]),
            min_size=1,
            max_size=7,
        ),
        bootstrap=st.booleans(),
        leaf_fraction=st.floats(0.0, 0.7),
        data=st.data(),
    )
    def test_matches_per_feature_loop(
        self, seed, n_rows, column_kinds, bootstrap, leaf_fraction, data
    ):
        rng = np.random.default_rng(seed)
        n_total = n_rows + 5
        forest_X = np.column_stack(
            [_column(rng, n_total, kind) for kind in column_kinds]
        )
        sample = (
            rng.integers(0, n_total, size=n_total)
            if bootstrap
            else np.arange(n_total)
        )
        X = forest_X[sample]
        ranks = _ValueRanks.build(forest_X).take(sample)
        criterion = _criterion(rng, n_total, "binary")
        indices = rng.permutation(n_total)[:n_rows]
        n_features = X.shape[1]
        candidates = np.array(
            data.draw(st.permutations(range(n_features)))[
                : data.draw(st.integers(1, n_features))
            ]
        )
        min_samples_leaf = 1 + int(leaf_fraction * n_rows)
        expected = exact_split_oracle(
            X, indices, candidates, min_samples_leaf, criterion
        )
        feature, threshold, gain, child_masses = _count_split(
            ranks, indices, candidates, min_samples_leaf, criterion
        )
        assert _bits((feature, threshold, gain)) == _bits(expected)
        if feature == tree._NO_SPLIT:
            assert child_masses is None
            return
        go_left = X[indices, feature] <= threshold
        for side, mass in zip((indices[go_left], indices[~go_left]), child_masses):
            assert mass.tobytes() == criterion._class_mass(side).tobytes()

    def test_both_sides_of_the_size_rule_grow_the_same_tree(self):
        # Mixed columns: the few-valued ones count under the measured
        # rule, the continuous ones sort once nodes get small. Forcing
        # the rule shut and wide open must not change a byte.
        rng = np.random.default_rng(7)
        X = np.column_stack(
            [
                rng.integers(0, 4, 300),
                rng.normal(size=300),
                np.round(rng.normal(size=300), 1),
                rng.integers(0, 40, 300),
            ]
        ).astype(float)
        y = (X[:, 0] + X[:, 1] + rng.normal(0.0, 1.0, 300) > 1.5).astype(int)
        indices, candidates = np.arange(300), np.arange(4)
        ranks = _ValueRanks.build(X)
        grown = {}
        for keys_per_cell, counted in ((0, False), (10**9, True)):
            with mock.patch.object(tree, "_COUNT_MAX_KEYS_PER_CELL", keys_per_cell):
                assert ranks.counting_pays(candidates, indices.size) is counted
                before = _node_counts()
                model = DecisionTreeClassifier(max_features=2, seed=3).fit(X, y)
                exact, count = np.subtract(_node_counts(), before)
            assert exact > 1
            assert count == (exact if counted else 0)
            grown[counted] = _tree_bytes(model.tree_)
        assert grown[True] == grown[False]


    def test_matrix_without_features_grows_one_leaf(self):
        # No candidate holds a value, so no node may count.
        y = np.array([0, 1, 0, 1, 1])
        model = DecisionTreeClassifier().fit(np.empty((5, 0)), y)
        assert model.tree_.n_nodes == 1
        np.testing.assert_array_equal(model.tree_.value_arr, [[0.4, 0.6]])


class TestForestRankSharing:
    @pytest.fixture
    def forced_pool(self, monkeypatch):
        # Dispatch to the pool even for this tiny fit on any core count.
        monkeypatch.setenv("REPRO_PARALLEL_OVERSUBSCRIBE", "1")
        set_serial_fallback_mode("never")
        yield
        set_serial_fallback_mode("auto")
        shutdown_pool()

    def test_trees_bit_identical_at_n_jobs_1_and_2(self, forced_pool):
        rng = np.random.default_rng(11)
        X = np.column_stack(
            [rng.integers(0, 5, 400), rng.normal(size=400), rng.normal(size=400)]
            + [np.round(rng.normal(size=400), 1) for _ in range(3)]
        ).astype(float)
        y = (X[:, 0] - X[:, 2] + rng.normal(0.0, 1.0, 400) > 1.0).astype(int)

        def fit(n_jobs, keys_per_cell=tree._COUNT_MAX_KEYS_PER_CELL):
            before = _node_counts()
            with mock.patch.object(tree, "_COUNT_MAX_KEYS_PER_CELL", keys_per_cell):
                forest = RandomForestClassifier(
                    n_estimators=6, seed=5, n_jobs=n_jobs
                ).fit(X, y)
            counts = np.subtract(_node_counts(), before)
            return [_tree_bytes(member.tree_) for member in forest.trees_], counts

        serial, serial_counts = fit(1)
        parallel, _ = fit(2)
        sorted_only, sorted_counts = fit(1, keys_per_cell=0)
        assert serial == parallel == sorted_only
        assert 0 < serial_counts[1] < serial_counts[0]
        assert sorted_counts[0] == serial_counts[0] and sorted_counts[1] == 0
