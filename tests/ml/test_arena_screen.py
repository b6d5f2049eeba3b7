"""Screened forest probabilities against the unscreened ones.

``RandomForestClassifier.predict_proba(X, at_least=t)`` may stop
walking a row once the trees left cannot lift its positive-class mean
to ``t``; such a row comes back NaN in every column.  The contract:

* a row that is not NaN is byte-identical to unscreened ``predict_proba``;
* every row whose unscreened probability is at least ``t`` is kept;
* every NaN row's unscreened probability is below ``t``.

It must hold on both walks (a lane-walk chunk is scored in full), at
any row chunking, for forests whose members never saw class 1, and at
thresholds exactly equal to some row's mean.  Hand-built stump forests
pin the bound itself: which tree drops a row, the rounding slack and
the float order of the survivors' sums.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import arena
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.logistic import LogisticRegression
from repro.obs import get_registry

from tests.ml.test_arena_partition import (
    WALKS,
    _classifier,
    _force,
    _problem,
    _rows,
    _walk_at,
)

pytestmark = pytest.mark.smoke


def _rare_positives(algo: str) -> RandomForestClassifier:
    """A binary forest where some bootstraps drew no positive row."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 5))
    y = np.zeros(40, dtype=int)
    y[[3, 17]] = 1
    X[[3, 17], :2] += 2.0
    model = RandomForestClassifier(
        n_estimators=20, max_depth=6, seed=1, split_algorithm=algo
    ).fit(X, y)
    assert any(tree.classes_.size == 1 for tree in model.trees_)
    return model


def _binary(algo: str) -> RandomForestClassifier:
    return RandomForestClassifier(
        n_estimators=12, max_depth=7, seed=0, split_algorithm=algo
    ).fit(*_problem(0))


#: Class 1 is screened; in ``three_classes`` (the partition tests'
#: forest) a rare class 2 is missing from some members.
FORESTS = {
    "rare_positives": _rare_positives,
    "binary": _binary,
    "three_classes": _classifier,
}
_FITTED = {}


def _forest(name: str, algo: str) -> RandomForestClassifier:
    key = (name, algo)
    if key not in _FITTED:
        _FITTED[key] = FORESTS[name](algo)
    return _FITTED[key]


def _assert_screen_contract(full: np.ndarray, screened: np.ndarray,
                            at_least: float) -> np.ndarray:
    """Check the contract; return the NaN-row mask."""
    assert screened.shape == full.shape and screened.dtype == full.dtype
    dropped = np.isnan(screened).any(axis=1)
    assert np.array_equal(dropped, np.isnan(screened).all(axis=1))
    assert screened[~dropped].tobytes() == full[~dropped].tobytes()
    assert not np.any(dropped & (full[:, 1] >= at_least))
    assert np.all(full[dropped, 1] < at_least)
    return dropped


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(FORESTS)),
    algo=st.sampled_from(["exact", "hist"]),
    walk=st.sampled_from(sorted(WALKS)),
    n_rows=st.integers(0, 200),
    chunk_rows=st.integers(1, 96),
    seed=st.integers(0, 2**16),
    at_row_mean=st.booleans(),
    data=st.data(),
)
def test_screened_rows_keep_the_contract(
    name, algo, walk, n_rows, chunk_rows, seed, at_row_mean, data
):
    model = _forest(name, algo)
    rows = _rows(seed, n_rows)
    full = model.predict_proba(rows)
    means = full[:, 1][(full[:, 1] >= 0.01) & (full[:, 1] <= 0.99)]
    if at_row_mean and means.size:
        at_least = float(data.draw(st.sampled_from(means.tolist())))
    else:
        at_least = data.draw(st.floats(0.01, 0.99))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena, "_MAX_LANES", chunk_rows * len(model.trees_))
        _force(patch, walk)
        screened = model.predict_proba(rows, at_least=at_least)
    _assert_screen_contract(full, screened, at_least)


@pytest.mark.parametrize("name", sorted(FORESTS))
def test_a_partitioned_window_drops_rows(monkeypatch, name):
    """At the shipped constants a batch of ``partition_min_rows()`` is
    partitioned and screened: rows far from the threshold leave the
    walk, and the lane counter splits the chunk's ``trees × rows``
    lanes."""
    model = _forest(name, "exact")
    model.predict_proba(_rows(8, 2))  # build the arena
    rows = _rows(8, model._arena_.partition_min_rows())
    full = model.predict_proba(rows)
    at_least = 0.9
    registry = get_registry()
    registry.reset()
    screened = model.predict_proba(rows, at_least=at_least)
    dropped = _assert_screen_contract(full, screened, at_least)
    assert dropped.any()
    lanes = {
        outcome: registry.counter(
            "predict_screened_lanes_total", outcome=outcome
        ).value
        for outcome in ("walked", "skipped")
    }
    partitioned = registry.counter("predict_partition_rows_total").value
    assert partitioned == rows.shape[0]
    assert lanes["walked"] + lanes["skipped"] == len(model.trees_) * partitioned
    assert lanes["skipped"] > 0


def test_unscreened_calls_walk_every_lane():
    model = _forest("binary", "exact")
    model.predict_proba(_rows(9, 2))
    rows = _rows(9, model._arena_.partition_min_rows())
    registry = get_registry()
    registry.reset()
    model.predict_proba(rows)
    assert registry.counter(
        "predict_screened_lanes_total", outcome="walked"
    ).value == 0


def test_single_class_forest_is_not_screened():
    X = np.random.default_rng(0).normal(size=(30, 5))
    model = RandomForestClassifier(n_estimators=4, seed=0).fit(
        X, np.zeros(30, dtype=int)
    )
    rows = _rows(2, 2000)
    assert model.predict_proba(rows, at_least=0.5).tobytes() == (
        model.predict_proba(rows).tobytes()
    )


def _classifier_classes(cls=BaseClassifier):
    for sub in cls.__subclasses__():
        yield sub
        yield from _classifier_classes(sub)


def test_every_classifier_accepts_at_least():
    for cls in _classifier_classes():
        assert "at_least" in inspect.signature(cls.predict_proba).parameters


@pytest.mark.parametrize(
    "model", [LogisticRegression(), GradientBoostingClassifier(n_estimators=5)]
)
def test_models_that_cannot_screen_stay_exact(model):
    X, y = _rows(1, 200), np.random.default_rng(1).integers(0, 2, 200)
    model.fit(X, y)
    rows = _rows(3, 50)
    assert model.predict_proba(rows, at_least=0.99).tobytes() == (
        model.predict_proba(rows).tobytes()
    )


# --------------------------------------------------- hand-built stumps


def _stumps(left, right) -> arena.ForestArena:
    """Tree ``t``: ``x0 <= 0`` reaches a leaf of positive-class value
    ``left[t]``, else one of ``right[t]`` (class 0 takes the rest)."""
    n_trees = len(left)
    no = arena._NO_SPLIT
    feature = np.tile([0, no, no], n_trees)
    base = 3 * np.arange(n_trees)
    child = np.empty(6 * n_trees, dtype=np.int64)
    child[0::6], child[1::6] = base + 1, base + 2
    child[2::6] = child[3::6] = base + 1
    child[4::6] = child[5::6] = base + 2
    positive = np.full(3 * n_trees, 0.5)
    positive[base + 1], positive[base + 2] = left, right
    return arena.ForestArena(
        feature=feature,
        threshold=np.zeros(3 * n_trees),
        child=child,
        values=np.column_stack([1.0 - positive, positive]),
        roots=base,
        n_features=1,
        max_depth=1,
    )


LEFT, RIGHT = np.array([[-1.0]]), np.array([[1.0]])


def _lanes() -> tuple[float, float]:
    registry = get_registry()
    return tuple(
        registry.counter("predict_screened_lanes_total", outcome=o).value
        for o in ("walked", "skipped")
    )


def test_a_row_leaves_right_after_the_tree_that_settles_it(monkeypatch):
    """Four trees, leaves 0 (left) or 1 (right), threshold 0.5: after
    tree ``t`` the left rows can still reach ``3 - t``, which drops
    below the needed 2 after tree 2, so they walk three trees; the
    right rows walk all four."""
    _walk_at(monkeypatch, 0)
    table = _stumps([0.0] * 4, [1.0] * 4)
    rows = np.array([[-1.0], [1.0], [-2.0], [3.0], [-0.5]])
    get_registry().reset()
    got = table.predict_mean(rows, at_least=0.5)
    assert np.isnan(got[[0, 2, 4]]).all()
    assert got[[1, 3]].tolist() == [[0.0, 1.0], [0.0, 1.0]]
    assert _lanes() == (3 * 3 + 2 * 4, 3)


def test_a_mean_equal_to_the_threshold_is_kept(monkeypatch):
    """``(0.1 + 0.0) + 0.7`` is 0.7999999999999999, a mean of
    0.26666666666666666, but three times that mean rounds to 0.8: only
    the slack keeps this row, whose mean is exactly the threshold."""
    _walk_at(monkeypatch, 0)
    table = _stumps([0.1, 0.0, 0.7], [0.0, 0.0, 0.0])
    rows = np.vstack([LEFT, RIGHT])
    full = table.predict_mean(rows)
    at_least = float(full[0, 1])
    assert 3 * at_least > 0.1 + 0.0 + 0.7
    screened = table.predict_mean(rows, at_least=at_least)
    assert screened[0].tobytes() == full[0].tobytes()
    assert np.isnan(screened[1]).all()


def test_survivors_sum_in_tree_order(monkeypatch):
    """``(0.1 + 0.2) + 0.3`` and ``0.1 + (0.2 + 0.3)`` differ in the
    last bit, and so do the class-0 sums: a survivor's probabilities
    follow the trees' order in every column."""
    _walk_at(monkeypatch, 0)
    table = _stumps([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    rows = np.vstack([LEFT, RIGHT, LEFT])
    full = table.predict_mean(rows)
    assert full[0, 1] == 0.6000000000000001 / 3
    screened = table.predict_mean(rows, at_least=0.1)
    assert screened[[0, 2]].tobytes() == full[[0, 2]].tobytes()
    assert np.isnan(screened[1]).all()
