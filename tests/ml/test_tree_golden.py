"""Golden digests of grown trees.

Every tree-based estimator is fitted on a fixed continuous-feature
problem and its grown arrays — ``tree_.feature``, ``tree_.threshold``,
``tree_.value`` and, where the estimator has them,
``feature_importances_`` — are hashed with sha256. The digests pin the
growth algorithm itself: split choice and tie-breaks, thresholds
(including the lossy quantile-binned ``"hist"`` thresholds), leaf
values, importance bookkeeping, and the per-node RNG draw order of
``max_features`` subsampling. ``test_hist_parity.py`` compares the two
split backends at one commit; this file compares the grower across
commits, so a refactor of the growth loop that changes any grown tree
fails here.

The digests cover exact float bytes, so they assume numpy rounds its
reductions the same way on the machine running the suite.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.binning import clear_binned_cache
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

pytestmark = pytest.mark.smoke

N_ROWS = 400
N_FEATURES = 6


@pytest.fixture(autouse=True)
def clean_cache():
    clear_binned_cache()
    yield
    clear_binned_cache()


def _features(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (N_ROWS, N_FEATURES))


def _binary_labels(X: np.ndarray) -> np.ndarray:
    noise = np.random.default_rng(1).normal(0.0, 0.6, X.shape[0])
    # Imbalanced (~25% positive) so class_weight="balanced" matters.
    return (X[:, 0] + 0.7 * X[:, 2] - 0.5 * X[:, 4] + noise > 0.9).astype(int)


def _three_class_labels(X: np.ndarray) -> np.ndarray:
    noise = np.random.default_rng(2).normal(0.0, 0.5, X.shape[0])
    score = X[:, 1] - X[:, 3] + noise
    return np.digitize(score, [-0.6, 0.6])


def _regression_target(X: np.ndarray) -> np.ndarray:
    noise = np.random.default_rng(3).normal(0.0, 0.3, X.shape[0])
    return np.sin(X[:, 0]) * 2.0 + X[:, 1] * X[:, 5] + noise


def _digest_trees(trees, importances=None) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        for array in (
            np.asarray(tree.feature_arr, dtype=np.int64),
            np.asarray(tree.threshold_arr, dtype=np.float64),
            np.asarray(tree.value_arr, dtype=np.float64),
        ):
            digest.update(repr(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    if importances is not None:
        digest.update(np.asarray(importances, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _classifier(algorithm, labels, **params):
    X = _features()
    y = labels(X)
    model = DecisionTreeClassifier(
        max_depth=8, split_algorithm=algorithm, seed=11, **params
    ).fit(X, y)
    return _digest_trees([model.tree_], model.feature_importances_)


def _regressor(algorithm, **params):
    X = _features()
    model = DecisionTreeRegressor(
        max_depth=6, split_algorithm=algorithm, seed=13, **params
    ).fit(X, _regression_target(X))
    return _digest_trees([model.tree_])


def _gbdt(algorithm, **params):
    X = _features()
    model = GradientBoostingClassifier(
        n_estimators=12, max_depth=3, split_algorithm=algorithm, seed=17, **params
    ).fit(X, _binary_labels(X))
    return _digest_trees([tree.tree_ for tree in model.trees_])


def _forest_classifier(algorithm):
    X = _features()
    model = RandomForestClassifier(
        n_estimators=4, max_depth=7, split_algorithm=algorithm, seed=19
    ).fit(X, _binary_labels(X))
    return _digest_trees(
        [tree.tree_ for tree in model.trees_], model.feature_importances_
    )


def _forest_regressor(algorithm):
    X = _features()
    model = RandomForestRegressor(
        n_estimators=4, max_depth=6, split_algorithm=algorithm, seed=23
    ).fit(X, _regression_target(X))
    return _digest_trees([tree.tree_ for tree in model.trees_])


CASES = {
    "classifier-exact-binary": lambda: _classifier("exact", _binary_labels),
    "classifier-hist-binary": lambda: _classifier("hist", _binary_labels),
    "classifier-exact-balanced": lambda: _classifier(
        "exact", _binary_labels, class_weight="balanced"
    ),
    "classifier-hist-balanced": lambda: _classifier(
        "hist", _binary_labels, class_weight="balanced"
    ),
    "classifier-exact-3class": lambda: _classifier("exact", _three_class_labels),
    "classifier-hist-3class": lambda: _classifier("hist", _three_class_labels),
    "classifier-exact-sqrt": lambda: _classifier(
        "exact", _binary_labels, max_features="sqrt"
    ),
    "classifier-hist-sqrt": lambda: _classifier(
        "hist", _binary_labels, max_features="sqrt"
    ),
    "regressor-exact-all": lambda: _regressor("exact"),
    "regressor-hist-all": lambda: _regressor("hist"),
    "regressor-exact-sqrt": lambda: _regressor("exact", max_features="sqrt"),
    "regressor-hist-sqrt": lambda: _regressor("hist", max_features="sqrt"),
    "gbdt-exact": lambda: _gbdt("exact"),
    "gbdt-hist": lambda: _gbdt("hist"),
    "gbdt-hist-subsample": lambda: _gbdt("hist", subsample=0.7),
    "forest-classifier-exact": lambda: _forest_classifier("exact"),
    "forest-classifier-hist": lambda: _forest_classifier("hist"),
    "forest-regressor-exact": lambda: _forest_regressor("exact"),
    "forest-regressor-hist": lambda: _forest_regressor("hist"),
}

GOLDEN = {
    "classifier-exact-3class": "d3e38ea11f59bab0cd54490a47f02639c5d0ef5b0c3b24ce2ea173df4bd5da59",
    "classifier-exact-balanced": "be91a09a4acfd495f1529f4e0e7da46e7eb485fb4c5303f7ed6e71599e343edd",
    "classifier-exact-binary": "9192be49f0558a67e1d91bd9fb33615bdcdc3a57f0c22671e5939adfad5d31c6",
    "classifier-exact-sqrt": "d2ff67e786fe9048ae2809a71cbe3eed923c1d5e764aa546c9f298487036113d",
    "classifier-hist-3class": "2917da54f62f0772aad3cfd6c447fc9bb6e00029c0b96eaa3a724e38ede27fa2",
    "classifier-hist-balanced": "54621243d48f2eb72ad6b86d91379da72e62ed7dd5e8a5a4016423f12de278b2",
    "classifier-hist-binary": "a96f0d0cd76a22e085e77231ebe42b201fea7ba14a71780bbeeebb7338756074",
    "classifier-hist-sqrt": "0a52d67dd4ba4d33e93d1c9778332fa31ef632e97c45b54a0e3202148a17348f",
    "forest-classifier-exact": "1f139dfecc3f2a50297ad0507cc12efb7b678cc1ff660844d9b8dfe691314df9",
    "forest-classifier-hist": "021efc7fe64fdeedbec64dcfbcbf5f56cac3df76c049a1768ee839625523c08c",
    "forest-regressor-exact": "64215fcfc06f65cbd913405b4351162e488b1eddea1e9060393c706d8bf886df",
    "forest-regressor-hist": "17a8e6d92c52718fcf58d76f2c9103f64a3818ffe7194ebefe24811f8dcfa9d6",
    "gbdt-exact": "4bed3bf284951cf186dcc6569b655f1bb8acebe79d85c9c4451732129539251f",
    "gbdt-hist": "d9c3be062bc26770817851849d0966379519848f62e7b5d48b80ca1eda82d56c",
    "gbdt-hist-subsample": "560da9af7f98c615c28958b36b17b645ea15e43d96ed0d36cb6b7135d5e67d71",
    "regressor-exact-all": "55d6fe6cdae37f6b1d668d9cd50a221b090edcdeb37b637f3600064c0534431c",
    "regressor-exact-sqrt": "b55fdb2a0cfc6fa1c0d07b42e5ed10daafff1808616b9882325f7f12ae23cb3d",
    "regressor-hist-all": "d1b31ade751fb5c9400e1102fbcf33e3ce63ccf3b9aba7640eb8e0f41c33e5c2",
    "regressor-hist-sqrt": "98660b43c95a80c2d3926b0aff09ec61aaab9fed3fcbe431e45fde977935c568",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_grown_trees_match_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


@pytest.mark.parametrize(
    "make, target",
    [
        (lambda algorithm: DecisionTreeRegressor(
            max_depth=6, split_algorithm=algorithm, seed=13
        ), _regression_target),
        (lambda algorithm: DecisionTreeClassifier(
            max_depth=8, split_algorithm=algorithm, seed=11
        ), _binary_labels),
    ],
    ids=["regressor", "classifier"],
)
def test_hist_cases_reach_subtraction_with_lossy_bins(make, target):
    """The all-features hist configurations are meant to pin the
    parent-minus-sibling histogram path and lossy bin thresholds: the
    root splits into two further-split children that both hold at least
    64 rows (the subtraction trigger), and the hist thresholds differ
    from the exact backend's."""
    X = _features()
    y = target(X)
    tree = make("hist").fit(X, y).tree_
    go_left = X[:, tree.feature_arr[0]] <= tree.threshold_arr[0]
    assert min(go_left.sum(), (~go_left).sum()) >= 64
    assert tree.feature_arr[tree.left_arr[0]] != -1
    assert tree.feature_arr[tree.right_arr[0]] != -1
    exact = make("exact").fit(X, y).tree_
    assert not np.array_equal(tree.threshold_arr, exact.threshold_arr)
