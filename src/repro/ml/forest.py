"""Random forest classifier — the paper's best-performing algorithm.

Bootstrap-sampled CART trees with per-node feature subsampling, averaged
class probabilities. The paper finds tree ensembles degrade most
gracefully on the discontinuous CSS telemetry (§IV-(3)).

Tree growing is embarrassingly parallel: every tree's bootstrap sample
and seed are pre-derived from the master RNG in a fixed order, then the
fits fan out over :class:`repro.parallel.ParallelExecutor`. Because the
randomness is hoisted out of the (possibly out-of-order) workers, the
fitted forest is bit-identical at every ``n_jobs``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.arena import ArenaCached, ForestArena, cached_arena
from repro.ml.base import BaseClassifier, check_X, check_X_y
from repro.ml.binning import BinnedDataset
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _binned_for_fit,
    _check_split_algorithm,
    _ValueRanks,
)
from repro.obs import inc_counter, trace_span
from repro.parallel import ParallelExecutor, SharedPayload, share


def _derive_tree_plans(
    rng: np.random.Generator, n_estimators: int, n_samples: int, bootstrap: bool
) -> list[tuple[np.ndarray, int]]:
    """Pre-draw every tree's (bootstrap sample, seed) in serial RNG order."""
    plans = []
    for _ in range(n_estimators):
        if bootstrap:
            sample = rng.integers(0, n_samples, size=n_samples)
        else:
            sample = np.arange(n_samples)
        plans.append((sample, int(rng.integers(0, 2**31 - 1))))
    return plans


def _fit_tree(
    data: SharedPayload, sample: np.ndarray, seed: int, tree_cls: type, params: dict
):
    with trace_span("forest.fit_tree"):
        # The binning (hist) or value ranking (exact) happened
        # once in the parent and reached this worker copy-on-write; a
        # member takes a row gather of the codes.
        X, y, binned, ranks = data.get()
        tree = tree_cls(seed=seed, **params)
        member = {} if ranks is None else {"_ranks": ranks.take(sample)}
        tree.fit(
            X[sample],
            y[sample],
            binned=None if binned is None else binned.take(sample),
            **member,
        )
    inc_counter("forest_trees_fitted_total")
    return tree


#: Forest parameters passed verbatim to every member tree.
_MEMBER_PARAMS = (
    "max_depth",
    "min_samples_split",
    "min_samples_leaf",
    "max_features",
    "split_algorithm",
)


def _fit_members(
    forest,
    X: np.ndarray,
    y: np.ndarray,
    binned,
    tree_cls: type,
    param_names,
    ranks: _ValueRanks | None = None,
) -> None:
    """Fit ``forest.trees_`` from its bootstrap plans; set ``bin_edges_``.

    ``ranks`` are the value ranks of ``X`` (exact classifier forests);
    members whose gini is not binary and unweighted ignore them.
    """
    params = {name: getattr(forest, name) for name in param_names}
    rng = np.random.default_rng(forest.seed)
    plans = _derive_tree_plans(rng, forest.n_estimators, X.shape[0], forest.bootstrap)
    # Quantile-bin once in the parent; every tree (and every fork
    # worker, via copy-on-write) reuses the same codes.
    binned = _binned_for_fit(forest.split_algorithm, X, binned)
    with trace_span("forest.fit"), share((X, y, binned, ranks)) as data:
        forest.trees_ = ParallelExecutor(forest.n_jobs).starmap(
            _fit_tree,
            [(data, sample, seed, tree_cls, params) for sample, seed in plans],
        )
    forest.bin_edges_ = None if binned is None else binned.bin_edges
    forest._arena_ = None


class RandomForestClassifier(ArenaCached, BaseClassifier):
    """Bagged ensemble of decorrelated CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed to every member tree. ``max_features="sqrt"`` is the
        standard forest default.
    bootstrap:
        Draw each tree's training set with replacement when True.
    class_weight:
        ``None``, ``"balanced"``, or a label -> weight dict; passed to
        every member tree (cost-sensitive forests, cf. CSLE [24]).
    split_algorithm:
        ``"exact"`` (default) or ``"hist"`` — histogram split search
        over a quantile-binned dataset computed once per fit and shared
        by every tree (see :mod:`repro.ml.binning`).
    seed:
        Master seed; each tree derives its own stream.
    n_jobs:
        Worker processes for tree fitting; 1 is serial, -1 uses every
        core. Any value yields the same fitted forest.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        class_weight=None,
        split_algorithm: str = "exact",
        seed: int = 0,
        n_jobs: int = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.split_algorithm = _check_split_algorithm(split_algorithm)
        self.seed = seed
        self.n_jobs = n_jobs

    def fit(
        self, X: np.ndarray, y: np.ndarray, binned: BinnedDataset | None = None
    ) -> "RandomForestClassifier":
        X, y = check_X_y(X, y, ndims=(2,))
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        _fit_members(
            self,
            X,
            y,
            binned,
            DecisionTreeClassifier,
            _MEMBER_PARAMS + ("class_weight",),
            _ValueRanks.build(X) if self.split_algorithm == "exact" else None,
        )
        self.feature_importances_ = np.mean(
            [tree.feature_importances_ for tree in self.trees_], axis=0
        )
        # Trees may have seen different class subsets in their bootstrap;
        # precompute each tree's column alignment onto the forest's class
        # list once instead of rebuilding it on every predict_proba call.
        self._tree_columns_ = self._align_tree_columns()
        return self

    def _align_tree_columns(self) -> list[np.ndarray]:
        class_position = {label: i for i, label in enumerate(self.classes_)}
        return [
            np.array([class_position[label] for label in tree.classes_], dtype=np.intp)
            for tree in self.trees_
        ]

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        """Class probabilities, averaged over the member trees.

        With ``at_least``, rows whose second-class (positive) probability
        is proven below it part-way through the trees stop descending and
        come back NaN in every column; every row at or above it keeps
        its exact probabilities (:meth:`ForestArena.predict_mean`).
        """
        self._check_fitted()
        X = check_X(X, self.n_features_, ndims=(2,))
        tree_columns = getattr(self, "_tree_columns_", None)
        if tree_columns is None:  # forests unpickled from older checkpoints
            tree_columns = self._tree_columns_ = self._align_tree_columns()
        arena = cached_arena(
            self,
            lambda: ForestArena.from_trees(
                [tree.tree_ for tree in self.trees_],
                self.n_features_,
                n_outputs=self.classes_.size,
                tree_columns=tree_columns,
            ),
        )
        return arena.predict_mean(X, at_least=at_least)


class RandomForestRegressor(ArenaCached):
    """Bagged ensemble of CART regression trees.

    Used by the remaining-useful-life extension
    (:mod:`repro.core.rul`); mirrors the classifier's configuration,
    including bit-identical parallel fitting via ``n_jobs``.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        split_algorithm: str = "exact",
        seed: int = 0,
        n_jobs: int = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.split_algorithm = _check_split_algorithm(split_algorithm)
        self.seed = seed
        self.n_jobs = n_jobs

    def fit(
        self, X: np.ndarray, y: np.ndarray, binned: BinnedDataset | None = None
    ) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("invalid shapes for RandomForestRegressor")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("inputs contain NaN or infinite values")
        self.n_features_ = X.shape[1]
        _fit_members(self, X, y, binned, DecisionTreeRegressor, _MEMBER_PARAMS)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "trees_"):
            raise RuntimeError("RandomForestRegressor is not fitted yet")
        X = check_X(X, self.n_features_, ndims=(2,))
        arena = cached_arena(
            self,
            lambda: ForestArena.from_trees(
                [tree.tree_ for tree in self.trees_], self.n_features_
            ),
        )
        return np.mean(arena.predict_stack(X), axis=0)
