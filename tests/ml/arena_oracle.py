"""The seed's per-tree prediction loops: the oracle the arena is diffed against.

:class:`repro.ml.arena.ForestArena` packs every tree of an ensemble and
descends them all at once; these loops descend each member tree on its
own (``_Tree.predict_value``) and aggregate in the same float order, so
the arena must match them byte for byte.  Test-only: ``src`` has one
inference engine.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier


def predict_exact(model, X: np.ndarray) -> np.ndarray:
    """What the arena path of ``model`` returns, through per-tree loops.

    Class probabilities for a :class:`RandomForestClassifier`,
    predictions for a :class:`RandomForestRegressor` and the raw
    additive score (``decision_function``) for a
    :class:`GradientBoostingClassifier`.  ``X`` is not validated, so
    NaN rows can be diffed too: they route right at every split, as in
    ``_Tree.predict_value``.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(model, RandomForestClassifier):
        aggregate = np.zeros((X.shape[0], model.classes_.size))
        for tree, columns in zip(model.trees_, model._align_tree_columns()):
            # ``predict_proba`` minus its validation, which rejects NaN.
            aggregate[:, columns] += tree.tree_.predict_value(X)
        aggregate /= len(model.trees_)
        return aggregate
    if isinstance(model, RandomForestRegressor):
        return np.mean([tree._predict(X) for tree in model.trees_], axis=0)
    if isinstance(model, GradientBoostingClassifier):
        raw = np.full(X.shape[0], model.initial_score_)
        for tree in model.trees_:
            raw += model.learning_rate * tree._predict(X)
        return raw
    raise TypeError(f"no per-tree oracle for {type(model).__name__}")
