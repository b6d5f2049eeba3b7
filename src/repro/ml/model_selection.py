"""Hyperparameter search and generic cross-validation splitters.

The paper tunes each algorithm with grid search combined with its
time-series cross-validation (§III-C(4)). The splitter is pluggable so
the same grid search runs with either the naive k-fold here or
:class:`repro.core.splitting.TimeSeriesCrossValidator`.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.ml.base import BaseClassifier, clone
from repro.ml.binning import get_binned
from repro.ml.metrics import accuracy
from repro.obs import inc_counter, observe_histogram, trace_span
from repro.parallel import ParallelExecutor, SharedPayload, share

Splitter = Callable[[np.ndarray, np.ndarray], Iterable[tuple[np.ndarray, np.ndarray]]]


def mean_defined_score(scores) -> float:
    """Mean over the *defined* (non-NaN) fold scores.

    A fold whose score is undefined — e.g. :func:`repro.core.selection.
    youden_score` on a fold with no positives — is skipped rather than
    dragged in as 0, so one degenerate fold cannot mask a good
    candidate. All-NaN folds yield NaN (the candidate is unrankable).
    """
    scores = np.asarray(scores, dtype=float)
    defined = scores[~np.isnan(scores)]
    if defined.size == 0:
        return float("nan")
    return float(defined.mean())


def _uses_hist(estimator: BaseClassifier) -> bool:
    return getattr(estimator, "split_algorithm", "exact") == "hist"


def _prewarm_fold_bins(X: np.ndarray, folds) -> None:
    """Bin every CV train fold once, parent-side, before any fan-out.

    Edges are fitted on the train fold only (no future leak — the same
    guard ``TimeSeriesCrossValidator`` enforces on the fold geometry).
    Every later (candidate, fold) fit looks the entry up by fingerprint:
    a hit in-process at ``n_jobs=1``, and a hit through the fork-
    inherited copy-on-write cache inside pool workers.
    """
    for train_indices, _ in folds:
        get_binned(X, train_indices)


def _fit_and_score_fold(
    data: SharedPayload,
    estimator: BaseClassifier,
    train_indices: np.ndarray,
    validation_indices: np.ndarray,
    scoring: Callable[[np.ndarray, np.ndarray], float],
) -> float:
    """One (estimator, fold) evaluation; the unit of CV parallelism."""
    started = time.perf_counter()
    with trace_span("cv.fit_fold"):
        X, y = data.get()
        model = clone(estimator)
        if _uses_hist(model):
            model.fit(
                X[train_indices],
                y[train_indices],
                binned=get_binned(X, train_indices),
            )
        else:
            model.fit(X[train_indices], y[train_indices])
        predictions = model.predict(X[validation_indices])
        score = float(scoring(y[validation_indices], predictions))
    observe_histogram("cv_fold_fit_seconds", time.perf_counter() - started)
    return score


class ParameterGrid:
    """Iterate over the cartesian product of a parameter grid dict."""

    def __init__(self, grid: Mapping[str, Sequence]):
        if not grid:
            raise ValueError("parameter grid must not be empty")
        for name, values in grid.items():
            if len(values) == 0:
                raise ValueError(f"parameter {name!r} has no candidate values")
        self.grid = dict(grid)

    def __iter__(self) -> Iterator[dict]:
        names = sorted(self.grid)
        for combination in itertools.product(*(self.grid[name] for name in names)):
            yield dict(zip(names, combination))

    def __len__(self) -> int:
        product = 1
        for values in self.grid.values():
            product *= len(values)
        return product


class KFold:
    """Plain (non-temporal) k-fold splitter — the paper's strawman.

    Shuffling mixes future and past records, which is exactly the leakage
    the time-series CV of Fig. 8(b) avoids; the ablation benches compare
    the two.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int = 0):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(
        self, X: np.ndarray, y: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n_samples = np.asarray(X).shape[0]
        if n_samples < self.n_splits:
            raise ValueError(f"cannot split {n_samples} samples into {self.n_splits} folds")
        indices = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.seed).shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for held_out in range(self.n_splits):
            validation = folds[held_out]
            training = np.concatenate(
                [folds[i] for i in range(self.n_splits) if i != held_out]
            )
            yield training, validation


def cross_val_score(
    estimator: BaseClassifier,
    X: np.ndarray,
    y: np.ndarray,
    splitter,
    scoring: Callable[[np.ndarray, np.ndarray], float] = accuracy,
    n_jobs: int = 1,
) -> np.ndarray:
    """Score a fresh clone of ``estimator`` on every CV fold.

    With ``n_jobs > 1`` the folds are fitted on a worker pool; ``X``/``y``
    are handed to the workers fork-inherited (never pickled per fold) and
    the scores come back in fold order, identical to the serial run.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    folds = list(splitter.split(X, y))
    if _uses_hist(estimator):
        _prewarm_fold_bins(X, folds)
    with share((X, y)) as data:
        scores = ParallelExecutor(n_jobs).starmap(
            _fit_and_score_fold,
            [(data, estimator, train, validation, scoring) for train, validation in folds],
        )
    return np.asarray(scores)


class GridSearchCV:
    """Exhaustive hyperparameter search over a CV splitter.

    Parameters
    ----------
    estimator:
        Prototype estimator; cloned for every (candidate, fold) pair.
    param_grid:
        Mapping of parameter name to candidate values.
    splitter:
        Object with ``split(X, y)`` yielding (train, validation) index
        pairs — e.g. :class:`KFold` or the MFPA time-series CV.
    scoring:
        ``scoring(y_true, y_pred) -> float``; higher is better.
    refit:
        When True, refit the best candidate on all data after the search.
    n_jobs:
        Worker processes; the search fans out over every
        (candidate, fold) pair at once, so even a two-candidate grid
        saturates the pool when the splitter has several folds. Results
        (``results_``, ``best_params_``) are identical at every value.
    """

    def __init__(
        self,
        estimator: BaseClassifier,
        param_grid: Mapping[str, Sequence],
        splitter,
        scoring: Callable[[np.ndarray, np.ndarray], float] = accuracy,
        refit: bool = True,
        n_jobs: int = 1,
    ):
        self.estimator = estimator
        self.param_grid = ParameterGrid(param_grid)
        self.splitter = splitter
        self.scoring = scoring
        self.refit = refit
        self.n_jobs = n_jobs

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        with trace_span("grid_search.fit"):
            return self._fit(np.asarray(X), np.asarray(y))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        candidates = list(self.param_grid)
        folds = list(self.splitter.split(X, y))
        # Counted parent-side so the totals are exact at every n_jobs,
        # even when metric capture (worker shipping) is off.
        inc_counter("mfpa_grid_search_candidates_total", len(candidates))
        inc_counter("mfpa_grid_search_fits_total", len(candidates) * len(folds))
        if _uses_hist(self.estimator) or any(
            params.get("split_algorithm") == "hist" for params in candidates
        ):
            _prewarm_fold_bins(X, folds)
        with share((X, y)) as data:
            flat_scores = ParallelExecutor(self.n_jobs).starmap(
                _fit_and_score_fold,
                [
                    (
                        data,
                        clone(self.estimator).set_params(**params),
                        train,
                        validation,
                        self.scoring,
                    )
                    for params in candidates
                    for train, validation in folds
                ],
            )

        self.results_: list[dict] = []
        best_score = -np.inf
        best_params: dict = {}
        for index, params in enumerate(candidates):
            fold_scores = flat_scores[index * len(folds) : (index + 1) * len(folds)]
            mean_score = mean_defined_score(fold_scores)
            self.results_.append(
                {
                    "params": params,
                    "mean_score": mean_score,
                    "fold_scores": list(fold_scores),
                }
            )
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
        self.best_score_ = best_score
        self.best_params_ = best_params
        if self.refit:
            self.best_estimator_ = clone(self.estimator).set_params(**best_params)
            self.best_estimator_.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "best_estimator_"):
            raise RuntimeError("GridSearchCV is not fitted (or refit=False)")
        return self.best_estimator_.predict(X)

    def predict_proba(
        self, X: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        if not hasattr(self, "best_estimator_"):
            raise RuntimeError("GridSearchCV is not fitted (or refit=False)")
        return self.best_estimator_.predict_proba(X, at_least=at_least)
