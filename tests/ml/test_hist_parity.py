"""Exact-vs-hist split-backend parity.

Three layers of guarantee are pinned here:

1. **Lossless parity** — when every feature has few distinct values the
   quantile binning is lossless (midpoint edges), and the hist backend
   must grow *identical* trees to the exact backend: same structure,
   same thresholds, same leaf values. GBDT is the one exception — its
   regression targets are continuous residuals, so float summation
   order can flip a near-tied split; there the guarantee is agreement,
   not identity.
2. **Statistical parity** — on the Table-V SFWB workload the backends
   agree within 0.5 pt TPR/FPR at every ``n_jobs``.
3. **Binning amortization** — a grid search builds the BinnedDataset
   once per CV fold; every (candidate, fold) fit is a cache hit.
"""

import time

import numpy as np
import pytest

from repro.core.pipeline import MFPA, MFPAConfig
from repro.ml.binning import clear_binned_cache
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.model_selection import GridSearchCV, KFold
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs import get_registry
from repro.parallel import fork_available


@pytest.fixture(autouse=True)
def clean_cache():
    clear_binned_cache()
    yield
    clear_binned_cache()


def _counter(name: str) -> float:
    return get_registry().counter(name).value


def _small_int_problem(seed: int, n: int = 300, n_features: int = 5):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, (n, n_features)).astype(float)
    y = ((X[:, 0] + X[:, 2] > 7) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


def _assert_same_tree(a, b):
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.threshold, b.threshold)
    np.testing.assert_array_equal(a.value, b.value)


class TestLosslessParity:
    """Small-integer features -> identical trees, seed by seed."""

    @pytest.mark.parametrize("seed", range(8))
    def test_classifier_trees_identical(self, seed):
        X, y = _small_int_problem(seed)
        exact = DecisionTreeClassifier(max_depth=6, seed=seed).fit(X, y)
        hist = DecisionTreeClassifier(
            max_depth=6, split_algorithm="hist", seed=seed
        ).fit(X, y)
        _assert_same_tree(exact.tree_, hist.tree_)
        np.testing.assert_array_equal(
            exact.feature_importances_, hist.feature_importances_
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_regressor_trees_identical(self, seed):
        X, _ = _small_int_problem(seed)
        y = X[:, 1] * 2 + X[:, 3]
        exact = DecisionTreeRegressor(max_depth=5, seed=seed).fit(X, y)
        hist = DecisionTreeRegressor(
            max_depth=5, split_algorithm="hist", seed=seed
        ).fit(X, y)
        _assert_same_tree(exact.tree_, hist.tree_)

    @pytest.mark.parametrize("seed", range(4))
    def test_feature_subsampled_trees_identical(self, seed):
        # max_features < n_features disables the subtraction trick;
        # the per-node histogram path must still match exactly.
        X, y = _small_int_problem(seed)
        exact = DecisionTreeClassifier(
            max_depth=6, max_features="sqrt", seed=seed
        ).fit(X, y)
        hist = DecisionTreeClassifier(
            max_depth=6, max_features="sqrt", split_algorithm="hist", seed=seed
        ).fit(X, y)
        _assert_same_tree(exact.tree_, hist.tree_)

    @pytest.mark.parametrize("seed", range(4))
    def test_class_weighted_trees_agree(self, seed):
        # Weighted class masses are floats the two backends accumulate
        # in different orders, so (like GBDT residuals) a near-tied
        # split may flip; the pin is agreement, not bit-identity.
        X, y = _small_int_problem(seed)
        exact = DecisionTreeClassifier(
            max_depth=6, class_weight="balanced", seed=seed
        ).fit(X, y)
        hist = DecisionTreeClassifier(
            max_depth=6, class_weight="balanced", split_algorithm="hist", seed=seed
        ).fit(X, y)
        assert (exact.predict(X) == hist.predict(X)).mean() >= 0.99

    @pytest.mark.parametrize("seed", range(4))
    def test_forest_identical(self, seed):
        X, y = _small_int_problem(seed)
        exact = RandomForestClassifier(
            n_estimators=8, max_depth=5, seed=seed
        ).fit(X, y)
        hist = RandomForestClassifier(
            n_estimators=8, max_depth=5, split_algorithm="hist", seed=seed
        ).fit(X, y)
        np.testing.assert_array_equal(
            exact.predict_proba(X), hist.predict_proba(X)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_gbdt_agrees(self, seed):
        # GBDT fits trees to continuous residuals, where the two
        # backends sum gains in different float orders; identity can
        # flip on a near-tie, so the pin is agreement, not bit-equality.
        X, y = _small_int_problem(seed)
        exact = GradientBoostingClassifier(n_estimators=20, seed=seed).fit(X, y)
        hist = GradientBoostingClassifier(
            n_estimators=20, split_algorithm="hist", seed=seed
        ).fit(X, y)
        np.testing.assert_allclose(
            exact.predict_proba(X), hist.predict_proba(X), atol=0.02
        )
        assert (exact.predict(X) == hist.predict(X)).mean() >= 0.99

    def test_unweighted_binary_matches_general_path(self):
        # Three-class input forces the general (n_classes-dim) histogram
        # layout; collapsing a class back to binary must route through
        # the lean two-class path and still grow the identical tree.
        X, _ = _small_int_problem(0)
        rng = np.random.default_rng(0)
        y3 = rng.integers(0, 3, X.shape[0])
        exact = DecisionTreeClassifier(max_depth=5).fit(X, y3)
        hist = DecisionTreeClassifier(max_depth=5, split_algorithm="hist").fit(X, y3)
        _assert_same_tree(exact.tree_, hist.tree_)


class TestTableVTolerance:
    """Exact and hist agree on the Table-V SFWB workload at n_jobs 1 / 4.

    The tier-1 fleet has only ~11 faulty eval drives, so a single
    borderline drive moves drive-level TPR by ~9 pt — the paper-scale
    |dTPR|, |dFPR| <= 0.5 pt pin therefore runs on the (much larger)
    ``make bench-hist`` workload, while this test asserts agreement to
    the finest resolution this fleet supports: within one sample
    quantum on both the drive- and record-level reports.
    """

    @pytest.fixture(scope="class")
    def reports(self, small_fleet):
        def train(split_algorithm, n_jobs):
            model = MFPA(
                MFPAConfig(
                    feature_group_name="SFWB",
                    split_algorithm=split_algorithm,
                    n_jobs=n_jobs,
                )
            )
            model.fit(small_fleet, train_end_day=240)
            result = model.evaluate(240, 360)
            return result.drive_report, result.record_report

        out = {("exact", 1): train("exact", 1), ("hist", 1): train("hist", 1)}
        if fork_available():
            out[("hist", 4)] = train("hist", 4)
        return out

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_drive_level_tpr_fpr_agree(self, reports, n_jobs):
        if ("hist", n_jobs) not in reports:
            pytest.skip("parallel path requires fork")
        exact, hist = reports[("exact", 1)][0], reports[("hist", n_jobs)][0]
        tpr_quantum = 1.0 / max(exact.tp + exact.fn, 1)
        fpr_quantum = 1.0 / max(exact.fp + exact.tn, 1)
        assert abs(exact.tpr - hist.tpr) <= max(0.005, tpr_quantum) + 1e-9
        assert abs(exact.fpr - hist.fpr) <= max(0.005, fpr_quantum) + 1e-9

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_record_level_ranking_agrees(self, reports, n_jobs):
        # Record-level TPR/FPR at a fixed 0.5 threshold count borderline
        # record-days, which legitimately shift with quantile
        # thresholds; the threshold-free AUC pins that the backends rank
        # records the same, with a loose band on the thresholded rates.
        if ("hist", n_jobs) not in reports:
            pytest.skip("parallel path requires fork")
        exact, hist = reports[("exact", 1)][1], reports[("hist", n_jobs)][1]
        assert abs(exact.auc - hist.auc) <= 0.005
        assert abs(exact.tpr - hist.tpr) <= 0.05
        assert abs(exact.fpr - hist.fpr) <= 0.05

    def test_hist_deterministic_across_n_jobs(self, reports):
        if ("hist", 4) not in reports:
            pytest.skip("parallel path requires fork")
        for serial, parallel in zip(reports[("hist", 1)], reports[("hist", 4)]):
            assert serial.tpr == parallel.tpr
            assert serial.fpr == parallel.fpr
            assert serial.auc == parallel.auc


class TestGridSearchBinning:
    """The acceptance pin: one BinnedDataset build per fold per search."""

    def test_one_build_per_fold(self, binary_blobs):
        X, y = binary_blobs
        grid = {"max_depth": [3, 5, 7], "min_samples_leaf": [1, 4]}
        n_folds = 3
        hits0 = _counter("tree_bin_cache_hits_total")
        misses0 = _counter("tree_bin_cache_misses_total")
        search = GridSearchCV(
            DecisionTreeClassifier(split_algorithm="hist", seed=0),
            grid,
            splitter=KFold(n_splits=n_folds, seed=0),
            refit=False,
            n_jobs=1,
        ).fit(X, y)
        n_candidates = len(search.results_)
        assert n_candidates == 6
        misses = _counter("tree_bin_cache_misses_total") - misses0
        hits = _counter("tree_bin_cache_hits_total") - hits0
        # The prewarm pays one miss per fold; every (candidate, fold)
        # fit afterwards is a hit.
        assert misses == n_folds
        assert hits >= n_candidates * n_folds

    def test_exact_search_never_bins(self, binary_blobs):
        X, y = binary_blobs
        misses0 = _counter("tree_bin_cache_misses_total")
        GridSearchCV(
            DecisionTreeClassifier(seed=0),
            {"max_depth": [3, 5]},
            splitter=KFold(n_splits=3, seed=0),
            refit=False,
        ).fit(X, y)
        assert _counter("tree_bin_cache_misses_total") == misses0


@pytest.mark.smoke
def test_hist_not_slower_than_exact_on_smoke_workload():
    """`make smoke` gate: hist must at least break even on a workload
    big enough for the asymptotics to show (continuous features, deep
    trees)."""
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (4000, 12))
    y = (X[:, 0] + 0.5 * X[:, 3] - X[:, 7] + rng.normal(0, 0.7, 4000) > 0).astype(int)

    def fit_seconds(split_algorithm):
        clear_binned_cache()
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=None, split_algorithm=split_algorithm, seed=0
        )
        # CPU time, not wall time: other processes sharing the host
        # stall a fit's wall clock, not the CPU it spends.
        started = time.process_time()
        forest.fit(X, y)
        return time.process_time() - started

    fit_seconds("exact")  # warm numpy/BLAS paths before timing
    # One fit of each cannot resolve a 5% budget on a noisy host:
    # compare medians of alternating fits instead.
    timings = {"exact": [], "hist": []}
    for _ in range(7):
        for algorithm in timings:
            timings[algorithm].append(fit_seconds(algorithm))
    exact_seconds = float(np.median(timings["exact"]))
    hist_seconds = float(np.median(timings["hist"]))
    assert hist_seconds <= exact_seconds * 1.05, (
        f"hist backend slower than exact on the smoke workload: "
        f"{hist_seconds:.3f}s vs {exact_seconds:.3f}s"
    )
