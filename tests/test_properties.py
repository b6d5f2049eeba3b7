"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.splitting import TimeSeriesCrossValidator
from repro.ml.encoding import LabelEncoder, MinMaxScaler, StandardScaler
from repro.ml.metrics import (
    accuracy,
    auc_score,
    confusion_matrix,
    false_positive_rate,
    positive_detection_rate,
    true_positive_rate,
)
from repro.ml.resampling import RandomUnderSampler
from tests.core.preprocess_oracle import _grouped_cumsum

# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

labels = arrays(np.int64, st.integers(2, 60), elements=st.integers(0, 1))


@given(labels, st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_confusion_matrix_cells_sum_to_n(y_true, seed):
    y_pred = np.random.default_rng(seed).integers(0, 2, y_true.size)
    tp, fp, fn, tn = confusion_matrix(y_true, y_pred)
    assert tp + fp + fn + tn == y_true.size
    assert min(tp, fp, fn, tn) >= 0


@given(labels, st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_rates_bounded(y_true, seed):
    y_pred = np.random.default_rng(seed).integers(0, 2, y_true.size)
    for metric in (true_positive_rate, false_positive_rate):
        value = metric(y_true, y_pred)
        assert np.isnan(value) or 0.0 <= value <= 1.0
    assert 0.0 <= accuracy(y_true, y_pred) <= 1.0
    assert 0.0 <= positive_detection_rate(y_true, y_pred) <= 1.0


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_to_monotone_transform(n_pos, n_neg, seed):
    generator = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    scores = generator.random(y.size)
    base = auc_score(y, scores)
    transformed = auc_score(y, np.exp(3 * scores))  # strictly monotone map
    assert abs(base - transformed) < 1e-12


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_complement_symmetry(n_pos, n_neg, seed):
    generator = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    scores = generator.random(y.size)
    assert abs(auc_score(y, scores) + auc_score(y, -scores) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_label_encoder_roundtrip(values):
    encoder = LabelEncoder()
    codes = encoder.fit_transform(values)
    assert encoder.inverse_transform(codes) == values
    assert codes.max() < len(encoder.classes_)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_standard_scaler_output_finite_and_centered(X):
    Z = StandardScaler().fit_transform(X)
    assert np.all(np.isfinite(Z))
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-6)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_minmax_scaler_bounded(X):
    Z = MinMaxScaler().fit_transform(X)
    assert np.all(Z >= -1e-12)
    assert np.all(Z <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 30),
    st.integers(1, 300),
    st.floats(0.5, 10.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_undersampler_ratio_property(n_minority, n_majority, ratio, seed):
    X = np.zeros((n_minority + n_majority, 2))
    y = np.array([1] * n_minority + [0] * n_majority)
    Xr, yr = RandomUnderSampler(ratio=ratio, seed=seed).fit_resample(X, y)
    # Mirror the sampler's tie-breaking: np.argmin picks the first label
    # (0) when the class counts are equal.
    if n_majority <= n_minority:
        minority_label, minority_count, majority_count = 0, n_majority, n_minority
    else:
        minority_label, minority_count, majority_count = 1, n_minority, n_majority
    kept_majority = np.sum(yr != minority_label)
    target = int(round(ratio * minority_count))
    assert np.sum(yr == minority_label) == minority_count
    assert kept_majority == min(target, majority_count)


# ---------------------------------------------------------------------------
# Grouped cumulative sums
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=8),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_grouped_cumsum_matches_per_group_numpy(group_sizes, seed):
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 5, sum(group_sizes)).astype(float)
    starts = np.zeros(values.size, dtype=bool)
    position = 0
    for size in group_sizes:
        starts[position] = True
        position += size
    result = _grouped_cumsum(values, starts)
    position = 0
    for size in group_sizes:
        np.testing.assert_allclose(
            result[position : position + size],
            np.cumsum(values[position : position + size]),
        )
        position += size


# ---------------------------------------------------------------------------
# Weighted trees
# ---------------------------------------------------------------------------


@given(st.floats(0.1, 100.0), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_uniform_sample_weights_equal_unweighted_tree(scale, seed):
    from repro.ml.tree import DecisionTreeClassifier

    generator = np.random.default_rng(seed)
    X = generator.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * generator.normal(size=60) > 0).astype(int)
    if np.unique(y).size < 2:
        return
    plain = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
    scaled = DecisionTreeClassifier(max_depth=3, seed=0)
    scaled.fit(X, y, sample_weight=np.full(60, scale))
    np.testing.assert_allclose(
        plain.predict_proba(X), scaled.predict_proba(X), atol=1e-9
    )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_tree_prediction_invariant_to_row_order(seed):
    from repro.ml.tree import DecisionTreeClassifier

    generator = np.random.default_rng(seed)
    X = generator.normal(size=(50, 2))
    y = (X[:, 0] > 0).astype(int)
    if np.unique(y).size < 2:
        return
    permutation = generator.permutation(50)
    a = DecisionTreeClassifier(max_depth=4, seed=0).fit(X, y)
    b = DecisionTreeClassifier(max_depth=4, seed=0).fit(X[permutation], y[permutation])
    np.testing.assert_allclose(a.predict_proba(X), b.predict_proba(X), atol=1e-9)


# ---------------------------------------------------------------------------
# Time-series CV
# ---------------------------------------------------------------------------


@given(st.integers(1, 6), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_ts_cv_never_trains_on_future(k, extra_rows):
    n = 2 * k + extra_rows
    X = np.arange(n).reshape(-1, 1)
    for train, validation in TimeSeriesCrossValidator(k=k).split(X):
        assert train.max() < validation.min()
        assert validation.size > 0
        assert train.size > 0
