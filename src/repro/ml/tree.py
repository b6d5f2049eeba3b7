"""CART decision trees (classification and regression).

These trees power :class:`repro.ml.forest.RandomForestClassifier`,
:class:`repro.ml.forest.RandomForestRegressor` and
:class:`repro.ml.gbdt.GradientBoostingClassifier`.

Both tree classes grow through one loop, :func:`_grow`: iterative
depth-first CART that owns the node stack, the per-node
``max_features`` candidate draw, the split search, parent−sibling
histogram subtraction, and node and importance bookkeeping. The only
thing that differs between the classes is the split criterion it is
handed:

* :class:`_Gini` (``DecisionTreeClassifier``) — weighted gini impurity,
  class-probability leaves, any gain above zero is taken;
* :class:`_SSE` (``DecisionTreeRegressor``) — squared error, mean
  leaves, a gain must beat ``1e-12`` and is capped at the node's SSE.

A criterion supplies leaf values, the purity test, the per-cut gains
of both split searches, the histogram build and cut scan, and that
acceptance rule. The split search is chosen per fit:

* ``split_algorithm="exact"`` (default) — sort once per feature per
  node, evaluate every cut with prefix sums. Bit-reproducible reference.
* ``split_algorithm="hist"`` — LightGBM-style histogram search over a
  :class:`repro.ml.binning.BinnedDataset`: features are quantile-binned
  once into uint8 codes, each node accumulates per-bin masses with
  ``np.bincount`` and scans O(n_bins) cuts, and when every feature is a
  candidate (``max_features=None``) a child's histograms are derived by
  subtracting its sibling's from the parent's instead of being rebuilt.
  A node costs O(n_node · n_features_sub + n_bins · n_features_sub)
  instead of O(n_node log n_node · n_features_sub).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X, check_X_y
from repro.ml.binning import BinnedDataset, get_binned
from repro.obs import inc_counter

_NO_SPLIT = -1

#: Below this size the smaller child's histograms are cheaper to rebuild
#: on demand than to precompute and carry on the growth stack.
_SUBTRACTION_MIN_ROWS = 64

_SPLIT_ALGORITHMS = ("exact", "hist")


def _check_split_algorithm(split_algorithm: str) -> str:
    if split_algorithm not in _SPLIT_ALGORITHMS:
        raise ValueError(
            f"split_algorithm must be one of {_SPLIT_ALGORITHMS}, "
            f"got {split_algorithm!r}"
        )
    return split_algorithm


def _check_growth_params(
    max_depth: int | None, min_samples_split: int = 2, min_samples_leaf: int = 1
) -> None:
    """The stopping rules every CART tree (and GBDT's weak learners) needs."""
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be at least 2")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be at least 1")


class _Tree:
    """Flat array representation of a grown binary tree.

    ``feature[i] == _NO_SPLIT`` marks a leaf; ``value[i]`` holds either a
    class-probability vector (classification) or a scalar prediction
    (regression).
    """

    def __init__(self, n_outputs: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_outputs = n_outputs

    def add_node(self, value: np.ndarray) -> int:
        self.feature.append(_NO_SPLIT)
        self.threshold.append(0.0)
        self.left.append(_NO_SPLIT)
        self.right.append(_NO_SPLIT)
        self.value.append(value)
        return len(self.feature) - 1

    def make_split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def finalize(self) -> None:
        """Convert list storage to arrays for fast vectorized prediction."""
        self.feature_arr = np.asarray(self.feature, dtype=np.int64)
        self.threshold_arr = np.asarray(self.threshold, dtype=float)
        self.left_arr = np.asarray(self.left, dtype=np.int64)
        self.right_arr = np.asarray(self.right, dtype=np.int64)
        self.value_arr = np.stack(self.value)

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf and return the leaf values.

        Inference-time NaN policy: ``NaN <= threshold`` evaluates
        False, so a row whose split feature is missing deterministically
        routes RIGHT at that node.  This is a contract, not an
        accident — the binned engine (:mod:`repro.ml.arena`) maps NaN
        to the reserved top bin (``edges.size + 1``), which sorts above
        every quantized code threshold and therefore routes the same
        rows right, keeping both engines bit-identical on missing
        values.  Pinned by ``tests/ml/test_arena.py``.
        """
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_arr[nodes] != _NO_SPLIT
        while np.any(active):
            indices = np.flatnonzero(active)
            current = nodes[indices]
            # NaN compares False here → missing values go right (see above).
            go_left = (
                X[indices, self.feature_arr[current]] <= self.threshold_arr[current]
            )
            nodes[indices] = np.where(
                go_left, self.left_arr[current], self.right_arr[current]
            )
            active[indices] = self.feature_arr[nodes[indices]] != _NO_SPLIT
        return self.value_arr[nodes]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        features = getattr(self, "feature_arr", None)
        if features is None:
            features = np.asarray(self.feature, dtype=np.int64)
        return int(np.sum(features == _NO_SPLIT))

    def depth(self) -> int:
        """Maximum root-to-leaf depth (root = 0).

        ``add_node`` appends children after their parent, so node ids
        are topologically ordered and one forward pass over the arrays
        suffices.
        """
        if getattr(self, "feature_arr", None) is None:
            features = np.asarray(self.feature, dtype=np.int64)
            left = np.asarray(self.left, dtype=np.int64)
            right = np.asarray(self.right, dtype=np.int64)
        else:
            features, left, right = self.feature_arr, self.left_arr, self.right_arr
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        split_nodes = np.flatnonzero(features != _NO_SPLIT)
        for node in split_nodes:
            child_depth = depths[node] + 1
            depths[left[node]] = child_depth
            depths[right[node]] = child_depth
        return int(depths.max()) if depths.size else 0


def _node_threshold(
    X: np.ndarray,
    indices: np.ndarray,
    feature: int,
    go_left: np.ndarray,
    fallback: float,
) -> float:
    """Real-unit threshold for a histogram cut.

    The midpoint between the left partition's maximum and the right
    partition's minimum *within the node* — the same value the exact
    backend derives from its sort, so lossless binning reproduces exact
    trees threshold-for-threshold (and quantile binning generalizes at
    the margin between observed values instead of at an arbitrary global
    edge). Falls back to the bin edge if the node holds non-finite
    values (the NaN bin).
    """
    values = X[indices, feature]
    threshold = float((values[go_left].max() + values[~go_left].min()) / 2.0)
    if not np.isfinite(threshold):
        return fallback
    return threshold


def _binned_for_fit(
    split_algorithm: str, X: np.ndarray, binned: BinnedDataset | None = None
) -> BinnedDataset | None:
    """The binned dataset a fit searches: ``None`` for the exact search;
    for hist, the caller's pre-built ``binned`` or the cached quantile
    binning of ``X``."""
    if split_algorithm != "hist":
        return None
    if binned is None:
        return get_binned(X)
    if binned.codes.shape != X.shape:
        raise ValueError(
            f"binned dataset shape {binned.codes.shape} does not match "
            f"X shape {X.shape}"
        )
    return binned


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate a max_features spec into a concrete count."""
    if max_features is None:
        return n_features
    if isinstance(max_features, (bool, np.bool_)):
        # bool is an int subclass: True would silently mean "1 feature
        # per split" and False would be rejected confusingly below.
        raise ValueError(
            f"invalid max_features: {max_features!r}; booleans are not "
            "accepted (use None for all features or an explicit count)"
        )
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float) and 0 < max_features <= 1:
        return max(1, int(max_features * n_features))
    if isinstance(max_features, int) and max_features >= 1:
        return min(max_features, n_features)
    raise ValueError(f"invalid max_features: {max_features!r}")


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------
def _bin_keys(codes_block: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Offset-flattened (feature, bin) keys and per-key row counts.

    Offsetting each feature's codes by ``feature * n_bins`` lets one
    ``bincount`` cover every feature at once — the per-node cost is
    O(n_node · n_features_sub), with no per-feature Python loop.
    """
    n_features = codes_block.shape[1]
    flat = codes_block.astype(np.intp)
    flat += np.arange(n_features, dtype=np.intp) * n_bins
    counts = np.bincount(
        flat.ravel(), minlength=n_features * n_bins
    ).reshape(n_features, n_bins)
    return flat, counts


def _best_cut(gain: np.ndarray) -> tuple[int, int, float]:
    """``(local_feature, cut_bin, gain)`` of a feature-major gain grid.

    ``argmax`` over the feature-major grid keeps the exact search's
    tie-break: the first candidate feature reaching the maximum wins,
    and within a feature the lowest threshold wins.
    """
    local_feature, cut_bin = divmod(int(np.argmax(gain)), gain.shape[1])
    return local_feature, cut_bin, float(gain[local_feature, cut_bin])


def _gini_gains(
    left_mass_by_class: np.ndarray,
    class_mass: np.ndarray,
    total_mass: float,
    parent_impurity: float,
    valid: np.ndarray,
) -> np.ndarray:
    """Gini decrease of every cut from its left prefix of class masses.

    The class axis is last; cuts leaving a side massless are invalid.
    """
    left_mass = left_mass_by_class.sum(axis=-1)
    right_mass = total_mass - left_mass
    valid = valid & (left_mass > 0) & (right_mass > 0)
    right_mass_by_class = class_mass - left_mass_by_class
    with np.errstate(divide="ignore", invalid="ignore"):
        left_impurity = 1.0 - np.sum(
            (left_mass_by_class / left_mass[..., None]) ** 2, axis=-1
        )
        right_impurity = 1.0 - np.sum(
            (right_mass_by_class / right_mass[..., None]) ** 2, axis=-1
        )
        weighted = (
            left_mass * left_impurity + right_mass * right_impurity
        ) / total_mass
    return np.where(valid, parent_impurity - weighted, -np.inf)


def _sse_gains(
    left_sum: np.ndarray, left_n: np.ndarray, total: float, n: int, valid: np.ndarray
) -> np.ndarray:
    """SSE decrease of every cut from its left prefix sums and sizes."""
    right_sum = total - left_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        # SSE decrease == sum_left^2/n_left + sum_right^2/n_right - sum^2/n
        score = left_sum**2 / left_n + right_sum**2 / (n - left_n)
    return np.where(valid, score - total**2 / n, -np.inf)


class _Gini:
    """Gini impurity over class codes ``0..n_classes-1``.

    ``sample_weight`` makes the impurity and the leaf probabilities
    cost-sensitive while the ``min_samples_leaf`` floor stays on raw
    sample counts. Unweighted binary labels (the MFPA case) take a
    leaner histogram layout — ``(mass0, mass1, counts)`` instead of a
    dense ``(f, n_bins, n_classes)`` block — whose cut scan also yields
    both children's class masses, so their leaf values and purity need
    no pass over the rows.
    """

    def __init__(
        self, y_codes: np.ndarray, n_classes: int, sample_weight: np.ndarray | None
    ):
        self.y_codes = y_codes
        self.n_outputs = n_classes
        self.sample_weight = sample_weight
        self.binary = n_classes == 2 and sample_weight is None

    def _class_mass(self, indices: np.ndarray) -> np.ndarray:
        if self.sample_weight is None:
            return np.bincount(
                self.y_codes[indices], minlength=self.n_outputs
            ).astype(float)
        return np.bincount(
            self.y_codes[indices],
            weights=self.sample_weight[indices],
            minlength=self.n_outputs,
        )

    def value(self, indices: np.ndarray, mass: np.ndarray | None = None) -> np.ndarray:
        if mass is None:
            mass = self._class_mass(indices)
        return mass / mass.sum()

    def pure(self, indices: np.ndarray, mass: np.ndarray | None = None) -> bool:
        if mass is not None:
            return np.count_nonzero(mass) < 2
        # Codes are contiguous 0..n_classes-1, so a pure node is exactly
        # a zero peak-to-peak — no sort needed.
        return np.ptp(self.y_codes[indices]) == 0

    @staticmethod
    def accept(gain: float, indices: np.ndarray) -> float | None:
        return gain if gain > 0 else None

    def exact_gains(self, indices: np.ndarray):
        """Gain function ``(order, valid) -> gains`` for one node's cuts."""
        node_y = self.y_codes[indices]
        n = node_y.size
        weights = (
            np.ones(n) if self.sample_weight is None else self.sample_weight[indices]
        )
        one_hot = np.zeros((n, self.n_outputs))
        one_hot[np.arange(n), node_y] = weights
        counts = one_hot.sum(axis=0)
        total_mass = counts.sum()
        parent_impurity = 1.0 - np.sum((counts / total_mass) ** 2)

        def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
            # Prefix class masses for every "first k rows go left" cut.
            left = np.cumsum(one_hot[order], axis=0)[:-1]
            return _gini_gains(left, counts, total_mass, parent_impurity, valid)

        return gains

    def histograms(
        self, codes_block: np.ndarray, indices: np.ndarray, n_bins: int
    ) -> tuple[np.ndarray, ...]:
        """Per-(feature, bin) class masses, plus raw sample counts."""
        flat, counts = _bin_keys(codes_block, n_bins)
        node_y = self.y_codes[indices]
        if self.binary:
            # The negative class is the complement: one extra bincount
            # over the positive rows instead of the per-class keys.
            positives = np.bincount(
                flat[node_y == 1].ravel(), minlength=counts.size
            ).reshape(counts.shape)
            negatives = counts - positives
            return negatives.astype(float), positives.astype(float), counts
        keys = (flat * self.n_outputs + node_y[:, None]).ravel()
        n_keys = counts.size * self.n_outputs
        if self.sample_weight is None:
            mass = np.bincount(keys, minlength=n_keys).astype(float)
        else:
            tiled = np.broadcast_to(
                self.sample_weight[indices][:, None], flat.shape
            ).ravel()
            mass = np.bincount(keys, weights=tiled, minlength=n_keys)
        return mass.reshape(*counts.shape, self.n_outputs), counts

    def scan(self, hists: tuple, indices: np.ndarray, min_samples_leaf: int):
        """Best cut over every (feature, bin) at once.

        Returns ``(local_feature, cut_bin, gain, child_masses)`` or
        ``None`` when no cut respects the leaf-size floor;
        ``child_masses`` is ``(left, right)`` class masses on the binary
        layout, else ``None``.
        """
        class_mass = self._class_mass(indices)
        total_mass = class_mass.sum()
        parent_impurity = 1.0 - np.sum((class_mass / total_mass) ** 2)
        if not self.binary:
            mass, counts = hists
            left_n = np.cumsum(counts[:, :-1], axis=1)
            valid = (left_n >= min_samples_leaf) & (
                indices.size - left_n >= min_samples_leaf
            )
            if not np.any(valid):
                return None
            left = np.cumsum(mass[:, :-1, :], axis=1)
            gain = _gini_gains(left, class_mass, total_mass, parent_impurity, valid)
            return (*_best_cut(gain), None)
        # Two classes, unweighted: the same arithmetic (in the same float
        # operation order) as _gini_gains with the class axis unrolled,
        # so the chosen cut is bit-identical — without the (f, n_bins, 2)
        # temporaries. Unweighted means the class masses double as
        # sample counts for the leaf-size floor.
        left0 = np.cumsum(hists[0][:, :-1], axis=1)
        left1 = np.cumsum(hists[1][:, :-1], axis=1)
        left_mass = left0 + left1
        right_mass = total_mass - left_mass
        valid = (left_mass >= min_samples_leaf) & (right_mass >= min_samples_leaf)
        if not np.any(valid):
            return None
        right0 = class_mass[0] - left0
        right1 = class_mass[1] - left1
        with np.errstate(divide="ignore", invalid="ignore"):
            left_impurity = 1.0 - (
                (left0 / left_mass) ** 2 + (left1 / left_mass) ** 2
            )
            right_impurity = 1.0 - (
                (right0 / right_mass) ** 2 + (right1 / right_mass) ** 2
            )
            weighted = (
                left_mass * left_impurity + right_mass * right_impurity
            ) / total_mass
        gain = np.where(valid, parent_impurity - weighted, -np.inf)
        local_feature, cut_bin, best = _best_cut(gain)
        left_class_mass = np.array(
            [left0[local_feature, cut_bin], left1[local_feature, cut_bin]]
        )
        child_masses = (left_class_mass, class_mass - left_class_mass)
        return local_feature, cut_bin, best, child_masses


class _SSE:
    """Squared-error (variance-reduction) criterion with mean leaves."""

    n_outputs = 1

    def __init__(self, y: np.ndarray):
        self.y = y

    def value(self, indices: np.ndarray, mass=None) -> np.ndarray:
        return np.array([self.y[indices].mean()])

    def pure(self, indices: np.ndarray, mass=None) -> bool:
        return np.ptp(self.y[indices]) == 0

    def accept(self, gain: float, indices: np.ndarray) -> float | None:
        # A split must beat the 1e-12 floor, and the reported gain is
        # capped at the parent's SSE.
        if gain <= 1e-12:
            return None
        node_y = self.y[indices]
        gain = min(gain, float(np.sum((node_y - node_y.sum() / node_y.size) ** 2)))
        return gain if gain > 0 else None

    def exact_gains(self, indices: np.ndarray):
        """Gain function ``(order, valid) -> gains`` for one node's cuts."""
        node_y = self.y[indices]
        n = node_y.size
        total = node_y.sum()
        k = np.arange(1, n)

        def gains(order: np.ndarray, valid: np.ndarray) -> np.ndarray:
            return _sse_gains(np.cumsum(node_y[order])[:-1], k, total, n, valid)

        return gains

    def histograms(
        self, codes_block: np.ndarray, indices: np.ndarray, n_bins: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-(feature, bin) target sums and raw sample counts."""
        flat, counts = _bin_keys(codes_block, n_bins)
        tiled = np.broadcast_to(self.y[indices][:, None], flat.shape).ravel()
        sums = np.bincount(flat.ravel(), weights=tiled, minlength=counts.size)
        return sums.reshape(counts.shape), counts

    def scan(self, hists: tuple, indices: np.ndarray, min_samples_leaf: int):
        """Best cut as ``(local_feature, cut_bin, gain, None)``, or ``None``."""
        sums, counts = hists
        n = indices.size
        left_n = np.cumsum(counts[:, :-1], axis=1)
        valid = (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
        if not np.any(valid):
            return None
        left_sum = np.cumsum(sums[:, :-1], axis=1)
        gain = _sse_gains(left_sum, left_n, self.y[indices].sum(), n, valid)
        return (*_best_cut(gain), None)


# ----------------------------------------------------------------------
# The grower
# ----------------------------------------------------------------------
def _exact_split(
    X: np.ndarray,
    indices: np.ndarray,
    candidates: np.ndarray,
    min_samples_leaf: int,
    criterion,
) -> tuple[int, float, float]:
    """Best ``(feature, threshold, gain)`` over every distinct-value cut.

    Returns gain ``-inf`` (with feature -1) when no cut respects the
    leaf-size floor; the criterion's acceptance rule rejects it.
    """
    gains = criterion.exact_gains(indices)
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


def _grow(
    X: np.ndarray, criterion, binned: BinnedDataset | None, params
) -> tuple[_Tree, np.ndarray]:
    """Grow one CART tree; returns it with its raw feature importances.

    ``params`` is the tree estimator, read for ``max_depth``,
    ``min_samples_split``, ``min_samples_leaf``, ``max_features`` and
    ``seed``. ``binned`` selects the hist search (``None``: exact).
    """
    n_samples, n_features = X.shape
    n_candidates = _resolve_max_features(params.max_features, n_features)
    max_depth = params.max_depth
    min_samples_split = params.min_samples_split
    min_samples_leaf = params.min_samples_leaf
    rng = np.random.default_rng(params.seed)
    # The parent-sibling subtraction trick needs the parent's
    # histograms to cover the child's candidate features; that holds
    # exactly when every node considers every feature.
    subtraction = binned is not None and n_candidates == n_features
    importances = np.zeros(n_features)
    hist_nodes = 0

    def searchable(indices: np.ndarray, depth: int, mass=None) -> bool:
        if indices.size < min_samples_split:
            return False
        if max_depth is not None and depth >= max_depth:
            return False
        return not criterion.pure(indices, mass)

    tree = _Tree(n_outputs=criterion.n_outputs)
    indices = np.arange(n_samples)
    root = tree.add_node(criterion.value(indices))
    # Iterative depth-first growth avoids recursion limits on deep
    # trees. Only nodes that will be searched are pushed — the rest are
    # finished leaves — and an entry carries the node's histograms when
    # subtraction derived them. The right child is pushed last, so it
    # is popped (and draws its candidate features) first.
    stack = [(root, indices, 0, None)] if searchable(indices, 0) else []
    while stack:
        node, indices, depth, hists = stack.pop()
        if n_candidates < n_features:
            candidates = rng.choice(n_features, size=n_candidates, replace=False)
        else:
            candidates = np.arange(n_features)
        child_masses = None
        if binned is None:
            feature, threshold, gain = _exact_split(
                X, indices, candidates, min_samples_leaf, criterion
            )
            gain = criterion.accept(gain, indices)
            if gain is None:
                continue
            go_left = X[indices, feature] <= threshold
        else:
            hist_nodes += 1
            if hists is None:
                block = (
                    binned.codes[indices]
                    if subtraction
                    else binned.codes[indices[:, None], candidates[None, :]]
                )
                hists = criterion.histograms(block, indices, binned.n_bins)
            cut = criterion.scan(hists, indices, min_samples_leaf)
            if cut is None:
                continue
            local_feature, cut_bin, gain, child_masses = cut
            gain = criterion.accept(gain, indices)
            if gain is None:
                continue
            feature = int(candidates[local_feature])
            go_left = binned.codes[indices, feature] <= cut_bin
            threshold = _node_threshold(
                X,
                indices,
                feature,
                go_left,
                float(binned.cut_thresholds[feature, cut_bin]),
            )
        left_mass, right_mass = child_masses or (None, None)
        left_indices = indices[go_left]
        right_indices = indices[~go_left]
        left = tree.add_node(criterion.value(left_indices, left_mass))
        right = tree.add_node(criterion.value(right_indices, right_mass))
        tree.make_split(node, feature, threshold, left, right)
        importances[feature] += gain * indices.size / n_samples
        left_ok = searchable(left_indices, depth + 1, left_mass)
        right_ok = searchable(right_indices, depth + 1, right_mass)

        left_hists = right_hists = None
        smaller = (
            left_indices if left_indices.size <= right_indices.size else right_indices
        )
        both_searched = left_ok and right_ok
        if subtraction and both_searched and smaller.size >= _SUBTRACTION_MIN_ROWS:
            small = criterion.histograms(
                binned.codes[smaller], smaller, binned.n_bins
            )
            # The sibling's histograms are the parent's minus the smaller
            # child's — no second pass over the rows.
            large = tuple(parent - part for parent, part in zip(hists, small))
            if smaller is left_indices:
                left_hists, right_hists = small, large
            else:
                left_hists, right_hists = large, small
        if left_ok:
            stack.append((left, left_indices, depth + 1, left_hists))
        if right_ok:
            stack.append((right, right_indices, depth + 1, right_hists))

    if hist_nodes:
        inc_counter("tree_hist_nodes_total", hist_nodes)
    tree.finalize()
    return tree, importances


class DecisionTreeClassifier(BaseClassifier):
    """CART classification tree with gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or too
        small.
    min_samples_split / min_samples_leaf:
        Standard CART stopping rules.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction. Randomized per node when
        fewer than all — this is what de-correlates forest members.
    class_weight:
        ``None`` (all samples weigh 1), ``"balanced"`` (inverse class
        frequency), or a label -> weight dict. Weights enter the gini
        criterion and the leaf probabilities, making the tree
        cost-sensitive (cf. CSLE, DATE 2022 [24]).
    split_algorithm:
        ``"exact"`` (sort-based, bit-reproducible default) or ``"hist"``
        (quantile-binned histogram search; pass a pre-built ``binned``
        to :meth:`fit` to amortize binning across trees).
    seed:
        RNG seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        class_weight=None,
        split_algorithm: str = "exact",
        seed: int = 0,
    ):
        _check_growth_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.class_weight = class_weight
        self.split_algorithm = _check_split_algorithm(split_algorithm)
        self.seed = seed

    def _sample_weights(self, y: np.ndarray, y_codes: np.ndarray) -> np.ndarray | None:
        if self.class_weight is None:
            return None
        if self.class_weight == "balanced":
            counts = np.bincount(y_codes).astype(float)
            per_class = y.shape[0] / (counts.size * counts)
            return per_class[y_codes]
        if isinstance(self.class_weight, dict):
            try:
                per_class = np.array(
                    [float(self.class_weight[label]) for label in self.classes_]
                )
            except KeyError as error:
                raise ValueError(
                    f"class_weight is missing label {error.args[0]!r}"
                ) from error
            if np.any(per_class <= 0):
                raise ValueError("class weights must be positive")
            return per_class[y_codes]
        raise ValueError(f"invalid class_weight: {self.class_weight!r}")

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        if X.ndim != 2:
            raise ValueError("DecisionTreeClassifier expects 2-D input")
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        if sample_weight is None:
            sample_weight = self._sample_weights(y, y_codes)
        if sample_weight is not None and np.ptp(sample_weight) == 0:
            # Uniform weights are exactly the unweighted problem; taking
            # the unweighted path keeps the grown tree bit-identical
            # instead of letting float rescaling flip split tie-breaks.
            sample_weight = None
        binned = _binned_for_fit(self.split_algorithm, X, binned)
        criterion = _Gini(y_codes, self.classes_.size, sample_weight)
        self.tree_, importances = _grow(X, criterion, binned, self)
        total_importance = importances.sum()
        if total_importance > 0:
            importances /= total_importance
        self.feature_importances_ = importances
        # Snapshot the training bin edges so the arena's binned engine
        # (and saved artifacts) can encode inference batches without
        # refitting quantiles.
        self.bin_edges_ = None if binned is None else binned.bin_edges
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X, self.n_features_)
        return self.tree_.predict_value(X)


class DecisionTreeRegressor:
    """CART regression tree (mean-squared-error criterion) for GBDT."""

    def __init__(
        self,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        split_algorithm: str = "exact",
        seed: int = 0,
    ):
        _check_growth_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.split_algorithm = _check_split_algorithm(split_algorithm)
        self.seed = seed

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binned: BinnedDataset | None = None,
    ) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0] or X.ndim != 2:
            raise ValueError("invalid shapes for regression tree")
        self.n_features_ = X.shape[1]
        binned = _binned_for_fit(self.split_algorithm, X, binned)
        self.tree_, _ = _grow(X, _SSE(y), binned, self)
        self.bin_edges_ = None if binned is None else binned.bin_edges
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "tree_"):
            raise RuntimeError(
                "DecisionTreeRegressor is not fitted yet; call fit() first"
            )
        return self._predict(check_X(X, self.n_features_))

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for a matrix the caller has already validated."""
        return self.tree_.predict_value(X)[:, 0]
