"""Row-partition arena descent against the lane walk and the seed loops.

A row chunk descends either by lanes (:meth:`ForestArena._descend`,
every ``(tree, row)`` pair stepping one level per pass) or by per-tree
row partition (:meth:`ForestArena._partition`, one column compare per
visited node). Which walk a chunk takes depends only on its size and
the forest's shape, so both must agree bit for bit with each other and
with the per-tree loops (``predict_exact``) — for every ensemble
aggregation, across NaN routing, lone-root trees, empty batches, the
walk threshold and row chunking.

Inside the partition, a node holds its rows as a boolean mask while it
has more than ``_PARTITION_MASK_SHARE`` of the chunk's rows and as an
index list below that.  The share changes only how rows are held, so
the partition runs at three shares and must give the same leaves at
each.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import arena
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.obs import get_registry

from tests.ml.arena_oracle import predict_exact

#: A threshold far above every batch here: every chunk walks lanes.
NEVER = 1 << 40
#: Walk -> (the partition threshold that forces it on every chunk, the
#: partition's mask share).  Share 0 keeps every visited node a mask;
#: share 1 switches every child of a two-sided split to indices.
WALKS = {
    "lanes": (NEVER, arena._PARTITION_MASK_SHARE),
    "partition": (0, arena._PARTITION_MASK_SHARE),
    "partition_masks": (0, 0.0),
    "partition_indices": (0, 1.0),
}


def _walk_at(monkeypatch, min_rows: int, steps_per_node: int = 0) -> None:
    monkeypatch.setattr(arena, "_PARTITION_MIN_ROWS", min_rows)
    monkeypatch.setattr(
        arena, "_PARTITION_LANE_STEPS_PER_NODE", steps_per_node
    )


def _force(monkeypatch, walk: str) -> None:
    min_rows, share = WALKS[walk]
    _walk_at(monkeypatch, min_rows)
    monkeypatch.setattr(arena, "_PARTITION_MASK_SHARE", share)


def _problem(seed: int, n: int = 300, d: int = 5, n_classes: int = 2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 2] = rng.integers(0, 4, n)  # ties and repeated thresholds
    score = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.3 * rng.normal(size=n)
    y = (score > 0.8).astype(int)
    if n_classes == 3:
        # A rare third class: bootstraps miss it, so member trees know
        # fewer classes than the forest (tree_columns alignment).
        y[:1] = 2
    return X, y


def _rows(seed: int, n: int, d: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).normal(scale=2.5, size=(n, d))


def _classifier(algo: str) -> RandomForestClassifier:
    X, y = _problem(0, n_classes=3)
    model = RandomForestClassifier(
        n_estimators=12, max_depth=7, seed=0, split_algorithm=algo
    ).fit(X, y)
    known = {len(tree.classes_) for tree in model.trees_}
    assert min(known) < model.classes_.size  # some member lacks a class
    return model


def _regressor(algo: str) -> RandomForestRegressor:
    X, _ = _problem(1)
    y = X[:, 1] * 2 + np.abs(X[:, 0])
    return RandomForestRegressor(
        n_estimators=6, max_depth=6, seed=0, split_algorithm=algo
    ).fit(X, y)


def _gbdt(algo: str) -> GradientBoostingClassifier:
    X, y = _problem(2)
    return GradientBoostingClassifier(
        n_estimators=10, max_depth=3, split_algorithm=algo
    ).fit(X, y)


#: (name, fit, predict) — predict goes through the arena aggregation
#: the name points at: predict_mean, predict_stack, predict_raw.
MODELS = (
    ("predict_mean", _classifier, lambda m, X: m.predict_proba(X)),
    ("predict_stack", _regressor, lambda m, X: m.predict(X)),
    ("predict_raw", _gbdt, lambda m, X: m.decision_function(X)),
)
NAMES = [m[0] for m in MODELS]

#: The same aggregations called on the arena itself, past the models'
#: input validation (which rejects NaN).
ARENA_PREDICTS = {
    "predict_mean": lambda m, X: m._arena_.predict_mean(X),
    "predict_stack": lambda m, X: np.mean(m._arena_.predict_stack(X), axis=0),
    "predict_raw": lambda m, X: m._arena_.predict_raw(
        X, m.initial_score_, m.learning_rate
    ),
}


def _fitted(name: str, algo: str):
    for model_name, fit, predict in MODELS:
        if model_name == name:
            return fit(algo), predict
    raise KeyError(name)


def _assert_same_bytes(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _form_counts() -> tuple[float, float]:
    """``predict_partition_nodes_total`` as (mask, index) nodes."""
    registry = get_registry()
    return tuple(
        registry.counter("predict_partition_nodes_total", form=form).value
        for form in ("mask", "index")
    )


@pytest.mark.parametrize("algo", ["exact", "hist"])
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("walk", WALKS)
def test_walks_match_oracle(monkeypatch, walk, name, algo):
    model, predict = _fitted(name, algo)
    rows = _rows(3, 257)
    _force(monkeypatch, walk)
    _assert_same_bytes(predict(model, rows), predict_exact(model, rows))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("walk", WALKS)
def test_rows_on_split_thresholds(monkeypatch, walk, name):
    """A value equal to its split's threshold goes left (``v <= t``):
    random rows almost never hit a threshold, these hit one per cell."""
    model, predict = _fitted(name, "exact")
    predict(model, _rows(5, 2))  # build the arena
    table = model._arena_
    rng = np.random.default_rng(12)
    rows = _rows(13, 200)
    for feature, column in enumerate(rows.T):
        cuts = table.threshold[table.feature == feature]
        if cuts.size:
            column[:] = rng.choice(cuts, column.size)
    _force(monkeypatch, walk)
    _assert_same_bytes(predict(model, rows), predict_exact(model, rows))


@pytest.mark.parametrize("name", NAMES)
def test_chunks_straddle_the_threshold(monkeypatch, name):
    """Small ``_MAX_LANES`` splits a batch into chunks; full chunks
    partition, the short tail walks lanes, and the result is unchanged."""
    model, predict = _fitted(name, "hist")
    rows = _rows(4, 150)
    n_trees = len(model.trees_)
    monkeypatch.setattr(arena, "_MAX_LANES", 64 * n_trees)  # 64-row chunks
    _walk_at(monkeypatch, 40)  # 64, 64 partition; 22 lanes
    registry = get_registry()
    registry.reset()
    _assert_same_bytes(predict(model, rows), predict_exact(model, rows))
    assert registry.counter("predict_partition_rows_total").value == 128


def _assert_boundary(model, predict) -> None:
    """A chunk of ``partition_min_rows()`` rows is partitioned (and
    counted); one row fewer walks lanes.  Both match the oracle."""
    threshold = model._arena_.partition_min_rows()
    registry = get_registry()
    for n_rows, partitioned in ((threshold - 1, 0), (threshold, threshold)):
        rows = _rows(n_rows, n_rows)
        registry.reset()
        _assert_same_bytes(predict(model, rows), predict_exact(model, rows))
        counter = registry.counter("predict_partition_rows_total")
        assert counter.value == partitioned


def _lane_step_rule(table, steps_per_node: int) -> int:
    per_row = table.n_trees * table.max_depth
    return -(-steps_per_node * table.n_nodes // per_row)


def test_threshold_boundary(monkeypatch):
    model = _classifier("exact")
    predict = _fitted("predict_mean", "exact")[1]
    predict(model, _rows(5, 2))
    table = model._arena_
    _walk_at(monkeypatch, 50, steps_per_node=40)
    assert table.partition_min_rows() == _lane_step_rule(table, 40) > 50
    _assert_boundary(model, predict)
    _walk_at(monkeypatch, 300, steps_per_node=1)
    assert table.partition_min_rows() == 300
    _assert_boundary(model, predict)


def test_shipped_threshold_boundary():
    """Unpatched constants: lone-root trees sit on the row floor, the
    depth-3 GBDT on the lane-step rule."""
    X, _ = _problem(8)
    lone = RandomForestRegressor(n_estimators=3, seed=0).fit(
        X, np.full(X.shape[0], 1.5)
    )
    lone.predict(_rows(10, 2))
    assert lone._arena_.partition_min_rows() == arena._PARTITION_MIN_ROWS
    _assert_boundary(lone, lambda m, rows: m.predict(rows))

    gbdt, predict = _fitted("predict_raw", "hist")
    predict(gbdt, _rows(10, 2))
    table = gbdt._arena_
    rule = _lane_step_rule(table, arena._PARTITION_LANE_STEPS_PER_NODE)
    assert table.partition_min_rows() == rule > arena._PARTITION_MIN_ROWS
    _assert_boundary(gbdt, predict)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("walk", WALKS)
def test_nan_rows_route_right(monkeypatch, walk, name):
    """``check_X`` rejects NaN, so NaN and all-NaN rows go straight into
    the walk, and into the arena's aggregation."""
    model, predict = _fitted(name, "hist")
    predict(model, _rows(6, 2))  # build the arena
    table = model._arena_
    rows = _rows(7, 90)
    rows[::3, 0] = np.nan
    rows[::4, 2] = np.nan
    rows[5] = np.nan
    rows[11] = np.nan
    _force(monkeypatch, walk)
    descend = table._descend if walk == "lanes" else table._partition
    leaves = descend(table.encode(rows))
    assert leaves.shape == (table.n_trees, rows.shape[0])
    tree_columns = getattr(model, "_tree_columns_", None)
    for t, member in enumerate(model.trees_):
        columns = [0] if tree_columns is None else tree_columns[t]
        got = table.values[leaves[t]][:, columns]
        _assert_same_bytes(got, member.tree_.predict_value(rows))
    _assert_same_bytes(
        ARENA_PREDICTS[name](model, rows), predict_exact(model, rows)
    )


@pytest.mark.parametrize("walk", WALKS)
def test_lone_root_trees(monkeypatch, walk):
    X, _ = _problem(8)
    model = RandomForestRegressor(n_estimators=3, seed=0).fit(
        X, np.full(X.shape[0], 1.5)
    )
    rows = _rows(9, 30)
    _force(monkeypatch, walk)
    get_registry().reset()
    _assert_same_bytes(model.predict(rows), predict_exact(model, rows))
    assert model._arena_.max_depth == 0
    if walk != "lanes":  # each tree's leaf sits under its root mask
        assert _form_counts() == (3, 0)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("walk", WALKS)
def test_empty_batch(monkeypatch, walk, name):
    model, predict = _fitted(name, "exact")
    rows = np.empty((0, 5))
    _force(monkeypatch, walk)
    _assert_same_bytes(predict(model, rows), predict_exact(model, rows))
    table = model._arena_
    descend = table._descend if walk == "lanes" else table._partition
    assert descend(table.encode(rows)).shape == (table.n_trees, 0)


_PROPERTY_MODELS = {}


def _property_model(name: str, algo: str):
    key = (name, algo)
    if key not in _PROPERTY_MODELS:
        _PROPERTY_MODELS[key] = _fitted(name, algo)
    return _PROPERTY_MODELS[key]


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    algo=st.sampled_from(["exact", "hist"]),
    n_rows=st.integers(0, 200),
    chunk_rows=st.integers(1, 96),
    min_rows=st.integers(0, 120),
    share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_any_chunking_and_threshold_is_exact(
    name, algo, n_rows, chunk_rows, min_rows, share, seed
):
    """Chunk size × mask share: partition nodes land on both sides of
    the mask/index switch."""
    model, predict = _property_model(name, algo)
    rows = _rows(seed, n_rows)
    n_trees = len(model.trees_)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena, "_MAX_LANES", chunk_rows * n_trees)
        _walk_at(patch, min_rows)
        patch.setattr(arena, "_PARTITION_MASK_SHARE", share)
        got = predict(model, rows)
    _assert_same_bytes(got, predict_exact(model, rows))


def _reached_nodes(table, rows: np.ndarray) -> int:
    """Nodes that at least one row passes through: the ones the
    partition visits, whatever form holds their rows."""
    columns = table.encode(rows)
    n_rows = rows.shape[0]
    nodes = np.repeat(table.roots, n_rows)
    row = np.tile(np.arange(n_rows), table.n_trees)
    seen = set(nodes.tolist())
    for _ in range(table.max_depth):
        value = columns[table.gather_feature[nodes], row]
        nodes = table.child[2 * nodes + ~(value <= table.threshold[nodes])]
        seen.update(nodes.tolist())
    return len(seen)


def _partition_at(monkeypatch, share: float, table, rows: np.ndarray):
    """Partition ``rows`` at ``share``: leaves and the per-form counts."""
    monkeypatch.setattr(arena, "_PARTITION_MASK_SHARE", share)
    get_registry().reset()
    leaves = table._partition(table.encode(rows))
    return leaves, _form_counts()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("walk", ["partition_masks", "partition_indices"])
def test_form_counts(monkeypatch, walk, name):
    """Every reached node is counted once, in the form that held it."""
    model, predict = _fitted(name, "exact")
    predict(model, _rows(6, 2))  # build the arena
    table = model._arena_
    rows = _rows(21, 300)
    _, (masks, indices) = _partition_at(monkeypatch, WALKS[walk][1],
                                        table, rows)
    assert masks + indices == _reached_nodes(table, rows)
    if walk == "partition_masks":
        assert indices == 0
    else:  # random rows split every root two ways here
        assert masks == table.n_trees


def _side_path(table, root: int, side: int) -> int:
    """Nodes on the path that always goes ``side`` (0 left, 1 right)."""
    program = table._program()
    length, node = 1, root
    while program[node][0] != arena._NO_SPLIT:
        node = program[node][2 + side]
        length += 1
    return length


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_splits_pass_the_mask_on(monkeypatch, side, name):
    """Rows far below every cut all go left, NaN rows all go right, so
    every split is one-sided from the root down: the root's mask is
    passed on whole, never switched to indices, even at share 1."""
    model, predict = _fitted(name, "exact")
    predict(model, _rows(6, 2))
    table = model._arena_
    fill = -np.inf if side == "left" else np.nan
    rows = np.full((64, 5), fill)
    leaves, counts = _partition_at(
        monkeypatch, WALKS["partition_indices"][1], table, rows
    )
    _assert_same_bytes(leaves, table._descend(table.encode(rows)))
    step = 0 if side == "left" else 1
    path = sum(_side_path(table, root, step) for root in table.roots.tolist())
    assert counts == (path, 0)
    _walk_at(monkeypatch, 0)
    _assert_same_bytes(
        ARENA_PREDICTS[name](model, rows), predict_exact(model, rows)
    )


def _stump() -> arena.ForestArena:
    """One tree: ``x0 <= 0`` goes to leaf 1, else leaf 2."""
    no = arena._NO_SPLIT
    return arena.ForestArena(
        feature=np.array([0, no, no]),
        threshold=np.zeros(3),
        child=np.array([1, 2, 1, 1, 2, 2]),
        values=np.arange(3.0).reshape(3, 1),
        roots=np.array([0]),
        n_features=1,
        max_depth=1,
    )


@pytest.mark.parametrize(
    "share, counts", [(0.49, (3, 0)), (0.5, (1, 2)), (0.51, (1, 2))]
)
def test_a_half_of_exactly_the_share_takes_indices(monkeypatch, share, counts):
    """A node stays a mask only with more than ``share × rows`` rows."""
    rows = np.array([[-1.0], [1.0], [np.nan], [0.0]])
    leaves, got = _partition_at(monkeypatch, share, _stump(), rows)
    assert leaves.tolist() == [[1, 2, 2, 1]]
    assert got == counts
