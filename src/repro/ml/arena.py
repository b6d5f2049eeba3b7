"""Packed multi-tree prediction arena — the inference fast path.

A fitted forest/GBDT predicts by descending each tree independently:
``T`` Python-level loops, each re-gathering rows and re-validating the
batch.  :class:`ForestArena` packs *all* trees of an ensemble into one
contiguous node-array set (``feature``/``threshold``/``child``/
``values`` plus per-tree root offsets) so a whole batch descends every
tree at once: the working state is a single flat array of
``rows × trees`` lanes updated by vectorized gathers, and leaves
self-loop (``child[2n] == child[2n+1] == n``) so finished lanes idle
harmlessly while deep lanes keep walking.

Each split compares a raw feature value against its stored float
threshold, exactly the comparison the seed's per-tree loops make, just
batched.  Inference-time NaN policy (see ``_Tree.predict_value``):
``NaN <= t`` is False, so missing values route RIGHT.

Two walks read the same C-contiguous ``(features, rows)`` input and
return leaves as ``(trees, rows)``.  :meth:`ForestArena.encode` gets
that input from a ``(rows, features)`` batch: a column-major batch —
what the feature assembler builds for a monitor window — is read as a
view, a row-major one is copied once:

* **lanes** (:meth:`ForestArena._descend`) — every ``(tree, row)`` lane
  steps one level per pass, for up to ``max_depth`` passes.  Cheapest
  for small batches, where per-node Python work would dominate.
* **partition** (:meth:`ForestArena._partition`) — per tree, each split
  node compares its row subset against one contiguous column and hands
  the two halves to its children.  Nodes near the root, which hold most
  of the chunk, keep their rows as a boolean mask and compare the whole
  column; smaller nodes gather an index list.  It adds a fixed cost per
  visited node, so it is taken by batches where the lane walk would
  take many lane steps per node (:meth:`ForestArena.partition_min_rows`),
  such as a monitor window.

Both make exactly the comparisons of the per-tree loops, so they agree
bit for bit.  Aggregation gathers leaf values from one contiguous 1-D
vector per output with ``take`` and preserves the seed's float
accumulation order (a sequential per-tree loop, never a pairwise
``np.sum`` over the tree axis), so ensemble probabilities — not just
alarms — stay bit-identical at any walk, row chunking and input layout.

**Screening.**  A monitor only asks which rows reach its alarm
threshold, so :meth:`ForestArena.predict_mean` takes ``at_least``.  A
partitioned chunk then walks tree by tree over a shrinking live set
(:meth:`ForestArena._screen`, on the same per-tree walk,
:meth:`ForestArena._walk_tree`): after each tree a row whose
positive-class sum plus the largest leaves of the trees left (a suffix
cached like the partition program) stays below ``n_trees × at_least``,
less a slack far above float rounding, leaves the walk and comes back
NaN.  Live rows keep the float additions of the full aggregation, so
every row that reaches the threshold is bit-identical.  Lane-walk
chunks are scored in full.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ml.tree import _NO_SPLIT, _Tree
from repro.obs import inc_counter, observe_histogram

__all__ = ["ArenaCached", "ForestArena", "cached_arena"]

#: Lane budget per descent chunk: each step materializes a handful of
#: per-lane temporaries (~8 bytes/lane each), so chunking rows keeps
#: peak memory flat for million-row batches.
_MAX_LANES = 1 << 22

#: A row chunk descends by row partition instead of lanes when it has
#: at least ``_PARTITION_MIN_ROWS`` rows and the lane walk would take at
#: least ``_PARTITION_LANE_STEPS_PER_NODE`` lane steps (rows × depth)
#: per node of the average tree (see :meth:`ForestArena.partition_min_rows`).
#: Per row and level the two walks cost about the same, but the
#: partition adds a few microseconds per visited node, so it wins only
#: where lane steps far outnumber nodes.  Both are chosen from a
#: measured sweep over five forest shapes (``docs/performance.md``,
#: "Arena descent as a row partition").
_PARTITION_MIN_ROWS = 1024
_PARTITION_LANE_STEPS_PER_NODE = 1024

#: Inside the partition walk, a node that holds more than this share of
#: its chunk's rows keeps them as a boolean mask, compared against whole
#: contiguous columns (under 1 ns per row); a smaller one gathers an
#: index list and splits by ``take``/``compress`` (about 5 ns per row).
#: Measured on the monitor forest's lopsided splits (``docs/performance.md``,
#: "Masks near the root").
_PARTITION_MASK_SHARE = 0.25

#: The output column :meth:`ForestArena.predict_mean` screens at a
#: threshold: the positive class of a binary forest.
_SCREENED_OUTPUT = 1

#: Per tree, how far below ``n_trees * at_least`` a row's reachable sum
#: must fall before screening drops it.  ``n_trees`` sequential float
#: additions of leaf values in ``[0, 1]`` round by at most about
#: ``n_trees**2 * 2**-53`` (under 1e-12 for a thousand trees), so a
#: dropped row's computed mean stays below the threshold.
_SCREEN_SLACK = 1e-9


def _count_forms(mask_nodes: int, index_nodes: int) -> None:
    """Add a partition's visited-node counts, by form."""
    inc_counter("predict_partition_nodes_total", float(mask_nodes),
                form="mask")
    inc_counter("predict_partition_nodes_total", float(index_nodes),
                form="index")


def cached_arena(model, build) -> "ForestArena":
    """Return the model's arena, building (and caching) it on first use.

    ``fit`` resets ``model._arena_`` to None, so refits rebuild; models
    unpickled from pre-arena checkpoints lack the attribute and build
    lazily.
    """
    arena = model.__dict__.get("_arena_")
    if arena is None:
        arena = model._arena_ = build()
    return arena


class ArenaCached:
    """Mixin for ensembles that cache their arena in ``_arena_``.

    The arena is derived data, larger than the trees it packs (more so
    once its partition program is built), so pickles (checkpoints,
    ``model.pkl``, ``pickle``-kind artifacts) leave it out and
    :func:`cached_arena` rebuilds it on the first predict after loading.
    """

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_arena_", None)
        return state


class ForestArena:
    """All trees of one ensemble packed into contiguous node arrays."""

    def __init__(self, feature, threshold, child, values, roots,
                 n_features: int, max_depth: int = 0):
        self.feature = feature
        self.threshold = threshold
        #: Interleaved children: ``child[2n]`` = left, ``child[2n+1]`` =
        #: right; leaves point both slots at themselves, so a lane that
        #: reached its leaf stays put whichever way its (discarded)
        #: comparison went — including the NaN-compares-False case.
        self.child = child
        self.values = values
        #: ``values`` as one contiguous 1-D vector per output column, so
        #: aggregation gathers leaf values with flat ``take`` calls.
        self.output_values = np.ascontiguousarray(values.T)
        self.roots = roots
        self.n_features = int(n_features)
        self.max_depth = int(max_depth)
        # Leaves gather feature 0 (any valid column) — their comparison
        # result is discarded because they self-loop.
        self.gather_feature = np.where(feature != _NO_SPLIT, feature, 0)
        self.program = None
        self.reach = None

    # ---------------------------------------------------------- build

    @staticmethod
    def _sibling_order(feature_arr, left_arr, right_arr):
        """BFS permutation placing every split's children adjacently.

        Returns ``(order, new_pos, depth)`` — new-id → old-id, its
        inverse, and the tree's leaf depth (BFS level count), which
        bounds the lane walk.  After permutation ``right == left + 1``
        for every split node.
        """
        n = feature_arr.size
        order = np.zeros(n, dtype=np.int64)
        new_pos = np.zeros(n, dtype=np.int64)
        next_id = 1
        depth = 0
        frontier = np.zeros(1, dtype=np.int64)  # root is old id 0
        while frontier.size:
            parents = frontier[feature_arr[frontier] != _NO_SPLIT]
            if parents.size == 0:
                break
            depth += 1
            children = np.empty(2 * parents.size, dtype=np.int64)
            children[0::2] = left_arr[parents]
            children[1::2] = right_arr[parents]
            ids = next_id + np.arange(children.size, dtype=np.int64)
            order[ids] = children
            new_pos[children] = ids
            next_id += children.size
            frontier = children
        return order, new_pos, depth

    @classmethod
    def from_trees(cls, trees: list[_Tree], n_features: int,
                   n_outputs: int | None = None,
                   tree_columns=None) -> "ForestArena":
        """Pack finalized ``_Tree`` objects into one arena.

        Nodes are re-ordered breadth-first per tree (see
        :meth:`_sibling_order`) — prediction only cares about the graph,
        not the growth order.

        ``tree_columns`` maps each tree's local output columns onto the
        ensemble's (forests bootstrap, so member trees can know fewer
        classes); leaf values land zero-padded on the ensemble columns,
        which leaves the per-tree accumulation floats untouched
        (``x + 0.0 == x``).
        """
        for tree in trees:
            if getattr(tree, "feature_arr", None) is None:
                tree.finalize()
        counts = np.array([tree.feature_arr.size for tree in trees],
                          dtype=np.int64)
        offsets = np.zeros(len(trees), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        total = int(counts.sum())
        if n_outputs is None:
            n_outputs = trees[0].value_arr.shape[1]
        feature = np.empty(total, dtype=np.int64)
        threshold = np.empty(total, dtype=float)
        child = np.empty(2 * total, dtype=np.int64)
        values = np.zeros((total, n_outputs))
        max_depth = 0
        for i, tree in enumerate(trees):
            offset = offsets[i]
            span = slice(offset, offset + counts[i])
            order, new_pos, depth = cls._sibling_order(
                tree.feature_arr, tree.left_arr, tree.right_arr
            )
            max_depth = max(max_depth, depth)
            tree_feature = tree.feature_arr[order]
            feature[span] = tree_feature
            threshold[span] = tree.threshold_arr[order]
            is_leaf = tree_feature == _NO_SPLIT
            node_ids = np.arange(counts[i], dtype=np.int64)
            # Leaf child slots hold _NO_SPLIT (-1) in the tree arrays;
            # the wraparound lookup result is discarded by np.where.
            child[2 * offset:2 * (offset + counts[i]):2] = (
                np.where(is_leaf, node_ids, new_pos[tree.left_arr[order]])
                + offset
            )
            child[2 * offset + 1:2 * (offset + counts[i]) + 1:2] = (
                np.where(is_leaf, node_ids, new_pos[tree.right_arr[order]])
                + offset
            )
            columns = (np.arange(tree.value_arr.shape[1])
                       if tree_columns is None
                       else np.asarray(tree_columns[i]))
            values[span.start:span.stop, columns] = tree.value_arr[order]
        return cls(feature, threshold, child, values, roots=offsets,
                   n_features=n_features, max_depth=max_depth)

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    # -------------------------------------------------------- descent

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Lay a ``(rows, features)`` batch out as the walks' input.

        Both walks read one feature's values across a row chunk, so they
        take the C-contiguous ``(n_features, rows)`` transpose.  A
        column-major batch — what
        :meth:`repro.core.features.FeatureAssembler.assemble` returns —
        already is one, and its transpose is a view; a row-major batch
        pays one copy.
        """
        return np.ascontiguousarray(X.T)

    def _descend(self, columns: np.ndarray) -> np.ndarray:
        """One vectorized multi-tree walk over flattened lanes.

        ``columns`` is the column-major ``(n_features, rows)`` batch from
        :meth:`encode`.  Lanes are the flattened ``(trees, rows)``
        matrix, and the returned array holds each lane's absolute leaf
        index in that shape.  Feature
        lookups go through one flat 1-D gather
        (``feature * n_rows + row``) instead of 2-D advanced indexing,
        and children through the interleaved
        ``child[(node << 1) + went_right]`` gather.

        Two phases: while at least half the lanes still sit on split
        nodes, whole-array steps are cheapest; once the population
        thins (skewed trees route most rows to shallow leaves) the walk
        compacts to the live lanes only, like the per-tree descent.
        """
        n_rows = columns.shape[1]
        shape = (self.n_trees, n_rows)
        lanes = n_rows * self.n_trees
        nodes = np.repeat(self.roots, n_rows)
        row_offset = np.tile(np.arange(n_rows, dtype=np.int64), self.n_trees)
        flat = columns.reshape(-1)
        column_start = self.gather_feature * n_rows
        threshold = self.threshold
        child = self.child

        def step(cur: np.ndarray, offsets: np.ndarray) -> np.ndarray:
            value = flat[offsets + column_start[cur]]
            # ``~(v <= t)`` rather than ``v > t``: both NaN-compares
            # are False, and left must win only when ``v <= t``.
            went_right = ~(value <= threshold[cur])
            return child[(cur << 1) + went_right]

        # The walk needs exactly max_depth steps — lanes that reach
        # their leaf sooner self-loop harmlessly.  A lane that stops
        # moving is at its leaf (children are always distinct nodes;
        # only leaves self-loop), so "did it move" doubles as the
        # liveness test — no node-kind gather per step, and the final
        # depth-bounded step skips the bookkeeping entirely.
        remaining = self.max_depth
        if remaining == 0:  # every tree is a lone root leaf
            return nodes.reshape(shape)
        while remaining > 0:
            stepped = step(nodes, row_offset)
            remaining -= 1
            if remaining == 0:
                return stepped.reshape(shape)
            moved = stepped != nodes
            nodes = stepped
            n_active = int(np.count_nonzero(moved))
            if n_active == 0:
                return nodes.reshape(shape)
            if 2 * n_active < lanes:
                break
        live = np.flatnonzero(moved)
        while live.size and remaining > 0:
            stepped = step(nodes[live], row_offset[live])
            remaining -= 1
            moved = stepped != nodes[live]
            nodes[live] = stepped
            live = live[moved]
        return nodes.reshape(shape)

    def _program(self) -> list[tuple]:
        """Every node as a plain ``(feature, threshold, left, right)`` tuple.

        Indexed by absolute node id, so each tree's nodes keep their BFS
        order; leaves carry feature ``_NO_SPLIT``.  Built once: the
        partition walk reads one node per Python step, and tuple
        unpacking is far cheaper there than numpy scalar reads.
        """
        # Arenas unpickled from older checkpoints lack the attribute.
        program = getattr(self, "program", None)
        if program is None:
            program = self.program = list(zip(
                self.feature.tolist(), self.threshold.tolist(),
                self.child[0::2].tolist(), self.child[1::2].tolist(),
            ))
        return program

    def _partition(self, columns: np.ndarray) -> np.ndarray:
        """Per-tree row partition: one column compare per visited node.

        Same input and output as :meth:`_descend`: every row of the
        chunk walks every tree (:meth:`_walk_tree`), starting from an
        all-true root mask.  ``predict_partition_nodes_total`` counts
        the visited nodes of each form, once per call.
        """
        program = self._program()
        n_rows = columns.shape[1]
        by_feature = list(columns)
        leaves = np.empty((self.n_trees, n_rows), dtype=np.int64)
        dense_rows = _PARTITION_MASK_SHARE * n_rows
        mask_nodes = index_nodes = 0
        for out, root in zip(leaves, self.roots.tolist()):
            masks, indices = self._walk_tree(
                program, by_feature, out, root,
                np.ones(n_rows, dtype=bool), n_rows, dense_rows)
            mask_nodes += masks
            index_nodes += indices
        _count_forms(mask_nodes, index_nodes)
        return leaves

    @staticmethod
    def _walk_tree(program, by_feature, out, root, rows, count,
                   dense_rows) -> tuple[int, int]:
        """Partition one tree's live ``rows`` down to their leaves.

        A split node hands its row set to its children, and a leaf
        writes its node id into ``out`` at its rows; entries of rows
        outside the live set are left untouched.  A one-sided split
        passes the whole set on, so an empty child is never visited.
        ``NaN <= cut`` is False, so NaN rows go right exactly as in the
        lane walk.

        A node holds its rows in one of two forms:

        * a boolean **mask** over the chunk while it holds more than
          ``dense_rows`` rows (``_PARTITION_MASK_SHARE`` of the chunk).
          Its split compares the whole contiguous column and ANDs the
          mask in; the right half is ``left ^ mask``.
        * an **index** list below that share: a child switches once with
          ``nonzero``, then splits by ``take`` and ``compress``.

        ``rows`` is the live set in either form (a mask holding
        ``count`` rows, which the walk may overwrite, or an index list).
        Returns the numbers of nodes visited as masks and as index lists.
        """
        masks, pending = [], []
        if rows.dtype == bool:
            masks.append((root, rows, count))
        else:
            pending.append((root, rows))
        mask_nodes = index_nodes = 0
        while masks:
            node, mask, count = masks.pop()
            mask_nodes += 1
            feature, cut, left, right = program[node]
            if feature == _NO_SPLIT:
                np.copyto(out, node, where=mask)
                continue
            went_left = by_feature[feature] <= cut
            went_left &= mask
            n_left = int(np.count_nonzero(went_left))
            if n_left == count:
                masks.append((left, mask, count))
            elif n_left == 0:
                masks.append((right, mask, count))
            else:
                mask ^= went_left  # now the right half
                for child, half, n_half in ((left, went_left, n_left),
                                            (right, mask, count - n_left)):
                    if n_half > dense_rows:
                        masks.append((child, half, n_half))
                    else:
                        # ``nonzero`` of the 1-D mask: ``flatnonzero``
                        # minus its ravel and dispatch wrappers.
                        pending.append((child, half.nonzero()[0]))
        while pending:
            node, rows = pending.pop()
            index_nodes += 1
            feature, cut, left, right = program[node]
            if feature == _NO_SPLIT:
                out[rows] = node
                continue
            went_left = by_feature[feature].take(rows) <= cut
            # ``compress``, not a boolean index: the latter is several
            # times slower on evenly mixed masks (balanced splits).
            left_rows = rows.compress(went_left)
            if left_rows.size == rows.size:
                pending.append((left, rows))
            elif left_rows.size == 0:
                pending.append((right, rows))
            else:
                pending.append((left, left_rows))
                pending.append((right, rows.compress(~went_left)))
        return mask_nodes, index_nodes

    def _reach(self) -> np.ndarray:
        """``reach[t]``: the most trees ``t, t+1, ...`` can add to the
        screened output (:data:`_SCREENED_OUTPUT`), by largest leaf.

        Built once, like :meth:`_program`; ``reach[n_trees]`` is 0.
        """
        reach = getattr(self, "reach", None)
        if reach is None:
            leaf_values = np.where(self.feature == _NO_SPLIT,
                                   self.output_values[_SCREENED_OUTPUT],
                                   -np.inf)
            best = np.maximum.reduceat(leaf_values, self.roots)
            reach = self.reach = np.zeros(self.n_trees + 1)
            reach[:-1] = np.cumsum(best[::-1])[::-1]
        return reach

    def _screen(self, columns: np.ndarray, floor: float):
        """Row partition that drops rows whose sum cannot reach ``floor``.

        Trees are walked in order (:meth:`_walk_tree`) and the screened
        output's leaf values are summed per live row as each tree is
        walked, from 0.0 in tree order — the float additions of the full
        aggregation.  After tree ``t`` a row leaves the walk when its sum
        plus ``reach[t + 1]`` (:meth:`_reach`) is below ``floor``: no
        leaves of the trees left can lift it there.  A live set of more
        than the mask share starts each tree as a mask, a smaller one
        directly as an index list.

        Returns ``(leaves, kept, partial)``: leaves as from
        :meth:`_partition` (valid in the ``kept`` columns only), the
        rows that stayed live through the last tree, and their sums.
        ``predict_screened_lanes_total`` counts the ``(tree, row)``
        lanes walked and skipped, once per call.
        """
        program = self._program()
        reach = self._reach()
        values = self.output_values[_SCREENED_OUTPUT]
        n_rows = columns.shape[1]
        by_feature = list(columns)
        leaves = np.empty((self.n_trees, n_rows), dtype=np.int64)
        dense_rows = _PARTITION_MASK_SHARE * n_rows
        mask_nodes = index_nodes = walked = 0
        kept = np.arange(n_rows)
        partial = np.zeros(n_rows)
        for tree, (out, root) in enumerate(zip(leaves, self.roots.tolist())):
            count = kept.size
            if count == 0:
                break
            walked += count
            if count == n_rows:
                rows = np.ones(n_rows, dtype=bool)
            elif count > dense_rows:
                rows = np.zeros(n_rows, dtype=bool)
                rows[kept] = True
            else:
                rows = kept
            masks, indices = self._walk_tree(
                program, by_feature, out, root, rows, count, dense_rows)
            mask_nodes += masks
            index_nodes += indices
            partial += values.take(out if count == n_rows else out.take(kept))
            reachable = partial + reach[tree + 1] >= floor
            if not reachable.all():
                kept = kept.compress(reachable)
                partial = partial.compress(reachable)
        _count_forms(mask_nodes, index_nodes)
        inc_counter("predict_screened_lanes_total", float(walked),
                    outcome="walked")
        inc_counter("predict_screened_lanes_total",
                    float(self.n_trees * n_rows - walked), outcome="skipped")
        return leaves, kept, partial

    def _chunk_rows(self) -> int:
        return max(1, _MAX_LANES // max(1, self.n_trees))

    def partition_min_rows(self) -> int:
        """Smallest row chunk that descends by row partition."""
        lane_steps = _PARTITION_LANE_STEPS_PER_NODE * self.n_nodes
        per_row = max(1, self.n_trees) * max(1, self.max_depth)
        return max(_PARTITION_MIN_ROWS, -(-lane_steps // per_row))

    def _leaf_chunks(self, X: np.ndarray, floor: float | None = None):
        """Yield ``(span, leaves, kept)`` per row chunk of a batch.

        ``leaves`` is the chunk's ``(n_trees, rows)`` absolute leaf ids.
        A chunk of at least :meth:`partition_min_rows` rows descends by
        row partition, a smaller one by lanes; both are bit-identical.
        ``kept`` is None when every row walked every tree.  With a
        ``floor``, a partitioned chunk is screened (:meth:`_screen`):
        ``kept`` is then its ``(rows, partial)`` — the rows still live
        after the last tree (the only columns of ``leaves`` that are
        valid) and their sums of the screened output.
        ``predict_batch_seconds`` is observed once the last chunk has
        been consumed, so it spans encode, descent and aggregation.
        """
        started = time.perf_counter()
        columns = self.encode(X)
        chunk = self._chunk_rows()
        min_rows = self.partition_min_rows()
        for start in range(0, X.shape[0], chunk):
            span = slice(start, start + chunk)
            part = columns[:, span]
            n_rows = part.shape[1]
            if n_rows < min_rows:
                yield span, self._descend(part), None
                continue
            inc_counter("predict_partition_rows_total", float(n_rows))
            if floor is None:
                yield span, self._partition(part), None
            else:
                leaves, rows, partial = self._screen(part, floor)
                yield span, leaves, (rows, partial)
        inc_counter("predict_requests_total", engine="float")
        inc_counter("predict_rows_total", float(X.shape[0]), engine="float")
        observe_histogram(
            "predict_batch_seconds", time.perf_counter() - started
        )

    # ---------------------------------------------- ensemble predicts

    def predict_mean(self, X: np.ndarray,
                     at_least: float | None = None) -> np.ndarray:
        """Forest-classifier aggregation: mean of aligned leaf values.

        Accumulates tree-by-tree per output column and row chunk — the
        same float addition sequence as the seed's per-tree loop, so
        probabilities are bit-identical.  Returns the transpose of an
        ``(outputs, rows)`` block, so each output's column is contiguous.

        With ``at_least``, partitioned chunks are screened on output
        :data:`_SCREENED_OUTPUT`: a row leaves the walk once the trees
        left cannot lift that output's mean to ``at_least`` (less a
        slack of ``_SCREEN_SLACK`` per tree), and comes back NaN in
        every column.  Every other row — all that reach ``at_least`` —
        keeps its bit-identical probabilities.
        """
        n_outputs = self.output_values.shape[0]
        floor = None
        if at_least is not None and n_outputs > _SCREENED_OUTPUT:
            floor = self.n_trees * (at_least - _SCREEN_SLACK)
        out = np.zeros((n_outputs, X.shape[0]))
        for span, leaves, kept in self._leaf_chunks(X, floor):
            block = out[:, span]
            if kept is None:
                for aggregate, values in zip(block, self.output_values):
                    for tree_leaves in leaves:
                        aggregate += values.take(tree_leaves)
                block /= self.n_trees
                continue
            rows, partial = kept
            block.fill(np.nan)
            leaves = leaves.take(rows, axis=1)
            for output, (aggregate, values) in enumerate(
                zip(block, self.output_values)
            ):
                if output == _SCREENED_OUTPUT:
                    total = partial
                else:
                    total = np.zeros(rows.size)
                    for tree_leaves in leaves:
                        total += values.take(tree_leaves)
                aggregate[rows] = total / self.n_trees
        return out.T

    def predict_raw(self, X: np.ndarray, initial_score: float,
                    learning_rate: float) -> np.ndarray:
        """GBDT aggregation: additive raw score in boosting order."""
        raw = np.full(X.shape[0], initial_score)
        values = self.output_values[0]
        for span, leaves, _ in self._leaf_chunks(X):
            segment = raw[span]
            for tree_leaves in leaves:
                segment += learning_rate * values.take(tree_leaves)
        return raw

    def predict_stack(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions as a ``(trees, rows)`` stack.

        The regressor forest reduces this with ``np.mean(stack,
        axis=0)`` — the identical reduction (and pairwise-summation
        pattern) the seed applies to its list of per-tree predictions.
        """
        stack = np.empty((self.n_trees, X.shape[0]))
        for span, leaves, _ in self._leaf_chunks(X):
            stack[:, span] = self.output_values[0].take(leaves)
        return stack
