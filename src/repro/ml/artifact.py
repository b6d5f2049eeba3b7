"""Versioned model artifacts: train once, serve anywhere.

An artifact is a directory holding one fitted model in a re-loadable,
integrity-checked form::

    artifact/
      model.npz        # tree-family ensembles, native array layout
      model.pkl        # any other estimator (pickle fallback)
      pipeline.pkl     # MFPA bundles: the fitted pipeline state
      model/…          # MFPA bundles: nested artifact for .model_
      reference_profile.json   # optional drift baseline (PR-9)
      manifest.json    # schema version, kind, params, provenance,
                       # per-file sha256+size — the commit point

An artifact is a manifested directory, written and read through the
shared helpers of :mod:`repro.robustness.checkpoint`:
:func:`~repro.robustness.checkpoint.commit` stages the payloads,
writes ``manifest.json`` as the commit point and renames them into
place, so a crash mid-save leaves either the previous artifact or the
new one. Loading rolls an interrupted save forward, then checks every
file against the manifest: truncation, a content-hash mismatch, a
malformed manifest or an undecodable payload is a typed
:class:`ArtifactCorruptError` instead of unpickled garbage.

Tree-family models (``DecisionTree*``, ``RandomForest*``,
``GradientBoostingClassifier``) are stored natively: per-tree node
arrays flat-concatenated with node counts (the same packed idiom as
:class:`repro.ml.arena.ForestArena`), leaf-value blocks padded to the
widest class count, and the PR-5 bin-edge snapshot so a loaded model
rebuilds its binned prediction engine bit-identically — probabilities
AND alarms match the model that was saved, at any ``n_jobs``.

Provenance mirrors the run manifest (:mod:`repro.obs.manifest`): the
config hash digests the estimator's constructor knobs and an optional
dataset fingerprint records what the model was fitted on.
:func:`artifact_hash` digests the canonical manifest — serve
checkpoints record it so ``--resume`` can refuse a checkpoint written
by a different model.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import time
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _Tree
from repro.obs import inc_counter
from repro.obs.manifest import config_hash, dataset_fingerprint
from repro.robustness.checkpoint import (
    MANIFEST_FILE,
    check_files,
    commit,
    load_payload,
    read_manifest,
    roll_forward,
)

__all__ = [
    "MANIFEST_FILE",
    "ArtifactCorruptError",
    "ArtifactMismatchError",
    "SCHEMA_VERSION",
    "artifact_hash",
    "inspect_artifact",
    "load_model",
    "save_model",
]

SCHEMA_VERSION = 1
_NPZ_FILE = "model.npz"
_PKL_FILE = "model.pkl"
_PIPELINE_FILE = "pipeline.pkl"
_PROFILE_FILE = "reference_profile.json"
_MODEL_SUBDIR = "model"

#: kind → (class, fitted scalar/array attribute names stored beside the
#: packed trees). ``trees_``/``tree_`` and ``bin_edges_`` are handled
#: structurally.
_TREE_KINDS = {
    "decision_tree_classifier": DecisionTreeClassifier,
    "decision_tree_regressor": DecisionTreeRegressor,
    "random_forest_classifier": RandomForestClassifier,
    "random_forest_regressor": RandomForestRegressor,
    "gradient_boosting_classifier": GradientBoostingClassifier,
}
_KIND_OF = {cls: kind for kind, cls in _TREE_KINDS.items()}


class ArtifactCorruptError(RuntimeError):
    """An artifact file is missing, truncated, altered, or from an
    unsupported schema version."""


class ArtifactMismatchError(RuntimeError):
    """An artifact is valid but is not the one the caller requires
    (e.g. resuming serve state written by a different model)."""


# ----------------------------------------------------------------------
# Tree packing
# ----------------------------------------------------------------------
def _pack_trees(trees: list[_Tree]) -> dict[str, np.ndarray]:
    """Flat-concatenate per-tree node arrays (arena idiom).

    Leaf-value blocks are padded to the widest per-tree output count;
    ``value_widths`` records each tree's true width so unpacking slices
    the padding back off.
    """
    counts = np.array([t.feature_arr.size for t in trees], dtype=np.int64)
    widths = np.array([t.value_arr.shape[1] for t in trees], dtype=np.int64)
    values = np.zeros((int(counts.sum()), int(widths.max())))
    offset = 0
    for tree, count in zip(trees, counts):
        values[offset:offset + count, : tree.value_arr.shape[1]] = tree.value_arr
        offset += int(count)
    return {
        "node_counts": counts,
        "value_widths": widths,
        "feature": np.concatenate([t.feature_arr for t in trees]),
        "threshold": np.concatenate([t.threshold_arr for t in trees]),
        "left": np.concatenate([t.left_arr for t in trees]),
        "right": np.concatenate([t.right_arr for t in trees]),
        "values": values,
    }


def _unpack_trees(data) -> list[_Tree]:
    counts = data["node_counts"]
    widths = data["value_widths"]
    trees: list[_Tree] = []
    offset = 0
    for count, width in zip(counts, widths):
        span = slice(offset, offset + int(count))
        tree = _Tree(n_outputs=int(width))
        tree.feature_arr = np.ascontiguousarray(data["feature"][span])
        tree.threshold_arr = np.ascontiguousarray(data["threshold"][span])
        tree.left_arr = np.ascontiguousarray(data["left"][span])
        tree.right_arr = np.ascontiguousarray(data["right"][span])
        tree.value_arr = np.ascontiguousarray(data["values"][span, : int(width)])
        # List storage mirrors the arrays so n_nodes/len keep working;
        # a loaded tree is never grown further.
        tree.feature = tree.feature_arr
        tree.threshold = tree.threshold_arr
        tree.left = tree.left_arr
        tree.right = tree.right_arr
        tree.value = tree.value_arr
        trees.append(tree)
        offset += int(count)
    return trees


def _init_params(model) -> dict:
    """The model's constructor parameters (stored under their names)."""
    import inspect

    names = [
        name
        for name in inspect.signature(type(model).__init__).parameters
        if name != "self"
    ]
    return {name: getattr(model, name) for name in names}


def _jsonable_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, dict):
            out[key] = {str(k): v for k, v in value.items()}
        else:
            out[key] = value
    return out


def _bin_edges_arrays(bin_edges) -> dict[str, np.ndarray]:
    if not bin_edges:
        return {}
    edges = list(bin_edges)
    return {
        "bin_edge_sizes": np.array([e.size for e in edges], dtype=np.int64),
        "bin_edges": (
            np.concatenate(edges) if edges else np.empty(0)
        ),
    }


def _restore_bin_edges(data):
    if "bin_edge_sizes" not in data:
        return None
    sizes = data["bin_edge_sizes"]
    flat = data["bin_edges"]
    edges, offset = [], 0
    for size in sizes:
        edges.append(np.ascontiguousarray(flat[offset:offset + int(size)]))
        offset += int(size)
    return edges


# ----------------------------------------------------------------------
# Per-kind state
# ----------------------------------------------------------------------
def _collect_state(model, kind: str) -> dict[str, np.ndarray]:
    """Arrays beyond the packed trees a kind needs to predict again."""
    state: dict[str, np.ndarray] = {}
    if kind == "decision_tree_classifier":
        state["classes"] = model.classes_
        state["feature_importances"] = model.feature_importances_
        state["n_features"] = np.int64(model.n_features_)
    elif kind == "decision_tree_regressor":
        state["n_features"] = np.int64(model.n_features_)
    elif kind == "random_forest_classifier":
        state["classes"] = model.classes_
        state["feature_importances"] = model.feature_importances_
        state["n_features"] = np.int64(model.n_features_)
        member_classes = [tree.classes_ for tree in model.trees_]
        state["member_class_counts"] = np.array(
            [c.size for c in member_classes], dtype=np.int64
        )
        state["member_classes"] = np.concatenate(member_classes)
    elif kind == "random_forest_regressor":
        state["n_features"] = np.int64(model.n_features_)
    elif kind == "gradient_boosting_classifier":
        state["classes"] = model.classes_
        state["n_features"] = np.int64(model.n_features_)
        state["initial_score"] = np.float64(model.initial_score_)
        state["train_deviance"] = np.asarray(model.train_deviance_)
    return state


def _member_seeds(model) -> np.ndarray:
    return np.array([tree.seed for tree in model.trees_], dtype=np.int64)


def _save_tree_family(model, kind: str) -> bytes:
    """The model.npz payload."""
    if kind.startswith("decision_tree"):
        packed = _pack_trees([model.tree_])
    else:
        packed = _pack_trees([tree.tree_ for tree in model.trees_])
        packed["member_seeds"] = _member_seeds(model)
    packed.update(_collect_state(model, kind))
    packed.update(_bin_edges_arrays(getattr(model, "bin_edges_", None)))
    buffer = io.BytesIO()
    np.savez(buffer, **packed)
    return buffer.getvalue()


def _member_params(params: dict) -> dict:
    """Constructor params a forest/GBDT passes down to member trees."""
    shared = dict(params)
    for key in ("n_estimators", "bootstrap", "seed", "n_jobs", "subsample",
                "learning_rate"):
        shared.pop(key, None)
    return shared


def _load_tree_family(kind: str, params: dict, path: Path):
    cls = _TREE_KINDS[kind]
    try:
        with open(path / _NPZ_FILE, "rb") as handle:
            data = dict(np.load(handle, allow_pickle=False))
    except (OSError, ValueError, KeyError) as error:
        raise ArtifactCorruptError(
            f"artifact payload {path / _NPZ_FILE} is unreadable: {error}"
        ) from error
    model = cls(**params)
    bin_edges = _restore_bin_edges(data)
    trees = _unpack_trees(data)
    if kind == "decision_tree_classifier":
        model.classes_ = data["classes"]
        model.feature_importances_ = data["feature_importances"]
        model.n_features_ = int(data["n_features"])
        model.tree_ = trees[0]
        model.bin_edges_ = bin_edges
    elif kind == "decision_tree_regressor":
        model.n_features_ = int(data["n_features"])
        model.tree_ = trees[0]
        model.bin_edges_ = bin_edges
    elif kind in ("random_forest_classifier", "random_forest_regressor"):
        member_cls = (
            DecisionTreeClassifier
            if kind == "random_forest_classifier"
            else DecisionTreeRegressor
        )
        shared = _member_params(params)
        members = []
        class_offset = 0
        for i, tree in enumerate(trees):
            member = member_cls(seed=int(data["member_seeds"][i]), **shared)
            member.tree_ = tree
            member.n_features_ = int(data["n_features"])
            member.bin_edges_ = bin_edges
            if kind == "random_forest_classifier":
                count = int(data["member_class_counts"][i])
                member.classes_ = data["member_classes"][
                    class_offset:class_offset + count
                ]
                class_offset += count
                member.feature_importances_ = np.zeros(int(data["n_features"]))
            members.append(member)
        model.trees_ = members
        model.n_features_ = int(data["n_features"])
        model.bin_edges_ = bin_edges
        model._arena_ = None
        if kind == "random_forest_classifier":
            model.classes_ = data["classes"]
            model.feature_importances_ = data["feature_importances"]
            model._tree_columns_ = model._align_tree_columns()
    elif kind == "gradient_boosting_classifier":
        shared = _member_params(params)
        members = []
        for i, tree in enumerate(trees):
            member = DecisionTreeRegressor(
                seed=int(data["member_seeds"][i]),
                max_depth=params["max_depth"],
                min_samples_leaf=params["min_samples_leaf"],
                split_algorithm=params["split_algorithm"],
            )
            member.tree_ = tree
            member.n_features_ = int(data["n_features"])
            member.bin_edges_ = bin_edges
            members.append(member)
        model.trees_ = members
        model.classes_ = data["classes"]
        model.n_features_ = int(data["n_features"])
        model.initial_score_ = float(data["initial_score"])
        model.train_deviance_ = [float(v) for v in data["train_deviance"]]
        model.bin_edges_ = bin_edges
        model._arena_ = None
    return model


# ----------------------------------------------------------------------
# Save / load / inspect
# ----------------------------------------------------------------------
def _is_mfpa(model) -> bool:
    return type(model).__name__ == "MFPA" and hasattr(model, "config")


def save_model(model, directory: str | Path, *, dataset=None,
               reference_profile=None) -> Path:
    """Persist a fitted model as a versioned artifact directory.

    Tree-family ensembles are stored natively (arrays, no pickle);
    anything else falls back to a hashed pickle payload.  A fitted
    :class:`~repro.core.pipeline.MFPA` becomes a bundle: pipeline state
    plus a nested artifact for its estimator.  ``dataset`` (when given)
    is fingerprinted for provenance; ``reference_profile`` (a PR-9
    :class:`~repro.serve.drift.ReferenceProfile`) rides along for
    serve-side drift monitoring.
    """
    path = Path(directory)
    header: dict = {}
    params: dict = {}
    if _is_mfpa(model):
        payloads, nested_hash = _save_mfpa(model, path)
        header["model_artifact_hash"] = nested_hash
        kind = fmt = "mfpa"
        hashed = config_hash(model.config)
        if dataset is None:
            dataset = getattr(model, "dataset_", None)
    elif type(model) in _KIND_OF:
        kind, fmt = _KIND_OF[type(model)], "npz"
        params = _init_params(model)
        payloads = {_NPZ_FILE: _save_tree_family(model, kind)}
        hashed = config_hash(model)
    else:
        kind = fmt = "pickle"
        payloads = {_PKL_FILE: pickle.dumps(model)}
        hashed = config_hash(model) if hasattr(model, "get_params") else None
    if reference_profile is not None:
        payloads[_PROFILE_FILE] = json.dumps(
            reference_profile.to_json(), sort_keys=True
        ).encode()
    header.update({
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "format": fmt,
        "class": type(model).__name__,
        "params": _jsonable_params(params),
        "config_hash": hashed,
        "dataset_fingerprint": (
            dataset_fingerprint(dataset) if dataset is not None else None
        ),
        "bin_edges": _bin_edge_summary(model),
        "created_unix": round(time.time(), 3),
    })
    commit(path, payloads, header)
    inc_counter("model_artifacts_saved_total")
    return path


def _bin_edge_summary(model):
    edges = getattr(model, "bin_edges_", None)
    if not edges:
        model_ = getattr(model, "model_", None)
        edges = getattr(model_, "bin_edges_", None) if model_ is not None else None
    if not edges:
        return None
    return {
        "n_features": len(edges),
        "sizes": [int(e.size) for e in edges],
    }


def _save_mfpa(pipeline, path: Path) -> tuple[dict[str, bytes], str]:
    """MFPA bundle: the pipeline state payload, after committing the
    nested estimator artifact (returned with its hash)."""
    state = dict(pipeline.__dict__)
    # The prepared dataset is rebound at load time (bind_dataset); the
    # estimator goes into its own nested artifact.
    state.pop("dataset_", None)
    state.pop("model_", None)
    state.pop("search_", None)
    nested = save_model(pipeline.model_, path / _MODEL_SUBDIR)
    return {_PIPELINE_FILE: pickle.dumps(state)}, artifact_hash(nested)


def _load_manifest(path: Path) -> dict:
    """The validated manifest, after finishing an interrupted save."""
    roll_forward(path)
    return read_manifest(
        path, "schema_version", SCHEMA_VERSION, ArtifactCorruptError
    )


def load_model(directory: str | Path):
    """Load a model artifact, verifying integrity first.

    Raises :class:`ArtifactCorruptError` on truncation, content-hash
    mismatch, schema-version mismatch, or an undecodable payload;
    ``FileNotFoundError`` when ``directory`` holds no artifact.  The
    returned model predicts bit-identically to the one saved
    (including through the binned arena, rebuilt from the stored
    bin-edge snapshot) and is independent of the directory it was
    saved in.
    """
    path = Path(directory)
    manifest = _load_manifest(path)
    check_files(path, manifest, None, ArtifactCorruptError)
    kind = manifest.get("kind")
    if kind in _TREE_KINDS:
        params = dict(manifest.get("params", {}))
        model = _load_tree_family(kind, params, path)
    elif kind == "pickle":
        model = load_payload(path / _PKL_FILE, ArtifactCorruptError)
    elif kind == "mfpa":
        model = _load_mfpa(path)
    else:
        raise ArtifactCorruptError(
            f"artifact {path} has unknown kind {kind!r}"
        )
    inc_counter("model_artifacts_loaded_total")
    return model


def _load_mfpa(path: Path):
    from repro.core.pipeline import MFPA

    state = load_payload(path / _PIPELINE_FILE, ArtifactCorruptError)
    pipeline = MFPA.__new__(MFPA)
    pipeline.__dict__.update(state)
    pipeline.model_ = load_model(path / _MODEL_SUBDIR)
    return pipeline


def load_reference_profile(directory: str | Path):
    """The artifact's bundled drift baseline, or None if absent."""
    from repro.serve.drift import ReferenceProfile

    path = Path(directory) / _PROFILE_FILE
    if not path.exists():
        return None
    return ReferenceProfile.from_json(load_payload(path, ArtifactCorruptError))


def inspect_artifact(directory: str | Path) -> dict:
    """The artifact's manifest plus an integrity verdict (no model
    construction)."""
    path = Path(directory)
    manifest = _load_manifest(path)
    try:
        check_files(path, manifest, None, ArtifactCorruptError)
        manifest["verified"] = True
    except ArtifactCorruptError as error:
        manifest["verified"] = False
        manifest["corruption"] = str(error)
    manifest["artifact_hash"] = artifact_hash(path)
    return manifest


def artifact_hash(directory: str | Path) -> str:
    """16-hex digest of the canonical manifest — the artifact identity.

    Two artifacts hash equal iff their manifests are byte-equal
    (same payload hashes, params, provenance).  Serve checkpoints
    record this so resuming against a different model's state fails
    loudly (:class:`ArtifactMismatchError`) instead of silently mixing
    score histories.
    """
    payload = json.dumps(_load_manifest(Path(directory)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
