"""Versioned model artifacts: round-trip bit-identity and corruption.

``save_model`` writes a self-describing directory — schema-versioned
``manifest.json`` with per-file sha256, tree family packed into npz,
optional reference profile — through the same atomic-write discipline
as the serve checkpoints. ``load_model`` must give back a model whose
probabilities AND thresholded alarms are bit-identical at every
``n_jobs``, and must refuse (with :class:`ArtifactCorruptError`) any
artifact whose bytes, file set, or schema version do not match the
manifest.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.ml.artifact import (
    MANIFEST_FILE,
    ArtifactCorruptError,
    artifact_hash,
    inspect_artifact,
    load_model,
    save_model,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def _problem(seed: int = 0, n: int = 300, d: int = 5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 2] = rng.integers(0, 6, n)
    y = ((X[:, 0] + X[:, 2] > 1.5) ^ (rng.random(n) < 0.1)).astype(int)
    return X, y


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DecisionTreeClassifier(max_depth=5, seed=1),
            lambda: RandomForestClassifier(n_estimators=6, max_depth=5, seed=2),
            lambda: RandomForestClassifier(
                n_estimators=4, max_depth=4, seed=3, split_algorithm="hist"
            ),
            lambda: GradientBoostingClassifier(n_estimators=8, max_depth=3),
        ],
        ids=["tree", "forest", "forest-hist", "gbdt"],
    )
    def test_classifier_probas_and_alarms_bit_identical(self, factory, tmp_path):
        X, y = _problem()
        model = factory().fit(X, y)
        rows = np.random.default_rng(9).normal(scale=2.0, size=(200, X.shape[1]))
        expected = model.predict_proba(rows)
        save_model(model, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        got = loaded.predict_proba(rows)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            got[:, 1] >= 0.5, expected[:, 1] >= 0.5
        )
        np.testing.assert_array_equal(loaded.predict(rows), model.predict(rows))

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_forest_n_jobs_invariant(self, n_jobs, tmp_path):
        """The loaded model scores identically whether the original was
        fitted serially or on a pool, and regardless of the loader's
        parallelism setting."""
        X, y = _problem(seed=4)
        model = RandomForestClassifier(
            n_estimators=6, max_depth=5, seed=0, n_jobs=n_jobs
        ).fit(X, y)
        rows = np.random.default_rng(5).normal(size=(150, X.shape[1]))
        expected = model.predict_proba(rows)
        save_model(model, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        np.testing.assert_array_equal(loaded.predict_proba(rows), expected)

    def test_regressors_round_trip(self, tmp_path):
        X, _ = _problem(seed=6)
        y = X[:, 1] * 3 + np.abs(X[:, 0])
        for name, model in (
            ("tree", DecisionTreeRegressor(max_depth=4, seed=0).fit(X, y)),
            (
                "forest",
                RandomForestRegressor(n_estimators=5, max_depth=4, seed=0).fit(
                    X, y
                ),
            ),
        ):
            save_model(model, tmp_path / name)
            loaded = load_model(tmp_path / name)
            np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_hist_bin_edges_restored(self, tmp_path):
        X, y = _problem(seed=7)
        model = RandomForestClassifier(
            n_estimators=4, max_depth=4, seed=0, split_algorithm="hist"
        ).fit(X, y)
        save_model(model, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        assert len(loaded.bin_edges_) == len(model.bin_edges_)
        for got, expected in zip(loaded.bin_edges_, model.bin_edges_):
            np.testing.assert_array_equal(got, expected)

    def test_load_mobility(self, tmp_path):
        """An artifact directory can be moved/renamed wholesale — no
        absolute paths are baked in."""
        X, y = _problem(seed=8)
        model = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0).fit(
            X, y
        )
        save_model(model, tmp_path / "original")
        shutil.move(str(tmp_path / "original"), str(tmp_path / "relocated"))
        loaded = load_model(tmp_path / "relocated")
        np.testing.assert_array_equal(
            loaded.predict_proba(X), model.predict_proba(X)
        )


class TestManifest:
    def _saved(self, tmp_path):
        X, y = _problem(seed=10)
        model = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0).fit(
            X, y
        )
        directory = tmp_path / "artifact"
        save_model(model, directory)
        return directory

    def test_inspect_reports_identity(self, tmp_path):
        directory = self._saved(tmp_path)
        info = inspect_artifact(directory)
        assert info["schema_version"] == 1
        assert info["class"] == "RandomForestClassifier"
        assert info["verified"] is True
        assert info["artifact_hash"] == artifact_hash(directory)
        assert "model.npz" in info["files"]

    def test_parent_layout_manifest_loads_identically(self, tmp_path):
        """Artifact manifests are still written in the byte layout they
        had before the shared commit protocol, and a hand-built one
        loads to the same model under the same artifact_hash."""
        X, y = _problem(seed=12)
        for name, model in (
            ("npz", RandomForestClassifier(n_estimators=3, max_depth=4, seed=0)
             .fit(X, y)),
            ("pickle", {"pickle": "fallback", "weights": [1.0, 2.0]}),
        ):
            directory = save_model(model, tmp_path / name)
            manifest = json.loads((directory / MANIFEST_FILE).read_text())
            manifest["files"] = {
                file: {
                    "sha256": hashlib.sha256(
                        (directory / file).read_bytes()
                    ).hexdigest(),
                    "size": (directory / file).stat().st_size,
                }
                for file in manifest["files"]
            }
            parent = json.dumps(manifest, indent=2, sort_keys=True).encode()
            assert (directory / MANIFEST_FILE).read_bytes() == parent
            (directory / MANIFEST_FILE).write_bytes(parent)
            assert artifact_hash(directory) == hashlib.sha256(
                json.dumps(json.loads(parent), sort_keys=True).encode()
            ).hexdigest()[:16]
            loaded = load_model(directory)
            if name == "npz":
                np.testing.assert_array_equal(
                    loaded.predict_proba(X), model.predict_proba(X)
                )
            else:
                assert loaded == model

    def test_hash_stable_and_content_sensitive(self, tmp_path):
        directory = self._saved(tmp_path)
        assert artifact_hash(directory) == artifact_hash(directory)
        manifest = json.loads((directory / MANIFEST_FILE).read_text())
        manifest["params"]["n_estimators"] = 99
        (directory / MANIFEST_FILE).write_text(json.dumps(manifest))
        assert artifact_hash(directory) != artifact_hash(self._saved(tmp_path / "b"))


class TestCorruption:
    def _saved(self, tmp_path):
        X, y = _problem(seed=11)
        model = RandomForestClassifier(n_estimators=3, max_depth=4, seed=0).fit(
            X, y
        )
        directory = tmp_path / "artifact"
        save_model(model, directory)
        return directory

    def test_flipped_payload_byte_refused(self, tmp_path):
        directory = self._saved(tmp_path)
        payload = bytearray((directory / "model.npz").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (directory / "model.npz").write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptError, match="sha256"):
            load_model(directory)

    def test_truncated_payload_refused(self, tmp_path):
        directory = self._saved(tmp_path)
        payload = (directory / "model.npz").read_bytes()
        (directory / "model.npz").write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ArtifactCorruptError):
            load_model(directory)

    def test_missing_file_refused(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "model.npz").unlink()
        with pytest.raises(ArtifactCorruptError, match="missing"):
            load_model(directory)

    def test_schema_version_mismatch_refused(self, tmp_path):
        directory = self._saved(tmp_path)
        manifest = json.loads((directory / MANIFEST_FILE).read_text())
        manifest["schema_version"] = 99
        (directory / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptError, match="schema"):
            load_model(directory)

    def test_garbled_manifest_refused(self, tmp_path):
        directory = self._saved(tmp_path)
        manifest = json.loads((directory / MANIFEST_FILE).read_text())
        (directory / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(ArtifactCorruptError):
            load_model(directory)
        # Valid JSON that is not a well-formed manifest: a list, a list
        # as the files block, a files entry without its size.
        files = manifest["files"]
        sizeless = {
            name: {"sha256": entry["sha256"]} for name, entry in files.items()
        }
        for garbled in (
            [manifest],
            {**manifest, "files": list(files)},
            {**manifest, "files": sizeless},
        ):
            (directory / MANIFEST_FILE).write_text(json.dumps(garbled))
            with pytest.raises(ArtifactCorruptError):
                load_model(directory)

    def test_absent_manifest_is_not_an_artifact(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / MANIFEST_FILE).unlink()
        with pytest.raises(FileNotFoundError):
            load_model(directory)
