"""Shard store roundtrip, manifest integrity, and error paths."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.scale import (
    MANIFEST_NAME,
    ShardManifestError,
    ShardWriter,
    ShardedDataset,
    is_shard_store,
    write_dataset_sharded,
)
from repro.telemetry.dataset import TelemetryDataset


class TestRoundtrip:
    def test_concat_of_shards_equals_original(self, small_fleet, shard_store):
        rebuilt = TelemetryDataset.concat(
            [dataset for _, dataset in shard_store.iter_shards()]
        )
        assert set(rebuilt.columns) == set(small_fleet.columns)
        for name, values in small_fleet.columns.items():
            np.testing.assert_array_equal(rebuilt.columns[name], values)
        assert rebuilt.drives == small_fleet.drives
        assert sorted(rebuilt.tickets, key=lambda t: t.serial) == sorted(
            small_fleet.tickets, key=lambda t: t.serial
        )

    def test_shards_partition_serials_ascending(self, shard_store):
        previous_last = 0
        for info in shard_store.shards:
            assert info.first_serial > previous_last
            assert info.first_serial <= info.last_serial
            previous_last = info.last_serial

    def test_manifest_totals_match(self, small_fleet, shard_store):
        summary = shard_store.summary()
        assert summary["n_shards"] == 3
        assert summary["n_drives"] == small_fleet.n_drives
        assert summary["n_rows"] == small_fleet.n_records
        assert summary["n_bytes"] == sum(
            info.n_bytes for info in shard_store.shards
        )
        assert len(summary["fleet_fingerprint"]) == 16

    def test_parent_layout_manifest_loads_identically(
        self, small_fleet, tmp_path
    ):
        """A store manifest rebuilt by hand in its original byte layout
        (sha256s from plain hashlib) verifies and loads the same shards."""
        store = write_dataset_sharded(small_fleet, tmp_path / "s", n_shards=2)
        manifest = json.loads((store.root / MANIFEST_NAME).read_text())
        for record in manifest["shards"]:
            blob = (store.root / record["filename"]).read_bytes()
            assert record["sha256"] == hashlib.sha256(blob).hexdigest()
            assert record["n_bytes"] == len(blob)
        (store.root / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        reopened = ShardedDataset(store.root)
        assert reopened.fleet_fingerprint == store.fleet_fingerprint
        for index in range(store.n_shards):
            got = reopened.load_shard(index, verify=True)
            want = store.load_shard(index)
            assert got.drives == want.drives
            for column, values in want.columns.items():
                np.testing.assert_array_equal(got.columns[column], values)

    def test_verified_load_passes_on_intact_store(self, shard_store):
        _ = shard_store.load_shard(0, verify=True)

    def test_zero_row_drive_meta_survives_sharding(self, small_fleet, tmp_path):
        # A drive can have a meta (and ticket) but no telemetry rows —
        # e.g. quarantined to extinction. Its meta must still land in a
        # shard so grading sees the drive.
        victim = sorted(small_fleet.drives)[0]
        trimmed = small_fleet.select_rows(
            small_fleet.columns["serial"] != victim
        )
        dataset = TelemetryDataset(
            dict(trimmed.columns),
            {**trimmed.drives, victim: small_fleet.drives[victim]},
            list(small_fleet.tickets),
        )
        store = write_dataset_sharded(dataset, tmp_path / "s", n_shards=2)
        rebuilt = TelemetryDataset.concat(
            [shard for _, shard in store.iter_shards()]
        )
        assert victim in rebuilt.drives
        assert rebuilt.drives[victim] == small_fleet.drives[victim]
        assert not np.any(rebuilt.columns["serial"] == victim)


class TestDetection:
    def test_is_shard_store(self, shard_store, tmp_path):
        assert is_shard_store(shard_store.root)
        assert not is_shard_store(tmp_path)
        assert not is_shard_store(tmp_path / "does-not-exist")

    def test_interrupted_overwrite_reads_as_absent(self, small_fleet, tmp_path):
        """A writer over a committed store that stops after one shard
        leaves no manifest to vouch for the shard it rewrote."""
        store = write_dataset_sharded(small_fleet, tmp_path / "s", n_shards=2)
        ShardWriter(store.root).add_shard(small_fleet)  # never closed
        assert not is_shard_store(store.root)


class TestOverwrite:
    def test_fewer_shards_remove_the_unlisted_ones(self, small_fleet, tmp_path):
        root = tmp_path / "s"
        write_dataset_sharded(small_fleet, root, n_shards=3)
        store = write_dataset_sharded(small_fleet, root, n_shards=1)
        assert sorted(p.name for p in root.iterdir()) == [
            MANIFEST_NAME, "shard_0000.npz",
        ]
        assert store.n_rows == small_fleet.n_records

    def test_files_that_are_not_shards_stay(self, small_fleet, tmp_path):
        root = tmp_path / "s"
        write_dataset_sharded(small_fleet, root, n_shards=2)
        (root / "notes.txt").write_text("kept")
        (root / "shard_0001.npz.bak").write_bytes(b"kept")
        write_dataset_sharded(small_fleet, root, n_shards=1)
        assert sorted(p.name for p in root.iterdir()) == [
            MANIFEST_NAME, "notes.txt", "shard_0000.npz", "shard_0001.npz.bak",
        ]


class TestErrors:
    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ShardManifestError):
            ShardedDataset(tmp_path / "empty")

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ShardManifestError):
            ShardedDataset(root)
        # Valid JSON that is not a well-formed store manifest.
        for garbled in ([], {"format_version": 1, "vocab": {}}):
            (root / MANIFEST_NAME).write_text(json.dumps(garbled))
            with pytest.raises(ShardManifestError):
                ShardedDataset(root)

    def test_wrong_format_version_raises(self, shard_store, tmp_path):
        root = tmp_path / "future"
        root.mkdir()
        manifest = json.loads(
            (shard_store.root / MANIFEST_NAME).read_text()
        )
        manifest["format_version"] = 999
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ShardManifestError, match="format"):
            ShardedDataset(root)

    def test_verify_detects_bit_rot(self, small_fleet, tmp_path):
        store = write_dataset_sharded(small_fleet, tmp_path / "rot", n_shards=2)
        target = store.root / store.shards[0].filename
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        reopened = ShardedDataset(store.root)
        with pytest.raises(ShardManifestError, match="sha256"):
            reopened.load_shard(0, verify=True)

    def test_writer_rejects_out_of_order_shards(self, small_fleet, tmp_path):
        serials = np.asarray(small_fleet.columns["serial"])
        ordered = sorted(small_fleet.drives)
        half = len(ordered) // 2
        low = small_fleet.select_rows(np.isin(serials, ordered[:half]))
        high = small_fleet.select_rows(np.isin(serials, ordered[half:]))
        writer = ShardWriter(tmp_path / "order")
        writer.add_shard(high)
        with pytest.raises(ValueError, match="ascending"):
            writer.add_shard(low)

    def test_empty_store_cannot_commit(self, tmp_path):
        writer = ShardWriter(tmp_path / "void")
        with pytest.raises(ValueError, match="zero shards"):
            writer.close()

    def test_closed_writer_rejects_shards(self, small_fleet, tmp_path):
        writer = ShardWriter(tmp_path / "closed")
        writer.add_shard(small_fleet)
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.add_shard(small_fleet)
