"""Unit tests for dataset persistence (save/load roundtrip)."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.obs.manifest import dataset_fingerprint
from repro.scale.store import (
    ShardedDataset,
    ShardManifestError,
    is_shard_store,
    write_dataset_sharded,
)
from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.io import FORMAT_VERSION, load_dataset, save_dataset

#: A 20-drive, 45-day fleet (``FleetConfig(mix=VendorMix({"I": 20}),
#: horizon_days=45, failure_boost=100.0, seed=11)``) saved in the
#: earlier four-file layout (``columns.npz``, ``strings.json``,
#: ``drives.json``, ``tickets.json``) by the writer that produced it.
LEGACY_FLEET = Path(__file__).parent / "data" / "legacy_fleet"
LEGACY_FINGERPRINT = "7ef2e37d480fa521"


def _legacy_copy(tmp_path) -> Path:
    return Path(shutil.copytree(LEGACY_FLEET, tmp_path / "legacy"))


def _without_first_drive(dataset):
    """The dataset with its first drive's metadata gone: its rows stay."""
    drives = dict(dataset.drives)
    dropped = next(iter(drives))
    del drives[dropped]
    return TelemetryDataset(dataset.columns, drives, dataset.tickets), dropped


def _assert_same(loaded, expected):
    assert list(loaded.columns) == list(expected.columns)
    for name, values in expected.columns.items():
        assert loaded.columns[name].dtype == values.dtype
        if values.dtype == object:
            assert loaded.columns[name].tolist() == values.tolist()
        else:
            np.testing.assert_array_equal(loaded.columns[name], values)
    assert list(loaded.drives.items()) == list(expected.drives.items())
    assert loaded.tickets == expected.tickets
    assert dataset_fingerprint(loaded) == dataset_fingerprint(expected)


class TestRoundtrip:
    def test_columns_identical(self, small_fleet, tmp_path):
        save_dataset(small_fleet, tmp_path / "fleet")
        loaded = load_dataset(tmp_path / "fleet")
        assert set(loaded.columns) == set(small_fleet.columns)
        for name, values in small_fleet.columns.items():
            if values.dtype == object:
                assert loaded.columns[name].tolist() == values.tolist()
            else:
                np.testing.assert_array_equal(loaded.columns[name], values)

    def test_drive_metadata_identical(self, small_fleet, tmp_path):
        save_dataset(small_fleet, tmp_path / "fleet")
        loaded = load_dataset(tmp_path / "fleet")
        assert set(loaded.drives) == set(small_fleet.drives)
        for serial, meta in small_fleet.drives.items():
            assert loaded.drives[serial] == meta

    def test_tickets_identical(self, small_fleet, tmp_path):
        save_dataset(small_fleet, tmp_path / "fleet")
        loaded = load_dataset(tmp_path / "fleet")
        assert loaded.tickets == small_fleet.tickets

    def test_a_saved_dataset_is_a_one_shard_store(self, small_fleet, tmp_path):
        path = save_dataset(small_fleet, tmp_path / "fleet")
        assert is_shard_store(path)
        store = ShardedDataset(path)
        assert store.n_shards == 1
        assert store.n_rows == small_fleet.n_records
        assert store.shards[0].fingerprint == dataset_fingerprint(small_fleet)
        _assert_same(load_dataset(path), small_fleet)

    def test_order_of_drives_and_tickets_kept(self, small_fleet, tmp_path):
        """Tickets and the drive table come back in the order they were
        saved in, not sorted by serial."""
        shuffled = TelemetryDataset(
            small_fleet.columns,
            dict(reversed(small_fleet.drives.items())),
            list(reversed(small_fleet.tickets)),
        )
        serials = [t.serial for t in shuffled.tickets]
        assert serials != sorted(serials)
        loaded = load_dataset(save_dataset(shuffled, tmp_path / "fleet"))
        _assert_same(loaded, shuffled)
        assert [t.serial for t in loaded.tickets] == serials

    def test_multi_shard_store_loads_as_one_dataset(self, small_fleet, shard_store):
        assert shard_store.n_shards == 3
        _assert_same(load_dataset(shard_store.root), small_fleet)

    def test_save_overwrites_a_saved_dataset(self, small_fleet, mixed_fleet, tmp_path):
        save_dataset(mixed_fleet, tmp_path / "fleet")
        path = save_dataset(small_fleet, tmp_path / "fleet")
        _assert_same(load_dataset(path), small_fleet)

    def test_loaded_dataset_trains(self, small_fleet, tmp_path):
        from repro.core import MFPA, MFPAConfig

        save_dataset(small_fleet, tmp_path / "fleet")
        loaded = load_dataset(tmp_path / "fleet")
        model = MFPA(MFPAConfig())
        model.fit(loaded, train_end_day=240)
        report = model.evaluate(240, 360).drive_report
        assert report.tpr > 0.5


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_version_check(self, tmp_path):
        path = _legacy_copy(tmp_path)
        strings = json.loads((path / "strings.json").read_text())
        strings["version"] = FORMAT_VERSION + 999
        (path / "strings.json").write_text(json.dumps(strings))
        with pytest.raises(ValueError, match="format version"):
            load_dataset(path)

    def test_store_version_check(self, small_fleet, tmp_path):
        path = save_dataset(small_fleet, tmp_path / "fleet")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] += 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShardManifestError, match="format_version"):
            load_dataset(path)

    def test_save_creates_nested_directories(self, small_fleet, tmp_path):
        path = save_dataset(small_fleet, tmp_path / "a" / "b" / "fleet")
        assert (path / "manifest.json").exists()
        assert (path / "shard_0000.npz").exists()


class TestLegacyLayout:
    """Directories in the earlier four-file layout still load."""

    def test_loads_the_committed_fixture(self):
        loaded = load_dataset(LEGACY_FLEET)
        assert dataset_fingerprint(loaded) == LEGACY_FINGERPRINT
        assert loaded.n_drives == 20
        assert loaded.n_records == 310
        assert sorted(loaded.drives) == list(range(1, 21))
        assert [t.serial for t in loaded.tickets] == [
            1, 2, 3, 4, 7, 9, 11, 14, 15, 18, 19, 20,
        ]
        for name in ("firmware", "vendor", "model"):
            assert loaded.columns[name].dtype == object
        assert set(loaded.columns["vendor"].tolist()) == {"I"}
        assert load_dataset(LEGACY_FLEET, validate=True).n_records == 310

    def test_matches_the_fleet_it_was_written_from(self):
        from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

        fleet = simulate_fleet(
            FleetConfig(
                mix=VendorMix({"I": 20}),
                horizon_days=45,
                failure_boost=100.0,
                seed=11,
            )
        )
        loaded = load_dataset(LEGACY_FLEET)
        assert set(loaded.columns) == set(fleet.columns)
        for name, values in fleet.columns.items():
            assert loaded.columns[name].tolist() == values.tolist()
        assert list(loaded.drives.items()) == list(fleet.drives.items())
        assert loaded.tickets == fleet.tickets

    def test_resaved_as_a_store_unchanged(self, tmp_path):
        loaded = load_dataset(LEGACY_FLEET)
        path = save_dataset(loaded, _legacy_copy(tmp_path))
        assert is_shard_store(path)
        _assert_same(load_dataset(path), loaded)

    def test_resaving_removes_the_earlier_layout(self, tmp_path):
        path = save_dataset(load_dataset(LEGACY_FLEET), _legacy_copy(tmp_path))
        assert sorted(p.name for p in path.iterdir()) == [
            "manifest.json", "shard_0000.npz",
        ]


class TestValidateOnLoad:
    def test_clean_roundtrip_validates(self, small_fleet, tmp_path):
        path = save_dataset(small_fleet, tmp_path / "fleet")
        loaded = load_dataset(path, validate=True)
        assert loaded.n_records == small_fleet.n_records

    def test_corrupted_file_raises_clean_error(self, small_fleet, tmp_path):
        """Persistence no longer trusts directory contents blindly."""
        corrupted, dropped = _without_first_drive(small_fleet)
        path = save_dataset(corrupted, tmp_path / "fleet")

        loaded = load_dataset(path)  # default: still trusting
        assert dropped not in loaded.drives
        assert loaded.n_records == small_fleet.n_records

        with pytest.raises(ValueError, match="fails validation"):
            load_dataset(path, validate=True)

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_sharded_store_keeps_the_fault_visible(
        self, small_fleet, tmp_path, n_shards
    ):
        """Rows and tickets whose drive-table entry is gone are stored at
        every shard count, so validation on load names their serial."""
        dropped = small_fleet.tickets[0].serial
        drives = {s: m for s, m in small_fleet.drives.items() if s != dropped}
        corrupted = TelemetryDataset(small_fleet.columns, drives, small_fleet.tickets)
        root = tmp_path / "fleet"
        write_dataset_sharded(corrupted, root, n_shards)

        loaded = load_dataset(root)
        assert loaded.n_records == small_fleet.n_records
        assert len(loaded.tickets) == len(small_fleet.tickets)
        assert np.count_nonzero(loaded.columns["serial"] == dropped) > 0
        with pytest.raises(
            ValueError, match=f"serial {dropped} has rows but no drive metadata"
        ):
            load_dataset(root, validate=True)

    def test_sanitize_on_load_repairs(self, small_fleet, tmp_path):
        corrupted, removed = _without_first_drive(small_fleet)
        path = save_dataset(corrupted, tmp_path / "fleet")

        loaded = load_dataset(path, sanitize=True, validate=True)
        assert removed not in loaded.drives
        assert loaded.n_records < small_fleet.n_records


class TestConcatRelabel:
    def test_relabel_shifts_everything(self, small_fleet):
        shifted = small_fleet.relabel_serials(10_000)
        assert set(shifted.drives) == {s + 10_000 for s in small_fleet.drives}
        np.testing.assert_array_equal(
            shifted.columns["serial"], small_fleet.columns["serial"] + 10_000
        )
        assert all(t.serial > 10_000 for t in shifted.tickets)

    def test_relabel_zero_is_identity(self, small_fleet):
        assert small_fleet.relabel_serials(0) is small_fleet

    def test_concat_merges(self, small_fleet, mixed_fleet):
        shifted = mixed_fleet.relabel_serials(1_000_000)
        from repro.telemetry.dataset import TelemetryDataset

        merged = TelemetryDataset.concat([small_fleet, shifted])
        assert merged.n_drives == small_fleet.n_drives + mixed_fleet.n_drives
        assert merged.n_records == small_fleet.n_records + mixed_fleet.n_records
        # Sort order maintained for drive_rows to work.
        serial = merged.columns["serial"]
        day = merged.columns["day"]
        order = np.lexsort((day, serial))
        np.testing.assert_array_equal(order, np.arange(serial.size))

    def test_concat_rejects_collisions(self, small_fleet):
        from repro.telemetry.dataset import TelemetryDataset

        with pytest.raises(ValueError, match="collision"):
            TelemetryDataset.concat([small_fleet, small_fleet])

    def test_concat_empty_rejected(self):
        from repro.telemetry.dataset import TelemetryDataset

        with pytest.raises(ValueError):
            TelemetryDataset.concat([])
