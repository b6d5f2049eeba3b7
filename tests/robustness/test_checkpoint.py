"""Checkpoint determinism: crash at any window boundary, resume identically."""

import json

import pytest

from repro.core import MFPAConfig
from repro.core.deployment import (
    FleetMonitor,
    RetrainPolicy,
    simulate_operation,
)
from repro.robustness.checkpoint import (
    MONITOR_FILES,
    CheckpointCorruptError,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
    write_manifest,
)
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

from tests.conftest import CommitCrash, write_parent_layout_manifest

START, END, WINDOW = 240, 360, 30
N_WINDOWS = (END - START) // WINDOW

#: A retrain is forced mid-horizon so the checkpoint must also capture
#: the refreshed model, not just the alarm ledger.
POLICY = RetrainPolicy(interval_days=60, min_new_failures=0)


@pytest.fixture(scope="module")
def fleet():
    return simulate_fleet(
        FleetConfig(
            mix=VendorMix({"I": 120}),
            horizon_days=420,
            failure_boost=25.0,
            seed=17,
        )
    )


@pytest.fixture(scope="module")
def uninterrupted(fleet):
    return simulate_operation(
        fleet, policy=POLICY, start_day=START, end_day=END, window_days=WINDOW
    )


class TestResumeDeterminism:
    @pytest.mark.parametrize("boundary", range(N_WINDOWS + 1))
    def test_crash_and_resume_at_every_boundary(
        self, fleet, uninterrupted, boundary, tmp_path
    ):
        """Kill after `boundary` windows, restore, finish — identical summary."""
        checkpoint = str(tmp_path / "ckpt")
        partial = simulate_operation(
            fleet,
            policy=POLICY,
            start_day=START,
            end_day=END,
            window_days=WINDOW,
            checkpoint_dir=checkpoint,
            max_windows=boundary,
        )
        assert len(partial.windows) == boundary
        resumed = simulate_operation(
            fleet,
            policy=POLICY,
            start_day=START,
            end_day=END,
            window_days=WINDOW,
            checkpoint_dir=checkpoint,
            resume=True,
        )
        assert resumed == uninterrupted

    @pytest.mark.parametrize("on_call", [1, 2])
    @pytest.mark.parametrize(
        "after_manifest", [False, True], ids=["before-manifest", "after-manifest"]
    )
    def test_crash_inside_commit_resumes(
        self, fleet, uninterrupted, on_call, after_manifest, crash_commit,
        tmp_path,
    ):
        """Kill while the `on_call`-th checkpoint is being committed —
        payloads staged, manifest not yet written or not yet followed by
        the renames: resume restarts from the last commit and finishes
        identically."""
        checkpoint = tmp_path / "ckpt"
        crash_commit(checkpoint, on_call, after_manifest)
        with pytest.raises(CommitCrash):
            simulate_operation(
                fleet,
                policy=POLICY,
                start_day=START,
                end_day=END,
                window_days=WINDOW,
                checkpoint_dir=str(checkpoint),
            )
        assert list(checkpoint.glob("*.pending"))
        committed = on_call if after_manifest else on_call - 1
        if committed:
            assert len(load_checkpoint(checkpoint, fleet)[1]) == committed
        else:
            assert not has_checkpoint(checkpoint)
        assert not list(checkpoint.glob("*.pending"))
        resumed = simulate_operation(
            fleet,
            policy=POLICY,
            start_day=START,
            end_day=END,
            window_days=WINDOW,
            checkpoint_dir=str(checkpoint),
            resume=True,
        )
        assert resumed == uninterrupted

    def test_retrain_happened_during_horizon(self, uninterrupted):
        # guard: the sweep above must actually exercise a mid-horizon retrain
        assert any(w.retrained for w in uninterrupted.windows)


class TestCheckpointFormat:
    def test_roundtrip_restores_monitor_state(self, fleet, tmp_path):
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        windows = [monitor.score_window(START, START + WINDOW)]
        save_checkpoint(monitor, windows, tmp_path / "ckpt")

        restored, restored_windows = load_checkpoint(tmp_path / "ckpt", fleet)
        assert restored._alarmed == monitor._alarmed
        assert restored._last_trained_day == monitor._last_trained_day
        assert restored._failures_at_training == monitor._failures_at_training
        assert restored.alarm_threshold == monitor.alarm_threshold
        assert restored_windows == windows

        # the restored monitor scores the next window identically
        expected = monitor.score_window(START + WINDOW, START + 2 * WINDOW)
        actual = restored.score_window(START + WINDOW, START + 2 * WINDOW)
        assert actual == expected

    def test_has_checkpoint(self, fleet, tmp_path):
        assert not has_checkpoint(tmp_path / "ckpt")
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        save_checkpoint(monitor, [], tmp_path / "ckpt")
        assert has_checkpoint(tmp_path / "ckpt")

    def test_unstarted_monitor_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="start"):
            save_checkpoint(FleetMonitor(), [], tmp_path / "ckpt")

    def test_missing_checkpoint_rejected(self, fleet, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope", fleet)

    def test_version_check(self, fleet, tmp_path):
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        path = save_checkpoint(monitor, [], tmp_path / "ckpt")
        state = json.loads((path / "state.json").read_text())
        state["version"] = 999
        (path / "state.json").write_text(json.dumps(state))
        # Re-commit the manifest: this test is about the version gate,
        # not tamper detection (that's TestCheckpointIntegrity).
        write_manifest(path, MONITOR_FILES)
        with pytest.raises(ValueError, match="checkpoint version"):
            load_checkpoint(path, fleet)

    def test_parent_layout_manifest_loads_identically(self, fleet, tmp_path):
        """A manifest in the byte layout checkpoints had before the
        shared commit protocol restores the same monitor."""
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        windows = [monitor.score_window(START, START + WINDOW)]
        path = save_checkpoint(monitor, windows, tmp_path / "ckpt")
        write_parent_layout_manifest(path, MONITOR_FILES)

        restored, restored_windows = load_checkpoint(path, fleet)
        assert restored_windows == windows
        assert restored._alarmed == monitor._alarmed
        assert restored._last_trained_day == monitor._last_trained_day
        expected = monitor.score_window(START + WINDOW, START + 2 * WINDOW)
        actual = restored.score_window(START + WINDOW, START + 2 * WINDOW)
        assert actual == expected

    def test_config_survives_roundtrip(self, fleet, tmp_path):
        config = MFPAConfig(feature_group_name="SF", decision_threshold=0.4)
        monitor = FleetMonitor(config=config, policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        save_checkpoint(monitor, [], tmp_path / "ckpt")
        restored, _ = load_checkpoint(tmp_path / "ckpt", fleet)
        assert restored.config.feature_group_name == "SF"
        assert restored.config.decision_threshold == 0.4


class TestCheckpointIntegrity:
    """Satellite: sha256 manifest, truncation detection, half-pair cleanup."""

    @pytest.fixture()
    def checkpoint(self, fleet, tmp_path):
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        return save_checkpoint(monitor, [], tmp_path / "ckpt")

    def test_manifest_written_and_verified(self, checkpoint, fleet):
        assert (checkpoint / "manifest.json").exists()
        load_checkpoint(checkpoint, fleet)  # verifies without raising

    def test_truncated_model_raises_typed_error(self, checkpoint, fleet):
        """Truncate model.pkl mid-file: typed error, not a pickle traceback."""
        model = checkpoint / "model.pkl"
        data = model.read_bytes()
        model.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            load_checkpoint(checkpoint, fleet)

    def test_bitflip_same_size_raises_typed_error(self, checkpoint, fleet):
        """Same-size corruption is caught by the sha256, not the size."""
        model = checkpoint / "model.pkl"
        data = bytearray(model.read_bytes())
        data[len(data) // 2] ^= 0xFF
        model.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="sha256"):
            load_checkpoint(checkpoint, fleet)

    def test_half_pair_cleaned_up(self, checkpoint, fleet):
        """state.json without model.pkl (crash between writes) is not a
        usable checkpoint; the stray files are swept so a fresh run can
        recreate the directory cleanly."""
        (checkpoint / "model.pkl").unlink()
        assert not has_checkpoint(checkpoint)
        assert not (checkpoint / "state.json").exists()
        assert not (checkpoint / "manifest.json").exists()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(checkpoint, fleet)

    def test_crash_between_writes_then_rerun_recovers(self, fleet, tmp_path):
        """A run that died between the two file writes must not poison
        the next run: simulate_operation starts from scratch and matches
        the uninterrupted result."""
        checkpoint = tmp_path / "ckpt"
        monitor = FleetMonitor(policy=POLICY)
        monitor.start(fleet, train_end_day=START)
        save_checkpoint(monitor, [], checkpoint)
        (checkpoint / "state.json").unlink()  # crash after model, before state

        expected = simulate_operation(
            fleet, policy=POLICY, start_day=START, end_day=END, window_days=WINDOW
        )
        recovered = simulate_operation(
            fleet,
            policy=POLICY,
            start_day=START,
            end_day=END,
            window_days=WINDOW,
            checkpoint_dir=str(checkpoint),
            resume=True,
        )
        assert recovered == expected

    def test_manifest_garbage_raises_typed_error(self, checkpoint, fleet):
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        (checkpoint / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            load_checkpoint(checkpoint, fleet)
        # Valid JSON that is not a well-formed manifest.
        sizeless = {
            name: {"sha256": entry["sha256"]}
            for name, entry in manifest["files"].items()
        }
        for garbled in ([manifest], {**manifest, "files": sizeless}):
            (checkpoint / "manifest.json").write_text(json.dumps(garbled))
            with pytest.raises(CheckpointCorruptError, match="manifest"):
                load_checkpoint(checkpoint, fleet)

    def test_legacy_checkpoint_without_manifest_still_loads(
        self, checkpoint, fleet
    ):
        """Pre-manifest checkpoints (no manifest.json) load unverified."""
        (checkpoint / "manifest.json").unlink()
        load_checkpoint(checkpoint, fleet)
