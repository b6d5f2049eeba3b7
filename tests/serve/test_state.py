"""Incremental scorer state and dimension-freshness staleness detector."""

import json
import pickle

import numpy as np
import pytest

from repro.core.client import ClientPredictor, _DriveState, parse_readings
from repro.core.pipeline import MFPA, MFPAConfig
from repro.robustness.checkpoint import atomic_write, write_manifest
from repro.robustness.degraded import fit_reduced_model
from repro.serve import SERVE_FILES, ServeDaemon, replay_into
from repro.serve.state import DimensionFreshness, IncrementalScorer

from tests.conftest import write_parent_layout_manifest

from .conftest import END, SERVE_START, WINDOW
from .test_daemon import _feed, _subset


@pytest.fixture()
def scorer(serve_models):
    full, reduced = serve_models
    return IncrementalScorer(
        ClientPredictor.from_model(full, on_missing="impute"),
        ClientPredictor.from_model(reduced, on_missing="impute"),
    )


def _stage_one(scorer, serial, day, reading):
    """Stage a batch of one; return its (full_row, reduced_row)."""
    rows, rejections = scorer.stage(parse_readings([serial], [day], [reading]))
    if rejections:
        raise rejections[0]
    reduced_row = rows[0][scorer.reduced_index] if scorer.has_reduced else None
    return rows[0], reduced_row


def _readings_for(serve_readings, serial, n):
    picked = [r for r in serve_readings if r[0] == serial][:n]
    assert len(picked) == n
    return picked


class TestIncrementalScorer:
    def test_stage_matches_batch_observe(self, scorer, serve_models, serve_readings):
        """Row assembled incrementally equals ClientPredictor.observe."""
        full, _ = serve_models
        reference = ClientPredictor.from_model(full, on_missing="impute")
        serial = serve_readings[0][0]
        last_row, reference_probability = None, None
        for serial_, day, reading in _readings_for(serve_readings, serial, 10):
            full_row, reduced_row = _stage_one(scorer, serial_, day, reading)
            reference_probability = reference.observe(serial_, day, reading)
            assert reduced_row is not None
            last_row = full_row
        probability = scorer.predict_full(last_row)[0]
        assert probability == pytest.approx(reference_probability, abs=1e-12)

    def test_batched_prediction_matches_per_row(self, scorer, serve_readings):
        serials = sorted({r[0] for r in serve_readings})[:5]
        rows = []
        for serial in serials:
            for serial_, day, reading in _readings_for(serve_readings, serial, 5):
                row, _ = _stage_one(scorer, serial_, day, reading)
            rows.append(row)
        stacked = scorer.predict_full(np.vstack(rows))
        singles = [scorer.predict_full(row)[0] for row in rows]
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=0)

    def test_snapshot_roundtrip_bit_identical(
        self, scorer, serve_models, serve_readings
    ):
        """JSON round-trip of the snapshot reproduces identical scores."""
        import json

        serial = serve_readings[0][0]
        for serial_, day, reading in _readings_for(serve_readings, serial, 8):
            row, _ = _stage_one(scorer, serial_, day, reading)
        snapshot = json.loads(json.dumps(scorer.snapshot()))

        full, reduced = serve_models
        restored = IncrementalScorer(
            ClientPredictor.from_model(full, on_missing="impute"),
            ClientPredictor.from_model(reduced, on_missing="impute"),
        )
        restored.restore(snapshot)
        # continue both scorers with one more reading; rows must match bit-for-bit
        serial_, day, reading = _readings_for(serve_readings, serial, 9)[-1]
        row_a, red_a = _stage_one(scorer, serial_, day, reading)
        row_b, red_b = _stage_one(restored, serial_, day, reading)
        np.testing.assert_array_equal(row_a, row_b)
        np.testing.assert_array_equal(red_a, red_b)
        assert scorer.predict_full(row_a)[0] == restored.predict_full(row_b)[0]

    def test_stage_failure_leaves_state_untouched(self, scorer, serve_readings):
        serial, day, reading = serve_readings[0]
        _stage_one(scorer, serial, day, reading)
        before = scorer.snapshot()
        with pytest.raises((ValueError, KeyError)):
            _stage_one(scorer, serial, day + 1, {**reading, "firmware": "NOT_A_FW"})
        assert scorer.snapshot() == before

    def test_no_reduced_model(self, serve_models, serve_readings):
        full, _ = serve_models
        scorer = IncrementalScorer(
            ClientPredictor.from_model(full, on_missing="impute"), None
        )
        assert not scorer.has_reduced
        serial, day, reading = serve_readings[0]
        row, reduced_row = _stage_one(scorer, serial, day, reading)
        assert reduced_row is None
        with pytest.raises(RuntimeError, match="reduced"):
            scorer.predict_reduced(row)


def _batches(serve_readings, n_serials, n_days):
    """Day-major batches (one per day) for the first ``n_serials`` drives."""
    serials = set(sorted({r[0] for r in serve_readings})[:n_serials])
    days: dict[int, list] = {}
    for serial, day, reading in serve_readings:
        if serial in serials:
            days.setdefault(day, []).append((serial, day, reading))
    return [days[day] for day in sorted(days)[:n_days]]


class TestGatheredReducedRoute:
    def test_gathered_rows_equal_standalone_reduced_rows(
        self, scorer, serve_models, serve_readings
    ):
        _, reduced = serve_models
        standalone = ClientPredictor.from_model(reduced, on_missing="impute")
        for batch in _batches(serve_readings, 8, 40):
            serials, days, readings = zip(*batch)
            rows, rejections = scorer.stage(parse_readings(serials, days, readings))
            expected, expected_rejections = standalone.ingest(serials, days, readings)
            assert rejections == expected_rejections == {}
            np.testing.assert_array_equal(rows[:, scorer.reduced_index], expected)
        np.testing.assert_array_equal(
            scorer.predict_reduced(rows), standalone.predict_matrix(expected)
        )

    def test_union_state_when_reduced_columns_are_not_a_subset(
        self, serve_fleet, serve_readings
    ):
        """A full model that drops SMART columns the reduced SF model
        reads: the shared state widens to the union, over two history
        steps, and each model still sees exactly its standalone rows."""
        full = MFPA(MFPAConfig(
            feature_columns=(
                "s14_media_errors", "cum_w161_fs_io_error", "cum_w11_controller_error",
            ),
            history_length=2,
        ))
        full.fit(serve_fleet, train_end_day=SERVE_START)
        reduced = fit_reduced_model(serve_fleet, SERVE_START, base_config=full.config)
        scorer = IncrementalScorer(
            ClientPredictor.from_model(full, on_missing="impute"),
            ClientPredictor.from_model(reduced, on_missing="impute"),
        )
        alone_full = ClientPredictor.from_model(full, on_missing="impute")
        alone_reduced = ClientPredictor.from_model(reduced, on_missing="impute")
        for batch in _batches(serve_readings, 6, 12):
            serials, days, readings = zip(*batch)
            rows, _ = scorer.stage(parse_readings(serials, days, readings))
            full_rows, _ = alone_full.ingest(serials, days, readings)
            reduced_rows, _ = alone_reduced.ingest(serials, days, readings)
            assert rows.shape[1] > full_rows.shape[1]
            np.testing.assert_array_equal(scorer.full.model_rows(rows), full_rows)
            np.testing.assert_array_equal(rows[:, scorer.reduced_index], reduced_rows)
        np.testing.assert_array_equal(
            scorer.predict_full(rows), alone_full.predict_matrix(full_rows)
        )
        np.testing.assert_array_equal(
            scorer.predict_reduced(rows), alone_reduced.predict_matrix(reduced_rows)
        )


def _parent_layout_predictor(predictor, block):
    """``predictor`` as the pre-columnar class pickled it: per-drive
    :class:`_DriveState` objects holding ``block``'s state."""
    legacy = object.__new__(ClientPredictor)
    legacy.__dict__.update(
        _model=predictor._model,
        _columns=predictor._columns,
        _history_length=predictor._history_length,
        _encoder=predictor._encoder,
        threshold=predictor.threshold,
        on_missing=predictor.on_missing,
        last_prediction_degraded=False,
        last_missing_columns=(),
        _states={
            int(serial): _DriveState(
                cumulative_events=dict(entry["cumulative_events"]),
                history=[np.asarray(v) for v in entry["history"]],
                last_day=entry["last_day"],
                last_raw=dict(entry["last_raw"]),
                last_firmware=entry["last_firmware"],
                n_degraded=entry["n_degraded"],
            )
            for serial, entry in block["drives"].items()
        },
    )
    return legacy


class TestParentLayoutCheckpoint:
    def test_resumes_to_identical_alarms(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        """A checkpoint from when each model kept its own state — a
        populated ``reduced`` block in state.json and per-drive
        ``_DriveState`` predictors in model.pkl — still resumes."""
        full, reduced = serve_models
        readings = _subset(serve_readings, 40)
        reference = ServeDaemon.from_models(full, reduced, serve_config)
        replay_into(reference, readings, end_day=END)
        assert reference.alarm_records()

        path = tmp_path / "ckpt"
        killed = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=path
        )
        _feed(killed, readings, stop_day=SERVE_START + WINDOW + 1)
        index = killed.scorer.reduced_index

        state = json.loads((path / "state.json").read_text())
        full_block = state["scorer"]["full"]
        reduced_block = {
            "drives": {
                serial: {
                    **entry,
                    "history": [[v[i] for i in index] for v in entry["history"]],
                }
                for serial, entry in full_block["drives"].items()
            }
        }
        state["scorer"]["reduced"] = reduced_block
        payload = pickle.loads((path / "model.pkl").read_bytes())
        payload["full"] = _parent_layout_predictor(payload["full"], full_block)
        payload["reduced"] = _parent_layout_predictor(
            payload["reduced"], reduced_block
        )
        atomic_write(path / "model.pkl", pickle.dumps(payload))
        atomic_write(path / "state.json", json.dumps(state).encode())
        write_manifest(path, SERVE_FILES)

        resumed = ServeDaemon.resume(path)
        assert resumed.scorer.full.n_tracked_drives == len(full_block["drives"])
        replay_into(resumed, readings, end_day=END, min_day=resumed.watermark)
        assert resumed.alarm_records() == reference.alarm_records()
        assert resumed.windows == reference.windows

    def test_parent_layout_manifest_resumes_identically(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        """A checkpoint manifest in the byte layout written before the
        shared commit protocol resumes to identical alarms."""
        full, reduced = serve_models
        readings = _subset(serve_readings, 40)
        reference = ServeDaemon.from_models(full, reduced, serve_config)
        replay_into(reference, readings, end_day=END)

        path = tmp_path / "ckpt"
        killed = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=path
        )
        _feed(killed, readings, stop_day=SERVE_START + WINDOW + 1)
        write_parent_layout_manifest(path, SERVE_FILES)

        resumed = ServeDaemon.resume(path)
        assert resumed.watermark == SERVE_START + WINDOW
        replay_into(resumed, readings, end_day=END, min_day=resumed.watermark)
        assert resumed.alarm_records() == reference.alarm_records()
        assert resumed.windows == reference.windows

    def test_checkpoint_writes_no_reduced_block(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=tmp_path
        )
        _feed(daemon, _subset(serve_readings, 5), stop_day=SERVE_START + WINDOW + 1)
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["scorer"]["reduced"] is None
        assert state["scorer"]["full"]["drives"]


def _observe(freshness, reading):
    """Observe a batch of one admitted reading."""
    freshness.observe(parse_readings([1], [1], [reading]))


class TestDimensionFreshness:
    W = {"w161_fs_io_error": 1.0}
    FULL = {
        "s2_temperature": 40.0,
        "w161_fs_io_error": 1.0,
        "b1_unexpected_power_off": 0.0,
        "firmware": "FW1",
    }

    def test_fresh_until_threshold(self):
        freshness = DimensionFreshness(stale_after=3)
        for _ in range(2):
            _observe(freshness, {"s2_temperature": 40.0})
        assert freshness.stale_dimensions() == ()
        _observe(freshness, {"s2_temperature": 40.0})
        assert "W" in freshness.stale_dimensions()

    def test_reappearance_resets_streak(self):
        freshness = DimensionFreshness(stale_after=2)
        _observe(freshness, {"s2_temperature": 40.0})
        _observe(freshness, self.FULL)  # W reappears
        _observe(freshness, {"s2_temperature": 40.0})
        assert "W" not in freshness.stale_dimensions()

    def test_all_dimensions_tracked_independently(self):
        freshness = DimensionFreshness(stale_after=1)
        _observe(freshness, {"w161_fs_io_error": 1.0})
        stale = freshness.stale_dimensions()
        assert "W" not in stale
        assert "B" in stale and "firmware" in stale

    def test_snapshot_roundtrip(self):
        freshness = DimensionFreshness(stale_after=5)
        for _ in range(3):
            _observe(freshness, {"s2_temperature": 40.0})
        restored = DimensionFreshness(stale_after=5)
        restored.restore(freshness.snapshot())
        for _ in range(2):
            _observe(restored, {"s2_temperature": 40.0})
        assert "W" in restored.stale_dimensions()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DimensionFreshness(stale_after=0)
