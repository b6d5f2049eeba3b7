"""Daemon ↔ observability-plane integration.

Covers the serve-side acceptance properties of the obs plane:

- `/health` readiness flips under each chaos fault — breaker forced
  open, queue saturated, pump loop gone silent — and recovers.
- `/metrics` stays parser-valid while the daemon is mid-stream.
- Ingest→alarm latency lands in the summary and in the
  ``serve_e2e_latency_seconds`` histogram, one observation per alarm.
- Counters restored from a checkpoint stay monotone across a simulated
  ``kill -9`` (registry wiped, daemon resumed).
- The PSI the daemon reports per window is bit-identical to the offline
  :func:`repro.core.drift.population_stability_index` on the same
  samples.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.drift import population_stability_index
from repro.obs import get_registry
from repro.obs.server import ObsServer, _render_prometheus
from repro.robustness.checkpoint import read_checkpoint
from repro.serve import SERVE_FILES, ServeConfig, ServeDaemon, replay_into
from repro.serve.drift import DriftMonitor, ReferenceProfile
from tests.obs.promparse import validate_exposition

from .conftest import END, SERVE_START, WINDOW
from .test_daemon import _counter, _feed, _subset


def _histogram_count(name: str) -> int:
    for family in get_registry().dump():
        if family["name"] == name:
            return int(family["samples"][0]["count"])
    return 0


class TestHealthChaos:
    """Readiness must flip under each PR-6 chaos fault, then recover."""

    def test_breaker_open_flips_readiness(self, serve_models, serve_config):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        assert daemon.health_snapshot()["ready"] is True

        daemon.breaker.force_open()
        health = daemon.health_snapshot()
        assert health["ready"] is False
        assert health["checks"]["breaker"]["ok"] is False
        assert health["checks"]["breaker"]["state"] == "open"
        # The other checks are unaffected by this fault.
        assert health["checks"]["queue"]["ok"] is True
        assert health["checks"]["heartbeat"]["ok"] is True

        # Cooldown ticks walk OPEN → HALF_OPEN, a success closes it.
        for _ in range(serve_config.cooldown_ticks):
            daemon.breaker.tick()
        daemon.breaker.record_success()
        assert daemon.health_snapshot()["ready"] is True

    def test_queue_saturation_flips_readiness(self, serve_models):
        full, reduced = serve_models
        config = ServeConfig(
            serve_start_day=SERVE_START, window_days=WINDOW, end_day=END,
            queue_capacity=4,
        )
        daemon = ServeDaemon.from_models(full, reduced, config)
        for serial in range(4):
            daemon.submit(serial, SERVE_START, {"pow_on_hours": 1.0})
        health = daemon.health_snapshot()
        assert health["ready"] is False
        assert health["checks"]["queue"]["ok"] is False
        assert health["checks"]["queue"]["depth"] == 4

        daemon.pump()  # drains the queue: headroom restored
        assert daemon.health_snapshot()["ready"] is True

    def test_stale_heartbeat_flips_readiness(self, serve_models, serve_config):
        full, reduced = serve_models
        now = [1000.0]
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, clock=lambda: now[0]
        )
        # Never pumped: a freshly started daemon is still ready.
        assert daemon.health_snapshot()["checks"]["heartbeat"]["ok"] is True

        daemon.pump()
        now[0] += serve_config.heartbeat_timeout_seconds + 1
        health = daemon.health_snapshot()
        assert health["ready"] is False
        assert health["checks"]["heartbeat"]["ok"] is False
        assert health["checks"]["heartbeat"]["age_seconds"] == pytest.approx(
            serve_config.heartbeat_timeout_seconds + 1
        )

        daemon.pump()  # the loop wakes back up
        assert daemon.health_snapshot()["ready"] is True

    def test_health_fault_served_as_503_over_http(
        self, serve_models, serve_config
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        with ObsServer(port=0, health_fn=daemon.health_snapshot) as server:
            daemon.breaker.force_open()
            request = urllib.request.Request(server.url + "/health")
            try:
                with urllib.request.urlopen(request, timeout=5) as response:
                    code, body = response.status, response.read()
            except urllib.error.HTTPError as err:
                code, body = err.code, err.read()
            assert code == 503
            assert json.loads(body)["checks"]["breaker"]["ok"] is False

            for _ in range(serve_config.cooldown_ticks):
                daemon.breaker.tick()
            daemon.breaker.record_success()
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert json.loads(response.read())["ready"] is True


class TestEndpointsWhileScoring:
    def test_metrics_parser_valid_and_status_advances_mid_stream(
        self, serve_models, serve_readings, serve_config
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        readings = _subset(serve_readings, 20)
        scrapes: list[dict] = []

        with ObsServer(
            port=0,
            status_fn=daemon.status_snapshot,
            health_fn=daemon.health_snapshot,
        ) as server:
            def scrape(day):
                if day % 40 != 0:
                    return
                with urllib.request.urlopen(
                    server.url + "/metrics", timeout=5
                ) as response:
                    families = validate_exposition(response.read().decode())
                with urllib.request.urlopen(
                    server.url + "/status", timeout=5
                ) as response:
                    status = json.loads(response.read())
                with urllib.request.urlopen(
                    server.url + "/health", timeout=5
                ) as response:
                    health = json.loads(response.read())
                scrapes.append(
                    {"day": day, "families": families, "status": status,
                     "health": health}
                )

            _feed(daemon, readings, on_day=scrape)
            daemon.finish(END)

        assert len(scrapes) >= 3
        for scrape_record in scrapes:
            assert scrape_record["health"]["alive"] is True
            assert "serve_readings_ingested_total" in scrape_record["families"]
        ingested = [
            s["families"]["serve_readings_ingested_total"].samples[0].value
            for s in scrapes
        ]
        assert ingested == sorted(ingested) and ingested[-1] > ingested[0]
        watermarks = [s["status"]["watermark"] for s in scrapes]
        assert watermarks[-1] > SERVE_START  # windows flushed mid-stream
        assert scrapes[-1]["status"]["metrics"]  # registry summary inlined


class TestLatencyAccounting:
    def test_one_latency_observation_per_alarm(
        self, serve_models, serve_readings, serve_config
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        summary = replay_into(daemon, serve_readings, end_day=END)

        latency = summary["e2e_latency_seconds"]
        assert latency["count"] == summary["n_alarms"] > 0
        assert _histogram_count("serve_e2e_latency_seconds") == latency["count"]
        assert 0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert daemon.status_snapshot()["e2e_latency_seconds"] == latency

    def test_no_alarms_reports_empty_percentiles(
        self, serve_models, serve_config
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        summary = daemon.finish(SERVE_START + WINDOW)
        assert summary["e2e_latency_seconds"] == {
            "count": 0, "p50": None, "p95": None, "p99": None,
        }


class TestStageLatency:
    STAGES = ("gate", "assemble", "score", "decide", "checkpoint")

    def test_every_stage_on_metrics_and_in_top_after_a_flush(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        from repro.obs.top import render_top

        full, reduced = serve_models
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=tmp_path / "ckpt"
        )
        _feed(daemon, _subset(serve_readings, 10), stop_day=SERVE_START + WINDOW + 1)
        assert len(daemon.windows) == 1

        with ObsServer(
            port=0,
            status_fn=daemon.status_snapshot,
            health_fn=daemon.health_snapshot,
        ) as server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as response:
                exposition = response.read().decode()
            with urllib.request.urlopen(server.url + "/status", timeout=5) as response:
                status = json.loads(response.read())
        validate_exposition(exposition)
        top = render_top(status, daemon.health_snapshot())
        for stage in self.STAGES:
            assert f'serve_stage_seconds_count{{stage="{stage}"}}' in exposition
            assert f"serve_stage_seconds{{stage={stage}}}" in top
        # one observation per pump (gate, assemble) or flush (the rest)
        counts = {
            sample["labels"]["stage"]: sample["count"]
            for family in get_registry().dump()
            if family["name"] == "serve_stage_seconds"
            for sample in family["samples"]
        }
        assert counts["score"] == counts["decide"] == counts["checkpoint"] == 1
        assert counts["gate"] == counts["assemble"] == _counter("serve_ticks_total")


class TestMetricsContinuity:
    def test_counters_monotone_across_simulated_kill(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        full, reduced = serve_models
        readings = _subset(serve_readings, 30)
        kill_day = SERVE_START + WINDOW + 1

        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=tmp_path / "ckpt"
        )
        _feed(daemon, readings, stop_day=kill_day)
        assert daemon.watermark == SERVE_START + WINDOW
        at_kill = {
            "windows": _counter("serve_windows_scored_total"),
            "ingested": _counter("serve_readings_ingested_total"),
            "checkpoints": _counter("serve_checkpoints_total"),
        }
        assert at_kill["windows"] == 1.0 and at_kill["ingested"] > 0

        # kill -9: the process dies, taking the in-memory registry with
        # it. The next process starts from zero and resumes.
        get_registry().reset()
        assert _counter("serve_windows_scored_total") == 0.0

        resumed = ServeDaemon.resume(tmp_path / "ckpt")
        assert _counter("serve_windows_scored_total") == at_kill["windows"]
        # Ingests *after* the boundary checkpoint (the day-270 readings
        # fed before the kill) are lost with the process — and re-played
        # on resume, so the restored value is a lower bound, not equal.
        restored_ingested = _counter("serve_readings_ingested_total")
        assert 0 < restored_ingested <= at_kill["ingested"]
        # The snapshot is written before its own commit is counted.
        assert _counter("serve_checkpoints_total") == at_kill["checkpoints"] - 1

        replay_into(resumed, readings, end_day=END, min_day=resumed.watermark)
        assert _counter("serve_windows_scored_total") == float(
            (END - SERVE_START) // WINDOW
        )
        assert _counter("serve_readings_ingested_total") > at_kill["ingested"]
        assert _counter("serve_checkpoints_total") > at_kill["checkpoints"]
        # Gauges are current-truth, not merged history: the drained
        # queue reads 0 even though the checkpoint snapshot said more.
        assert resumed.health_snapshot()["checks"]["queue"]["depth"] == 0


def _scraped_queue_depth() -> float:
    text = _render_prometheus(get_registry())
    return float(re.search(r"^serve_queue_depth (\S+)$", text, re.M).group(1))


class TestQueueDepthAtScrape:
    """Offers only append; ``serve_queue_depth`` is read from the queue
    when the registry renders, so every scrape sees the true depth."""

    def test_burst_of_submits_without_a_pump(
        self, serve_models, serve_readings, serve_config
    ):
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        assert _scraped_queue_depth() == 0.0
        for serial, day, reading in serve_readings[:25]:
            daemon.submit(serial, day, reading)
        assert _scraped_queue_depth() == 25.0
        daemon.submit_many(*zip(*serve_readings[25:40]))
        assert _scraped_queue_depth() == 40.0
        daemon.pump()
        assert _scraped_queue_depth() == 0.0

    def test_resumed_snapshot_does_not_override_the_live_depth(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        full, reduced = serve_models
        path = tmp_path / "ckpt"
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=path
        )
        for serial, day, reading in serve_readings[:7]:
            daemon.submit(serial, day, reading)
        daemon._checkpoint()  # its registry snapshot holds a depth of 7
        state = read_checkpoint(path, SERVE_FILES)["state.json"]
        recorded = {family["name"]: family for family in state["metrics"]}
        assert recorded["serve_queue_depth"]["samples"][0]["value"] == 7.0

        get_registry().reset()  # kill -9: the next process starts empty
        resumed = ServeDaemon.resume(path)
        assert _scraped_queue_depth() == 0.0
        resumed.submit(*serve_readings[7])
        assert _scraped_queue_depth() == 1.0


class TestServePsiParity:
    def test_window_psi_bit_identical_to_offline(
        self, serve_models, serve_readings, serve_config
    ):
        """The daemon's per-window PSI must equal, to the last bit, the
        offline ``population_stability_index`` on the same reference
        sample and the same staged window matrix."""
        full, reduced = serve_models
        columns = list(full.assembler_.columns)
        day = full.dataset_.columns["day"]
        rows = np.flatnonzero(day < SERVE_START)[:4000]
        assembled = full.assembler_.assemble(full.dataset_.columns, rows)
        scores_ref = full.model_.predict_proba(assembled)[:, 1]
        X_ref = assembled[:, -len(columns):]
        profile = ReferenceProfile.from_samples(columns, X_ref, scores_ref)

        monitor = DriftMonitor(profile)
        captured: list[tuple[np.ndarray, np.ndarray, dict]] = []
        original = monitor.observe_window

        def spy(X, scores=None, window_start=None):
            report = original(X, scores, window_start=window_start)
            captured.append((np.array(X), np.array(scores), report))
            return report

        monitor.observe_window = spy
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, drift=monitor
        )
        replay_into(
            daemon, _subset(serve_readings, 30), end_day=END
        )

        assert len(captured) == (END - SERVE_START) // WINDOW
        for X_window, scores_window, report in captured:
            for i, column in enumerate(columns):
                assert report["features"][column] == (
                    population_stability_index(X_ref[:, i], X_window[:, i])
                )
            assert report["score"] == population_stability_index(
                scores_ref, scores_window
            )
        # The live gauges hold the last window's values.
        registry = get_registry()
        last_report = captured[-1][2]
        for column in columns:
            assert (
                registry.gauge("serve_drift_psi", feature=column).value
                == last_report["features"][column]
            )
