"""The `repro serve` daemon: the batch monitor as a supervised stream.

Data path::

    submit() / submit_many()
             ──▶ BoundedReadingQueue          (append only; backpressure,
                                               shedding)
    pump()   ──▶ IncrementalScorer.parse      (the drained readings, once,
                                               into one ReadingBatch in the
                                               scorer's column order, each
                                               firmware label resolved once)
             ──▶ per run of readings between window boundaries:
                   ReadingGate.admit          (quarantine / repair, the
                                               run as one matrix; plans
                                               the rounds of distinct
                                               drives)
                   DimensionFreshness.observe (staleness watch)
                   IncrementalScorer.stage    (the admitted matrix and
                                               the gate's plan into the
                                               shared per-drive feature
                                               state)
             ──▶ window flush at each boundary:
                   score the staged row matrix in batches under
                   RetryPolicy, route full ▸ reduced (a column gather of
                   the same rows) on stale dimensions or an OPEN circuit
                   breaker, decide alarms (dedup + rate budget),
                   checkpoint, then emit committed alarms to the sink.

Each stage's time is observed once per pump or flush in the
``serve_stage_seconds{stage=gate|assemble|score|decide|checkpoint}``
histogram.

Crash-resume replays *only unacknowledged input*: the checkpoint's
``watermark`` is the end of the last flushed window, every admitted
reading below it is baked into the checkpointed scorer/gate state, and
every reading at or above it was never admitted (the gate admits at
pump time, after the boundary flush) — so feeding the daemon all
recorded readings with ``day >= watermark`` reproduces the
uninterrupted run exactly. The alarm sink is regenerated from the
checkpointed ledger on resume, which is what makes alarms exactly-once
across a ``kill -9`` (see :mod:`repro.serve.alarms`).
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.client import ClientPredictor, ReadingBatch
from repro.core.pipeline import MFPA, MFPAConfig
from repro.obs import (
    get_logger,
    get_registry,
    inc_counter,
    observe_histogram,
    registry_status,
    set_gauge,
    trace_span,
)
from repro.parallel import ParallelExecutor, SharedPayload, share
from repro.scale.memory import update_peak_rss_gauge
from repro.robustness.checkpoint import commit, read_checkpoint
from repro.robustness.degraded import fit_reduced_model
from repro.serve.alarms import AlarmStream
from repro.serve.drift import DriftMonitor, ReferenceProfile
from repro.serve.ingest import BoundedReadingQueue, GatePolicy, ReadingGate
from repro.serve.retry import STATE_NAMES, CircuitBreaker, RetryPolicy, retry_call
from repro.serve.state import DimensionFreshness, IncrementalScorer
from repro.telemetry.dataset import TelemetryDataset

__all__ = ["SERVE_FILES", "ServeConfig", "ServeDaemon"]

_LOG = get_logger("repro.serve.daemon")

SERVE_STATE_VERSION = 1
#: The file pair a serve-daemon checkpoint consists of.
SERVE_FILES = ("model.pkl", "state.json")


def _predict_rows_task(
    scorer: SharedPayload, X: np.ndarray, reduced: bool
) -> np.ndarray:
    """Worker task: score one chunk of a staged batch.

    Prediction only reads the fitted models (never the drive state), so
    the fork-shared scorer needs no synchronization.
    """
    scorer = scorer.get()
    return (scorer.predict_reduced if reduced else scorer.predict_full)(X)


class _StagedRows:
    """The open window's staged readings as columnar buffers.

    One chunk per stage call — serials, days, daemon-clock staging times
    (for ingest→alarm latency) and assembled rows — concatenated when
    the window flushes.
    """

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, serials, days, staged_at, rows) -> None:
        self._chunks.append((serials, days, staged_at, rows))
        self._n += len(serials)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(serials, days, staged_at, rows)`` over the whole window."""
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), np.empty((0, 0))
        return tuple(np.concatenate(column) for column in zip(*self._chunks))


@dataclass(frozen=True)
class ServeConfig:
    """All serve-daemon knobs (frozen: pickled into the checkpoint)."""

    serve_start_day: int = 240
    """Readings before this day are warmup: committed into per-drive
    state (cumulative counters, history) but never scored."""
    window_days: int = 30
    end_day: int | None = None
    alarm_threshold: float = 0.5
    queue_capacity: int = 4096
    batch_size: int = 512
    max_alarms_per_window: int | None = None
    """Fleet-wide alarm budget per window (None = unlimited)."""
    stale_after: int = 256
    """Consecutive admitted readings a feature dimension may be absent
    before it is declared stale and scoring degrades."""
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 3
    cooldown_ticks: int = 2
    slow_tick_seconds: float = 5.0
    gate: GatePolicy = field(default_factory=GatePolicy)
    n_jobs: int = 1
    """Worker processes for batch scoring (1 = serial). The persistent
    pool amortizes its fork across every window the daemon flushes, and
    the calibrated fallback keeps small batches serial — results are
    identical at every setting. Read via ``getattr`` with a default so
    checkpoints written before this field existed still restore."""
    heartbeat_timeout_seconds: float = 60.0
    """`/health` readiness flips once the pump loop has been silent this
    long (measured on the daemon clock). Read via ``getattr`` for
    pre-field checkpoint compatibility, like ``n_jobs``."""
    drift_event_budget_windows: int = 3
    """Minimum flushed windows between two severe-drift events (the
    drift monitor's alarm-fatigue rate budget). ``getattr``-read."""


class ServeDaemon:
    """Long-running fleet scorer. Single-threaded by design: producers
    call :meth:`submit` (or :meth:`submit_many` with a batch), the
    supervisor calls :meth:`pump` per tick and :meth:`finish` at end of
    stream."""

    def __init__(
        self,
        scorer: IncrementalScorer,
        config: ServeConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        sink_path: str | Path | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        drift: DriftMonitor | None = None,
        model_hash: str | None = None,
    ):
        self.config = config or ServeConfig()
        self.scorer = scorer
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.alarms = AlarmStream(
            threshold=self.config.alarm_threshold,
            sink_path=sink_path,
            max_per_window=self.config.max_alarms_per_window,
        )
        self.gate = ReadingGate(
            self.config.gate,
            is_alarmed=self.alarms.is_alarmed,
            firmware_vocabulary=scorer.full.firmware_vocabulary,
        )
        self.queue = BoundedReadingQueue(
            self.config.queue_capacity, is_alarmed=self.alarms.is_alarmed
        )
        self.freshness = DimensionFreshness(self.config.stale_after)
        self.breaker = CircuitBreaker(
            self.config.failure_threshold, self.config.cooldown_ticks
        )
        self.windows: list[dict] = []
        self.window_start = self.config.serve_start_day
        self.watermark = self.config.serve_start_day
        self.degraded = False
        self.drift = drift
        #: Artifact hash of the model pair serving this daemon (set when
        #: the models came from ``repro model save`` artifacts). Recorded
        #: in every checkpoint so ``resume`` can refuse a state written
        #: by a different model.
        self.model_hash = model_hash
        self._staged = _StagedRows()
        self._e2e_latencies: list[float] = []
        self._clock = clock
        self._sleep = sleep
        self._retry_rng = np.random.default_rng(self.config.retry.seed)
        self._model_file_written = False
        self._last_tick: float | None = None
        self._last_checkpoint: float | None = None
        set_gauge("serve_degraded_mode", 0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        dataset: TelemetryDataset,
        config: ServeConfig | None = None,
        mfpa_config: MFPAConfig | None = None,
        train_end_day: int | None = None,
        fit_reduced: bool = True,
        drift: bool = True,
        **kwargs,
    ) -> "ServeDaemon":
        """Fit the full and reduced models on ``dataset`` and serve.

        ``drift=True`` also sketches the training-era feature and score
        distributions into a :class:`ReferenceProfile` so the daemon
        monitors PSI per flushed window.
        """
        config = config or ServeConfig()
        train_end_day = (
            train_end_day if train_end_day is not None else config.serve_start_day
        )
        full = MFPA(mfpa_config or MFPAConfig())
        full.fit(dataset, train_end_day=train_end_day)
        reduced = (
            fit_reduced_model(dataset, train_end_day, base_config=full.config)
            if fit_reduced
            else None
        )
        return cls.from_models(full, reduced, config, drift=drift, **kwargs)

    @classmethod
    def from_models(
        cls,
        full: MFPA,
        reduced: MFPA | None,
        config: ServeConfig | None = None,
        drift: "bool | DriftMonitor | ReferenceProfile" = False,
        **kwargs,
    ) -> "ServeDaemon":
        config = config or ServeConfig()
        scorer = IncrementalScorer(
            ClientPredictor.from_model(full, on_missing="impute"),
            ClientPredictor.from_model(reduced, on_missing="impute")
            if reduced is not None
            else None,
        )
        if drift is True:
            train_end = min(
                config.serve_start_day,
                int(full.dataset_.columns["day"].max()) + 1,
            )
            drift = ReferenceProfile.from_model(full, (0, train_end))
        if isinstance(drift, ReferenceProfile):
            drift = DriftMonitor(
                drift,
                event_budget_windows=getattr(
                    config, "drift_event_budget_windows", 3
                ),
            )
        return cls(scorer, config, drift=drift or None, **kwargs)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str | Path,
        sink_path: str | Path | None = None,
        expected_model_hash: str | None = None,
        **kwargs,
    ) -> "ServeDaemon":
        """Restore a daemon from its last committed checkpoint.

        Feed it every recorded reading with ``day >= daemon.watermark``
        and the result is identical to the uninterrupted run.

        ``expected_model_hash`` (the :func:`repro.ml.artifact.artifact_hash`
        of the model artifact the caller intends to serve) makes the
        resume refuse — with :class:`repro.ml.artifact.ArtifactMismatchError`
        — a checkpoint written by a daemon scoring through a different
        model. Silent continuation across a model swap would splice two
        incompatible alarm streams.
        """
        path = Path(checkpoint_dir)
        payloads = read_checkpoint(path, SERVE_FILES)
        if payloads is None:
            raise FileNotFoundError(f"{path} does not contain a serve checkpoint")
        payload, state = payloads["model.pkl"], payloads["state.json"]
        version = state.get("version")
        if version != SERVE_STATE_VERSION:
            raise ValueError(f"unsupported serve checkpoint version {version!r}")
        stored_hash = state.get("model_hash")
        if expected_model_hash is not None and stored_hash != expected_model_hash:
            from repro.ml.artifact import ArtifactMismatchError

            raise ArtifactMismatchError(
                f"serve checkpoint {path} was written by model "
                f"{stored_hash or '<untracked>'}, refusing to resume with "
                f"artifact {expected_model_hash}; restart without --resume "
                f"or point --checkpoint-dir at a fresh directory"
            )

        scorer = IncrementalScorer(payload["full"], payload["reduced"])
        config = payload["config"]
        profile = payload.get("profile")
        drift = None
        if profile is not None:
            drift = DriftMonitor(
                profile,
                event_budget_windows=getattr(
                    config, "drift_event_budget_windows", 3
                ),
            )
        daemon = cls(
            scorer,
            config,
            checkpoint_dir=path,
            sink_path=sink_path,
            drift=drift,
            **kwargs,
        )
        # Metrics continuity: fold the checkpointed registry snapshot in
        # *before* the explicit gauge writes below, so counters resume
        # monotone from the crash point while current-truth gauges win
        # (serve_queue_depth reads the live queue whatever was merged).
        get_registry().merge(state.get("metrics") or [])
        # Pickled predictor states are as-of-pickling; the JSON state is
        # the committed truth — restore from it.
        daemon.scorer.restore(state["scorer"])
        daemon.gate.restore(state["gate"])
        daemon.freshness.restore(state["freshness"])
        daemon.breaker.restore(state["breaker"])
        daemon.alarms.restore(state["alarms"])
        if daemon.drift is not None and state.get("drift") is not None:
            daemon.drift.restore(state["drift"])
        daemon.windows = [dict(window) for window in state["windows"]]
        daemon.window_start = int(state["window_start"])
        daemon.watermark = int(state["watermark"])
        daemon.degraded = bool(state["degraded"])
        daemon.model_hash = stored_hash
        daemon._model_file_written = True
        set_gauge("serve_degraded_mode", int(daemon.degraded))
        inc_counter("serve_resumes_total")
        daemon.alarms.reconcile_sink()
        _LOG.info(
            "daemon resumed",
            watermark=daemon.watermark,
            windows=len(daemon.windows),
            alarms=len(daemon.alarms.ledger),
        )
        return daemon

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def submit(self, serial, day, reading) -> None:
        """Enqueue one reading (cheap; validation happens at pump time)."""
        self.queue.offer(serial, day, reading)

    def submit_many(self, serials, days, readings) -> None:
        """Enqueue parallel sequences of readings (a collector's day);
        the queue sheds exactly as that many :meth:`submit` calls would."""
        self.queue.offer_many(serials, days, readings)

    def pump(self) -> None:
        """One supervised tick: drain, stage, flush due windows."""
        started = self._clock()
        with trace_span("serve.pump"):
            items = self.queue.drain()
            if items:
                self._process(items)
        self.breaker.tick()
        inc_counter("serve_ticks_total")
        self._last_tick = self._clock()
        set_gauge("serve_heartbeat_timestamp", time.time())
        update_peak_rss_gauge()
        elapsed = self._clock() - started
        if elapsed > self.config.slow_tick_seconds:
            inc_counter("serve_slow_ticks_total")
            _LOG.warning("slow tick", seconds=round(elapsed, 3))

    def finish(self, end_day: int | None = None) -> dict:
        """Drain, flush every remaining window up to ``end_day``."""
        self.pump()
        end = end_day if end_day is not None else self.config.end_day
        if end is None and self._staged:
            end = self.window_start + self.config.window_days
        while end is not None and self.window_start < end:
            self._flush_window()
        return self.summary()

    def _process(self, items) -> None:
        """Parse the drained readings once; gate and stage each run
        between window boundaries as one batch."""
        started = time.perf_counter()
        batch = self.scorer.parse(*zip(*items))
        # Boundary first: a reading belonging to a later window must not
        # be admitted before this window's flush commits (the watermark
        # replay contract depends on it). ``reach`` is how many windows
        # past the open one the stream has got by each reading; an
        # unparseable day (NO_DAY) reaches none.
        ahead = np.maximum(batch.days, self.window_start) - self.window_start
        reach = np.maximum.accumulate(ahead // self.config.window_days)
        bounds = [0, *(np.diff(reach).nonzero()[0] + 1).tolist(), len(batch)]
        gate_seconds = time.perf_counter() - started
        assemble_seconds = 0.0
        flushed = 0
        for first, end in zip(bounds, bounds[1:]):
            while flushed < reach[first]:
                self._flush_window()
                flushed += 1
            started = time.perf_counter()
            run = batch if end - first == len(batch) else batch.take(
                np.arange(first, end)
            )
            admitted = self.gate.admit(run)
            if admitted is not None:
                self.freshness.observe(admitted)
            gate_seconds += time.perf_counter() - started
            if admitted is not None:
                assemble_seconds += self._stage(admitted)
        observe_histogram("serve_stage_seconds", gate_seconds, stage="gate")
        observe_histogram("serve_stage_seconds", assemble_seconds, stage="assemble")

    def _stage(self, batch: ReadingBatch) -> float:
        """Stage admitted readings in one scorer call; return its seconds."""
        started = time.perf_counter()
        rows, rejections = self.scorer.stage(batch)
        serials, days = batch.serials, batch.days
        if rejections:
            accepted = np.ones(len(batch), dtype=bool)
            for position, error in rejections.items():
                # the gate validates firmware labels first, so this is a
                # backstop for whatever else the assembly rejects
                accepted[position] = False
                self.gate.note_quarantine(serials[position], "assembly_error")
                _LOG.warning(
                    "assembly failed", serial=int(serials[position]),
                    day=int(days[position]), error=repr(error),
                )
            serials, days = serials[accepted], days[accepted]
        live = days >= self.config.serve_start_day
        if live.any():
            self._staged.append(
                serials[live], days[live],
                np.full(int(live.sum()), self._clock()), rows[live],
            )
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # Window flush
    # ------------------------------------------------------------------
    def _score_staged(
        self, rows: np.ndarray, degraded_route: bool
    ) -> tuple[np.ndarray, bool]:
        """Batched probabilities for the staged rows; returns the
        probabilities plus the route actually used (a full-route failure
        falls back to the reduced model mid-window).

        With ``config.n_jobs > 1`` each batch's rows are chunked over
        the persistent worker pool; the scorer travels by fork
        inheritance and per-row independence keeps the concatenated
        probabilities identical to the serial pass. Retries and the
        circuit breaker wrap the whole parallel call, so failure
        semantics are unchanged.
        """
        reduced = degraded_route and self.scorer.has_reduced
        predict = (
            self.scorer.predict_reduced if reduced else self.scorer.predict_full
        )
        executor = ParallelExecutor(getattr(self.config, "n_jobs", 1))
        if executor.is_parallel:

            def predict(X, _executor=executor):
                chunks = np.array_split(X, _executor.n_jobs)
                with share(self.scorer, name="serve_scorer") as handle:
                    parts = _executor.starmap(
                        _predict_rows_task,
                        [(handle, chunk, reduced) for chunk in chunks if len(chunk)],
                    )
                return np.concatenate(parts)
        stage = "score_reduced" if reduced else "score_full"
        probabilities: list[np.ndarray] = []
        for offset in range(0, len(rows), self.config.batch_size):
            X = rows[offset : offset + self.config.batch_size]
            try:
                chunk = retry_call(
                    lambda: predict(X),
                    policy=self.config.retry,
                    stage=stage,
                    sleep=self._sleep,
                    clock=self._clock,
                    rng=self._retry_rng,
                )
            except Exception:
                self.breaker.record_failure()
                if not reduced and self.scorer.has_reduced:
                    _LOG.error(
                        "full-model scoring exhausted retries; "
                        "falling back to reduced model for this window"
                    )
                    return self._score_staged(rows, degraded_route=True)
                raise
            self.breaker.record_success()
            probabilities.append(np.asarray(chunk, dtype=float))
            inc_counter("serve_batches_scored_total")
        if probabilities:
            return np.concatenate(probabilities), reduced
        return np.empty(0), reduced

    def _set_degraded(self, degraded: bool, reasons: tuple[str, ...]) -> None:
        if degraded and not self.degraded:
            inc_counter("serve_degraded_entries_total")
            _LOG.warning("entering degraded mode", reasons=list(reasons))
        elif not degraded and self.degraded:
            inc_counter("serve_degraded_exits_total")
            _LOG.info("exiting degraded mode")
        self.degraded = degraded
        set_gauge("serve_degraded_mode", int(degraded))

    def _flush_window(self) -> None:
        window_end = self.window_start + self.config.window_days
        with trace_span("serve.flush_window"):
            stale = self.scorer.has_reduced and self.freshness.stale_dimensions()
            want_degraded = bool(stale) or (
                self.scorer.has_reduced and self.breaker.is_open
            )
            serials, days, staged_at, rows = self._staged.arrays()
            started = time.perf_counter()
            probabilities, used_reduced = self._score_staged(rows, want_degraded)
            scored = time.perf_counter()
            reasons = tuple(
                (*(f"stale:{name}" for name in (stale or ())),
                 *(("breaker_open",) if self.breaker.is_open else ()),
                 *(("score_fallback",) if used_reduced and not want_degraded
                   else ())),
            )
            self._set_degraded(used_reduced, reasons)

            if (
                self.drift is not None
                and len(rows)
                and len(probabilities) == len(rows)
            ):
                # Current-day feature block of the *full* model's rows:
                # the trailing columns (earlier blocks are history lags).
                current = self.scorer.full.model_rows(rows)[
                    :, -self.drift.n_columns:
                ]
                self.drift.observe_window(
                    current, probabilities, window_start=self.window_start
                )

            self.alarms.open_window()
            window_alarms: list[dict] = []
            decided_at = self._clock()
            for serial, day, staged, probability in zip(
                serials.tolist(), days.tolist(), staged_at.tolist(),
                probabilities.tolist(),
            ):
                if self.alarms.decide(
                    serial, day, probability,
                    window_start=self.window_start, degraded=used_reduced,
                ):
                    window_alarms.append(self.alarms.ledger[-1])
                    latency = max(0.0, decided_at - staged)
                    observe_histogram("serve_e2e_latency_seconds", latency)
                    self._e2e_latencies.append(latency)

            self.windows.append(
                {
                    "start_day": self.window_start,
                    "end_day": window_end,
                    "n_readings_scored": len(rows),
                    "degraded": used_reduced,
                    "alarms": window_alarms,
                }
            )
            inc_counter("serve_windows_scored_total")
            self._staged = _StagedRows()
            self.window_start = window_end
            self.watermark = window_end
            decided = time.perf_counter()
            if self.checkpoint_dir is not None:
                self._checkpoint()
            # Only after the checkpoint committed do alarms reach the
            # sink — a crash in between is repaired by reconcile_sink.
            self.alarms.emit_pending()
            for stage, seconds in (
                ("score", scored - started),
                ("decide", decided - scored),
                ("checkpoint", time.perf_counter() - decided),
            ):
                observe_histogram("serve_stage_seconds", seconds, stage=stage)
        _LOG.info(
            "window flushed",
            start=self.windows[-1]["start_day"],
            end=window_end,
            scored=self.windows[-1]["n_readings_scored"],
            alarms=len(window_alarms),
            degraded=used_reduced,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        # model.pkl is written with the first commit; later commits keep
        # it (None) and rewrite only state.json.
        model = None
        if not self._model_file_written:
            model = pickle.dumps({
                "version": SERVE_STATE_VERSION,
                "config": self.config,
                "full": self.scorer.full,
                "reduced": self.scorer.reduced,
                "profile": self.drift.profile if self.drift else None,
            })
        state = {
            "version": SERVE_STATE_VERSION,
            "window_start": self.window_start,
            "watermark": self.watermark,
            "degraded": self.degraded,
            "model_hash": self.model_hash,
            "scorer": self.scorer.snapshot(),
            "gate": self.gate.snapshot(),
            "freshness": self.freshness.snapshot(),
            "breaker": self.breaker.snapshot(),
            "alarms": self.alarms.snapshot(),
            "windows": self.windows,
            "drift": self.drift.snapshot() if self.drift else None,
            # Registry snapshot: restored by resume() so counters stay
            # monotone across kill -9 (the continuity contract).
            "metrics": get_registry().dump(),
        }
        commit(
            self.checkpoint_dir,
            {"model.pkl": model, "state.json": json.dumps(state).encode()},
        )
        self._model_file_written = True
        inc_counter("serve_checkpoints_total")
        self._last_checkpoint = self._clock()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "windows": self.windows,
            "n_windows": len(self.windows),
            "n_alarms": len(self.alarms.ledger),
            "alarmed_serials": sorted(self.alarms.alarmed),
            "degraded_windows": sum(1 for w in self.windows if w["degraded"]),
            "watermark": self.watermark,
            "e2e_latency_seconds": self._latency_summary(),
        }

    def _latency_summary(self) -> dict:
        """Ingest→alarm latency percentiles over this process's alarms."""
        if not self._e2e_latencies:
            return {"count": 0, "p50": None, "p95": None, "p99": None}
        values = np.asarray(self._e2e_latencies, dtype=float)
        p50, p95, p99 = np.percentile(values, [50, 95, 99])
        return {
            "count": int(values.size),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }

    def status_snapshot(self) -> dict:
        """The `/status` payload: everything an operator dashboard needs
        in one JSON-ready dict. Cheap to build; safe from any thread that
        tolerates slightly-torn reads (the HTTP handler does)."""
        return {
            "watermark": self.watermark,
            "window_start": self.window_start,
            "n_windows": len(self.windows),
            "staged": len(self._staged),
            "degraded": self.degraded,
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.capacity,
            },
            "breaker": {
                "state": self.breaker.state,
                "name": STATE_NAMES[self.breaker.state],
            },
            "alarms": {
                "ledger": len(self.alarms.ledger),
                "alarmed": len(self.alarms.alarmed),
            },
            "gate": {
                "banned": len(self.gate.banned),
                "quarantined_drives": len(self.gate.quarantine_counts),
            },
            "drift": self.drift.last if self.drift else None,
            "e2e_latency_seconds": self._latency_summary(),
            "metrics": registry_status(),
        }

    def health_snapshot(self) -> dict:
        """The `/health` payload: liveness (we answered) plus readiness
        checks — queue headroom, breaker closed, heartbeat fresh."""
        now = self._clock()
        depth = len(self.queue)
        heartbeat_age = None if self._last_tick is None else now - self._last_tick
        timeout = getattr(self.config, "heartbeat_timeout_seconds", 60.0)
        checks = {
            "queue": {
                "ok": depth < self.queue.capacity,
                "depth": depth,
                "capacity": self.queue.capacity,
            },
            "breaker": {
                "ok": not self.breaker.is_open,
                "state": STATE_NAMES[self.breaker.state],
            },
            "heartbeat": {
                # None = not pumped yet; a freshly started daemon is
                # ready, staleness only means the loop went silent.
                "ok": heartbeat_age is None or heartbeat_age <= timeout,
                "age_seconds": heartbeat_age,
                "timeout_seconds": timeout,
            },
        }
        return {
            "alive": True,
            "ready": all(check["ok"] for check in checks.values()),
            "checks": checks,
            "watermark": self.watermark,
            "checkpoint_age_seconds": (
                None
                if self._last_checkpoint is None
                else now - self._last_checkpoint
            ),
        }

    def alarm_records(self) -> list[tuple[int, int, float]]:
        """``(serial, day, probability)`` per ledger entry, sorted."""
        return sorted(
            (r["serial"], r["day"], r["probability"]) for r in self.alarms.ledger
        )
