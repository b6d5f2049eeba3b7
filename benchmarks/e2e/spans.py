"""Per-layer spans, recorded from outside the program.

A traced run wraps each declared callable where the program looks it
up: the attribute on its defining module or class, plus every
``from ... import name`` binding of the same object in the ``repro``
and benchmark modules. No source file changes. Each wrapper adds its
call count and wall time, and its *self* time — wall time minus the
time spent in nested declared spans, tracked with a stack of child-time
accumulators. Everything stays in memory until the run reports.

A target that no longer exists (a refactor deleted or renamed it) is
reported as absent with a warning, so such a refactor needs no
benchmark edit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows_returned(args, kwargs, result) -> int:
    return len(result)


def _rejected(args, kwargs, result) -> int:
    return int(result is None)


def _bytes_written(args, kwargs, result) -> int:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return len(data)


@dataclass(frozen=True)
class Span:
    name: str
    module: str
    attr: str
    count: tuple[str, Callable] | None = None
    """``(suffix, fn(args, kwargs, result) -> int)``: a per-call count
    summed into the ``<name>.<suffix>`` metric."""


SPANS = (
    Span("telemetry.io.load_dataset", "repro.telemetry.io", "load_dataset"),
    Span("ml.artifact.load_model", "repro.ml.artifact", "load_model"),
    Span("core.pipeline.fit", "repro.core.pipeline", "MFPA.fit"),
    Span("core.pipeline.bind_dataset", "repro.core.pipeline", "MFPA.bind_dataset"),
    Span("core.pipeline.predict_proba_rows", "repro.core.pipeline", "MFPA.predict_proba_rows"),
    Span("core.preprocess.preprocess", "repro.core.preprocess", "preprocess"),
    Span("core.labeling.identify", "repro.core.labeling", "FailureTimeIdentifier.identify"),
    Span("core.labeling.build_samples", "repro.core.labeling", "build_samples"),
    Span("ml.resampling.fit_resample", "repro.ml.resampling", "RandomUnderSampler.fit_resample"),
    Span("core.features.assemble", "repro.core.features", "FeatureAssembler.assemble",
         count=("rows", _rows_returned)),
    Span("ml.forest.fit", "repro.ml.forest", "RandomForestClassifier.fit"),
    Span("ml.forest.predict_proba", "repro.ml.forest", "RandomForestClassifier.predict_proba"),
    Span("ml.tree.fit", "repro.ml.tree", "DecisionTreeClassifier.fit"),
    Span("ml.arena.encode", "repro.ml.arena", "ForestArena.encode"),
    Span("ml.arena.predict_mean", "repro.ml.arena", "ForestArena.predict_mean",
         count=("rows", _rows_returned)),
    Span("core.deployment.simulate_operation", "repro.core.deployment", "simulate_operation"),
    Span("core.deployment.score_prepared_window", "repro.core.deployment", "score_prepared_window"),
    Span("core.deployment.predict_rows_parallel", "repro.core.deployment", "predict_rows_parallel"),
    Span("core.deployment.summarize_windows", "repro.core.deployment", "summarize_windows"),
    Span("serve.ingest.offer", "repro.serve.ingest", "BoundedReadingQueue.offer"),
    Span("serve.ingest.admit", "repro.serve.ingest", "ReadingGate.admit",
         count=("rejected", _rejected)),
    Span("serve.daemon.pump", "repro.serve.daemon", "ServeDaemon.pump"),
    Span("serve.daemon.finish", "repro.serve.daemon", "ServeDaemon.finish"),
    Span("serve.state.observe", "repro.serve.state", "DimensionFreshness.observe"),
    Span("serve.state.stage", "repro.serve.state", "IncrementalScorer.stage"),
    Span("serve.state.predict_full", "repro.serve.state", "IncrementalScorer.predict_full"),
    Span("serve.state.snapshot", "repro.serve.state", "IncrementalScorer.snapshot"),
    Span("core.client.ingest", "repro.core.client", "ClientPredictor.ingest"),
    Span("core.client.predict_matrix", "repro.core.client", "ClientPredictor.predict_matrix"),
    Span("serve.drift.observe_window", "repro.serve.drift", "DriftMonitor.observe_window"),
    Span("serve.alarms.decide", "repro.serve.alarms", "AlarmStream.decide"),
    Span("serve.alarms.emit_pending", "repro.serve.alarms", "AlarmStream.emit_pending"),
    Span("serve.alarms.snapshot", "repro.serve.alarms", "AlarmStream.snapshot"),
    Span("robustness.checkpoint.atomic_write", "repro.robustness.checkpoint", "atomic_write",
         count=("bytes", _bytes_written)),
    Span("robustness.checkpoint.write_manifest", "repro.robustness.checkpoint", "write_manifest"),
)

#: The spans each workload must exercise: the layer -> workload map of
#: the README. The harness self-test checks it on a traced smoke run.
EXPECTED_SPANS = {
    "train": (
        "telemetry.io.load_dataset", "core.pipeline.fit",
        "core.preprocess.preprocess", "core.labeling.identify",
        "core.labeling.build_samples", "ml.resampling.fit_resample",
        "core.features.assemble", "ml.forest.fit", "ml.tree.fit",
    ),
    "monitor": (
        "telemetry.io.load_dataset", "ml.artifact.load_model",
        "core.pipeline.bind_dataset", "core.deployment.simulate_operation",
        "core.deployment.score_prepared_window",
        "core.deployment.predict_rows_parallel",
        "core.deployment.summarize_windows",
        "core.pipeline.predict_proba_rows", "core.features.assemble",
        "ml.forest.predict_proba", "ml.arena.encode", "ml.arena.predict_mean",
    ),
    "serve": (
        "ml.artifact.load_model", "serve.ingest.offer", "serve.ingest.admit",
        "serve.daemon.pump", "serve.daemon.finish", "serve.state.observe",
        "serve.state.stage", "serve.state.predict_full", "serve.state.snapshot",
        "core.client.ingest", "core.client.predict_matrix",
        "serve.drift.observe_window", "serve.alarms.decide",
        "serve.alarms.emit_pending", "serve.alarms.snapshot",
        "robustness.checkpoint.atomic_write",
        "robustness.checkpoint.write_manifest", "ml.arena.predict_mean",
    ),
}


def count_names() -> list[str]:
    return [f"{span.name}.{span.count[0]}" for span in SPANS if span.count]


class SpanRecorder:
    """Installs the span wrappers and aggregates their measurements."""

    def __init__(self):
        self.calls = {span.name: 0 for span in SPANS}
        self.wall = {span.name: 0.0 for span in SPANS}
        self.self_time = {span.name: 0.0 for span in SPANS}
        self.counts = dict.fromkeys(count_names(), 0)
        self.absent: list[str] = []
        self._stack: list[float] = []

    def install(self) -> None:
        """Patch every span target; call once per process."""
        replacements: dict[int, Callable] = {}
        for span in SPANS:
            try:
                owner = importlib.import_module(span.module)
                *path, attr = span.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span.name)
                print(
                    f"warning: span {span.name} target {span.module}.{span.attr} "
                    "is absent; reporting it as absent",
                    file=sys.stderr,
                )
                continue
            wrapper = self._wrap(span, original)
            setattr(owner, attr, wrapper)
            if not path:
                replacements[id(original)] = wrapper
        for name, module in list(sys.modules.items()):
            if not name.startswith(("repro", "benchmarks")):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, key, replacements[id(value)])

    def _wrap(self, span: Span, fn: Callable) -> Callable:
        name = span.name
        calls, wall, self_time = self.calls, self.wall, self.self_time
        stack = self._stack
        clock = time.perf_counter
        count_key = f"{name}.{span.count[0]}" if span.count else None
        count_fn = span.count[1] if span.count else None
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                wall[name] += elapsed
                self_time[name] += elapsed - nested
            if count_key is not None:
                counts[count_key] += count_fn(args, kwargs, result)
            return result

        return wrapper

    def report(self) -> dict:
        """Per-span calls, wall and self seconds, plus the counts."""
        return {
            "spans": {
                span.name: {
                    "calls": self.calls[span.name],
                    "wall_s": self.wall[span.name],
                    "self_s": self.self_time[span.name],
                    "absent": span.name in self.absent,
                }
                for span in SPANS
            },
            "counts": dict(self.counts),
        }
