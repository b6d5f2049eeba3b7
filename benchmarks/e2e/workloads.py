"""The three workloads: what each sets up, times, and checks.

Each workload drives the system through the calls the ``repro`` CLI
makes, so refactors behind those calls need no benchmark edit. A
workload object is built once per run (untimed: it loads the expected
outputs and, for serve, the in-memory reading stream); ``setup`` and
``run`` are timed separately, and ``check`` compares each ``run``
output with the reference before the next one starts.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from benchmarks.e2e.inputs import (
    END_DAY,
    TRAIN_END,
    WINDOW_DAYS,
    Inputs,
    edge_stream,
    never_retrain,
    probe_rows,
    serve_config,
)
from repro.core.deployment import simulate_operation
from repro.core.pipeline import MFPA, MFPAConfig
from repro.ml.artifact import load_model, load_reference_profile
from repro.obs import get_registry
from repro.serve.daemon import ServeDaemon
from repro.telemetry.io import load_dataset

#: Probabilities may differ from the reference by float summation order
#: only; (serial, day) must match exactly.
PROBABILITY_TOLERANCE = 1e-9


@dataclass
class Check:
    """What one or more checked outputs showed."""

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def merge(self, other: "Check") -> None:
        self.attempted += other.attempted
        for name, count in other.failures.items():
            self.failures[name] = self.failures.get(name, 0) + count
        self.observed.update(other.observed)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)


def alarm_digest(alarms) -> str:
    """Digest of the sorted (serial, day) pairs: the pinned alarm identity."""
    pairs = sorted((int(serial), int(day)) for serial, day, _ in alarms)
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]


def alarm_failures(alarms, expected) -> dict[str, int]:
    """Drives whose alarm differs from the reference, and repeated serials."""
    actual = {int(s): (int(d), float(p)) for s, d, p in alarms}
    wanted = {int(s): (int(d), float(p)) for s, d, p in expected}
    differ = 0
    for serial in actual.keys() | wanted.keys():
        got, want = actual.get(serial), wanted.get(serial)
        if (
            got is None
            or want is None
            or got[0] != want[0]
            or abs(got[1] - want[1]) > PROBABILITY_TOLERANCE
        ):
            differ += 1
    return {
        "alarms_match_reference": differ,
        "duplicate_alarmed_serials": len(alarms) - len(actual),
    }


class Workload:
    name = ""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.reference = inputs.reference()

    @property
    def drives(self) -> int:
        """Drives in scope: the numerator of drives_per_s."""
        return self.reference["n_drives"]

    def setup(self):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def check(self, output) -> Check:
        raise NotImplementedError

    def finish(self, state, output, check: Check) -> tuple[Check, dict[str, float]]:
        """Once per run, after the last iteration (``output``) and with
        every iteration's ``check`` merged: a final check and the
        workload's own metrics."""
        return Check(), {}

    def close(self) -> None:
        """Release what the workload created on disk."""


class Train(Workload):
    name = "train"

    def setup(self):
        return load_dataset(self.inputs.fleet_dir)

    def run(self, fleet):
        return MFPA(MFPAConfig()).fit(fleet, train_end_day=TRAIN_END)

    def check(self, model) -> Check:
        expected = np.asarray(self.reference["probe_proba"])
        rows = probe_rows(model.dataset_.n_records)
        if rows.size != expected.size:
            differ = expected.size
        else:
            differ = int(np.count_nonzero(model.predict_proba_rows(rows) != expected))
        return Check(attempted=expected.size, failures={"probe_bit_identical": differ})

    def finish(self, fleet, model, check):
        report = model.evaluate(TRAIN_END, END_DAY).drive_report
        observed = {"drive_tpr": float(report.tpr), "drive_fpr": float(report.fpr)}
        return Check(observed=observed), dict(observed)


class Monitor(Workload):
    """In-RAM ``repro monitor --model-artifact`` over the whole fleet."""

    name = "monitor"

    def setup(self):
        dataset = load_dataset(self.inputs.fleet_dir)
        model = load_model(self.inputs.model_dir)
        model.bind_dataset(dataset)
        return dataset, model

    def run(self, state):
        dataset, model = state
        return simulate_operation(
            dataset,
            policy=never_retrain(),
            start_day=TRAIN_END,
            end_day=END_DAY,
            window_days=WINDOW_DAYS,
            initial_model=model,
        ).alarm_records()

    def check(self, alarms) -> Check:
        return Check(
            attempted=self.drives,
            failures=alarm_failures(alarms, self.reference["alarms"]),
            observed={"alarms": len(alarms), "digest": alarm_digest(alarms)},
        )


def _counter_total(name: str) -> float:
    """Sum of every labelled sample of one registry counter."""
    for family in get_registry().dump():
        if family["name"] == name:
            return sum(sample["value"] for sample in family["samples"])
    return 0.0


@dataclass
class ServeOutput:
    daemon: ServeDaemon
    ticks: list[float]
    window_closes: list[float]
    shed: int


class Serve(Workload):
    """``repro serve --model-artifact`` on the edge fleet's stream.

    Closed loop, one producer: each simulated day submits all of that
    day's readings, then pumps once; ``finish`` closes the last window.
    """

    name = "serve"

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        readings = edge_stream(inputs)
        self.n_readings = len(readings)
        self.days = [list(group) for _day, group in groupby(readings, key=lambda r: r[1])]
        self.work_dir = inputs.root.parent / f".work-{self.name}-{os.getpid()}"

    @property
    def drives(self) -> int:
        return self.reference["edge_drives"]

    def setup(self):
        return (
            load_model(self.inputs.model_dir),
            load_model(self.inputs.reduced_dir),
            load_reference_profile(self.inputs.model_dir),
        )

    def run(self, state) -> ServeOutput:
        full, reduced, profile = state
        shed_before = _counter_total("serve_readings_shed_total")
        clock = time.perf_counter
        daemon = ServeDaemon.from_models(
            full,
            reduced,
            serve_config(),
            drift=profile,
            checkpoint_dir=self.work_dir / "checkpoint",
            sink_path=self.work_dir / "alarms.jsonl",
        )
        ticks: list[float] = []
        closes: list[float] = []
        for batch in self.days:
            for serial, day, reading in batch:
                daemon.submit(serial, day, reading)
            windows = len(daemon.windows)
            started = clock()
            daemon.pump()
            elapsed = clock() - started
            (closes if len(daemon.windows) > windows else ticks).append(elapsed)
        windows = len(daemon.windows)
        started = clock()
        daemon.finish(END_DAY)
        elapsed = clock() - started
        if len(daemon.windows) > windows:
            closes.append(elapsed)
        shed = int(_counter_total("serve_readings_shed_total") - shed_before)
        return ServeOutput(daemon, ticks, closes, shed)

    def check(self, output: ServeOutput) -> Check:
        daemon = output.daemon
        alarms = daemon.alarm_records()
        quarantined = sum(daemon.gate.quarantine_counts.values())
        failures = alarm_failures(alarms, self.reference["edge_alarms"])
        failures["quarantined_readings"] = quarantined
        sink_path = self.work_dir / "alarms.jsonl"
        sink = [
            json.loads(line)
            for line in (sink_path.read_text().splitlines() if sink_path.exists() else [])
        ]
        sink_keys = collections.Counter((r["serial"], r["day"]) for r in sink)
        ledger_keys = collections.Counter((r["serial"], r["day"]) for r in daemon.alarms.ledger)
        failures["sink_matches_ledger"] = sum(
            ((sink_keys - ledger_keys) + (ledger_keys - sink_keys)).values()
        )
        failures["duplicate_alarmed_serials"] += len(sink) - len({r["serial"] for r in sink})
        failures["shed_readings"] = output.shed
        shutil.rmtree(self.work_dir, ignore_errors=True)
        return Check(
            attempted=self.n_readings,
            failures=failures,
            observed={"alarms": len(alarms), "digest": alarm_digest(alarms)},
            samples={"tick_s": output.ticks, "window_close_s": output.window_closes},
        )

    def finish(self, state, output, check):
        """Tick latency percentiles and the median window-close call."""
        ticks = check.samples["tick_s"]
        return Check(), {
            "tick_p50_ms": statistics.median(ticks) * 1e3,
            "tick_p90_ms": statistics.quantiles(ticks, n=10)[8] * 1e3,
            "window_close_s": statistics.median(check.samples["window_close_s"]),
        }

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Train, Monitor, Serve)}
