"""Seeded benchmark inputs, generated once per (seed, size, source) and cached.

Generation runs in its own process (``python -m benchmarks.e2e
prepare``), never inside a measured run, so neither its time nor its
memory shows in any metric. A cache entry holds:

* ``fleet/``  — the whole fleet, written with ``save_dataset``;
* ``edge/``   — every ``Size.edge_stride``-th drive of it (the client
  fleet serve runs on), written the same way;
* ``model/``  — the fitted MFPA artifact with its ``ReferenceProfile``,
  and ``model/reduced/`` — the layout ``repro model save --with-reduced``
  writes;
* ``reference.json`` — the expected outputs every check compares with.

The entry name carries a hash of ``src/`` and of this file, so a
source change never reuses inputs (or references) built by other code.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
#: Inside the checkout, next to other build output; ignored by git.
DEFAULT_CACHE = ROOT / ".bench_build" / "e2e" / "inputs"
#: Entries kept after a new one is built (least recently used go first):
#: enough for every seed of a ten-seed sweep over all the workloads.
KEEP_ENTRIES = 12

DEFAULT_SEED = 2023
TRAIN_END = 120
END_DAY = 210
WINDOW_DAYS = 30
FAILURE_BOOST = 50.0
PROBE_ROWS = 4096
#: Drives simulated per drive kept: enough that a draw almost always has
#: early failures with ``Size.positive_rows`` positive rows to pick.
OVERDRAW = 1.3


@dataclass(frozen=True)
class Size:
    drives: int
    """Fleet size, exactly."""
    positive_rows: int
    """Positive training rows (MFPA's days just before a failure) of the
    drives failing before ``TRAIN_END``, to within one window: training
    samples are these rows and a fixed multiple of negatives, and left to
    chance their count moves ``train``'s time per iteration by 8-15%
    between seeds."""
    edge_stride: int


SIZES = {
    "full": Size(drives=800, positive_rows=240, edge_stride=8),
    "smoke": Size(drives=240, positive_rows=70, edge_stride=4),
}


@dataclass(frozen=True)
class Inputs:
    """One prepared cache entry."""

    root: Path
    seed: int
    size: str

    @property
    def fleet_dir(self) -> Path:
        return self.root / "fleet"

    @property
    def edge_dir(self) -> Path:
        return self.root / "edge"

    @property
    def model_dir(self) -> Path:
        return self.root / "model"

    @property
    def reduced_dir(self) -> Path:
        return self.root / "model" / "reduced"

    def reference(self) -> dict:
        return json.loads((self.root / "reference.json").read_text())


def never_retrain():
    from repro.core.deployment import RetrainPolicy

    return RetrainPolicy(interval_days=10**9, min_new_failures=10**9)


def serve_config():
    from repro.serve.daemon import ServeConfig

    return ServeConfig(
        serve_start_day=TRAIN_END, window_days=WINDOW_DAYS, end_day=END_DAY
    )


def probe_rows(n_rows: int) -> np.ndarray:
    """The fixed rows the train check scores: evenly spread, ascending."""
    return np.unique(np.linspace(0, n_rows - 1, PROBE_ROWS).astype(np.int64))


def edge_stream(inputs: Inputs) -> list:
    """The edge fleet's day-major reading stream."""
    from repro.serve.replay import dataset_to_readings
    from repro.telemetry.io import load_dataset

    return dataset_to_readings(load_dataset(inputs.edge_dir), end_day=END_DAY)


def source_hash() -> str:
    """Digest of every Python source file the inputs depend on."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [Path(__file__)]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def entry_dir(cache: Path, seed: int, size: str) -> Path:
    return cache / f"{seed}-{size}-{source_hash()}"


def ensure(seed: int, size: str, cache: Path = DEFAULT_CACHE) -> Inputs:
    """Return the cached inputs, generating them in a child process first
    if they are missing."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {sorted(SIZES)}")
    root = entry_dir(cache, seed, size)
    if not (root / "reference.json").is_file():
        subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e", "prepare",
             "--seed", str(seed), "--size", size, "--cache", str(cache)],
            cwd=ROOT, check=True, stdout=sys.stderr,
        )
    os.utime(root)
    return Inputs(root, seed, size)


def prepare(seed: int, size: str, cache: Path = DEFAULT_CACHE) -> Path:
    """Generate one cache entry (atomically: build aside, then rename)."""
    from repro.obs import configure_logging

    configure_logging("warning")
    final = entry_dir(cache, seed, size)
    if (final / "reference.json").is_file():
        return final
    building = cache / f".{final.name}.tmp{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    try:
        _build(Inputs(building, seed, size), SIZES[size])
        with contextlib.suppress(OSError):  # another process committed it first
            building.rename(final)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    _evict(cache)
    return final


def _evict(cache: Path) -> None:
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in entries[KEEP_ENTRIES:]:
        shutil.rmtree(stale, ignore_errors=True)


def _build(inputs: Inputs, size: Size) -> None:
    from repro.core.deployment import simulate_operation
    from repro.core.pipeline import MFPA, MFPAConfig
    from repro.ml.artifact import load_model, save_model
    from repro.robustness.degraded import fit_reduced_model
    from repro.serve.drift import ReferenceProfile
    from repro.telemetry.io import save_dataset

    inputs.root.mkdir(parents=True)
    fleet = _exact_fleet(inputs.seed, size)
    edge = _with_serials(fleet, np.sort(fleet.serials)[:: size.edge_stride])
    save_dataset(fleet, inputs.fleet_dir)
    save_dataset(edge, inputs.edge_dir)

    model = MFPA(MFPAConfig()).fit(fleet, train_end_day=TRAIN_END)
    profile = ReferenceProfile.from_model(model, (0, TRAIN_END))
    save_model(model, inputs.model_dir, dataset=fleet, reference_profile=profile)
    reduced = fit_reduced_model(fleet, TRAIN_END, base_config=model.config)
    save_model(reduced, inputs.reduced_dir, dataset=fleet)
    del model, reduced

    artifact = load_model(inputs.model_dir)
    alarms = simulate_operation(
        fleet,
        policy=never_retrain(),
        start_day=TRAIN_END,
        end_day=END_DAY,
        window_days=WINDOW_DAYS,
        initial_model=artifact,
    ).alarm_records()
    probe = artifact.predict_proba_rows(probe_rows(artifact.dataset_.n_records))
    reference = {
        "n_drives": fleet.n_drives,
        "edge_drives": edge.n_drives,
        "alarms": [[int(s), int(d), float(p)] for s, d, p in alarms],
        "edge_alarms": [
            [int(s), int(d), float(p)] for s, d, p in alarms if s in edge.drives
        ],
        "probe_proba": probe.tolist(),
    }
    (inputs.root / "reference.json").write_text(json.dumps(reference))


def _with_serials(dataset, serials):
    return dataset.select_rows(np.isin(dataset.columns["serial"], serials))


def _exact_fleet(seed: int, size: Size):
    """``size.drives`` drives drawn at random (from ``seed``) out of one
    simulated fleet ``OVERDRAW`` times larger: drives failing before
    ``TRAIN_END`` until their positive windows hold ``size.positive_rows``
    rows, the rest from the other drives. In the rare draw with too few
    early failures, the next fleet comes from a seed derived from
    ``seed``.

    Positive rows are counted as MFPA's training labels them: after gap
    repair, before the failure day identified from the drive's ticket.
    Counting raw rows before the simulator's own failure day instead let
    the training samples of ten seeds range over 1,128-1,440."""
    from repro.core.labeling import FailureTimeIdentifier
    from repro.core.pipeline import MFPAConfig
    from repro.core.preprocess import repair_discontinuity
    from repro.telemetry.fleet import FleetConfig, SSDFleet, VendorMix

    mfpa = MFPAConfig()
    for attempt in itertools.count():
        fleet_seed = seed if attempt == 0 else int(
            np.random.SeedSequence((seed, attempt)).generate_state(1)[0]
        )
        config = FleetConfig(
            mix=VendorMix.proportional(round(OVERDRAW * size.drives)),
            horizon_days=END_DAY,
            failure_boost=FAILURE_BOOST,
            seed=fleet_seed,
        )
        simulated = next(SSDFleet(config).generate_shards(n_shards=1))
        serials = np.unique(simulated.columns["serial"])  # drives with rows
        repaired, _ = repair_discontinuity(
            simulated,
            max_gap=mfpa.max_gap,
            fill_gap=mfpa.fill_gap,
            min_segment_records=mfpa.min_segment_records,
        )
        identified = FailureTimeIdentifier(mfpa.theta).identify(repaired)
        failure_day = np.array([identified.get(int(s), END_DAY) for s in serials])
        serial, day = repaired.columns["serial"], repaired.columns["day"]
        row_drive = np.searchsorted(serials, serial)
        row_failure_day = failure_day[row_drive]
        in_window = (
            (day > row_failure_day - mfpa.positive_window)
            & (day <= row_failure_day)
            & (day < TRAIN_END)
        )
        positive_rows = np.bincount(row_drive[in_window], minlength=serials.size)
        rng = np.random.default_rng(fleet_seed)
        early = rng.permutation(serials[failure_day < TRAIN_END])
        rows = np.cumsum(positive_rows[np.searchsorted(serials, early)])
        n_early = int(np.searchsorted(rows, size.positive_rows)) + 1
        rest = serials[failure_day >= TRAIN_END]
        if n_early > early.size or rest.size < size.drives - n_early:
            continue
        chosen = np.concatenate([
            early[:n_early], rng.choice(rest, size.drives - n_early, replace=False),
        ])
        return _with_serials(simulated, chosen)
