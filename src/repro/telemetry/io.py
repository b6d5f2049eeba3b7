"""Dataset persistence: a saved fleet is a one-shard store.

A simulated fleet is expensive relative to model training, and real
deployments would ingest telemetry from collectors rather than
resimulate. :func:`save_dataset` writes the fleet as a one-shard
:mod:`repro.scale.store` directory — ``shard_0000.npz`` (uncompressed
columns, string columns as vocabulary codes, the drive table and the
trouble tickets) under a sha256 ``manifest.json`` — so a saved fleet
and a sharded store are one format that differs only in shard count.
:func:`load_dataset` reads any store; a store with several shards
loads as their concatenation.

Directories written in the earlier layout (``columns.npz``,
``strings.json``, ``drives.json``, ``tickets.json``) still load; that
layout is read-only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.scale.store import ShardedDataset, is_shard_store, write_dataset_sharded
from repro.telemetry.dataset import DriveMeta, TelemetryDataset
from repro.telemetry.tickets import TroubleTicket

#: Version of the read-only earlier layout's ``strings.json``.
FORMAT_VERSION = 1


def save_dataset(dataset: TelemetryDataset, directory: str | Path) -> Path:
    """Write a dataset to ``directory`` (created if needed) as a
    one-shard store; rows, drives and tickets keep their order."""
    path = Path(directory)
    write_dataset_sharded(dataset, path, 1)
    return path


def _load_legacy(path: Path) -> TelemetryDataset:
    """Read the earlier four-file layout."""
    with np.load(path / "columns.npz") as archive:
        columns: dict[str, np.ndarray] = {name: archive[name] for name in archive.files}
    strings = json.loads((path / "strings.json").read_text())
    version = strings.pop("version", None)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {version!r}")
    for name, values in strings.items():
        columns[name] = np.array(values, dtype=object)
    drives = {
        entry["serial"]: DriveMeta(**entry)
        for entry in json.loads((path / "drives.json").read_text())
    }
    tickets = [
        TroubleTicket(**entry)
        for entry in json.loads((path / "tickets.json").read_text())
    ]
    return TelemetryDataset(columns, drives, tickets)


def load_dataset(
    directory: str | Path,
    validate: bool = False,
    sanitize: bool = False,
) -> TelemetryDataset:
    """Read a dataset previously written by :func:`save_dataset`, any
    shard store (shards concatenated in order), or a directory in the
    earlier layout.

    Persistence trusts the directory contents blindly by default; pass
    ``validate=True`` to run
    :func:`~repro.telemetry.validation.validate_dataset` on the loaded
    dataset and raise a ``ValueError`` listing every violation, or
    ``sanitize=True`` to repair/quarantine invalid rows via
    :func:`~repro.robustness.quarantine.sanitize_dataset` instead of
    failing. With both flags, sanitation runs first and validation
    checks its output.
    """
    path = Path(directory)
    if is_shard_store(path):
        store = ShardedDataset(path)
        shards = [dataset for _, dataset in store.iter_shards()]
        dataset = shards[0] if len(shards) == 1 else TelemetryDataset.concat(shards)
    elif (path / "columns.npz").exists():
        dataset = _load_legacy(path)
    else:
        raise FileNotFoundError(f"{path} does not contain a saved dataset")

    if sanitize:
        from repro.robustness.quarantine import sanitize_dataset

        dataset, _ = sanitize_dataset(dataset)
    if validate:
        from repro.telemetry.validation import validate_dataset

        violations = validate_dataset(dataset)
        if violations:
            detail = "\n  ".join(violations)
            raise ValueError(
                f"dataset at {path} fails validation "
                f"({len(violations)} violations):\n  {detail}"
            )
    return dataset
