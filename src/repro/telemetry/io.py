"""Dataset persistence: save/load fleets to a portable on-disk format.

A simulated fleet is expensive relative to model training, and real
deployments would ingest telemetry from collectors rather than
resimulate. The format is a directory with:

* ``columns.npz``  — every numeric column (numpy compressed),
* ``strings.json`` — the object-dtype columns (firmware/vendor/model),
* ``drives.json``  — the per-drive metadata table,
* ``tickets.json`` — the RaSRF trouble tickets.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.telemetry.dataset import DriveMeta, TelemetryDataset
from repro.telemetry.tickets import TroubleTicket

_STRING_COLUMNS = ("firmware", "vendor", "model")
FORMAT_VERSION = 1


def save_dataset(dataset: TelemetryDataset, directory: str | Path) -> Path:
    """Write a dataset to ``directory`` (created if needed)."""
    from repro.robustness.checkpoint import atomic_write

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    numeric = {
        name: values
        for name, values in dataset.columns.items()
        if name not in _STRING_COLUMNS
    }
    np.savez_compressed(path / "columns.npz", **numeric)

    strings = {
        name: dataset.columns[name].tolist()
        for name in _STRING_COLUMNS
        if name in dataset.columns
    }
    atomic_write(
        path / "strings.json",
        json.dumps({"version": FORMAT_VERSION, **strings}).encode(),
    )

    drives = [
        {
            "serial": meta.serial,
            "vendor": meta.vendor,
            "model_id": meta.model_id,
            "capacity_gb": meta.capacity_gb,
            "firmware": meta.firmware,
            "archetype": meta.archetype,
            "failure_day": meta.failure_day,
        }
        for meta in dataset.drives.values()
    ]
    atomic_write(path / "drives.json", json.dumps(drives).encode())

    tickets = [
        {
            "serial": ticket.serial,
            "initial_maintenance_time": ticket.initial_maintenance_time,
            "failure_level": ticket.failure_level,
            "category": ticket.category,
            "cause": ticket.cause,
        }
        for ticket in dataset.tickets
    ]
    atomic_write(path / "tickets.json", json.dumps(tickets).encode())
    return path


def load_dataset(
    directory: str | Path,
    validate: bool = False,
    sanitize: bool = False,
) -> TelemetryDataset:
    """Read a dataset previously written by :func:`save_dataset`.

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
    if not (path / "columns.npz").exists():
        raise FileNotFoundError(f"{path} does not contain a saved dataset")

    with np.load(path / "columns.npz") as archive:
        columns: dict[str, np.ndarray] = {name: archive[name] for name in archive.files}

    strings = json.loads((path / "strings.json").read_text())
    version = strings.pop("version", None)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {version!r}")
    for name, values in strings.items():
        columns[name] = np.array(values, dtype=object)

    drives = {}
    for entry in json.loads((path / "drives.json").read_text()):
        drives[entry["serial"]] = DriveMeta(
            serial=entry["serial"],
            vendor=entry["vendor"],
            model_id=entry["model_id"],
            capacity_gb=entry["capacity_gb"],
            firmware=entry["firmware"],
            archetype=entry["archetype"],
            failure_day=entry["failure_day"],
        )

    tickets = [
        TroubleTicket(
            serial=entry["serial"],
            initial_maintenance_time=entry["initial_maintenance_time"],
            failure_level=entry["failure_level"],
            category=entry["category"],
            cause=entry["cause"],
        )
        for entry in json.loads((path / "tickets.json").read_text())
    ]
    dataset = TelemetryDataset(columns, drives, tickets)

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
