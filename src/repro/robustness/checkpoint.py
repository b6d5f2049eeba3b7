"""Checkpointing primitives: crash (or lose power) mid-run, resume identically.

A monitor that loses its alarm ledger on restart re-alarms every drive
it already flagged (operator alarm fatigue) and forgets when it last
retrained (drift). The checkpoint captures everything
:func:`~repro.core.deployment.simulate_operation` needs to continue a
run as if it had never stopped:

* ``state.json`` — alarmed serials, retrain bookkeeping, the alarm
  threshold, and every scored :class:`MonitoringWindow` so far;
* ``model.pkl``  — the fitted model (with its prepared dataset),
  config and policy, pickled. Re-fitting on resume would be equally
  deterministic but strictly slower; pickling guarantees bit-identical
  probabilities either way.

This module is the one implementation of a *manifested directory*,
shared by these checkpoints, the serve and sharded-monitor checkpoints,
model artifacts (:mod:`repro.ml.artifact`) and the shard store
(:mod:`repro.scale.store`); callers differ only in their manifest
header keys and their typed error class. The contract:

* every write is atomic and durable (:func:`atomic_write`: fsynced
  temp file, ``os.replace``, fsynced directory);
* :func:`commit` writes each payload to ``<name>.pending``, then
  ``manifest.json`` (sha256 + size per file: the commit point), then
  renames the pending files into place; :func:`roll_forward`, run
  first by every reader, renames a pending file the manifest vouches
  for and deletes any other — a crash anywhere leaves the old
  checkpoint or the new one;
* a file that fails its manifest, a malformed manifest or an
  undecodable payload raises the caller's typed error
  (:class:`CheckpointCorruptError` here) instead of a raw traceback;
* a *half pair* (some but not all checkpoint files present) is "no
  usable checkpoint" and is swept so the caller restarts from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import FleetMonitor, MonitoringWindow
    from repro.telemetry.dataset import TelemetryDataset

CHECKPOINT_VERSION = 1
MANIFEST_VERSION = 1
_STATE_FILE = "state.json"
_MODEL_FILE = "model.pkl"
MANIFEST_FILE = "manifest.json"
#: Suffix of a payload written but not yet renamed into place.
PENDING_SUFFIX = ".pending"
#: The file pair a FleetMonitor checkpoint consists of.
MONITOR_FILES = (_MODEL_FILE, _STATE_FILE)

#: Everything a truncated or garbled pickle/JSON payload can raise.
_DECODE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, TypeError, ValueError,
)


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file is missing, truncated, or fails its sha256."""


def _fsync_path(path: Path) -> None:
    """fsync a file or directory; best-effort on filesystems that
    refuse directory fsync (the rename itself is still atomic)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic fs
        pass
    finally:
        os.close(fd)


def atomic_write(path: str | Path, data: bytes) -> None:
    """Atomic *and durable* write: fsync the temp file before
    ``os.replace`` and the directory after, so the committed bytes
    survive power loss, not just process crash."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_path(path.parent)


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_file(path: Path, size: int, sha256: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``path`` exists with this size and sha256."""
    if not path.is_file():
        raise error(f"file {path} is missing")
    actual = path.stat().st_size
    if actual != size:
        raise error(
            f"file {path} is truncated or overgrown: "
            f"{actual} bytes on disk, {size} in manifest"
        )
    if file_sha256(path) != sha256:
        raise error(f"file {path} fails its sha256 content check")


def _pending(path: Path, name: str) -> Path:
    return path / (name + PENDING_SUFFIX)


def write_manifest(
    directory: str | Path,
    filenames: Iterable[str],
    header: Mapping[str, Any] | None = None,
) -> Path:
    """Write ``manifest.json``: ``header`` (default: the checkpoint's
    ``{"version": 1}``) plus the sha256 and size of every listed file as
    it will be once committed — its ``.pending`` copy when one waits."""
    path = Path(directory)
    files = {}
    for name in filenames:
        target = _pending(path, name)
        if not target.exists():
            target = path / name
        files[name] = {"sha256": file_sha256(target), "size": target.stat().st_size}
    manifest = {
        **(header if header is not None else {"version": MANIFEST_VERSION}),
        "files": files,
    }
    target = path / MANIFEST_FILE
    atomic_write(target, json.dumps(manifest, indent=2, sort_keys=True).encode())
    return target


def read_manifest(
    directory: str | Path, version_key: str, version: int, error: type[Exception]
) -> dict:
    """Parse ``<directory>/manifest.json``; ``FileNotFoundError`` when
    absent, ``error`` unless it is a JSON object with ``version_key`` ==
    ``version`` and a ``files`` block (if any) of ``{sha256, size}``."""
    path = Path(directory) / MANIFEST_FILE
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_FILE} in {path.parent}")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as err:
        raise error(f"manifest {path} is not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise error(f"manifest {path} is not a JSON object")
    found = manifest.get(version_key)
    if found != version:
        raise error(
            f"manifest {path} has {version_key} {found!r}; "
            f"this build reads {version_key} {version}"
        )
    files = manifest.get("files", {})
    if not isinstance(files, dict) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("size"), int)
        and isinstance(entry.get("sha256"), str)
        for entry in files.values()
    ):
        raise error(
            f"manifest {path} has a malformed files block "
            "(want name -> {sha256, size})"
        )
    return manifest


def check_files(
    directory: str | Path,
    manifest: Mapping,
    filenames: Iterable[str] | None,
    error: type[Exception],
) -> None:
    """:func:`check_file` each listed file (default: all) against its
    entry in a :func:`read_manifest` result."""
    path = Path(directory)
    files = manifest.get("files", {})
    for name in filenames if filenames is not None else sorted(files):
        entry = files.get(name)
        if entry is None:
            raise error(f"file {name!r} has no manifest entry in {path}")
        check_file(path / name, entry["size"], entry["sha256"], error)


def load_payload(path: Path, error: type[Exception]) -> Any:
    """Decode a ``.json`` payload with json and any other with pickle,
    raising ``error`` when the bytes are undecodable."""
    kind = "JSON" if path.suffix == ".json" else "pickle"
    try:
        if kind == "JSON":
            return json.loads(path.read_bytes())
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except _DECODE_ERRORS as err:
        raise error(f"{path} is not a valid {kind} payload: {err}") from err


def commit(
    directory: str | Path,
    payloads: Mapping[str, bytes | None],
    header: Mapping[str, Any] | None = None,
) -> Path:
    """Commit ``payloads`` (file name → bytes, or ``None`` to keep the
    committed file) into ``directory``: pending writes, the manifest,
    the renames. A crash before the manifest leaves the previous commit
    intact; :func:`roll_forward` finishes one after it."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    written = [name for name, data in payloads.items() if data is not None]
    for name, data in payloads.items():
        if data is None:
            _pending(path, name).unlink(missing_ok=True)
        else:
            atomic_write(_pending(path, name), data)
    write_manifest(path, payloads, header)
    for name in written:
        os.replace(_pending(path, name), path / name)
    _fsync_path(path)
    return path


def roll_forward(directory: str | Path) -> None:
    """Finish an interrupted :func:`commit`: rename each ``.pending``
    file its manifest entry vouches for into place, delete the rest."""
    path = Path(directory)
    pending = sorted(path.glob("*" + PENDING_SUFFIX))
    if not pending:
        return
    try:
        files = dict(json.loads((path / MANIFEST_FILE).read_bytes())["files"])
    except (OSError, ValueError, KeyError, TypeError):
        files = {}
    for staged in pending:
        name = staged.name[: -len(PENDING_SUFFIX)]
        entry = files.get(name)
        try:
            check_file(staged, entry["size"], entry["sha256"], CheckpointCorruptError)
        except (CheckpointCorruptError, KeyError, TypeError):
            staged.unlink()
        else:
            os.replace(staged, path / name)
    _fsync_path(path)


def verify_manifest(
    directory: str | Path, filenames: Iterable[str] | None = None
) -> bool:
    """Check checkpoint files against the manifest: ``True`` when
    verified, ``False`` for a legacy checkpoint without one; raises
    :class:`CheckpointCorruptError` on any mismatch."""
    path = Path(directory)
    if not (path / MANIFEST_FILE).exists():
        return False
    manifest = read_manifest(path, "version", MANIFEST_VERSION, CheckpointCorruptError)
    check_files(path, manifest, filenames, CheckpointCorruptError)
    return True


def discard_partial_checkpoint(
    directory: str | Path, filenames: Iterable[str] = MONITOR_FILES
) -> None:
    """Remove the leftovers of a half-written checkpoint."""
    path = Path(directory)
    for name in filenames:
        (path / name).unlink(missing_ok=True)
        _pending(path, name).unlink(missing_ok=True)
    (path / MANIFEST_FILE).unlink(missing_ok=True)


def has_checkpoint_files(
    directory: str | Path, filenames: Iterable[str] = MONITOR_FILES
) -> bool:
    """Whether ``directory`` holds a complete checkpoint, after rolling
    an interrupted commit forward. A half pair can never be restored,
    so it is swept and reported as "no usable checkpoint"."""
    path = Path(directory)
    roll_forward(path)
    names = tuple(filenames)
    present = [name for name in names if (path / name).exists()]
    if len(present) == len(names):
        return True
    if present or (path / MANIFEST_FILE).exists():
        discard_partial_checkpoint(path, names)
    return False


def has_checkpoint(directory: str | Path) -> bool:
    """Whether ``directory`` holds a usable FleetMonitor checkpoint."""
    return has_checkpoint_files(directory, MONITOR_FILES)


def read_checkpoint(
    directory: str | Path, filenames: Iterable[str]
) -> dict[str, Any] | None:
    """The verified, decoded payloads (file name → object) of the
    checkpoint in ``directory``, or ``None`` when there is no usable
    one. A legacy checkpoint without a manifest loads unverified."""
    path = Path(directory)
    names = tuple(filenames)
    if not has_checkpoint_files(path, names):
        return None
    verify_manifest(path, names)
    return {name: load_payload(path / name, CheckpointCorruptError) for name in names}


def save_checkpoint(
    monitor: "FleetMonitor",
    windows: list["MonitoringWindow"],
    directory: str | Path,
) -> Path:
    """Persist a started monitor and its scored windows."""
    monitor._check_started()
    payload = {
        "config": monitor.config,
        "policy": monitor.policy,
        "model": monitor.model,
    }
    state = {
        "version": CHECKPOINT_VERSION,
        "alarmed": sorted(monitor._alarmed),
        "last_trained_day": monitor._last_trained_day,
        "failures_at_training": monitor._failures_at_training,
        "alarm_threshold": monitor.alarm_threshold,
        "windows": [asdict(window) for window in windows],
    }
    return commit(
        directory,
        {
            _MODEL_FILE: pickle.dumps(payload),
            _STATE_FILE: json.dumps(state).encode(),
        },
    )


def load_checkpoint(
    directory: str | Path, dataset: "TelemetryDataset"
) -> tuple["FleetMonitor", list["MonitoringWindow"]]:
    """Restore a monitor (bound to ``dataset``) and its window history.

    Raises :class:`CheckpointCorruptError` when the files fail their
    manifest (truncation, hash mismatch) or the pickle/state payloads
    are undecodable; ``FileNotFoundError`` when there is no checkpoint.
    """
    from repro.core.deployment import Alarm, FleetMonitor, MonitoringWindow

    path = Path(directory)
    payloads = read_checkpoint(path, MONITOR_FILES)
    if payloads is None:
        raise FileNotFoundError(f"{path} does not contain a monitor checkpoint")
    payload, state = payloads[_MODEL_FILE], payloads[_STATE_FILE]
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")

    monitor = FleetMonitor(
        config=payload["config"],
        policy=payload["policy"],
        alarm_threshold=state["alarm_threshold"],
    )
    monitor.dataset = dataset
    monitor.model = payload["model"]
    monitor._alarmed = set(state["alarmed"])
    monitor._last_trained_day = state["last_trained_day"]
    monitor._failures_at_training = state["failures_at_training"]

    windows = [
        MonitoringWindow(
            **{**entry, "alarms": [Alarm(**alarm) for alarm in entry["alarms"]]}
        )
        for entry in state["windows"]
    ]
    return monitor, windows
