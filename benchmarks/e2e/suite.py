"""Repeated runs in child processes, and the parent-vs-change comparison.

``run`` gives every (workload, repeat) a fresh process, one at a time,
interleaving repeats round-robin across workloads so slow drift of the
host spreads over all of them. Each run appends one record to
``BENCH_<workload>.json`` in the output directory, which is therefore
the workload's performance trajectory.

``compare`` applies the rule for claiming a gain on a small sandbox:
the i-th parent run pairs with the i-th change run; a gain needs at
least ten pairs, the change winning nine tenths of them (ties count for
neither side), and medians that differ by more than the parent's
interquartile range; a regression is a median worse than the metric's
bound; when the spread of either side exceeds the bound the metric is
unresolved, unless every change run beats every parent run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e.inputs import DEFAULT_CACHE, ROOT, ensure

WORKLOAD_NAMES = ("train", "monitor", "serve")
DEFAULT_SECONDS = 8.0
DEFAULT_REPEATS = 5
DEFAULT_OUT = ROOT / ".bench_build" / "e2e" / "results"
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _append(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    staged = path.with_suffix(".json.tmp")
    staged.write_text(json.dumps(records, indent=1))
    os.replace(staged, path)


def _child(workload, seed, size, seconds, trace, cache, scratch: Path) -> dict:
    """One measured run in a fresh process; its full record."""
    record_path = scratch / f"{workload}-{trace}.json"
    started = time.time()
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "measure",
         "--workload", workload, "--seed", str(seed), "--size", size,
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--cache", str(cache), "--record", str(record_path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(result.stderr)
    if not record_path.exists():
        sys.stdout.write(result.stdout)
        raise RuntimeError(f"{workload} run exited {result.returncode} without a record")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    record["started_unix"] = started
    record["exit_code"] = result.returncode
    return record


def run(workloads, seed, repeats, size, traced, out: Path, seconds,
        cache: Path = DEFAULT_CACHE) -> int:
    """Interleaved repeats (then one traced run each); prints medians."""
    ensure(seed, size, cache)
    out.mkdir(parents=True, exist_ok=True)
    host = {"commit": _commit(), "cpu_count": os.cpu_count()}
    records: dict[str, list[dict]] = {name: [] for name in workloads}
    exit_code = 0
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for repeat in range(repeats):
            for workload in workloads:
                record = _child(workload, seed, size, seconds, False, cache, Path(scratch))
                record.update(host, repeat=repeat)
                records[workload].append(record)
                _append(out / f"BENCH_{workload}.json", record)
                exit_code |= record["exit_code"]
        for workload in workloads if traced else ():
            record = _child(workload, seed, size, seconds, True, cache, Path(scratch))
            untraced = [s for r in records[workload] for s in r["run_samples"]]
            record.update(host, repeat=None)
            if untraced:
                record["trace_overhead"] = record["run_s"] / statistics.median(untraced) - 1
            _append(out / f"BENCH_{workload}.json", record)
            exit_code |= record["exit_code"]
            print(f"{workload} trace_overhead {record.get('trace_overhead', float('nan')):.4f} fraction")
    for workload, runs in records.items():
        for name in runs[0]["metrics"] if runs else ():
            q1, median, q3 = quartiles([r["metrics"][name] for r in runs])
            spread = (q3 - q1) / median if median else 0.0
            print(f"{workload} {name} {median!r} median, q1 {q1!r}, q3 {q3!r}, "
                  f"iqr/median {spread:.4f}, n {len(runs)}")
    print(f"commit {host['commit']} cpu_count {host['cpu_count']} -> {out}")
    return exit_code


def _load(directory: Path) -> dict[str, list[dict]]:
    """Untraced records per workload, in the order they were run."""
    return {
        path.stem[len("BENCH_"):]: [
            r for r in json.loads(path.read_text()) if not r["trace"]
        ]
        for path in sorted(directory.glob("BENCH_*.json"))
    }


def verdict(metric, parent: list[float], change: list[float]) -> str:
    """gain / regression / unresolved / unchanged for one metric."""
    sign = 1.0 if metric.better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= GAIN_MIN_PAIRS
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > p3 - p1
    ):
        return "gain"
    slack = metric.bound * abs(p_med) + metric.floor
    if -sign * (c_med - p_med) > slack:
        return "regression"
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread > metric.bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Per-workload, per-metric verdicts; exit 1 on any regression."""
    from benchmarks.e2e.measure import METRICS

    parent, change = _load(parent_dir), _load(change_dir)
    regressions = 0
    for workload in sorted(parent.keys() & change.keys()):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        first = [p["started_unix"] < c["started_unix"] for p, c in zip(p_runs, c_runs)]
        alternating = all(a != b for a, b in zip(first, first[1:]))
        print(f"{workload}: {n} pairs, order {'alternates' if alternating else 'does not alternate'}")
        for name, metric in METRICS.items():
            if name not in p_runs[0]["metrics"] or name not in c_runs[0]["metrics"]:
                continue
            p_values = [r["metrics"][name] for r in p_runs[:n]]
            c_values = [r["metrics"][name] for r in c_runs[:n]]
            outcome = "not gated" if metric.bound is None else verdict(metric, p_values, c_values)
            regressions += outcome == "regression"
            print(f"  {name:16s} parent {quartiles(p_values)[1]:.6g}  change "
                  f"{quartiles(c_values)[1]:.6g} {metric.unit}  {outcome}")
    return 1 if regressions else 0
