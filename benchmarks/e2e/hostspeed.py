"""The host's speed, timed with a fixed kernel that never calls the program.

The shared 2-vCPU hosts this benchmark runs on slow down by up to 2x in
phases lasting from seconds to minutes, longer than one run, so no
statistic over one run's iterations removes them: over ten seeds the
raw throughput of ``serve`` spread by 0.28 (IQR/median). A run therefore
times this probe before its first timed iteration and after each one,
and scales the time it measures to the host speed at which the probe
takes ``REFERENCE_S``, using the mean of the probes taken around and
during it. Over ten seeds that cut the spread of ``serve``'s throughput
to 0.11 and of the others' to 0.05-0.08.
The probe mixes the three kinds of work the program does — interpreted
dict and string code, a random gather over an array larger than the
caches, and a stable sort — and imports nothing from ``repro``, so a
change to the program never moves it.

The kernel runs in a child process (``python -m benchmarks.e2e.hostspeed``
answers one line per request), so its 25 MB of inputs never count in the
run's peak memory; the run waits for each answer, so the two never
compete for the CPU.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Probe seconds at the reference host speed: about its median time on
#: the 2-vCPU host the bounds were measured on.
REFERENCE_S = 0.050
#: Kernel repeats per probe; the probe is the fastest of them.
REPEATS = 3


def _inputs() -> tuple:
    rng = np.random.default_rng(0)
    table = rng.random(2_000_000)
    return (
        table,
        rng.integers(0, table.size, 400_000),
        rng.random(200_000),
        [f"k{i % 5000}" for i in range(60_000)],
    )


def _kernel(table: np.ndarray, index: np.ndarray, values: np.ndarray, keys: list) -> float:
    counts: dict[str, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    gathered = table[index].sum() + table[index[::-1]].sum()
    return float(gathered) + int(np.argsort(values, kind="stable")[0]) + len(counts)


def _fastest(inputs: tuple) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel(*inputs)
        best = min(best, time.perf_counter() - started)
    return best


def scale(probes: list[float]) -> float:
    """Factor turning seconds measured while these probes were taken
    into seconds at the reference host speed."""
    return REFERENCE_S * len(probes) / sum(probes)


class Probe:
    """The probe's child process; call it for the kernel's seconds now."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.hostspeed"],
            cwd=Path(__file__).resolve().parents[2],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError(f"host probe exited with {self._child.wait()}")
        return float(answer)

    def close(self) -> None:
        """End the child (closing its input ends its loop) and wait for it."""
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


if __name__ == "__main__":
    inputs = _inputs()
    for _request in sys.stdin:
        print(repr(_fastest(inputs)), flush=True)
