"""Command line: ``python -m benchmarks.e2e {measure,run,compare,prepare}``.

* ``measure`` — one run of one workload in this process (the command
  ``BENCHMARK.json`` declares);
* ``run`` — repeats, interleaved round-robin across workloads, each in
  a fresh child process, appended to ``BENCH_<workload>.json``;
* ``compare`` — a change's results against its parent's;
* ``prepare`` — generate one seed's cached inputs (``measure`` and
  ``run`` call it in a child process when the inputs are missing).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"no repro sources under {SRC}: run this from a checkout of the repository")
sys.path.insert(0, str(SRC))

from benchmarks.e2e.inputs import DEFAULT_CACHE, DEFAULT_SEED, SIZES, prepare  # noqa: E402
from benchmarks.e2e.suite import (  # noqa: E402
    DEFAULT_OUT,
    DEFAULT_REPEATS,
    DEFAULT_SECONDS,
    WORKLOAD_NAMES,
    compare,
    run,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--size", choices=sorted(SIZES), default="full")
        sub.add_argument("--cache", type=Path, default=DEFAULT_CACHE,
                         help="directory of cached generated inputs")

    measure = commands.add_parser("measure", help="one run of one workload")
    measure.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    measure.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--record", type=Path,
                         help="also write the full run record to this file")
    common(measure)

    suite = commands.add_parser("run", help="interleaved repeats in child processes")
    suite.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                       help="repeatable; default: every workload")
    suite.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    suite.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    suite.add_argument("--traced", action="store_true",
                       help="also one traced run per workload")
    suite.add_argument("--out", type=Path, default=DEFAULT_OUT)
    common(suite)

    diff = commands.add_parser("compare", help="a change's runs against its parent's")
    diff.add_argument("parent", type=Path)
    diff.add_argument("change", type=Path)

    prep = commands.add_parser("prepare", help="generate one seed's inputs")
    common(prep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "measure":
        from benchmarks.e2e.measure import measure

        return measure(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.size, args.cache, args.record)
    if args.command == "run":
        return run(args.workload or list(WORKLOAD_NAMES), args.seed, args.repeats,
                   args.size, args.traced, args.out, args.seconds, args.cache)
    if args.command == "compare":
        return compare(args.parent, args.change)
    prepare(args.seed, args.size, args.cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
