"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate    simulate a fleet and save it to a directory
train       train an MFPA model on a saved fleet and report metrics
monitor     replay a monitored deployment over a saved fleet
summary     print Table-VI style statistics of a saved fleet
chaos       corrupt a fleet with fault injectors, sanitize, and
            measure the monitored pipeline's degradation
serve       run the always-on fleet-scoring daemon over a recorded
            reading stream (checkpointing, crash-resume, alarm sink)
replay      record a fleet as a replayable per-day reading stream
obs         observability utilities (``obs report <run-dir>``,
            ``obs top <url>`` live dashboard)
scale       shard-store utilities (``scale inspect <shard-dir>``)
model       versioned model artifacts: ``model save`` fits and persists
            a schema-versioned, hash-manifested artifact directory that
            ``monitor --model-artifact`` / ``serve --model-artifact``
            score through without retraining; ``model inspect`` prints
            the manifest, ``model load`` verifies integrity

Out-of-core operation
---------------------
``simulate --shards N`` streams the fleet straight into an npz shard
store (never holding it in RAM); ``train`` and ``monitor`` detect a
shard-store argument and run the streaming trainer / partitioned
monitor from :mod:`repro.scale`, producing results bit-identical to
the in-RAM commands on the same fleet. ``--memory-ceiling-mb`` turns
on peak-RSS enforcement (see docs/scaling.md).

Observability
-------------
``train``/``monitor``/``chaos`` accept ``--trace`` (span tracing),
``--metrics-out PATH`` (JSONL events, or Prometheus text when PATH ends
with ``.prom``), ``--log-level``/``--log-json`` (structured logging) and
``--run-dir DIR`` (write ``DIR/manifest.json`` stamping config hash,
dataset fingerprint, span tree, metrics and results). Default output is
unchanged when none of these flags are given.

``serve`` and ``monitor`` additionally accept ``--obs-port`` (live HTTP
``/metrics`` + ``/health`` + ``/status`` endpoint on a daemon thread)
and ``--obs-textfile PATH`` (periodic atomic ``.prom`` export for the
node_exporter textfile collector); ``repro obs top URL`` renders a
refreshing terminal dashboard from a live endpoint.

Performance
-----------
``train``/``monitor``/``chaos`` accept ``--split-algorithm hist`` to
swap the tree learners' exact sort-based split search for the
histogram-binned backend (see docs/performance.md); the default
``exact`` is bit-identical to previous releases.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.dataset_summary import dataset_summary_rows
from repro.core.deployment import simulate_operation
from repro.core.pipeline import MFPA, MFPAConfig
from repro.obs import (
    annotate_run,
    config_hash,
    configure_logging,
    current_run,
    dataset_fingerprint,
    disable_observability,
    enable_observability,
    get_logger,
    get_registry,
    get_tracer,
    record_result,
    set_current_run,
    start_run,
    trace_span,
)
from repro.obs.logs import LEVELS
from repro.reporting import render_table
from repro.telemetry.fleet import FleetConfig, VendorMix, simulate_fleet
from repro.telemetry.io import load_dataset, save_dataset
from repro.telemetry.models import VENDORS

log = get_logger("repro.cli")


def _add_simulate(subparsers) -> None:
    parser = subparsers.add_parser("simulate", help="simulate a fleet and save it")
    parser.add_argument("output", help="directory to write the dataset to")
    parser.add_argument(
        "--vendor",
        action="append",
        metavar="VENDOR=COUNT",
        help="per-vendor drive count, e.g. --vendor I=500 (repeatable); "
        "default: proportional 2000-drive fleet",
    )
    parser.add_argument("--horizon-days", type=int, default=540)
    parser.add_argument("--failure-boost", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="write an out-of-core shard store with N serial-partitioned "
        "npz shards instead of a flat dataset directory; generation "
        "streams one shard at a time (see docs/scaling.md)",
    )
    parser.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress the npz shards (smaller, slower; only with --shards)",
    )


def _add_n_jobs_flag(
    parser, help: str = "worker processes for training and search"
) -> None:
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help=f"{help} (1 = serial, -1 = all cores); results are identical "
        "at every setting",
    )


def _add_memory_ceiling_flag(parser) -> None:
    parser.add_argument(
        "--memory-ceiling-mb",
        type=int,
        default=None,
        metavar="MB",
        help="fail the run if peak RSS ever exceeds this many MiB "
        "(checked after every shard/stage; default: unenforced)",
    )


def _add_split_algorithm_flag(parser) -> None:
    parser.add_argument(
        "--split-algorithm",
        choices=("exact", "hist"),
        default="exact",
        help="tree split search: 'exact' (bit-reproducible per-node sorts) or "
        "'hist' (quantile-binned histogram accumulation, faster on large "
        "fleets; see docs/performance.md)",
    )


def _add_loading_flags(parser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="repair/quarantine invalid rows on load instead of trusting the directory",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check dataset invariants on load and fail with the violation list",
    )


def _add_obs_flags(parser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree (wall/CPU per stage); printed at exit "
        "unless --run-dir captures it into the manifest",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics as JSONL events "
        "(Prometheus text format when PATH ends with .prom)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=sorted(LEVELS, key=LEVELS.get),
        help="structured-logging threshold (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of plain text",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        help="stamp this run: write DIR/manifest.json (config hash, dataset "
        "fingerprint, span tree, metrics, results) plus DIR/metrics.prom",
    )


def _add_obs_server_flags(parser) -> None:
    parser.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live GET /metrics, /health and /status on this port "
        "while the command runs (0 = ephemeral; default: no endpoint)",
    )
    parser.add_argument(
        "--obs-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --obs-port (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--obs-textfile",
        metavar="PATH",
        help="periodically write Prometheus text to PATH (atomic replace; "
        "for the node_exporter textfile collector)",
    )
    parser.add_argument(
        "--obs-textfile-interval",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="seconds between --obs-textfile writes (default: 15)",
    )


def _add_train(subparsers) -> None:
    parser = subparsers.add_parser("train", help="train MFPA on a saved fleet")
    parser.add_argument("dataset", help="directory written by `simulate`")
    parser.add_argument("--feature-group", default="SFWB")
    parser.add_argument("--train-end-day", type=int, default=360)
    parser.add_argument("--eval-end-day", type=int, default=480)
    parser.add_argument("--theta", type=int, default=7)
    parser.add_argument("--positive-window", type=int, default=14)
    parser.add_argument("--lookahead", type=int, default=0)
    parser.add_argument("--feature-selection", action="store_true")
    _add_n_jobs_flag(parser)
    _add_split_algorithm_flag(parser)
    _add_memory_ceiling_flag(parser)
    _add_loading_flags(parser)
    _add_obs_flags(parser)


def _add_model(subparsers) -> None:
    parser = subparsers.add_parser(
        "model", help="versioned model artifacts (save / load / inspect)"
    )
    model_subparsers = parser.add_subparsers(dest="model_command", required=True)
    save = model_subparsers.add_parser(
        "save",
        help="fit MFPA on a fleet (or shard store) and save a versioned "
        "artifact directory",
    )
    save.add_argument("dataset", help="fleet directory or shard store")
    save.add_argument("output", help="artifact directory to write")
    save.add_argument("--feature-group", default="SFWB")
    save.add_argument("--train-end-day", type=int, default=360)
    save.add_argument(
        "--with-reduced",
        action="store_true",
        help="also fit the reduced-feature fallback model and bundle it "
        "under <output>/reduced (serve's degraded-mode scorer)",
    )
    save.add_argument(
        "--no-profile",
        action="store_true",
        help="skip sketching the training-era ReferenceProfile into the "
        "artifact (disables drift monitoring on `serve --model-artifact`)",
    )
    _add_n_jobs_flag(save)
    _add_split_algorithm_flag(save)
    _add_memory_ceiling_flag(save)
    _add_loading_flags(save)
    load = model_subparsers.add_parser(
        "load",
        help="load an artifact end to end (verifying every file hash) and "
        "print what it contains",
    )
    load.add_argument("artifact", help="directory written by `model save`")
    inspect = model_subparsers.add_parser(
        "inspect", help="print an artifact's manifest without loading the model"
    )
    inspect.add_argument("artifact", help="directory written by `model save`")


def _add_monitor(subparsers) -> None:
    parser = subparsers.add_parser("monitor", help="replay a monitored deployment")
    parser.add_argument("dataset")
    parser.add_argument(
        "--model-artifact",
        metavar="DIR",
        help="start from a `repro model save` artifact instead of fitting "
        "the initial model (first window is scored without any fit call)",
    )
    parser.add_argument("--start-day", type=int, default=300)
    parser.add_argument("--end-day", type=int, default=540)
    parser.add_argument("--window-days", type=int, default=30)
    parser.add_argument("--alarm-threshold", type=float, default=0.5)
    parser.add_argument(
        "--checkpoint-dir",
        help="checkpoint monitor state after every window (in-RAM) or at "
        "shard boundaries (shard store); resumable with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from an existing checkpoint in --checkpoint-dir",
    )
    parser.add_argument(
        "--allow-degraded",
        action="store_true",
        help="fall back to a reduced feature group when dimensions are missing",
    )
    _add_n_jobs_flag(
        parser,
        help="worker processes that score the shards of a shard store in "
        "parallel; in-RAM windows are scored serially",
    )
    _add_split_algorithm_flag(parser)
    _add_memory_ceiling_flag(parser)
    _add_loading_flags(parser)
    _add_obs_flags(parser)
    _add_obs_server_flags(parser)


def _add_replay(subparsers) -> None:
    parser = subparsers.add_parser(
        "replay", help="record a fleet as a replayable reading stream"
    )
    parser.add_argument("dataset")
    parser.add_argument("output", help="JSONL stream file to write")
    parser.add_argument("--start-day", type=int, default=0)
    parser.add_argument("--end-day", type=int, default=None)
    parser.add_argument(
        "--no-repair",
        action="store_true",
        help="stream the raw rows instead of the gap-repaired rows "
        "(breaks alarm parity with the batch monitor)",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=None,
        help="pace the stream at this many simulated days per second "
        "(default: write at full speed)",
    )
    _add_obs_flags(parser)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the fleet-scoring daemon over a reading stream"
    )
    parser.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="fleet used to fit the models (not needed with --resume or "
        "--model-artifact)",
    )
    parser.add_argument("--input", required=True, help="JSONL stream from `repro replay`")
    parser.add_argument(
        "--model-artifact",
        metavar="DIR",
        help="score through a `repro model save` artifact instead of "
        "fitting at startup; with --resume the checkpoint must have been "
        "written by the same artifact (hash-checked)",
    )
    parser.add_argument("--serve-start-day", type=int, default=240)
    parser.add_argument("--train-end-day", type=int, default=None,
                        help="default: --serve-start-day")
    parser.add_argument("--window-days", type=int, default=30)
    parser.add_argument("--end-day", type=int, default=None)
    parser.add_argument("--alarm-threshold", type=float, default=0.5)
    parser.add_argument("--queue-capacity", type=int, default=4096)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument(
        "--max-alarms-per-window", type=int, default=None,
        help="fleet-wide per-window alarm budget (default: unlimited)",
    )
    parser.add_argument(
        "--stale-after", type=int, default=256,
        help="consecutive readings a feature dimension may be absent "
        "before scoring degrades",
    )
    parser.add_argument(
        "--quarantine-drive-after", type=int, default=20,
        help="ban a drive after this many quarantined readings "
        "(0 disables banning)",
    )
    parser.add_argument(
        "--no-reduced", action="store_true",
        help="skip fitting the reduced-feature fallback model",
    )
    parser.add_argument(
        "--no-drift", action="store_true",
        help="skip the training-time ReferenceProfile and per-window "
        "PSI drift monitoring",
    )
    parser.add_argument("--checkpoint-dir",
                        help="checkpoint daemon state at every window boundary")
    parser.add_argument(
        "--resume", action="store_true",
        help="restore from --checkpoint-dir and replay only readings at "
        "or above the checkpoint watermark",
    )
    parser.add_argument("--alarms-out", help="JSONL alarm sink path")
    parser.add_argument(
        "--speed", type=float, default=None,
        help="consume the stream at this many simulated days per second",
    )
    parser.add_argument(
        "--throttle-seconds", type=float, default=0.0,
        help="extra sleep per simulated day (crash-drill pacing)",
    )
    parser.add_argument(
        "--throttle-from-day", type=int, default=None,
        help="only throttle from this day on (default: every day)",
    )
    _add_obs_flags(parser)
    _add_obs_server_flags(parser)


def _add_summary(subparsers) -> None:
    parser = subparsers.add_parser("summary", help="Table-VI stats of a saved fleet")
    parser.add_argument("dataset")
    _add_loading_flags(parser)


def _add_chaos(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help="inject collector faults, sanitize, and measure pipeline degradation",
    )
    parser.add_argument("dataset")
    parser.add_argument(
        "--fault",
        action="append",
        metavar="NAME",
        help="fault injector to apply (repeatable); default: each one in turn. "
        "Known: drop_days, duplicate_rows, stuck_sensor, counter_reset, "
        "missing_dimension, out_of_order",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start-day", type=int, default=300)
    parser.add_argument("--end-day", type=int, default=540)
    parser.add_argument("--window-days", type=int, default=30)
    parser.add_argument("--alarm-threshold", type=float, default=0.5)
    parser.add_argument(
        "--no-sanitize",
        action="store_true",
        help="feed the corrupted dataset to the pipeline without quarantine "
        "ingestion (most faults will then crash it — that is the point)",
    )
    _add_split_algorithm_flag(parser)
    _add_obs_flags(parser)


def _add_obs(subparsers) -> None:
    parser = subparsers.add_parser("obs", help="observability utilities")
    obs_subparsers = parser.add_subparsers(dest="obs_command", required=True)
    report = obs_subparsers.add_parser(
        "report", help="render a run manifest's span tree and metrics"
    )
    report.add_argument("run_dir", help="directory a run wrote with --run-dir")
    top = obs_subparsers.add_parser(
        "top",
        help="refreshing terminal dashboard polling a live --obs-port "
        "endpoint's /status and /health",
    )
    top.add_argument(
        "url", help="endpoint base URL, e.g. http://127.0.0.1:9100"
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between repaints (default: 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of repainting (for logs/pipes)",
    )


def _add_scale(subparsers) -> None:
    parser = subparsers.add_parser(
        "scale", help="out-of-core shard-store utilities"
    )
    scale_subparsers = parser.add_subparsers(dest="scale_command", required=True)
    inspect = scale_subparsers.add_parser(
        "inspect", help="print a shard store's manifest summary"
    )
    inspect.add_argument("store", help="directory written by `simulate --shards`")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSD failure prediction in consumer storage systems (DATE 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate(subparsers)
    _add_train(subparsers)
    _add_monitor(subparsers)
    _add_summary(subparsers)
    _add_chaos(subparsers)
    _add_serve(subparsers)
    _add_replay(subparsers)
    _add_obs(subparsers)
    _add_scale(subparsers)
    _add_model(subparsers)
    return parser


def _parse_mix(entries: list[str] | None) -> VendorMix:
    if not entries:
        return VendorMix.proportional(2000)
    counts: dict[str, int] = {}
    for entry in entries:
        vendor, _, count = entry.partition("=")
        if vendor not in VENDORS or not count.isdigit():
            raise SystemExit(f"invalid --vendor spec {entry!r}; expected e.g. I=500")
        counts[vendor] = int(count)
    return VendorMix(counts)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = FleetConfig(
        mix=_parse_mix(args.vendor),
        horizon_days=args.horizon_days,
        failure_boost=args.failure_boost,
        seed=args.seed,
    )
    if args.shards is not None:
        from repro.scale import ShardWriter
        from repro.telemetry.fleet import SSDFleet

        fleet = SSDFleet(config)
        writer = ShardWriter(args.output, compress=args.compress)
        for shard in fleet.generate_shards(n_shards=args.shards):
            writer.add_shard(shard)
        store = writer.close()
        log.info(
            f"simulated {store.n_drives} drives / {store.n_rows} records "
            f"into {store.n_shards} shards ({store.n_bytes} bytes, "
            f"fleet fingerprint {store.fleet_fingerprint}) -> {store.root}",
            n_drives=store.n_drives,
            n_rows=store.n_rows,
            n_shards=store.n_shards,
            path=str(store.root),
        )
        return 0
    dataset = simulate_fleet(config)
    path = save_dataset(dataset, args.output)
    log.info(
        f"simulated {dataset.n_drives} drives / {dataset.n_records} records "
        f"/ {len(dataset.tickets)} tickets -> {path}",
        n_drives=dataset.n_drives,
        n_records=dataset.n_records,
        n_tickets=len(dataset.tickets),
        path=str(path),
    )
    return 0


def _load(args: argparse.Namespace):
    with trace_span("load_dataset"):
        dataset = load_dataset(
            args.dataset,
            validate=getattr(args, "validate", False),
            sanitize=getattr(args, "sanitize", False),
        )
    annotate_run(dataset_fingerprint=dataset_fingerprint(dataset))
    return dataset


def _sharded_store(args: argparse.Namespace):
    """The store at ``args.dataset`` when it has more than one shard,
    else ``None``: a one-shard store (what ``save_dataset`` writes) must
    fit in RAM to load at all, so it takes the in-RAM path via
    :func:`_load`."""
    from repro.scale.store import ShardedDataset, is_shard_store

    if not is_shard_store(args.dataset):
        return None
    store = ShardedDataset(args.dataset)
    if store.n_shards == 1:
        return None
    annotate_run(dataset_fingerprint=store.fleet_fingerprint)
    return store


def _format_lead_time(summary) -> str:
    """Explicit empty-alarms guard: "n/a", never a printed NaN."""
    if not summary.has_lead_times:
        return "n/a (no true alarms)"
    return f"{summary.median_lead_time:.0f} days"


def _cmd_train(args: argparse.Namespace) -> int:
    config = MFPAConfig(
        feature_group_name=args.feature_group,
        theta=args.theta,
        positive_window=args.positive_window,
        lookahead=args.lookahead,
        feature_selection=args.feature_selection,
        n_jobs=args.n_jobs,
        split_algorithm=args.split_algorithm,
        memory_ceiling_mb=args.memory_ceiling_mb,
    )
    annotate_run(
        config_hash=config_hash(config), seed=config.seed, n_jobs=args.n_jobs
    )
    store = _sharded_store(args)
    if store is not None:
        from repro.scale import evaluate_sharded, fit_sharded

        model = fit_sharded(
            store,
            config,
            train_end_day=args.train_end_day,
            sanitize=args.sanitize,
        )
        result = evaluate_sharded(
            model,
            store,
            args.train_end_day,
            args.eval_end_day,
            sanitize=args.sanitize,
        )
    else:
        dataset = _load(args)
        model = MFPA(config)
        model.fit(dataset, train_end_day=args.train_end_day)
        result = model.evaluate(args.train_end_day, args.eval_end_day)
    for level, report in (
        ("drive", result.drive_report),
        ("record", result.record_report),
    ):
        for metric in ("tpr", "fpr", "accuracy", "pdr", "auc"):
            record_result(f"{level}_{metric}", getattr(report, metric))
    log.info(
        render_table(
            ["Level", "TPR", "FPR", "ACC", "PDR", "AUC"],
            [
                ["drive", *[getattr(result.drive_report, k) for k in ("tpr", "fpr", "accuracy", "pdr", "auc")]],
                ["record", *[getattr(result.record_report, k) for k in ("tpr", "fpr", "accuracy", "pdr", "auc")]],
            ],
            title=(
                f"MFPA {args.feature_group}: trained through day {args.train_end_day}, "
                f"evaluated days {args.train_end_day}-{args.eval_end_day}"
            ),
        )
    )
    return 0


def _start_obs_endpoint(args, status_fn=None, health_fn=None):
    """Start the live HTTP endpoint / textfile exporter if asked for.

    Returns ``(server, exporter)`` (either may be None); pass both to
    :func:`_stop_obs_endpoint` in a ``finally``.
    """
    server = None
    exporter = None
    if getattr(args, "obs_port", None) is not None:
        from repro.obs import ObsServer

        server = ObsServer(
            host=args.obs_host,
            port=args.obs_port,
            status_fn=status_fn,
            health_fn=health_fn,
        ).start()
        log.info(f"observability endpoint at {server.url}")
    if getattr(args, "obs_textfile", None):
        from repro.obs import TextfileExporter

        exporter = TextfileExporter(
            args.obs_textfile, interval=args.obs_textfile_interval
        ).start()
        log.info(f"textfile exporter writing {args.obs_textfile}")
    return server, exporter


def _stop_obs_endpoint(server, exporter) -> None:
    if exporter is not None:
        exporter.stop()
    if server is not None:
        server.stop()


def _monitor_config(args: argparse.Namespace) -> MFPAConfig | None:
    """Monitor/chaos MFPA config; None keeps the all-defaults path."""
    ceiling = getattr(args, "memory_ceiling_mb", None)
    if args.split_algorithm == "exact" and ceiling is None:
        return None
    return MFPAConfig(
        split_algorithm=args.split_algorithm, memory_ceiling_mb=ceiling
    )


def _cmd_monitor(args: argparse.Namespace) -> int:
    annotate_run(n_jobs=args.n_jobs, split_algorithm=args.split_algorithm)
    obs_server, obs_textfile = _start_obs_endpoint(args)
    try:
        return _run_monitor(args)
    finally:
        _stop_obs_endpoint(obs_server, obs_textfile)


def _run_monitor(args: argparse.Namespace) -> int:
    initial_model = None
    if getattr(args, "model_artifact", None):
        from repro.ml.artifact import load_model

        with trace_span("monitor.load_artifact"):
            initial_model = load_model(args.model_artifact)
        if args.allow_degraded:
            raise SystemExit(
                "--allow-degraded cannot be combined with --model-artifact; "
                "the loaded model's feature group is fixed"
            )
        log.info(f"initial model loaded from {args.model_artifact} — no fit")
    store = _sharded_store(args)
    if store is not None:
        from repro.scale import ShardedFleetMonitor

        if args.allow_degraded:
            raise SystemExit(
                "--allow-degraded is not supported on a multi-shard store; "
                "run the in-RAM monitor instead"
            )
        monitor = ShardedFleetMonitor(
            store,
            config=_monitor_config(args),
            alarm_threshold=args.alarm_threshold,
            sanitize=args.sanitize,
            n_jobs=args.n_jobs,
        )
        if initial_model is not None:
            monitor.use_model(initial_model, args.start_day)
        summary = monitor.run(
            args.start_day,
            args.end_day,
            window_days=args.window_days,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    else:
        dataset = _load(args)
        summary = simulate_operation(
            dataset,
            config=_monitor_config(args),
            start_day=args.start_day,
            end_day=args.end_day,
            window_days=args.window_days,
            alarm_threshold=args.alarm_threshold,
            allow_degraded=args.allow_degraded,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            initial_model=initial_model,
        )
    record_result("n_alarms", summary.n_alarms)
    record_result("true_alarms", summary.true_alarms)
    record_result("false_alarms", summary.false_alarms)
    record_result("missed_failures", summary.missed_failures)
    record_result("precision", summary.precision)
    record_result("recall", summary.recall)
    record_result("median_lead_time_days", summary.median_lead_time)
    log.info(
        render_table(
            ["Window", "Alarms", "Scored", "Retrained"],
            [
                [f"{w.start_day}-{w.end_day}", len(w.alarms), w.n_drives_scored, w.retrained]
                for w in summary.windows
            ],
            title="Monitored operation",
        )
    )
    log.info(
        f"\nalarms: {summary.n_alarms} ({summary.true_alarms} true, "
        f"{summary.false_alarms} false); precision {summary.precision:.2%}, "
        f"recall {summary.recall:.2%}, median lead time "
        f"{_format_lead_time(summary)}"
    )
    if summary.unknown_serial_alarms:
        log.warning(f"unknown-serial alarms: {summary.unknown_serial_alarms}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.robustness import FAULT_REGISTRY, inject, make_fault, sanitize_dataset

    clean = _load(args)
    fault_names = args.fault or sorted(FAULT_REGISTRY)
    annotate_run(seed=args.seed, faults=fault_names)

    def run(dataset):
        summary = simulate_operation(
            dataset,
            config=_monitor_config(args),
            start_day=args.start_day,
            end_day=args.end_day,
            window_days=args.window_days,
            alarm_threshold=args.alarm_threshold,
        )
        fpr_denominator = sum(1 for m in dataset.drives.values() if not m.failed)
        fpr = summary.false_alarms / fpr_denominator if fpr_denominator else float("nan")
        return summary.recall, fpr, summary.median_lead_time

    def fmt(value: float, fmt_spec: str) -> str:
        return "n/a" if value != value else format(value, fmt_spec)

    baseline = run(clean)
    record_result(
        "baseline", {"tpr": baseline[0], "fpr": baseline[1], "lead": baseline[2]}
    )
    rows = [
        ["(clean)", fmt(baseline[0], ".3f"), fmt(baseline[1], ".3f"),
         fmt(baseline[2], ".0f"), "-", "-", "-"]
    ]
    for name in fault_names:
        corrupted = inject(clean, [make_fault(name)], seed=args.seed)
        if not args.no_sanitize:
            corrupted, report = sanitize_dataset(corrupted)
            log.info(f"[{name}] quarantine: {report.summary()}")
        tpr, fpr, lead = run(corrupted)
        record_result(name, {"tpr": tpr, "fpr": fpr, "lead": lead})
        rows.append(
            [
                name,
                fmt(tpr, ".3f"),
                fmt(fpr, ".3f"),
                fmt(lead, ".0f"),
                fmt(tpr - baseline[0], "+.3f"),
                fmt(fpr - baseline[1], "+.3f"),
                fmt(lead - baseline[2], "+.0f"),
            ]
        )
    log.info(
        render_table(
            ["Fault", "TPR", "FPR", "Lead", "dTPR", "dFPR", "dLead"],
            rows,
            title=f"Chaos degradation (seed {args.seed})",
        )
    )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    dataset = _load(args)
    rows = dataset_summary_rows(dataset)
    log.info(
        render_table(
            ["Manu.", "Total", "Sum_failure", "Sum_RR", "Paper RR"],
            [
                [r["vendor"], r["total"], r["sum_failure"], r["sum_rr"], r["paper_rr"]]
                for r in rows
            ],
            title="Dataset summary (Table VI)",
        )
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import time

    from repro.serve.replay import dataset_to_readings, write_stream

    dataset = _load(args)
    with trace_span("replay.record"):
        readings = dataset_to_readings(
            dataset,
            start_day=args.start_day,
            end_day=args.end_day,
            repair=not args.no_repair,
        )
    if args.speed:
        # Paced recording: append day groups in real time so a
        # concurrently tailing consumer sees a live stream.
        import json as _json
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        current_day = None
        with open(path, "w") as handle:
            for serial, day, reading in readings:
                if current_day is not None and day != current_day:
                    handle.flush()
                    time.sleep((day - current_day) / args.speed)
                current_day = day
                handle.write(
                    _json.dumps(
                        {"kind": "reading", "serial": serial, "day": day,
                         "reading": reading},
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.write(_json.dumps({"kind": "end", "day": args.end_day}) + "\n")
    else:
        write_stream(args.output, readings, end_day=args.end_day)
    log.info(
        f"recorded {len(readings)} readings -> {args.output}",
        n_readings=len(readings),
        path=args.output,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.robustness.checkpoint import has_checkpoint_files
    from repro.serve.daemon import SERVE_FILES, ServeConfig, ServeDaemon
    from repro.serve.ingest import GatePolicy
    from repro.serve.replay import feed, iter_stream

    gate = GatePolicy(
        quarantine_drive_after=args.quarantine_drive_after or None
    )
    config = ServeConfig(
        serve_start_day=args.serve_start_day,
        window_days=args.window_days,
        end_day=args.end_day,
        alarm_threshold=args.alarm_threshold,
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        max_alarms_per_window=args.max_alarms_per_window,
        stale_after=args.stale_after,
        gate=gate,
    )
    if args.resume and args.checkpoint_dir and has_checkpoint_files(
        args.checkpoint_dir, SERVE_FILES
    ):
        expected_hash = None
        if args.model_artifact:
            from repro.ml.artifact import artifact_hash

            expected_hash = artifact_hash(args.model_artifact)
        daemon = ServeDaemon.resume(
            args.checkpoint_dir,
            sink_path=args.alarms_out,
            expected_model_hash=expected_hash,
        )
        log.info(
            f"resumed from {args.checkpoint_dir} at watermark day "
            f"{daemon.watermark}"
        )
        min_day = daemon.watermark
    elif args.model_artifact:
        from pathlib import Path

        from repro.ml.artifact import (
            artifact_hash,
            load_model,
            load_reference_profile,
        )

        with trace_span("serve.load_artifact"):
            full = load_model(args.model_artifact)
            reduced_dir = Path(args.model_artifact) / "reduced"
            reduced = (
                load_model(reduced_dir)
                if not args.no_reduced and reduced_dir.is_dir()
                else None
            )
            profile = (
                load_reference_profile(args.model_artifact)
                if not args.no_drift
                else None
            )
            daemon = ServeDaemon.from_models(
                full,
                reduced,
                config,
                drift=profile if profile is not None else False,
                checkpoint_dir=args.checkpoint_dir,
                sink_path=args.alarms_out,
                model_hash=artifact_hash(args.model_artifact),
            )
        log.info(
            f"serving model artifact {args.model_artifact} "
            f"(hash {daemon.model_hash}, drift "
            f"{'on' if daemon.drift is not None else 'off'}) — no fit"
        )
        min_day = None
    else:
        if args.dataset is None:
            raise SystemExit(
                "serve needs a fleet dataset unless --resume or "
                "--model-artifact supplies the models"
            )
        dataset = _load(args)
        with trace_span("serve.bootstrap"):
            daemon = ServeDaemon.bootstrap(
                dataset,
                config,
                train_end_day=args.train_end_day,
                fit_reduced=not args.no_reduced,
                drift=not args.no_drift,
                checkpoint_dir=args.checkpoint_dir,
                sink_path=args.alarms_out,
            )
        min_day = None
        run = current_run()
        if run is not None and daemon.drift is not None:
            from pathlib import Path

            profile_path = daemon.drift.profile.save(
                Path(run.run_dir) / "reference_profile.json"
            )
            log.info(f"reference profile written to {profile_path}")

    obs_server, obs_textfile = _start_obs_endpoint(
        args,
        status_fn=daemon.status_snapshot,
        health_fn=daemon.health_snapshot,
    )
    end_day = args.end_day
    stream_end: list = []

    def readings():
        for event in iter_stream(args.input):
            if event["kind"] == "end":
                stream_end.append(event.get("day"))
                return
            yield event["serial"], event["day"], event["reading"]

    try:
        with trace_span("serve.consume"):
            feed(
                daemon,
                readings(),
                speed=args.speed,
                min_day=min_day,
                throttle_seconds=args.throttle_seconds,
                throttle_from_day=args.throttle_from_day,
            )
            if stream_end and stream_end[0] is not None:
                end_day = stream_end[0]
            summary = daemon.finish(end_day)
    finally:
        _stop_obs_endpoint(obs_server, obs_textfile)

    log.info(
        render_table(
            ["Windows", "Alarms", "Degraded windows", "Watermark"],
            [[summary["n_windows"], summary["n_alarms"],
              summary["degraded_windows"], summary["watermark"]]],
            title="serve summary",
        )
    )
    latency = summary["e2e_latency_seconds"]
    if latency["count"]:
        log.info(
            f"ingest→alarm latency over {latency['count']} alarms: "
            f"p50 {latency['p50']:.3f}s, p95 {latency['p95']:.3f}s, "
            f"p99 {latency['p99']:.3f}s"
        )
    drift = daemon.drift.last if daemon.drift is not None else None
    if drift is not None:
        log.info(
            f"drift: state {drift['state_name']}, worst PSI "
            f"{drift['worst']:.4f} (window starting day "
            f"{drift['window_start']})"
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "top":
        from repro.obs.top import run_top

        frames = run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
            out=sys.stdout,
        )
        return 0 if frames else 1
    from repro.obs.report import render_run_report

    log.info(render_run_report(args.run_dir))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.scale import ShardedDataset

    store = ShardedDataset(args.store)
    rows = [
        [
            info.index,
            info.filename,
            info.n_drives,
            f"{info.first_serial}-{info.last_serial}",
            info.n_rows,
            info.n_bytes,
            info.fingerprint,
        ]
        for info in store.shards
    ]
    log.info(
        render_table(
            ["Shard", "File", "Drives", "Serials", "Rows", "Bytes", "Fingerprint"],
            rows,
            title=f"Shard store {store.root}",
        )
    )
    log.info(
        f"\n{store.n_shards} shards / {store.n_drives} drives / "
        f"{store.n_rows} rows / {store.n_bytes} bytes; "
        f"fleet fingerprint {store.fleet_fingerprint}"
    )
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    import json as _json

    from repro.ml.artifact import (
        artifact_hash,
        inspect_artifact,
        load_model,
        save_model,
    )

    if args.model_command == "inspect":
        log.info(_json.dumps(inspect_artifact(args.artifact), indent=2, sort_keys=True))
        return 0
    if args.model_command == "load":
        model = load_model(args.artifact)
        log.info(
            f"loaded {type(model).__name__} from {args.artifact} "
            f"(hash {artifact_hash(args.artifact)}); every file hash verified"
        )
        return 0

    # save: fit on the fleet, then persist the versioned artifact.
    config = MFPAConfig(
        feature_group_name=args.feature_group,
        n_jobs=args.n_jobs,
        split_algorithm=args.split_algorithm,
        memory_ceiling_mb=args.memory_ceiling_mb,
    )
    annotate_run(config_hash=config_hash(config), n_jobs=args.n_jobs)
    profile = None
    dataset = None
    store = _sharded_store(args)
    if store is not None:
        from repro.scale import fit_sharded

        model = fit_sharded(
            store, config, train_end_day=args.train_end_day, sanitize=args.sanitize
        )
        if not args.no_profile:
            log.warning(
                "shard-store training keeps no in-RAM dataset; artifact is "
                "saved without a ReferenceProfile"
            )
        if args.with_reduced:
            raise SystemExit(
                "--with-reduced needs an in-RAM fleet; shard stores fit "
                "only the full model"
            )
    else:
        dataset = _load(args)
        model = MFPA(config)
        with trace_span("model.fit"):
            model.fit(dataset, train_end_day=args.train_end_day)
        if not args.no_profile:
            from repro.serve.drift import ReferenceProfile

            train_end = min(
                args.train_end_day,
                int(model.dataset_.columns["day"].max()) + 1,
            )
            profile = ReferenceProfile.from_model(model, (0, train_end))
    with trace_span("model.save"):
        save_model(
            model, args.output, dataset=dataset, reference_profile=profile
        )
        if args.with_reduced:
            from pathlib import Path

            from repro.robustness.degraded import fit_reduced_model

            reduced = fit_reduced_model(
                dataset, args.train_end_day, base_config=model.config
            )
            save_model(reduced, Path(args.output) / "reduced", dataset=dataset)
    log.info(
        f"saved {type(model).__name__} artifact to {args.output} "
        f"(hash {artifact_hash(args.output)}, profile "
        f"{'yes' if profile is not None else 'no'}, reduced "
        f"{'yes' if args.with_reduced else 'no'})"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "monitor": _cmd_monitor,
    "summary": _cmd_summary,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "obs": _cmd_obs,
    "scale": _cmd_scale,
    "model": _cmd_model,
}


#: Commands carrying the obs flags. ``obs report`` itself is excluded —
#: its ``run_dir`` positional must never be mistaken for ``--run-dir``
#: (that would overwrite the manifest being rendered).
_OBSERVABLE_COMMANDS = frozenset({"train", "monitor", "chaos", "serve", "replay"})


def _begin_observability(args: argparse.Namespace):
    """Enable tracing/metrics per the obs flags; open a run context
    when ``--run-dir`` asks for a manifest."""
    wants_obs = args.command in _OBSERVABLE_COMMANDS and (
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "run_dir", None)
    )
    if not wants_obs:
        return None
    enable_observability()
    run = None
    if getattr(args, "run_dir", None):
        cli_args = {
            k: v for k, v in vars(args).items() if k not in ("command", "run_dir")
        }
        run = start_run(args.run_dir, command=args.command, args=cli_args)
        set_current_run(run)
    return run


def _finish_observability(args: argparse.Namespace, run, status: str) -> None:
    """Export metrics / manifest / span tree, then reset all obs state
    so repeated ``main()`` calls in one process start clean."""
    try:
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            registry = get_registry()
            text = (
                registry.to_prometheus()
                if str(metrics_out).endswith(".prom")
                else registry.to_jsonl()
            )
            from pathlib import Path

            from repro.robustness.checkpoint import atomic_write

            path = Path(metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, text.encode())
            log.info(f"metrics written to {path}")
        if run is not None:
            manifest_path = run.finalize(get_tracer(), get_registry(), status=status)
            log.info(f"run manifest written to {manifest_path}")
        elif getattr(args, "trace", False):
            from repro.obs.report import render_span_tree

            log.info("\n" + render_span_tree(get_tracer().span_records()))
    finally:
        disable_observability()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "info"),
        json_lines=getattr(args, "log_json", False),
    )
    run = _begin_observability(args)
    status = "error"
    try:
        with trace_span(args.command):
            code = _COMMANDS[args.command](args)
        status = "ok" if code == 0 else "error"
        return code
    finally:
        _finish_observability(args, run, status)


if __name__ == "__main__":
    sys.exit(main())
