"""CLI wiring of the out-of-core subsystem.

``simulate --shards`` writes a shard store, ``scale inspect`` prints
its manifest, and ``train``/``monitor`` autodetect shard-store
arguments and route to the streaming implementations.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.scale import ShardedDataset, is_shard_store


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-scale") / "store"
    code = main(
        [
            "simulate", str(path),
            "--shards", "3",
            "--vendor", "I=60", "--vendor", "II=40",
            "--horizon-days", "300",
            "--failure-boost", "30",
            "--seed", "3",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_simulate_shards_flag(self):
        args = build_parser().parse_args(["simulate", "out", "--shards", "8"])
        assert args.shards == 8
        assert build_parser().parse_args(["simulate", "out"]).shards is None

    def test_memory_ceiling_flag(self):
        for command in ("train", "monitor"):
            args = build_parser().parse_args(
                [command, "d", "--memory-ceiling-mb", "512"]
            )
            assert args.memory_ceiling_mb == 512
            assert (
                build_parser().parse_args([command, "d"]).memory_ceiling_mb
                is None
            )

    def test_scale_inspect_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale"])
        args = build_parser().parse_args(["scale", "inspect", "dir"])
        assert args.scale_command == "inspect"
        assert args.store == "dir"


class TestSimulateShards:
    def test_writes_a_valid_store(self, cli_store):
        assert is_shard_store(cli_store)
        store = ShardedDataset(cli_store)
        assert store.n_shards == 3
        assert store.n_drives == 100


class TestInspect:
    def test_prints_manifest_summary(self, cli_store, capsys):
        code = main(["scale", "inspect", str(cli_store)])
        assert code == 0
        out = capsys.readouterr().out
        store = ShardedDataset(cli_store)
        assert "3 shards" in out
        assert store.fleet_fingerprint in out
        for info in store.shards:
            assert info.filename in out


class TestShardedTrain:
    def test_routes_to_streaming_trainer(self, cli_store, capsys):
        code = main(
            [
                "train", str(cli_store),
                "--train-end-day", "180",
                "--eval-end-day", "300",
                "--memory-ceiling-mb", "8192",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trained through day 180" in out
        assert "drive" in out and "record" in out


class TestShardedMonitor:
    def test_routes_to_sharded_monitor(self, cli_store, capsys):
        code = main(
            [
                "monitor", str(cli_store),
                "--start-day", "150",
                "--end-day", "300",
                "--window-days", "50",
                "--memory-ceiling-mb", "8192",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Monitored operation" in out
        assert "150-200" in out

    def test_allow_degraded_rejected_on_stores(self, cli_store):
        with pytest.raises(SystemExit, match="not supported"):
            main(
                [
                    "monitor", str(cli_store),
                    "--allow-degraded",
                ]
            )

    def test_checkpointing_flags_accepted_on_stores(
        self, cli_store, tmp_path, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        arguments = [
            "monitor", str(cli_store),
            "--start-day", "150",
            "--end-day", "300",
            "--window-days", "50",
            "--checkpoint-dir", str(checkpoint),
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert (checkpoint / "progress.pkl").exists()
        # A resumed run restores the committed progress and reprints
        # the identical summary.
        assert main([*arguments, "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestStreamCommandsReadStores:
    """``replay`` and ``serve`` load a multi-shard store as one fleet."""

    def test_replay_and_serve_match_the_in_ram_fleet(
        self, small_fleet, shard_store, tmp_path
    ):
        from repro.telemetry.io import save_dataset

        saved = save_dataset(small_fleet, tmp_path / "fleet")
        alarms = {}
        for name, dataset in (("store", shard_store.root), ("fleet", saved)):
            stream = tmp_path / f"{name}.jsonl"
            assert main(["replay", str(dataset), str(stream), "--end-day", "300"]) == 0
            sink = tmp_path / f"{name}-alarms.jsonl"
            assert main(
                [
                    "serve", str(dataset),
                    "--input", str(stream),
                    "--serve-start-day", "240",
                    "--end-day", "300",
                    "--alarm-threshold", "0.3",
                    "--alarms-out", str(sink),
                ]
            ) == 0
            alarms[name] = sink.read_text()
        assert (tmp_path / "store.jsonl").read_bytes() == (
            tmp_path / "fleet.jsonl"
        ).read_bytes()
        assert alarms["store"] == alarms["fleet"]
        assert alarms["store"].count("\n") > 0
