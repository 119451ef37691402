"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--max-batch", "8",
             "--cache-capacity", "64"])
        assert args.port == 9000 and args.max_batch == 8
        assert args.cache_capacity == 64

    def test_serve_rejects_the_linger_knob(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--max-wait-ms", "1"])
        assert exc.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err

    def test_request_args(self):
        args = build_parser().parse_args(
            ["request", "--url", "http://h:1", "--napps", "4",
             "--scheduler", "fair", "--repeat", "3"])
        assert args.url == "http://h:1" and args.repeat == 3

    def test_cache_prune_args(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--max-bytes", "500M", "--dry-run"])
        assert args.cache_command == "prune"
        assert args.max_bytes == 500_000_000
        assert args.dry_run

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_verbs(self):
        import argparse

        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {
            "cache", "figure", "lint", "list", "online", "request",
            "schedule", "serve", "table2", "validate"}


class TestParseBytes:
    @pytest.mark.parametrize("text, expected", [
        ("1024", 1024),
        ("500M", 500_000_000),
        ("500MB", 500_000_000),
        ("2G", 2_000_000_000),
        ("1.5K", 1500),
        ("0", 0),
    ])
    def test_accepted(self, text, expected):
        from repro.cli import parse_bytes

        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["abc", "12Q", "-5", "", "inf", "nan"])
    def test_rejected(self, text):
        import argparse

        from repro.cli import parse_bytes

        with pytest.raises(argparse.ArgumentTypeError):
            parse_bytes(text)

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig3", "--reps", "2"])
        assert args.figure_id == "fig3"
        assert args.reps == 2

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("flag", [["--backend", "serial"],
                                      ["--workers", "2"]])
    def test_figure_has_no_backend_knobs(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure", "fig1", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dominant-minratio" in out
        assert "fig18" in out
        assert "npb-synth" in out
        assert "backends:" not in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--napps", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_schedule_every_dataset(self, capsys):
        for dataset in ("npb-6", "npb-synth", "random"):
            assert main(["schedule", "--dataset", dataset, "--napps", "4"]) == 0

    def test_figure_runs_small(self, capsys, monkeypatch):
        import numpy as np

        import repro.cli as cli

        # Shrink the sweep so the test is fast.
        orig = cli.build_figure

        def small(figure_id, **kw):
            return orig(figure_id, points=np.array([2.0, 4.0]), **kw)

        monkeypatch.setattr(cli, "build_figure", small)
        assert main(["figure", "fig3", "--reps", "1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "legend:" in out

    def test_figure_csv(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        import repro.cli as cli

        orig = cli.build_figure
        monkeypatch.setattr(
            cli, "build_figure",
            lambda fid, **kw: orig(fid, points=np.array([2.0]), **kw),
        )
        csv_path = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--reps", "1", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "dominant-minratio" in header

    def test_validate(self, capsys):
        assert main(["validate", "--napps", "6"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "MISMATCH" not in out

    def test_validate_fails_when_one_report_disagrees(self, capsys, monkeypatch):
        import dataclasses

        import repro.simulate as simulate

        real = simulate.validate_schedule
        reports = []

        def first_disagrees(schedule):
            report = real(schedule)
            reports.append(report)
            return dataclasses.replace(report, agrees=len(reports) > 1)

        monkeypatch.setattr(simulate, "validate_schedule", first_disagrees)
        assert main(["validate", "--napps", "6"]) == 1
        assert len(reports) > 1
        assert capsys.readouterr().out.count("MISMATCH") == 1

    def test_list_schedulers_sorted(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        table = out.split("figures:")[0]
        names = [line.split()[0] for line in table.splitlines()[3:] if line.strip()]
        assert names == sorted(names)
        assert set(names) == {
            "0cache", "allproccache", "continuous-opt",
            "dominant-maxratio", "dominant-minratio", "dominant-random",
            "dominantrev-maxratio", "dominantrev-minratio",
            "dominantrev-random", "fair", "localsearch", "randompart",
            "speedup-aware",
        }

    def test_cache_info_and_prune(self, tmp_path, capsys):
        (tmp_path / "figx-aaaa.npz").write_bytes(b"\0" * 100)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries, 100 bytes" in out
        assert main(["cache", "prune", "--max-bytes", "50", "--dry-run",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "would delete 1" in capsys.readouterr().out
        assert (tmp_path / "figx-aaaa.npz").exists()  # dry run deletes nothing
        assert main(["cache", "prune", "--max-bytes", "50",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "deleted 1 entries, freed 100" in capsys.readouterr().out
        assert not (tmp_path / "figx-aaaa.npz").exists()

    def test_cache_without_directory_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_request_against_live_server(self, capsys):
        from repro.service import AsyncServerThread, DecisionService

        with AsyncServerThread(DecisionService()) as server:
            assert main(["request", "--url", server.url, "--napps", "4",
                         "--repeat", "2"]) == 0
            captured = capsys.readouterr()
            server.service.close()
        assert "makespan" in captured.out
        assert "decision-cache hit" in captured.err

    @pytest.mark.parametrize("argv, workers", [
        (["serve"], 1),
        (["serve", "--async", "--workers", "2"], 2),
    ])
    def test_serve_runs_the_async_front_end(self, monkeypatch, argv, workers):
        import repro.service.aserver as aserver

        calls = []
        monkeypatch.setattr(
            aserver, "serve_async",
            lambda host, port, factory, **kw: calls.append((port, factory, kw)))
        assert main(argv + ["--port", "0", "--max-queue-depth", "3"]) == 0
        [(port, factory, kw)] = calls
        assert port == 0 and kw["workers"] == workers
        service = factory()
        try:
            assert service.batcher.max_queue_depth == 3
        finally:
            service.close()

    def test_request_unreachable_server(self):
        from repro.types import ReproError

        with pytest.raises(ReproError, match="cannot reach"):
            main(["request", "--url", "http://127.0.0.1:1", "--napps", "2"])

    def test_figure_custom_normalization(self, monkeypatch, capsys):
        import numpy as np

        import repro.cli as cli

        orig = cli.build_figure
        monkeypatch.setattr(
            cli, "build_figure",
            lambda fid, **kw: orig(fid, points=np.array([2.0]), **kw),
        )
        assert main(["figure", "fig3", "--reps", "1", "--normalize", "0cache"]) == 0
        assert "normalized by 0cache" in capsys.readouterr().out


class TestOnlineCommand:
    def test_online_args(self):
        args = build_parser().parse_args(
            ["online", "--napps", "8", "--policy", "fair",
             "--arrivals", "poisson:rate=5e-9", "--seed", "3"])
        assert args.napps == 8 and args.policy == "fair"
        assert args.arrivals == "poisson:rate=5e-9" and args.seed == 3

    def test_online_batch_default(self, capsys):
        assert main(["online", "--napps", "4"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "mean flow" in out and "events" in out

    def test_online_poisson_reproducible(self, capsys):
        """The acceptance scenario: a seeded Poisson arrival stream
        runs end to end and replays bit-identically from --seed."""
        argv = ["online", "--napps", "6", "--policy", "dominant",
                "--arrivals", "poisson:rate=5e-9,burst=0.5,period=1e9",
                "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(argv[:-1] + ["12"]) == 0
        assert capsys.readouterr().out != first

    def test_online_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("0\n1e8\n2e8\n3e8\n")
        assert main(["online", "--napps", "4",
                     "--arrivals", f"trace:{trace}"]) == 0
        out = capsys.readouterr().out
        assert "3e+08" in out or "3.0000e+08" in out

    def test_online_bad_spec_errors(self):
        import pytest as _pytest

        from repro.types import ModelError

        with _pytest.raises(ModelError):
            main(["online", "--napps", "4", "--arrivals", "storm:heavy"])
