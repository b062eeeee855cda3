"""Tests for the command-line interface (fast paths only)."""

import pytest

from repro.cli import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.alphas == [0.2, 0.4]
        assert args.time_limit == 120.0

    def test_fig2_objective_parsing(self):
        from repro.core import Objective

        args = build_parser().parse_args(["fig2", "--objective", "obj-del"])
        assert args.objective is Objective.MIN_DELAY_RATIO

    def test_bad_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--objective", "nope"])

    def test_simulate_approach_choices(self):
        args = build_parser().parse_args(["simulate", "--approach", "giotto-cpu"])
        assert args.approach == "giotto-cpu"


    def test_chains_and_codesign_registered(self):
        args = build_parser().parse_args(["chains", "--alpha", "0.3"])
        assert args.alpha == 0.3
        args = build_parser().parse_args(["codesign", "--shrink", "0.7"])
        assert args.shrink == 0.7

    def test_export_defaults(self):
        args = build_parser().parse_args(["export"])
        assert args.out == "letdma-out"

    def test_sweep_defaults(self):
        from repro.core import Objective

        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.telemetry is None
        assert args.backend == "portfolio"
        assert args.cache_dir is None
        assert set(args.objectives) == set(Objective)
        assert args.alphas == [0.2, 0.4]

    def test_sweep_grid_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--jobs",
                "4",
                "--telemetry",
                "runs/today",
                "--backend",
                "greedy",
                "--objectives",
                "no-obj",
                "--alphas",
                "0.3",
            ]
        )
        assert args.jobs == 4
        assert args.telemetry == "runs/today"
        assert args.backend == "greedy"
        assert [o.value for o in args.objectives] == ["NO-OBJ"]

    def test_table1_and_alphas_accept_grid_flags(self):
        args = build_parser().parse_args(["table1", "--jobs", "2"])
        assert args.jobs == 2
        args = build_parser().parse_args(["alphas", "--jobs", "3"])
        assert args.jobs == 3

    def test_solve_backend_choices(self):
        args = build_parser().parse_args(["solve", "--backend", "portfolio"])
        assert args.backend == "portfolio"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--backend", "cplex"])

    def test_telemetry_command_registered(self):
        args = build_parser().parse_args(["telemetry", "runs/today"])
        assert args.path == "runs/today"


class TestMainSmoke:
    """Run the cheapest real commands end to end."""

    def test_solve_command(self, capsys):
        code = main(["solve", "--alpha", "0.4", "--time-limit", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out or "status: feasible" in out
        assert "MG:" in out

    def test_export_command(self, capsys, tmp_path):
        out_dir = tmp_path / "fw"
        code = main(
            ["export", "--alpha", "0.4", "--time-limit", "60", "--out", str(out_dir)]
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "let_dma_layout.h",
            "let_dma_layout.ld",
            "protocol.vcd",
            "application.json",
            "allocation.json",
        }

    def test_telemetry_command(self, capsys, tmp_path):
        import repro
        from repro.model import Application, Label, Platform, Task, TaskSet

        platform = Platform.symmetric(2)
        tasks = TaskSet(
            [
                Task("PROD", 5_000, 1_000.0, "P1", 0),
                Task("CONS", 10_000, 2_000.0, "P2", 0),
            ]
        )
        app = Application(
            platform, tasks, [Label("x", 64, writer="PROD", readers=("CONS",))]
        )
        repro.solve(app, telemetry=tmp_path)
        code = main(["telemetry", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Run telemetry" in out
        assert "backend: highs" in out

    def test_chains_command(self, capsys):
        code = main(["chains", "--alpha", "0.4", "--time-limit", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "steer" in out and "perceive" in out
        assert "reaction time" in out


class TestChaosCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(
            [
                "chaos",
                "--intensities", "0", "0.5",
                "--seeds", "0", "1",
                "--policies", "stale-data", "fail-stop",
                "--resume",
                "--telemetry", "chaos.jsonl",
            ]
        )
        assert args.intensities == [0.0, 0.5]
        assert args.seeds == [0, 1]
        assert args.policies == ["stale-data", "fail-stop"]
        assert args.resume is True

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--policies", "retry-forever"])

    def test_resume_requires_telemetry(self, capsys):
        code = main(["chaos", "--resume"])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_chaos_smoke_and_resume(self, capsys, tmp_path):
        telemetry = tmp_path / "chaos.jsonl"
        argv = [
            "chaos",
            "--alphas", "0.3",
            "--intensities", "0", "1",
            "--seeds", "0",
            "--backend", "greedy",
            "--telemetry", str(telemetry),
        ]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "Chaos campaign" in out
        assert "clean" in out and "degraded" in out

        code = main(argv + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 grid point(s) resumed" in out


class TestExitCodeContract:
    """The documented exit codes: 0 ok, 1 failure, 2 usage, 130 interrupt."""

    def test_constants_match_the_documented_table(self):
        assert EXIT_OK == 0
        assert EXIT_FAILURE == 1
        assert EXIT_USAGE == 2
        assert EXIT_INTERRUPTED == 130

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--backend", "cplex"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["table1", "alphas", "sweep", "chaos"])
    def test_resume_without_telemetry_exits_2(self, command, capsys):
        assert main([command, "--resume"]) == EXIT_USAGE
        assert "--telemetry" in capsys.readouterr().err

    def test_warm_sweep_rejects_resume_and_service(self, capsys, tmp_path):
        from repro.runtime import read_telemetry

        telemetry = tmp_path / "w.jsonl"
        argv = [
            "sweep",
            "--objectives", "no-obj",
            "--alphas", "0.3", "0.4",
            "--backend", "greedy",
            "--warm",
            "--telemetry", str(telemetry),
        ]
        assert main(argv) == EXIT_OK
        for flag in (["--resume"], ["--service", "127.0.0.1:9"]):
            assert main(argv + flag) == EXIT_USAGE
            assert "--warm" in capsys.readouterr().err
        assert len(read_telemetry(telemetry)) == 2

    @pytest.mark.parametrize(
        ("command", "runner"),
        [("table1", "run_table1"), ("alphas", "run_alpha_feasibility")],
    )
    def test_interrupt_exits_130_with_a_resume_hint(
        self, command, runner, capsys, monkeypatch, tmp_path
    ):
        from repro.runtime import RunInterrupted

        def interrupted(**_):
            raise RunInterrupted([])

        monkeypatch.setattr(f"repro.cli.{runner}", interrupted)
        telemetry = tmp_path / "t.jsonl"
        try:
            code = main([command, "--telemetry", str(telemetry)])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main()")
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert f"{command}: interrupted" in err
        assert f"--resume --telemetry {telemetry}" in err

    def test_dead_service_address_exits_1(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            ["sweep", "--service", f"127.0.0.1:{port}", "--backend", "greedy"]
        )
        assert code == EXIT_FAILURE
        assert "no solve service" in capsys.readouterr().err


class TestSharedFlagParents:
    """One definition of --jobs/--telemetry/--cache-dir/--resume/--service,
    inherited by every grid command (satellite: no drifting duplicates)."""

    GRID_COMMANDS = ["table1", "alphas", "sweep", "chaos", "fuzz"]

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_grid_flags_present_everywhere(self, command, tmp_path):
        args = build_parser().parse_args(
            [
                command,
                "--jobs", "3",
                "--telemetry", str(tmp_path / "runs"),
                "--cache-dir", str(tmp_path / "cache"),
                "--resume",
            ]
        )
        assert args.jobs == 3
        assert args.telemetry == str(tmp_path / "runs")
        assert args.cache_dir == str(tmp_path / "cache")
        assert args.resume is True
        assert args.service is None  # --service parent is present too

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_service_flag_parses_host_port(self, command):
        args = build_parser().parse_args(
            [command, "--service", "127.0.0.1:6160"]
        )
        assert args.service == ("127.0.0.1", 6160)

    def test_bad_service_address_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--service", "no-port-here"])

    @pytest.mark.parametrize(
        "command", ["table1", "alphas", "sweep", "chaos", "solve"]
    )
    def test_backend_flag_present(self, command):
        args = build_parser().parse_args([command, "--backend", "greedy"])
        assert args.backend == "greedy"

    def test_fuzz_keeps_its_tight_default_time_limit(self):
        # fuzz inherits grid+service parents but owns --time-limit.
        args = build_parser().parse_args(["fuzz"])
        assert args.time_limit == 20.0


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 6160
        assert args.shards >= 1
        assert args.queue_capacity >= 1
        assert args.status is None
        assert args.smoke is False

    def test_status_with_explicit_address(self):
        args = build_parser().parse_args(
            ["serve", "--status", "127.0.0.1:7777"]
        )
        assert args.status == ("127.0.0.1", 7777)

    def test_status_defaults_to_the_default_address(self):
        args = build_parser().parse_args(["serve", "--status"])
        assert args.status == ("127.0.0.1", 6160)

    def test_status_against_dead_server_exits_1(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["serve", "--status", f"127.0.0.1:{port}"])
        assert code == EXIT_FAILURE
        assert "error:" in capsys.readouterr().err


class TestServiceIntegration:
    def test_sweep_through_a_live_service(self, capsys, tmp_path):
        """`letdma sweep --service` routes its grid through `serve`."""
        from repro.service import SolveService, serve

        telemetry = tmp_path / "runs.jsonl"
        with SolveService(shards=1) as service:
            server = serve(service, port=0)
            host, port = server.address
            try:
                code = main(
                    [
                        "sweep",
                        "--objectives", "no-obj",
                        "--alphas", "0.3",
                        "--backend", "greedy",
                        "--service", f"{host}:{port}",
                        "--telemetry", str(telemetry),
                    ]
                )
            finally:
                server.shutdown()
                server.server_close()
        assert code == EXIT_OK
        snapshot = service.metrics_snapshot()
        assert snapshot["submitted"] >= 1
        assert snapshot["completed"] >= 1
        assert telemetry.exists()
