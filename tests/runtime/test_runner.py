"""Tests for the parallel experiment runner."""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core import FormulationConfig, Objective
from repro.core.solution import AllocationResult
from repro.milp import SolveStatus
from repro.runtime import (
    ExperimentRunner,
    RunInterrupted,
    SolveJob,
    build_solve_record,
    read_telemetry,
)
from repro.workloads import WorkloadSpec, generate_application

pytestmark = pytest.mark.runtime


def small_grid(simple_app, multirate_app, fig1_app):
    """Four fast, deterministic jobs spanning apps and objectives."""
    config = FormulationConfig(time_limit_seconds=30)
    return [
        SolveJob("simple-none", simple_app, config),
        SolveJob(
            "simple-min-transfers",
            simple_app,
            FormulationConfig(
                objective=Objective.MIN_TRANSFERS, time_limit_seconds=30
            ),
        ),
        SolveJob("multirate-none", multirate_app, config),
        SolveJob("fig1-none", fig1_app, config),
    ]


class TestSequential:
    def test_outcomes_in_submission_order(
        self, simple_app, multirate_app, fig1_app
    ):
        grid = small_grid(simple_app, multirate_app, fig1_app)
        outcomes = ExperimentRunner(jobs=1).run(grid)
        assert [o.job_id for o in outcomes] == [j.job_id for j in grid]
        for outcome in outcomes:
            assert outcome.result.status is SolveStatus.OPTIMAL
            assert outcome.wall_seconds > 0
            assert outcome.record["job_id"] == outcome.job_id

    def test_duplicate_job_id_rejected(self, simple_app):
        grid = [SolveJob("dup", simple_app), SolveJob("dup", simple_app)]
        with pytest.raises(ValueError, match="duplicate job_id"):
            ExperimentRunner().run(grid)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_tags_flow_into_records(self, simple_app):
        job = SolveJob("tagged", simple_app, tags={"alpha": 0.3, "seed": 1})
        (outcome,) = ExperimentRunner().run([job])
        assert outcome.tags == {"alpha": 0.3, "seed": 1}
        assert outcome.record["tags"] == {"alpha": 0.3, "seed": 1}


@dataclass
class FakeBatchJob:
    """Minimal batched campaign job for protocol tests."""

    job_id: str
    member_ids: list
    fail: bool = False
    tags: dict = field(default_factory=dict)

    event = "chaos"

    def narrow(self, ids):
        keep = [m for m in self.member_ids if m in set(ids)]
        return FakeBatchJob(self.job_id, keep, self.fail, dict(self.tags))

    @property
    def members(self):
        @dataclass
        class _Member:
            job_id: str
            tags: dict

        return [_Member(m, {"member": m}) for m in self.member_ids]

    def execute(self, cache_dir, deadline_seconds):
        if self.fail:
            raise RuntimeError("batch exploded")
        records = [
            {
                "job_id": member,
                "status": "optimal",
                "tags": {"member": member},
                "wall_seconds": 0.0,
            }
            for member in self.member_ids
        ]
        return AllocationResult(status=SolveStatus.OPTIMAL), records


class TestBatchedJobs:
    def test_one_outcome_per_member(self, tmp_path):
        job = FakeBatchJob("batch", ["p1", "p2", "p3"])
        outcomes = ExperimentRunner(
            telemetry=tmp_path / "t.jsonl"
        ).run([job])
        assert [o.job_id for o in outcomes] == ["p1", "p2", "p3"]
        assert [o.tags for o in outcomes] == [
            {"member": "p1"}, {"member": "p2"}, {"member": "p3"}
        ]
        records = read_telemetry(tmp_path / "t.jsonl")
        assert [r["job_id"] for r in records] == ["p1", "p2", "p3"]

    def test_member_ids_participate_in_duplicate_check(self):
        grid = [
            FakeBatchJob("batch", ["p1", "p2"]),
            FakeBatchJob("other", ["p2"]),
        ]
        with pytest.raises(ValueError, match="duplicate job_id 'p2'"):
            ExperimentRunner().run(grid)

    def test_partial_checkpoint_narrows_the_batch(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        ExperimentRunner(telemetry=telemetry).run(
            [FakeBatchJob("batch", ["p1", "p2"])]
        )
        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(
            [FakeBatchJob("batch", ["p1", "p2", "p3"])]
        )
        assert [(o.job_id, o.resumed) for o in outcomes] == [
            ("p1", True), ("p2", True), ("p3", False)
        ]
        assert len(read_telemetry(telemetry)) == 3

    def test_batch_error_fans_out_per_member(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        job = FakeBatchJob("batch", ["p1", "p2"], fail=True)
        outcomes = ExperimentRunner(telemetry=telemetry).run([job])
        assert [o.job_id for o in outcomes] == ["p1", "p2"]
        for outcome in outcomes:
            assert outcome.result.status is SolveStatus.ERROR
            assert "batch exploded" in outcome.record["error"]
            assert outcome.record["tags"] == {"member": outcome.job_id}
        assert len(read_telemetry(telemetry)) == 2

    def test_batched_jobs_run_in_parallel_mode(self, tmp_path):
        """``jobs=2`` sizes the solve service only: campaign jobs still
        run in-process, one after another, members in grid order."""
        grid = [
            FakeBatchJob("b1", ["p1", "p2"]),
            FakeBatchJob("b2", ["p3", "p4"]),
        ]
        outcomes = ExperimentRunner(
            jobs=2, telemetry=tmp_path / "t.jsonl"
        ).run(grid)
        assert [o.job_id for o in outcomes] == ["p1", "p2", "p3", "p4"]


class TestDeadline:
    def test_deadline_caps_rung_budget(self, timeout_app):
        # A generous per-config limit, but a microscopic per-job
        # deadline: the portfolio must degrade to greedy.
        job = SolveJob(
            "deadline",
            timeout_app,
            FormulationConfig(
                objective=Objective.MIN_TRANSFERS, time_limit_seconds=600
            ),
        )
        (outcome,) = ExperimentRunner(deadline_seconds=1e-4).run([job])
        assert outcome.result.feasible
        assert outcome.result.backend == "greedy"


class TestFaultTolerance:
    def test_bad_job_becomes_error_outcome(self, simple_app):
        grid = [
            SolveJob("bad", simple_app, backend="bogus"),
            SolveJob("good", simple_app),
        ]
        bad, good = ExperimentRunner().run(grid)
        assert bad.result.status is SolveStatus.ERROR
        assert "ValueError" in bad.record["error"]
        assert good.result.status is SolveStatus.OPTIMAL


class TestTelemetryAndCache:
    def test_parent_writes_records_in_order(self, tmp_path, simple_app):
        grid = [
            SolveJob("a", simple_app),
            SolveJob(
                "b",
                simple_app,
                FormulationConfig(objective=Objective.MIN_TRANSFERS),
            ),
        ]
        ExperimentRunner(telemetry=tmp_path / "run").run(grid)
        records = read_telemetry(tmp_path / "run")
        assert [r["job_id"] for r in records] == ["a", "b"]

    def test_shared_cache_skips_resolves(self, tmp_path, simple_app):
        grid = [SolveJob("a", simple_app)]
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        first = runner.run(grid)[0]
        second = runner.run(grid)[0]
        assert first.record["cached"] is False
        assert second.record["cached"] is True
        assert second.result.num_transfers == first.result.num_transfers


@pytest.mark.slow
class TestParallel:
    def test_jobs4_matches_jobs1(self, simple_app, multirate_app, fig1_app):
        grid = small_grid(simple_app, multirate_app, fig1_app)
        serial = ExperimentRunner(jobs=1).run(grid)
        parallel = ExperimentRunner(jobs=4).run(grid)
        assert [o.job_id for o in parallel] == [o.job_id for o in serial]
        for s, p in zip(serial, parallel):
            assert p.result.status is s.result.status
            assert p.result.num_transfers == s.result.num_transfers
            assert p.result.objective_value == pytest.approx(
                s.result.objective_value
            )
            assert {
                m: layout.order for m, layout in p.result.layouts.items()
            } == {m: layout.order for m, layout in s.result.layouts.items()}

    def test_parallel_telemetry_in_submission_order(
        self, tmp_path, simple_app, multirate_app, fig1_app
    ):
        grid = small_grid(simple_app, multirate_app, fig1_app)
        ExperimentRunner(jobs=4, telemetry=tmp_path).run(grid)
        records = read_telemetry(tmp_path)
        assert [r["job_id"] for r in records] == [j.job_id for j in grid]


def time_limited_grid(count, prefix):
    """``count`` distinct solves that each run into a 0.3 s budget."""
    config = FormulationConfig(
        objective=Objective.MIN_DELAY_RATIO, time_limit_seconds=0.3
    )
    return [
        SolveJob(
            f"{prefix}-{seed}",
            generate_application(
                WorkloadSpec(
                    num_tasks=4,
                    num_cores=2,
                    total_utilization=0.5,
                    communication_density=0.6,
                    periods_ms=(5, 10, 20),
                    seed=seed,
                )
            ),
            config,
            backend="highs",
        )
        for seed in range(count)
    ]


class TestServiceExecution:
    def test_killed_worker_does_not_fail_the_grid(self):
        """A pool worker SIGKILLed mid-grid is replaced and its job
        replayed; no grid point becomes an ERROR outcome."""
        grid = time_limited_grid(8, "kill")
        earlier = {child.pid for child in multiprocessing.active_children()}
        killed = []

        def kill_one_worker():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                workers = [
                    child.pid
                    for child in multiprocessing.active_children()
                    if child.pid not in earlier
                ]
                if workers:
                    os.kill(workers[0], signal.SIGKILL)
                    killed.append(workers[0])
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_one_worker, daemon=True)
        killer.start()
        outcomes = ExperimentRunner(jobs=2).run(grid)
        killer.join(timeout=5)
        assert killed
        assert [o.job_id for o in outcomes] == [j.job_id for j in grid]
        errors = [o.job_id for o in outcomes if o.result.status is SolveStatus.ERROR]
        assert errors == []

    def test_sigint_stops_a_parallel_solve_grid_promptly(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        grid = time_limited_grid(16, "int")
        sent = []

        def interrupt_after_first_record():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if telemetry.exists() and telemetry.read_text().strip():
                    break
                time.sleep(0.01)
            sent.append(time.monotonic())
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=interrupt_after_first_record, daemon=True).start()
        with pytest.raises(RunInterrupted) as excinfo:
            ExperimentRunner(jobs=2, telemetry=telemetry).run(grid)
        assert time.monotonic() - sent[0] < 2.0
        finished = [o.job_id for o in excinfo.value.outcomes]
        assert 0 < len(finished) < len(grid)
        assert [r["job_id"] for r in read_telemetry(telemetry)] == finished

        outcomes = ExperimentRunner(
            jobs=2, telemetry=telemetry, resume=True
        ).run(grid)
        assert [o.job_id for o in outcomes] == [j.job_id for j in grid]
        assert [o.resumed for o in outcomes] == [
            job.job_id in finished for job in grid
        ]
        assert all(o.result.status is not SolveStatus.ERROR for o in outcomes)
        assert len(read_telemetry(telemetry)) == len(grid)

    def test_ctrl_c_reaching_pool_workers_records_no_error(self, tmp_path):
        """A terminal Ctrl-C signals the pool workers as well as the
        runner.  The workers ignore it, so no grid point is recorded as
        an ERROR that --resume would then skip."""
        telemetry = tmp_path / "run.jsonl"
        grid = time_limited_grid(16, "pgrp")
        earlier = {child.pid for child in multiprocessing.active_children()}
        signalled = []

        def interrupt_workers_then_runner():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if telemetry.exists() and telemetry.read_text().strip():
                    break
                time.sleep(0.01)
            for child in multiprocessing.active_children():
                if child.pid not in earlier:
                    os.kill(child.pid, signal.SIGINT)
                    signalled.append(child.pid)
            # Long enough for a worker killed by it to fail its job.
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=interrupt_workers_then_runner, daemon=True).start()
        with pytest.raises(RunInterrupted) as excinfo:
            ExperimentRunner(jobs=2, telemetry=telemetry).run(grid)
        assert signalled
        records = read_telemetry(telemetry)
        assert [r["job_id"] for r in records if r["status"] == "error"] == []
        finished = {o.job_id for o in excinfo.value.outcomes}
        assert len(finished) < len(grid)

        outcomes = ExperimentRunner(
            jobs=2, telemetry=telemetry, resume=True
        ).run(grid)
        assert [o.resumed for o in outcomes] == [
            job.job_id in finished for job in grid
        ]
        assert all(o.result.status is not SolveStatus.ERROR for o in outcomes)

    def test_failure_arriving_with_the_interrupt_is_not_recorded(
        self, tmp_path, simple_app
    ):
        """A job that fails as the Ctrl-C lands (its worker was hit by
        the same signal) stays unrecorded, so --resume solves it."""
        telemetry = tmp_path / "run.jsonl"
        grid = [
            SolveJob("a", simple_app),
            SolveJob(
                "b",
                simple_app,
                FormulationConfig(objective=Objective.MIN_TRANSFERS),
            ),
        ]
        with pytest.raises(RunInterrupted) as excinfo:
            ExperimentRunner(
                telemetry=telemetry, client=FailsWithInterruptClient()
            ).run(grid)
        assert excinfo.value.outcomes == []
        assert not telemetry.exists() or read_telemetry(telemetry) == []

        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert [o.resumed for o in outcomes] == [False, False]
        assert all(o.result.status is SolveStatus.OPTIMAL for o in outcomes)


class FailsWithInterruptClient:
    """Service client whose results fail just as a SIGINT reaches the
    runner, as when a pool worker dies of the same Ctrl-C."""

    def submit_request(self, request):
        return request.job_id

    def result(self, ticket, timeout=None):
        os.kill(os.getpid(), signal.SIGINT)
        raise RuntimeError(f"solve {ticket} failed: KeyboardInterrupt")


class TestRecordKeys:
    def test_every_record_carries_the_solve_record_keys(
        self, tmp_path, simple_app
    ):
        """Solve, error and chaos-member records are all built from
        the one schema-v1 builder; a chaos record keeps its solve's
        fallback chain."""
        from repro.faults import ChaosConfig, run_chaos

        keys = set(
            build_solve_record(
                instance="",
                requested_backend="",
                result=AllocationResult(status=SolveStatus.OPTIMAL),
                wall_seconds=0.0,
                mip_gap=None,
            )
        )
        telemetry = tmp_path / "grid.jsonl"
        ExperimentRunner(telemetry=telemetry).run(
            [
                SolveJob("solve", simple_app),
                SolveJob("error", simple_app, backend="bogus"),
            ]
        )
        chaos = run_chaos(
            ChaosConfig(
                alphas=(0.3,),
                intensities=(0.0, 1.0),
                backend="greedy",
            ),
            telemetry=tmp_path / "chaos.jsonl",
        )
        records = read_telemetry(telemetry) + read_telemetry(
            tmp_path / "chaos.jsonl"
        )
        assert [r["event"] for r in records] == ["solve", "solve", "chaos", "chaos"]
        assert records[1]["status"] == "error"
        for record in records:
            assert keys <= set(record), (record["job_id"], keys - set(record))
        for outcome in chaos:
            chain = [a.to_dict() for a in outcome.result.fallback_chain]
            assert chain
            assert outcome.record["fallback_chain"] == chain


@dataclass
class FlakyJob:
    """Duck-typed campaign job: crashes ``fail_times`` times, then
    succeeds; every execution bumps a per-job counter file so tests can
    assert exactly how often it really ran."""

    job_id: str
    log_dir: str
    fail_times: int = 0
    signal_self: bool = False
    tags: dict = field(default_factory=dict)

    event = "test"

    def execute(self, cache_dir, deadline_seconds):
        path = Path(self.log_dir) / f"{self.job_id}.count"
        count = int(path.read_text()) if path.exists() else 0
        count += 1
        path.write_text(str(count))
        if self.signal_self:
            import os
            import signal as signal_module

            os.kill(os.getpid(), signal_module.SIGINT)
        if count <= self.fail_times:
            raise RuntimeError(f"boom attempt {count}")
        result = AllocationResult(status=SolveStatus.OPTIMAL)
        record = {
            "schema_version": 1,
            "event": self.event,
            "job_id": self.job_id,
            "status": "optimal",
            "wall_seconds": 0.01,
            "tags": dict(self.tags),
        }
        return result, record


def _sleep_when_ready(ready):
    ready.set()
    time.sleep(30)


@dataclass
class ForkingJob:
    """Campaign job that forks a child while the runner's signal
    handlers are installed (as a solve pool does), SIGTERMs it once it
    runs, and records the child's exit code."""

    job_id: str
    exitcodes: list
    interrupt_first: bool = False
    tags: dict = field(default_factory=dict)

    def execute(self, cache_dir, deadline_seconds):
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        child = context.Process(target=_sleep_when_ready, args=(ready,))
        child.start()
        ready.wait(timeout=10)
        if self.interrupt_first:
            os.kill(child.pid, signal.SIGINT)
            time.sleep(0.2)
            self.exitcodes.append(child.exitcode)
        child.terminate()
        child.join(timeout=5)
        self.exitcodes.append(child.exitcode)
        if child.is_alive():
            child.kill()
            child.join(timeout=5)
        result = AllocationResult(status=SolveStatus.OPTIMAL)
        return result, {"job_id": self.job_id, "status": "optimal", "tags": {}}


def executions(log_dir, job_id) -> int:
    path = Path(log_dir) / f"{job_id}.count"
    return int(path.read_text()) if path.exists() else 0


class TestRetries:
    def test_crash_then_retry_then_success(self, tmp_path):
        job = FlakyJob("flaky", str(tmp_path), fail_times=2)
        runner = ExperimentRunner(max_retries=2, retry_backoff_seconds=0.0)
        (outcome,) = runner.run([job])
        assert outcome.result.status is SolveStatus.OPTIMAL
        assert outcome.record["attempts"] == 3
        assert executions(tmp_path, "flaky") == 3

    def test_retries_exhausted_becomes_error(self, tmp_path):
        job = FlakyJob("doomed", str(tmp_path), fail_times=99)
        runner = ExperimentRunner(max_retries=1, retry_backoff_seconds=0.0)
        (outcome,) = runner.run([job])
        assert outcome.result.status is SolveStatus.ERROR
        assert "RuntimeError" in outcome.record["error"]
        assert outcome.record["attempts"] == 2
        assert executions(tmp_path, "doomed") == 2

    def test_no_retries_by_default(self, tmp_path):
        job = FlakyJob("once", str(tmp_path), fail_times=99)
        (outcome,) = ExperimentRunner().run([job])
        assert outcome.result.status is SolveStatus.ERROR
        assert executions(tmp_path, "once") == 1

    def test_backoff_is_exponential(self, tmp_path, monkeypatch):
        import repro.runtime.runner as runner_module

        sleeps = []
        monkeypatch.setattr(
            runner_module.time, "sleep", lambda s: sleeps.append(s)
        )
        job = FlakyJob("flaky", str(tmp_path), fail_times=3)
        runner = ExperimentRunner(max_retries=3, retry_backoff_seconds=0.5)
        runner.run([job])
        assert sleeps == [0.5, 1.0, 2.0]

    def test_negative_retry_settings_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(max_retries=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(retry_backoff_seconds=-0.1)


class TestResume:
    def test_resume_requires_telemetry(self):
        with pytest.raises(ValueError, match="resume"):
            ExperimentRunner(resume=True)

    def test_resume_skips_completed_jobs(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        grid = [
            FlakyJob("a", str(tmp_path)),
            FlakyJob("b", str(tmp_path)),
            FlakyJob("c", str(tmp_path)),
        ]
        # First run completes only a and b (simulated partial campaign).
        ExperimentRunner(telemetry=telemetry).run(grid[:2])
        assert executions(tmp_path, "a") == 1

        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert [o.job_id for o in outcomes] == ["a", "b", "c"]
        assert [o.resumed for o in outcomes] == [True, True, False]
        # a and b were NOT re-executed; c ran once.
        assert executions(tmp_path, "a") == 1
        assert executions(tmp_path, "b") == 1
        assert executions(tmp_path, "c") == 1
        # Resumed outcomes reconstruct status from their records.
        assert outcomes[0].result.status is SolveStatus.OPTIMAL
        # Telemetry gains only the new record, no duplicates.
        records = read_telemetry(telemetry)
        assert [r["job_id"] for r in records] == ["a", "b", "c"]

    def test_resume_with_missing_file_runs_everything(self, tmp_path):
        telemetry = tmp_path / "fresh.jsonl"
        grid = [FlakyJob("a", str(tmp_path))]
        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert outcomes[0].resumed is False
        assert executions(tmp_path, "a") == 1

    def test_unknown_status_string_maps_to_error(self, tmp_path):
        import json

        telemetry = tmp_path / "weird.jsonl"
        telemetry.write_text(
            json.dumps({"job_id": "a", "status": "from-the-future"}) + "\n"
        )
        grid = [FlakyJob("a", str(tmp_path))]
        (outcome,) = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert outcome.resumed is True
        assert outcome.result.status is SolveStatus.ERROR


class TestGracefulInterrupt:
    def test_sigint_flushes_partial_and_raises(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        grid = [
            FlakyJob("a", str(tmp_path)),
            FlakyJob("b", str(tmp_path), signal_self=True),
            FlakyJob("c", str(tmp_path)),
        ]
        with pytest.raises(RunInterrupted) as excinfo:
            ExperimentRunner(telemetry=telemetry).run(grid)
        # a and b finished (b's signal lands after its own work) and
        # were flushed; c never started.
        outcomes = excinfo.value.outcomes
        assert [o.job_id for o in outcomes] == ["a", "b"]
        assert executions(tmp_path, "c") == 0
        records = read_telemetry(telemetry)
        assert [r["job_id"] for r in records] == ["a", "b"]

    def test_interrupted_run_is_resumable(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        grid = [
            FlakyJob("a", str(tmp_path), signal_self=True),
            FlakyJob("b", str(tmp_path)),
        ]
        with pytest.raises(RunInterrupted):
            ExperimentRunner(telemetry=telemetry).run(grid)
        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert [o.resumed for o in outcomes] == [True, False]
        assert executions(tmp_path, "a") == 1
        assert executions(tmp_path, "b") == 1

    def test_processes_forked_mid_run_still_die_on_sigterm(self):
        """The graceful-stop handler acts only in the runner's own
        process: a broken pool terminates its surviving workers with
        SIGTERM, and a worker that swallowed it would never exit."""
        exitcodes = []
        ExperimentRunner().run([ForkingJob("fork", exitcodes)])
        assert exitcodes == [-signal.SIGTERM]

    def test_processes_forked_mid_run_ignore_sigint(self):
        """A terminal Ctrl-C reaches pool workers too; they leave the
        stop to the runner and keep running."""
        exitcodes = []
        ExperimentRunner().run(
            [ForkingJob("fork", exitcodes, interrupt_first=True)]
        )
        assert exitcodes == [None, -signal.SIGTERM]

    def test_run_interrupted_is_keyboard_interrupt(self):
        assert issubclass(RunInterrupted, KeyboardInterrupt)

    def test_handlers_restored_after_run(self, tmp_path):
        import signal as signal_module

        before = signal_module.getsignal(signal_module.SIGINT)
        ExperimentRunner().run([FlakyJob("a", str(tmp_path))])
        assert signal_module.getsignal(signal_module.SIGINT) is before

    def test_resume_compacts_torn_trailing_line(self, tmp_path):
        """A campaign killed mid-append leaves a truncated record;
        resuming must read the intact prefix, recover the torn job by
        re-running it, and keep the file parseable throughout."""
        import json

        telemetry = tmp_path / "run.jsonl"
        grid = [FlakyJob("a", str(tmp_path)), FlakyJob("b", str(tmp_path))]
        ExperimentRunner(telemetry=telemetry).run(grid)
        lines = telemetry.read_text().splitlines()
        telemetry.write_text(lines[0] + "\n" + lines[1][:25])  # torn tail

        outcomes = ExperimentRunner(telemetry=telemetry, resume=True).run(grid)
        assert [o.resumed for o in outcomes] == [True, False]
        assert executions(tmp_path, "a") == 1
        assert executions(tmp_path, "b") == 2  # torn record re-ran
        records = [
            json.loads(line) for line in telemetry.read_text().splitlines()
        ]
        assert [r["job_id"] for r in records] == ["a", "b"]
