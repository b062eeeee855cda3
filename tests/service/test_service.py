"""End-to-end tests of the in-process solve service.

The headline dedup contract (ISSUE 7, satellite 4): N concurrent
byte-identical submissions run exactly one underlying solve, every
waiter receives an equal result, and one waiter cancelling never
cancels the shared solve.
"""

import threading

import pytest

from repro.api import SolveRequest
from repro.core import FormulationConfig, Objective
from repro.runtime import read_telemetry
from repro.service import (
    InProcessClient,
    ServiceError,
    ServiceRejected,
    SolveService,
)
from repro.workloads import WorkloadSpec, generate_application

pytestmark = pytest.mark.runtime


def greedy_config():
    """Fast deterministic solves for service plumbing tests."""
    return FormulationConfig(time_limit_seconds=30)


def solve_records(telemetry_path, instance=None):
    records = [
        r
        for r in read_telemetry(telemetry_path)
        if r.get("event", "solve") == "solve"
    ]
    if instance is not None:
        records = [r for r in records if r.get("instance") == instance]
    return records


class TestDedup:
    def test_concurrent_identical_submissions_share_one_solve(
        self, simple_app, tmp_path
    ):
        """N byte-identical concurrent submissions -> exactly 1 solve."""
        telemetry = tmp_path / "runs"
        waiters = 6
        with SolveService(
            shards=2, telemetry=str(telemetry), cache_dir=str(tmp_path / "c")
        ) as service:
            client = InProcessClient(service)
            barrier = threading.Barrier(waiters)
            outcomes = [None] * waiters
            errors = []

            def one_waiter(slot):
                try:
                    barrier.wait(timeout=10)
                    ticket = client.submit(
                        simple_app, greedy_config(), backend="greedy"
                    )
                    outcomes[slot] = client.result(ticket, timeout=60)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=one_waiter, args=(slot,))
                for slot in range(waiters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            assert errors == []
            assert all(outcome is not None for outcome in outcomes)

            # Every waiter saw the same ticket and an equal result.
            instances = {outcome.instance for outcome in outcomes}
            assert len(instances) == 1
            objectives = {
                outcome.result.objective_value for outcome in outcomes
            }
            assert len(objectives) == 1
            statuses = {outcome.status for outcome in outcomes}
            assert len(statuses) == 1

            snapshot = service.metrics_snapshot()
            assert snapshot["submitted"] == waiters
            # At least the stragglers behind the first submission deduped;
            # exactly how many depends on thread interleaving, but the
            # solve count below is the hard guarantee.
            assert snapshot["dedup_hits"] >= 1
            assert snapshot["completed"] + snapshot["failed"] >= 1

        records = solve_records(telemetry, instance=instances.pop())
        assert len(records) == 1  # the underlying solve ran exactly once

    def test_sequential_resubmission_is_served_from_done_entry(
        self, simple_app, tmp_path
    ):
        telemetry = tmp_path / "runs"
        with SolveService(shards=1, telemetry=str(telemetry)) as service:
            client = InProcessClient(service)
            first = client.solve(
                simple_app, greedy_config(), backend="highs", timeout=60
            )
            again = client.solve(
                simple_app, greedy_config(), backend="highs", timeout=60
            )
            assert first.status == "optimal"
            assert again.instance == first.instance
            assert again.result.objective_value == first.result.objective_value
            assert service.metrics_snapshot()["dedup_hits"] == 1
        assert len(solve_records(telemetry, instance=first.instance)) == 1

    def test_answer_from_done_entry_reads_deduped(self, simple_app):
        with SolveService(shards=1) as service:
            client = InProcessClient(service)
            first = client.solve(
                simple_app, greedy_config(), backend="highs", timeout=60
            )
            again = client.solve(
                simple_app, greedy_config(), backend="highs", timeout=60
            )
            assert first.status == "optimal"
            assert again.deduped is True
            assert service.metrics_snapshot()["dedup_hits"] == 1

    def test_unproven_answer_is_solved_again(self, simple_app, tmp_path):
        telemetry = tmp_path / "runs"
        with SolveService(shards=1, telemetry=str(telemetry)) as service:
            client = InProcessClient(service)
            first = client.solve(
                simple_app, greedy_config(), backend="greedy", timeout=60
            )
            again = client.solve(
                simple_app, greedy_config(), backend="greedy", timeout=60
            )
            assert first.status == again.status == "feasible"
            assert not again.deduped
            assert service.metrics_snapshot()["dedup_hits"] == 0
        assert len(solve_records(telemetry, instance=first.instance)) == 2

    def test_failed_entry_is_solved_again(self, simple_app, monkeypatch):
        with SolveService(shards=1) as service:
            execute = service._execute
            calls = []

            def fail_once(job):
                calls.append(job.job_id)
                if len(calls) == 1:
                    raise RuntimeError("pool broke twice")
                return execute(job)

            monkeypatch.setattr(service, "_execute", fail_once)
            client = InProcessClient(service)
            with pytest.raises(ServiceError, match="pool broke twice"):
                client.solve(
                    simple_app, greedy_config(), backend="highs", timeout=60
                )
            again = client.solve(
                simple_app, greedy_config(), backend="highs", timeout=60
            )
            assert again.status == "optimal"
            assert len(calls) == 2


class TestRequestIndependence:
    def test_answer_does_not_depend_on_the_requests_before_it(self):
        """Requests whose exact rungs time out leave no trace on the
        rungs a later request tries."""
        hard = [
            SolveRequest(
                app=generate_application(
                    WorkloadSpec(
                        num_tasks=4,
                        num_cores=2,
                        total_utilization=0.5,
                        communication_density=0.6,
                        periods_ms=(5, 10, 20),
                        seed=seed,
                    )
                ),
                config=FormulationConfig(time_limit_seconds=1e-4),
            )
            for seed in (7, 8, 9)
        ]
        easy = SolveRequest(
            app=generate_application(
                WorkloadSpec(
                    num_tasks=3, num_cores=2, communication_density=0.8, seed=5
                )
            ),
            config=FormulationConfig(objective=Objective.MIN_TRANSFERS),
        )
        with SolveService(shards=1) as service:
            for request in hard:
                outcome = service.result(
                    service.submit_request(request), timeout=120
                )
                assert outcome.backend == "greedy"
            outcome = service.result(service.submit_request(easy), timeout=120)
        chain = [(a.backend, a.status) for a in outcome.result.fallback_chain]
        assert chain == [("highs", "optimal")]


class TestFifoDispatch:
    def test_fast_request_overtakes_a_slow_one(self, simple_app):
        """Two dispatchers share one FIFO: a fast request submitted
        behind a slow one finishes first, even when both hash to the
        same residue mod 2 (one lane under hash sharding)."""
        slow_app = generate_application(
            WorkloadSpec(
                num_tasks=4,
                num_cores=2,
                total_utilization=0.5,
                communication_density=0.6,
                periods_ms=(5, 10, 20),
                seed=7,
            )
        )
        slow = SolveRequest(
            app=slow_app,
            config=FormulationConfig(
                objective=Objective.MIN_DELAY_RATIO, time_limit_seconds=2.0
            ),
            backend="bnb",
        )
        residue = int(slow.instance, 16) % 2
        fast = next(
            request
            for request in (
                SolveRequest(
                    app=simple_app,
                    config=FormulationConfig(mip_gap=0.01 * step),
                    backend="greedy",
                )
                for step in range(64)
            )
            if int(request.instance, 16) % 2 == residue
        )
        with SolveService(shards=2) as service:
            slow_ticket = service.submit_request(slow)
            fast_ticket = service.submit_request(fast)
            service.result(fast_ticket, timeout=60)
            assert service.status(slow_ticket)["state"] == "running"
            service.result(slow_ticket, timeout=60)


class TestCancellation:
    def test_cancelling_one_waiter_keeps_the_shared_solve(self, simple_app):
        # Not started: submissions stay PENDING, so the interleaving
        # is deterministic — two waiters join, one cancels, then the
        # dispatchers spin up and the survivor still gets the result.
        service = SolveService(shards=1)
        client = InProcessClient(service)
        ticket = client.submit(simple_app, greedy_config(), backend="greedy")
        same = client.submit(simple_app, greedy_config(), backend="greedy")
        assert same == ticket
        assert client.cancel(ticket) == "detached"
        assert service.status(ticket)["state"] == "pending"
        try:
            service.start()
            outcome = client.result(ticket, timeout=60)
            assert outcome.instance == ticket
        finally:
            service.close()

    def test_last_waiter_cancel_removes_pending_job(self, simple_app):
        service = SolveService(shards=1)  # never started: stays pending
        client = InProcessClient(service)
        ticket = client.submit(simple_app, greedy_config(), backend="greedy")
        assert client.cancel(ticket) == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            client.result(ticket, timeout=1)
        assert service.metrics_snapshot()["cancelled"] == 1

    def test_cancel_unknown_ticket(self, simple_app):
        service = SolveService(shards=1)
        assert InProcessClient(service).cancel("f" * 24) == "unknown"


class TestBackpressure:
    def test_full_queue_rejects_honestly(self, simple_app, multirate_app):
        service = SolveService(shards=1, queue_capacity=1)  # never started
        client = InProcessClient(service)
        client.submit(simple_app, greedy_config(), backend="greedy")
        with pytest.raises(ServiceRejected, match="capacity"):
            client.submit(multirate_app, greedy_config(), backend="greedy")
        snapshot = service.metrics_snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["queue_depth"] == 1


class TestLifecycle:
    def test_result_timeout_and_unknown_ticket(self, simple_app):
        service = SolveService(shards=1)  # never started: nothing finishes
        client = InProcessClient(service)
        ticket = client.submit(simple_app, greedy_config(), backend="greedy")
        with pytest.raises(TimeoutError):
            client.result(ticket, timeout=0.05)
        with pytest.raises(ServiceError, match="unknown"):
            client.result("e" * 24, timeout=0.05)

    def test_status_reflects_lifecycle(self, simple_app):
        with SolveService(shards=1) as service:
            client = InProcessClient(service)
            ticket = client.submit(
                simple_app, greedy_config(), backend="greedy"
            )
            client.result(ticket, timeout=60)
            assert client.status(ticket)["state"] == "done"
        assert client.status("d" * 24)["state"] == "unknown"

    def test_telemetry_records_carry_service_provenance(
        self, simple_app, tmp_path
    ):
        telemetry = tmp_path / "runs"
        with SolveService(shards=2, telemetry=str(telemetry)) as service:
            ticket = service.submit(
                simple_app, greedy_config(), backend="greedy"
            )
            service.result(ticket, timeout=60)
        (record,) = solve_records(telemetry, instance=ticket)
        assert record["service"]["shard"] in (0, 1)
        assert record["service"]["waiters"] == 1
        assert record["service"]["queue_seconds"] >= 0.0

    def test_journaled_work_is_restored_on_restart(self, simple_app, tmp_path):
        state_dir = tmp_path / "state"
        first = SolveService(shards=1, state_dir=str(state_dir))
        ticket = first.submit(simple_app, greedy_config(), backend="greedy")
        # Never started; "dies" with one pending job journaled.
        assert (state_dir / f"{ticket}.job.json").exists()

        with SolveService(shards=1, state_dir=str(state_dir)) as revived:
            assert revived.restored_jobs == 1
            outcome = revived.result(ticket, timeout=60)
            assert outcome.instance == ticket

    def test_cache_dir_makes_resubmission_a_cache_hit(
        self, simple_app, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        with SolveService(shards=1, cache_dir=cache_dir) as service:
            ticket = service.submit(simple_app, greedy_config())
            first = service.result(ticket, timeout=120)
            assert not first.cached
        # A *new* service life (empty queue) hits the persistent cache.
        with SolveService(shards=1, cache_dir=cache_dir) as fresh:
            again_ticket = fresh.submit(simple_app, greedy_config())
            assert again_ticket == ticket
            again = fresh.result(again_ticket, timeout=120)
            assert again.cached
            assert again.result.objective_value == first.result.objective_value
