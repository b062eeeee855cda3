"""Tests for the content-addressed, bounded FIFO job queue."""

import threading

import pytest

from repro.api import SolveOutcome, SolveRequest
from repro.core import AllocationResult, FormulationConfig
from repro.milp import SolveStatus
from repro.service import JobQueue, JobState, QueueFull, SolveService


def request_for(app, gap=0.0):
    """Distinct instances via distinct MIP gaps (part of the hash)."""
    return SolveRequest(app=app, config=FormulationConfig(mip_gap=gap))


def fake_outcome(instance, status=SolveStatus.OPTIMAL):
    result = AllocationResult(status=status)
    return SolveOutcome(instance=instance, result=result, record={})


class TestSubmit:
    def test_fresh_submission_is_pending(self, simple_app):
        queue = JobQueue()
        job, deduped = queue.submit(request_for(simple_app))
        assert not deduped
        assert job.state is JobState.PENDING
        assert job.waiters == 1
        assert queue.depth() == 1

    def test_identical_request_dedups_onto_one_entry(self, simple_app):
        queue = JobQueue()
        first, _ = queue.submit(request_for(simple_app))
        second, deduped = queue.submit(request_for(simple_app))
        assert deduped
        assert second is first
        assert first.waiters == 2
        assert queue.depth() == 1

    def test_distinct_configs_get_distinct_entries(self, simple_app):
        queue = JobQueue()
        a, _ = queue.submit(request_for(simple_app, gap=0.0))
        b, _ = queue.submit(request_for(simple_app, gap=0.01))
        assert a.instance != b.instance
        assert queue.depth() == 2

    def test_capacity_bounds_fresh_entries(self, simple_app):
        queue = JobQueue(capacity=2)
        queue.submit(request_for(simple_app, gap=0.0))
        queue.submit(request_for(simple_app, gap=0.01))
        with pytest.raises(QueueFull):
            queue.submit(request_for(simple_app, gap=0.02))

    def test_dedup_is_exempt_from_capacity(self, simple_app):
        queue = JobQueue(capacity=1)
        queue.submit(request_for(simple_app))
        _, deduped = queue.submit(request_for(simple_app))
        assert deduped  # joining an existing entry never counts

    def test_resubmit_after_done_returns_finished_entry(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        queue.finish(claimed, fake_outcome(job.instance))
        again, deduped = queue.submit(request_for(simple_app))
        assert deduped
        assert again.state is JobState.DONE
        assert again.outcome is not None

    def test_resubmit_after_failure_gets_a_fresh_entry(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        queue.fail(queue.claim(), "pool broke twice")
        again, deduped = queue.submit(request_for(simple_app))
        assert not deduped
        assert again is not job
        assert again.state is JobState.PENDING
        assert queue.claim(timeout=0.01) is again

    def test_resubmit_after_unproven_answer_gets_a_fresh_entry(
        self, simple_app
    ):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        queue.finish(
            queue.claim(), fake_outcome(job.instance, SolveStatus.FEASIBLE)
        )
        again, deduped = queue.submit(request_for(simple_app))
        assert not deduped
        assert again is not job
        assert again.state is JobState.PENDING
        assert queue.claim(timeout=0.01) is again


class TestClaim:
    def test_claim_marks_running_in_fifo_order(self, simple_app):
        queue = JobQueue()
        a, _ = queue.submit(request_for(simple_app, gap=0.0))
        b, _ = queue.submit(request_for(simple_app, gap=0.01))
        claimed = [queue.claim(), queue.claim()]
        assert [j.instance for j in claimed] == [a.instance, b.instance]
        assert all(j.state is JobState.RUNNING for j in claimed)

    def test_claim_times_out_empty(self):
        queue = JobQueue()
        assert queue.claim(timeout=0.01) is None

    def test_close_wakes_blocked_claimer(self):
        queue = JobQueue()
        got = []
        thread = threading.Thread(
            target=lambda: got.append(queue.claim(timeout=30))
        )
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got == [None]


class TestCompletion:
    def test_finish_wakes_waiters_with_shared_outcome(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        outcome = fake_outcome(job.instance)
        queue.finish(claimed, outcome)
        assert job.done.wait(timeout=1)
        assert job.state is JobState.DONE
        assert job.outcome is outcome
        assert job.latency_seconds >= 0.0

    def test_fail_records_error(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        queue.fail(claimed, "solver exploded")
        assert job.state is JobState.FAILED
        assert job.error == "solver exploded"
        assert job.done.is_set()

    def test_finished_entries_leave_the_bounded_population(self, simple_app):
        queue = JobQueue(capacity=1)
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        queue.finish(claimed, fake_outcome(job.instance))
        # DONE no longer occupies capacity: a fresh instance fits.
        queue.submit(request_for(simple_app, gap=0.01))


class TestCancel:
    def test_unknown_ticket(self):
        assert JobQueue().cancel("0" * 24) == "unknown"

    def test_last_pending_waiter_cancels_the_entry(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        assert queue.cancel(job.instance) == "cancelled"
        assert job.state is JobState.CANCELLED
        assert job.done.is_set()
        assert queue.claim(timeout=0.01) is None

    def test_shared_pending_entry_survives_one_cancel(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        queue.submit(request_for(simple_app))
        assert queue.cancel(job.instance) == "detached"
        assert job.state is JobState.PENDING
        assert job.waiters == 1

    def test_running_solve_is_never_killed(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        queue.claim()
        assert queue.cancel(job.instance) == "detached"
        assert job.state is JobState.RUNNING

    def test_cancel_after_done_reports_finished(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        queue.finish(claimed, fake_outcome(job.instance))
        assert queue.cancel(job.instance) == "finished"

    def test_cancelled_instance_can_be_resubmitted(self, simple_app):
        queue = JobQueue()
        job, _ = queue.submit(request_for(simple_app))
        queue.cancel(job.instance)
        fresh, deduped = queue.submit(request_for(simple_app))
        assert not deduped
        assert fresh is not job
        assert fresh.state is JobState.PENDING


class TestPersistence:
    def test_pending_jobs_survive_a_restart(self, simple_app, tmp_path):
        queue = JobQueue(state_dir=tmp_path)
        job, _ = queue.submit(request_for(simple_app))
        assert (tmp_path / f"{job.instance}.job.json").exists()

        revived_queue = JobQueue(state_dir=tmp_path)
        assert revived_queue.restore() == 1
        revived = revived_queue.get(job.instance)
        assert revived is not None
        assert revived.state is JobState.PENDING
        assert revived.request.instance == job.instance

    def test_running_jobs_revive_as_pending(self, simple_app, tmp_path):
        queue = JobQueue(state_dir=tmp_path)
        job, _ = queue.submit(request_for(simple_app))
        queue.claim()  # dies mid-solve

        revived_queue = JobQueue(state_dir=tmp_path)
        assert revived_queue.restore() == 1
        assert revived_queue.get(job.instance).state is JobState.PENDING

    def test_finished_jobs_leave_no_journal(self, simple_app, tmp_path):
        queue = JobQueue(state_dir=tmp_path)
        job, _ = queue.submit(request_for(simple_app))
        claimed = queue.claim()
        queue.finish(claimed, fake_outcome(job.instance))
        assert list(tmp_path.glob("*.job.json")) == []
        assert JobQueue(state_dir=tmp_path).restore() == 0

    def test_corrupt_journals_are_discarded(self, tmp_path):
        (tmp_path / ("a" * 24 + ".job.json")).write_text("{not json")
        queue = JobQueue(state_dir=tmp_path)
        assert queue.restore() == 0
        assert list(tmp_path.glob("*.job.json")) == []


class TestValidation:
    def test_shards_and_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SolveService(shards=0)
        with pytest.raises(ValueError):
            JobQueue(capacity=0)

    def test_submit_after_close_raises(self, simple_app):
        queue = JobQueue()
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(request_for(simple_app))
