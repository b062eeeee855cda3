"""Experiment runtime: run a grid of jobs through the solve service.

Every grid-shaped workload in the repository — Table I rows, Fig. 2
panels, alpha sweeps, fuzz campaigns, chaos campaigns — is "run N
independent jobs".  :class:`ExperimentRunner` executes such a grid.
Solve jobs go to a :class:`~repro.service.SolveService`: the
``--service`` client when one is given, else an in-process service
opened for the run with ``jobs`` dispatchers (and, for ``jobs > 1``, a
process pool of that size).  The grid gets:

* **per-job wall-clock deadlines** — ``deadline_seconds`` caps each
  portfolio rung's budget, so one pathological instance cannot stall a
  sweep (time spent waiting in the queue does not count);
* **graceful degradation** — solve jobs default to the solver
  portfolio, so a timed-out MILP still yields a feasible greedy
  allocation, with the fallback chain recorded;
* **fault tolerance** — a crashing job is retried with exponential
  backoff (``max_retries``/``retry_backoff_seconds``) and becomes an
  ``ERROR`` outcome only once the retries are exhausted, and a killed
  pool worker is replaced and its job replayed, instead of killing the
  sweep;
* **telemetry** — the runner writes one JSONL record per job *as it is
  harvested*, in submission order, so a killed campaign keeps
  everything finished;
* **checkpoint/resume** — ``resume=True`` skips jobs whose records
  already exist in the telemetry file (the ``--resume`` CLI mode);
* **graceful interruption** — SIGINT/SIGTERM stop the grid at the next
  job boundary, flush telemetry, and raise :class:`RunInterrupted`
  (a ``KeyboardInterrupt``) carrying the partial outcomes;
* **caching** — a shared ``cache_dir`` lets re-runs skip solved
  instances.

The grid accepts two kinds of jobs: :class:`SolveJob` (one MILP solve,
executed by :func:`repro.api.execute` on a service dispatcher) and any
duck-typed *campaign job* exposing ``job_id``, ``tags``, and
``execute(cache_dir, deadline_seconds) -> (result, record)`` — that is
how ``letdma chaos`` reuses this machinery for robustness grids.
Campaign jobs run in-process, one after another.

A campaign job may additionally be *batched*: exposing ``member_ids``
(the grid-point ids it covers) and ``narrow(ids)`` (a copy restricted
to a subset of members), with ``execute`` returning a *list* of
records, one per member.  The runner then emits one telemetry line and
one :class:`JobOutcome` per member — summaries and ``--resume`` stay
grid-point-granular even when many points execute as one vectorized
batch (a partially checkpointed batch is narrowed to its missing
members instead of re-running whole).

Results are returned in submission order regardless of completion
order, so ``--jobs 4`` and ``--jobs 1`` produce identical outputs for
deterministic backends.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.core.solution import AllocationResult
from repro.milp.result import SolveStatus
from repro.runtime.jobs import (
    JobOutcome,
    SolveJob,
    error_outcome,
    execute_with_retries,
)
from repro.runtime.telemetry import TelemetryWriter, read_telemetry
from repro.service.client import InProcessClient, ServiceRejected
from repro.service.server import SolveService

__all__ = ["SolveJob", "JobOutcome", "ExperimentRunner", "RunInterrupted"]

#: How long one wait for a service result blocks before the runner
#: re-checks for SIGINT/SIGTERM.
_POLL_SECONDS = 0.2


class RunInterrupted(KeyboardInterrupt):
    """A grid was stopped by SIGINT/SIGTERM at a job boundary.

    Raised *after* the telemetry of every finished job has been
    flushed; ``outcomes`` holds the partial results (resumed and
    completed jobs, in submission order).
    """

    def __init__(self, outcomes: "list[JobOutcome]"):
        super().__init__("experiment grid interrupted")
        self.outcomes = outcomes


class ExperimentRunner:
    """Run a grid of jobs, optionally in parallel.

    Args:
        jobs: Dispatchers of the in-process solve service opened for
            the run; ``jobs > 1`` also gives it a process pool of that
            size.  ``1`` (default) solves in-process, one job at a
            time, which is also the fully deterministic reference mode.
        telemetry: Optional sink (writer, ``.jsonl`` path, or run
            directory); the runner writes one record per job, in
            submission order, flushed as each job is harvested.
        cache_dir: Optional persistent cache shared by all jobs.
        deadline_seconds: Optional per-job wall-clock deadline; caps
            each portfolio rung's time budget.
        max_retries: How many times a *crashing* job is re-executed
            before it becomes an ``ERROR`` outcome.
        retry_backoff_seconds: Base of the exponential backoff between
            retries (attempt ``n`` sleeps ``base * 2**n`` seconds).
        resume: Skip jobs whose ``job_id`` already has a record in the
            telemetry sink (requires ``telemetry``); their outcomes are
            reconstructed from the existing records and flagged
            ``resumed=True``, and their records are not rewritten.
        client: Optional :class:`~repro.service.ServiceClient` (or any
            object with ``submit_request``/``result``); solve jobs are
            then submitted to that shared solve service instead of one
            opened for the run, so concurrent campaigns deduplicate
            identical instances against each other.
    """

    def __init__(
        self,
        jobs: int = 1,
        telemetry: "TelemetryWriter | str | None" = None,
        cache_dir: "str | None" = None,
        deadline_seconds: float | None = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.5,
        resume: bool = False,
        client=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff_seconds < 0:
            raise ValueError("retry backoff must be non-negative")
        if resume and telemetry is None:
            raise ValueError("resume=True needs a telemetry sink to read from")
        self.jobs = int(jobs)
        self.telemetry = TelemetryWriter.coerce(telemetry)
        self.cache_dir = cache_dir
        self.deadline_seconds = deadline_seconds
        self.max_retries = int(max_retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        self.resume = resume
        self.client = client
        self._interrupted = False

    # ------------------------------------------------------------------

    def run(self, grid) -> list[JobOutcome]:
        """Execute every job; outcomes come back in submission order.

        Raises :class:`RunInterrupted` (a ``KeyboardInterrupt``) when a
        SIGINT/SIGTERM arrives mid-grid, after flushing the telemetry
        of every job that finished.
        """
        grid = list(grid)
        seen: set[str] = set()
        order: list[str] = []
        for job in grid:
            for job_id in _ids_of(job):
                if job_id in seen:
                    raise ValueError(f"duplicate job_id {job_id!r} in grid")
                seen.add(job_id)
                order.append(job_id)

        completed = self._load_checkpoint(grid)

        outcomes: dict[str, JobOutcome] = {}
        pending = []
        for job in grid:
            ids = _ids_of(job)
            for job_id in ids:
                if job_id in completed:
                    outcomes[job_id] = _resumed_outcome(
                        job_id, completed[job_id], job.tags
                    )
            remaining = [job_id for job_id in ids if job_id not in completed]
            if not remaining:
                continue
            if len(remaining) < len(ids):
                # Batched job with some members checkpointed: re-run
                # only the missing ones.
                job = job.narrow(remaining)
            pending.append(job)

        self._interrupted = False
        with self._signal_guard():
            campaigns = [job for job in pending if hasattr(job, "execute")]
            solves = [job for job in pending if not hasattr(job, "execute")]
            self._run_campaigns(campaigns, outcomes)
            if solves and not self._interrupted:
                self._run_solves(solves, outcomes)

        ordered = [
            outcomes[job_id] for job_id in order if job_id in outcomes
        ]
        if self._interrupted:
            raise RunInterrupted(ordered)
        return ordered

    # ------------------------------------------------------------------

    def _run_campaigns(self, pending, outcomes) -> None:
        for job in pending:
            if self._interrupted:
                break
            outcome = execute_with_retries(
                job,
                self.cache_dir,
                self.deadline_seconds,
                self.max_retries,
                self.retry_backoff_seconds,
            )
            self._harvest(outcome, outcomes)

    def _run_solves(self, jobs, outcomes) -> None:
        """Solve jobs through the given client, or through a solve
        service opened for this run."""
        if self.client is not None:
            self._run_via_client(self.client, jobs, outcomes)
            return
        service = SolveService(
            shards=self.jobs,
            use_processes=self.jobs > 1,
            cache_dir=self.cache_dir,
            deadline_seconds=self.deadline_seconds,
            max_retries=self.max_retries,
            retry_backoff_seconds=self.retry_backoff_seconds,
        )
        with service:
            self._run_via_client(InProcessClient(service), jobs, outcomes)

    def _run_via_client(self, client, jobs, outcomes) -> None:
        """Submit solve jobs to a solve service, then harvest in order.

        Submissions use a sliding window: when the service applies
        backpressure (bounded queue full), the oldest in-flight result
        is harvested first — draining the queue is the correct response
        to honest rejection, not erroring out.
        """
        inflight: list = []
        for job in jobs:
            if self._interrupted:
                break
            while not self._interrupted:
                try:
                    ticket = client.submit_request(job.to_request())
                except ServiceRejected:
                    if inflight:
                        self._harvest_ticket(client, *inflight.pop(0), outcomes)
                    else:
                        time.sleep(0.05)
                    continue
                except Exception as exc:
                    self._harvest_error(job, exc, outcomes)
                    break
                inflight.append((job, ticket))
                break
        for job, ticket in inflight:
            if self._interrupted:
                break
            self._harvest_ticket(client, job, ticket, outcomes)

    def _harvest_ticket(self, client, job, ticket, outcomes) -> None:
        """Wait for one service result and record it under the job's
        own id/tags (the service's record carries the first submitter's
        labels; each grid point keeps its own telemetry line).

        The wait polls in short slices so a SIGINT/SIGTERM is honored
        promptly; it is not bounded by ``deadline_seconds``, which caps
        the solve, not the time spent queued behind other jobs.
        """
        outcome = None
        while outcome is None:
            if self._interrupted:
                return
            try:
                outcome = client.result(ticket, timeout=_POLL_SECONDS)
            except TimeoutError:
                continue
            except Exception as exc:
                self._harvest_error(job, exc, outcomes)
                return
        record = dict(outcome.record)
        record["job_id"] = job.job_id
        record["tags"] = dict(job.tags)
        record["deduped"] = outcome.deduped
        self._harvest(
            JobOutcome(
                job_id=job.job_id,
                result=outcome.result,
                wall_seconds=float(record.get("wall_seconds", 0.0)),
                record=record,
                tags=dict(job.tags),
            ),
            outcomes,
        )

    def _harvest_error(self, job, exc: Exception, outcomes: dict) -> None:
        """Record a failed submission or result as an ``ERROR`` outcome.

        A failure that arrives once a stop was requested is dropped: it
        may be the Ctrl-C itself, and an unrecorded point is one that
        ``--resume`` solves again.
        """
        if not self._interrupted:
            self._harvest(error_outcome(job, 0.0, exc), outcomes)

    def _harvest(self, outcome, outcomes: dict) -> None:
        """Record one harvested result — a single outcome, or the list
        a batched job produced (one member at a time)."""
        for one in outcome if isinstance(outcome, list) else (outcome,):
            outcomes[one.job_id] = one
            if self.telemetry is not None:
                self.telemetry.write(one.record)

    # ------------------------------------------------------------------

    def _load_checkpoint(self, grid) -> dict[str, dict]:
        """Records of already-finished jobs, keyed by job_id."""
        if not self.resume or self.telemetry is None:
            return {}
        try:
            records = read_telemetry(self.telemetry.path)
        except FileNotFoundError:
            return {}
        # Compact the file to the records that parsed: a killed writer
        # can leave a torn trailing line, and appending after it would
        # corrupt the next record too.
        self.telemetry.rewrite(records)
        wanted = {job_id for job in grid for job_id in _ids_of(job)}
        return {
            record["job_id"]: record
            for record in records
            if record.get("job_id") in wanted
        }

    def _signal_guard(self):
        """Install SIGINT/SIGTERM handlers that request a graceful stop
        at the next job boundary (main thread only; a no-op context
        elsewhere, where ``signal.signal`` is unavailable).

        Solve pool workers fork mid-run and inherit the handlers.  They
        ignore SIGINT: a terminal Ctrl-C reaches the whole process
        group, and only the runner decides where the grid stops.  A
        SIGTERM gets the handling it had before the run, so a broken
        pool can still terminate its workers.
        """
        runner = self
        owner = os.getpid()

        class _Guard:
            def __enter__(self):
                self.previous = {}
                if threading.current_thread() is not threading.main_thread():
                    return self

                def request_stop(signum, frame):
                    if os.getpid() == owner:
                        runner._interrupted = True
                    elif signum == signal.SIGTERM:
                        signal.signal(signum, self.previous[signum] or signal.SIG_DFL)
                        os.kill(os.getpid(), signum)

                for signum in (signal.SIGINT, signal.SIGTERM):
                    self.previous[signum] = signal.signal(signum, request_stop)
                return self

            def __exit__(self, *exc_info):
                for signum, handler in self.previous.items():
                    signal.signal(signum, handler)
                return False

        return _Guard()


def _ids_of(job) -> list[str]:
    """The grid-point ids one job accounts for: its members when it is
    a batched campaign job, else its own job_id."""
    members = getattr(job, "member_ids", None)
    return list(members) if members else [job.job_id]


def _resumed_outcome(job_id: str, record: dict, fallback_tags: dict) -> JobOutcome:
    """A checkpointed grid point: rebuild a status-only outcome from
    its telemetry record without re-executing anything."""
    try:
        status = SolveStatus(record.get("status", "error"))
    except ValueError:
        status = SolveStatus.ERROR
    return JobOutcome(
        job_id=job_id,
        result=AllocationResult(status=status),
        wall_seconds=float(record.get("wall_seconds", 0.0)),
        record=record,
        tags=dict(record.get("tags") or fallback_tags),
        resumed=True,
    )

