"""The content-addressed job queue of the solve service.

Jobs are keyed by :attr:`repro.api.SolveRequest.instance` — the same
content hash the persistent cache uses — so *identity is structural*:
two clients submitting byte-identical instances share one queue entry,
one solve, and one result (request deduplication).  Each entry moves
through the lifecycle::

    PENDING ──claim──▶ RUNNING ──finish──▶ DONE
       │                  │
       │ (all waiters      └──fail──▶ FAILED
       │  cancel)
       └──────────▶ CANCELLED

A submission joins a PENDING or RUNNING entry, or a DONE entry whose
answer is proven (:data:`repro.io.cache.CACHEABLE_STATUSES`, the rule
the persistent cache applies).  A FAILED, CANCELLED or unproven DONE
entry is replaced by a fresh PENDING one, so an answer never depends
on what an earlier submission of the same instance met.

The queue is **bounded**: ``capacity`` caps pending + running entries
and :meth:`JobQueue.submit` raises :class:`QueueFull` beyond it —
honest backpressure instead of unbounded memory growth.  It is **one
FIFO**: every dispatcher claims the oldest pending entry, one at a
time, so no dispatcher idles while work waits and each job's queue
wait is measured up to its own claim.  And it is **persistent** when
given a ``state_dir``: not-yet-finished entries are journaled as one
JSON file per instance (the full wire-format request), so a restarted
service re-queues work that was pending when it died; finished results
persist through the ordinary solve cache, which the instance hash
addresses directly.

Cancellation is waiter-scoped: :meth:`JobQueue.cancel` detaches one
waiter, and only a pending entry whose *last* waiter detaches is
actually cancelled — a running solve shared with other waiters is
never killed (see ``docs/service.md``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.api import SolveOutcome, SolveRequest, request_from_dict, request_to_dict
from repro.defaults import DEFAULT_RETRY_AFTER_SECONDS
from repro.io.cache import CACHEABLE_STATUSES
from repro.runtime.telemetry import record_crc, verify_record

__all__ = ["JobState", "Job", "JobQueue", "QueueFull"]


class QueueFull(RuntimeError):
    """Submission rejected: the bounded queue is at capacity.

    Attributes:
        capacity: The queue's pending+running bound.
        depth: Pending+running population at rejection time (normally
            equals ``capacity``; kept separate so the error payload
            stays honest if the bound ever becomes soft).
        retry_after_seconds: Backoff hint surfaced to clients.
    """

    def __init__(self, capacity: int, depth: "int | None" = None):
        depth = capacity if depth is None else depth
        super().__init__(
            f"solve queue at capacity ({depth}/{capacity} pending+running "
            "jobs); retry after draining results"
        )
        self.capacity = capacity
        self.depth = depth
        self.retry_after_seconds = DEFAULT_RETRY_AFTER_SECONDS


class JobState(str, Enum):
    """Lifecycle of one content-addressed queue entry."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """One queue entry (all concurrent submitters of an instance share it).

    Attributes:
        request: The first submitter's request (identical by
            construction to every other submitter's, minus labels).
        instance: Content hash (the queue key and service ticket).
        state: Current :class:`JobState`.
        waiters: Submissions sharing the entry, the first included;
            cancellation decrements it.
        outcome: The shared :class:`~repro.api.SolveOutcome` once DONE.
        error: The failure description once FAILED.
        submitted_s / started_s / finished_s: Monotonic timestamps for
            queue-delay and latency metrics.
    """

    request: SolveRequest
    instance: str
    state: JobState = JobState.PENDING
    waiters: int = 1
    outcome: "SolveOutcome | None" = None
    error: "str | None" = None
    submitted_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting before a worker claimed the job."""
        if self.started_s:
            return self.started_s - self.submitted_s
        return time.monotonic() - self.submitted_s

    @property
    def latency_seconds(self) -> float:
        """Submit-to-finish wall time (0.0 while unfinished)."""
        if self.finished_s:
            return self.finished_s - self.submitted_s
        return 0.0

    @property
    def joinable(self) -> bool:
        """Whether a new submission may share this entry: it is still
        pending or running, or it is DONE with a proven answer."""
        if self.state in (JobState.PENDING, JobState.RUNNING):
            return True
        return (
            self.state is JobState.DONE
            and self.outcome.result.status in CACHEABLE_STATUSES
        )


class JobQueue:
    """Bounded, content-addressed FIFO job store (thread-safe)."""

    def __init__(
        self,
        capacity: int = 256,
        state_dir: "str | Path | None" = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._pending: deque[str] = deque()
        self._closed = False

    # -- intake ---------------------------------------------------------

    def submit(self, request: SolveRequest) -> tuple[Job, bool]:
        """Enqueue (or join) the job for ``request``.

        Returns ``(job, deduped)`` where ``deduped`` is True when the
        caller joined a :attr:`~Job.joinable` entry for the same
        instance hash as one more waiter — on the shared solve, or on
        its proven answer.  Any other existing entry is replaced by a
        fresh one.  Raises :class:`QueueFull` when a *new* entry would
        exceed capacity.
        """
        instance = request.instance
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            job = self._jobs.get(instance)
            if job is not None and job.joinable:
                job.waiters += 1
                return job, True
            if self._active_count() >= self.capacity:
                raise QueueFull(self.capacity, self._active_count())
            job = Job(
                request=request,
                instance=instance,
                submitted_s=time.monotonic(),
            )
            self._jobs[instance] = job
            self._pending.append(instance)
            self._persist(job)
            self._not_empty.notify()
            return job, False

    # -- dispatch -------------------------------------------------------

    def claim(self, timeout: "float | None" = None) -> "Job | None":
        """Claim the oldest pending job and mark it RUNNING.

        Blocks until a job is available; returns None when ``timeout``
        passes or the queue closes first.
        """
        with self._not_empty:
            self._not_empty.wait_for(
                lambda: self._pending or self._closed, timeout
            )
            if not self._pending:
                return None
            job = self._jobs[self._pending.popleft()]
            job.state = JobState.RUNNING
            job.started_s = time.monotonic()
            self._persist(job)
            return job

    # -- completion -----------------------------------------------------

    def finish(self, job: Job, outcome: SolveOutcome) -> None:
        """Mark a claimed job DONE and wake every waiter."""
        with self._lock:
            job.outcome = outcome
            job.state = JobState.DONE
            job.finished_s = time.monotonic()
            self._unpersist(job)
        job.done.set()

    def fail(self, job: Job, error: str) -> None:
        """Mark a claimed job FAILED and wake every waiter."""
        with self._lock:
            job.error = error
            job.state = JobState.FAILED
            job.finished_s = time.monotonic()
            self._unpersist(job)
        job.done.set()

    def cancel(self, instance: str) -> str:
        """Detach one waiter from an entry.

        Returns what happened: ``"unknown"`` (no such entry),
        ``"detached"`` (other waiters remain, or the solve is already
        running and keeps running), ``"cancelled"`` (last waiter left a
        pending entry, which was removed from the queue), or
        ``"finished"`` (the entry had already completed).
        """
        with self._lock:
            job = self._jobs.get(instance)
            if job is None:
                return "unknown"
            if job.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
                return "finished"
            job.waiters = max(0, job.waiters - 1)
            if job.waiters > 0 or job.state is JobState.RUNNING:
                # A shared or already-running solve is never killed:
                # its result is useful work (it lands in the cache).
                return "detached"
            job.state = JobState.CANCELLED
            try:
                self._pending.remove(instance)
            except ValueError:  # pragma: no cover - claimed concurrently
                pass
            self._unpersist(job)
            job.done.set()
            return "cancelled"

    # -- introspection --------------------------------------------------

    def get(self, instance: str) -> "Job | None":
        """The entry for one instance hash, if any."""
        with self._lock:
            return self._jobs.get(instance)

    def depth(self) -> int:
        """Pending + running entries (the bounded population)."""
        with self._lock:
            return self._active_count()

    def counts(self) -> dict[str, int]:
        """Entry count per lifecycle state."""
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state.value] = counts.get(job.state.value, 0) + 1
            return counts

    def _active_count(self) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state in (JobState.PENDING, JobState.RUNNING)
        )

    # -- persistence ----------------------------------------------------

    def _state_path(self, instance: str) -> "Path | None":
        if self.state_dir is None:
            return None
        return self.state_dir / f"{instance}.job.json"

    def _persist(self, job: Job) -> None:
        path = self._state_path(job.instance)
        if path is None:
            return
        payload = {
            "instance": job.instance,
            "state": job.state.value,
            "request": request_to_dict(job.request),
        }
        payload["crc32"] = record_crc(payload)
        staging = path.with_name(path.name + ".tmp")
        staging.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        staging.replace(path)

    def _unpersist(self, job: Job) -> None:
        path = self._state_path(job.instance)
        if path is not None:
            path.unlink(missing_ok=True)

    def restore(self) -> int:
        """Re-queue journaled jobs from a previous service life.

        PENDING and RUNNING entries are revived as PENDING (a job that
        was mid-solve when the service died restarts from scratch —
        solves are deterministic and cache-addressed, so this is safe).
        Returns the number of revived jobs.  Journal files that fail to
        parse, fail their CRC, or do not round-trip into a request are
        *quarantined* (moved into ``<state_dir>/quarantine/``, never
        silently deleted) — the same treatment ``letdma fsck`` applies,
        so an operator can inspect exactly what was lost.
        """
        if self.state_dir is None:
            return 0
        revived = 0
        for path in sorted(self.state_dir.glob("*.job.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not verify_record(payload):
                    raise ValueError("crc32 checksum mismatch")
                request = request_from_dict(payload["request"])
            except (ValueError, KeyError, TypeError):
                quarantine_dir = self.state_dir / "quarantine"
                quarantine_dir.mkdir(exist_ok=True)
                path.replace(quarantine_dir / path.name)
                continue
            path.unlink(missing_ok=True)
            try:
                _, deduped = self.submit(request)
            except QueueFull:  # pragma: no cover - capacity shrank
                continue
            if not deduped:
                revived += 1
        return revived

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        """Wake all blocked claimers; further submissions raise."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
