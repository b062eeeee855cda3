"""Grid jobs and the one worker body that executes them.

:class:`SolveJob` is one solve of an experiment grid; :class:`JobOutcome`
is what executing any grid job yields.  :func:`execute_with_retries` is
the hardened worker body shared by both runtimes: the
:class:`~repro.runtime.ExperimentRunner` runs campaign jobs through it
in-process, and the :class:`~repro.service.SolveService` dispatchers run
every solve through it (in a thread or a pool process).  It lives here,
below both, so the runner can drive the service without an import
cycle.

A *campaign job* is any duck-typed object exposing ``job_id``, ``tags``,
and ``execute(cache_dir, deadline_seconds) -> (result, record)``; a
*batched* campaign job additionally exposes ``members`` and returns one
record per member (see :mod:`repro.runtime.runner`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api import SolveRequest, execute as execute_request
from repro.core.formulation import FormulationConfig
from repro.core.solution import AllocationResult
from repro.defaults import DEFAULT_SOLVE_BACKEND
from repro.milp.result import SolveStatus
from repro.model.application import Application
from repro.runtime.telemetry import build_solve_record

__all__ = ["SolveJob", "JobOutcome", "execute_with_retries", "error_outcome"]


@dataclass
class SolveJob:
    """One solve of an experiment grid.

    Attributes:
        job_id: Unique identifier within the grid (appears in
            telemetry).
        app: The (already gamma-configured) application to solve.
        config: Formulation tunables for this instance.
        backend: Facade backend; defaults to the solver portfolio.
        tags: Grid coordinates (objective, alpha, seed, ...) carried
            into the telemetry record.
        prior: Optional :class:`repro.incremental.Prior` warm start
            forwarded to the request (speed only, never the answer).
    """

    job_id: str
    app: Application
    config: FormulationConfig = field(default_factory=FormulationConfig)
    backend: str = DEFAULT_SOLVE_BACKEND
    tags: dict = field(default_factory=dict)
    prior: "object | None" = None

    def to_request(self) -> SolveRequest:
        """This grid point as the shared :class:`repro.api.SolveRequest`
        contract (what the facade and the solve service execute)."""
        return SolveRequest(
            app=self.app,
            config=self.config,
            backend=self.backend,
            job_id=self.job_id,
            tags=dict(self.tags),
            prior=self.prior,
        )


@dataclass
class JobOutcome:
    """The result of one grid job.

    Attributes:
        job_id: The job's identifier.
        result: The allocation result (``status`` is ``ERROR`` when the
            job raised; see ``record["error"]`` for the exception).
        wall_seconds: Execution time of the job (queue wait excluded).
        record: The telemetry record emitted for this job.
        tags: The job's tags (echoed for convenience).
        resumed: True when the job was skipped because ``resume=True``
            found its record in the telemetry file; ``result`` is then
            a status-only skeleton reconstructed from the record.
    """

    job_id: str
    result: AllocationResult
    wall_seconds: float
    record: dict
    tags: dict = field(default_factory=dict)
    resumed: bool = False


def execute_with_retries(
    job,
    cache_dir: "str | None",
    deadline_seconds: float | None,
    max_retries: int,
    backoff_seconds: float,
    sandbox=None,
    fault_plan: "dict | None" = None,
) -> "JobOutcome | list[JobOutcome]":
    """Run one job, retrying crashes with exponential backoff.

    Attempt ``n`` (0-based) sleeps ``backoff_seconds * 2**n`` before
    re-executing; once the budget is exhausted the last exception
    becomes an ``ERROR`` outcome so one bad job never aborts the grid.
    ``sandbox`` / ``fault_plan`` are the service's resilience hooks,
    forwarded to solve jobs (campaign jobs run their own ``execute``
    and ignore them).  Module-level so it pickles into pool processes.
    """
    start = time.perf_counter()
    for attempt in range(max_retries + 1):
        try:
            outcome = _execute_job(
                job,
                cache_dir,
                deadline_seconds,
                sandbox=sandbox,
                fault_plan=fault_plan,
            )
        except Exception as exc:
            if attempt >= max_retries:
                failed = error_outcome(job, time.perf_counter() - start, exc)
                for one in failed if isinstance(failed, list) else (failed,):
                    one.record["attempts"] = attempt + 1
                return failed
            time.sleep(backoff_seconds * (2**attempt))
            continue
        if attempt:
            for one in outcome if isinstance(outcome, list) else (outcome,):
                one.record["attempts"] = attempt + 1
        return outcome
    raise AssertionError("unreachable")  # pragma: no cover


def _execute_job(
    job,
    cache_dir,
    deadline_seconds,
    *,
    sandbox=None,
    fault_plan: "dict | None" = None,
) -> "JobOutcome | list[JobOutcome]":
    """Dispatch one grid job: campaign jobs run their own ``execute``,
    solve jobs go through :func:`repro.api.execute`."""
    start = time.perf_counter()
    if hasattr(job, "execute"):
        result, record = job.execute(cache_dir, deadline_seconds)
        wall = time.perf_counter() - start
        if isinstance(record, list):
            # Batched campaign job: one outcome per member record.
            return [
                JobOutcome(
                    job_id=member["job_id"],
                    result=result,
                    wall_seconds=wall,
                    record=member,
                    tags=dict(member.get("tags", {})),
                )
                for member in record
            ]
        return JobOutcome(
            job_id=job.job_id,
            result=result,
            wall_seconds=wall,
            record=record,
            tags=dict(job.tags),
        )
    outcome = execute_request(
        job.to_request(),
        cache_dir=cache_dir,
        deadline_seconds=deadline_seconds,
        sandbox=sandbox,
        fault_plan=fault_plan,
    )
    return JobOutcome(
        job_id=job.job_id,
        result=outcome.result,
        wall_seconds=time.perf_counter() - start,
        record=outcome.record,
        tags=dict(job.tags),
    )


def error_outcome(job, wall_seconds: float, exc: Exception):
    """ERROR outcome(s) for a failed job — one per member when the job
    is batched, so every grid point keeps a telemetry line and stays
    individually resumable."""
    members = getattr(job, "members", None)
    if members:
        share = wall_seconds / len(members)
        return [
            _one_error_outcome(job, member.job_id, member.tags, share, exc)
            for member in members
        ]
    return _one_error_outcome(job, job.job_id, job.tags, wall_seconds, exc)


def _one_error_outcome(job, job_id, tags, wall_seconds, exc) -> JobOutcome:
    result = AllocationResult(status=SolveStatus.ERROR)
    record = build_solve_record(
        instance="",
        requested_backend=getattr(job, "backend", ""),
        result=result,
        wall_seconds=wall_seconds,
        mip_gap=getattr(getattr(job, "config", None), "mip_gap", None),
        job_id=job_id,
        tags=tags,
    )
    record["event"] = getattr(job, "event", "solve")
    record["error"] = f"{type(exc).__name__}: {exc}"
    return JobOutcome(
        job_id=job_id,
        result=result,
        wall_seconds=wall_seconds,
        record=record,
        tags=dict(tags),
    )
