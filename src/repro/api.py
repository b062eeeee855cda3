"""The stable solve contract: :class:`SolveRequest` in,
:class:`SolveOutcome` out.

Every way of asking this library for an allocation — the one-call
:func:`repro.solve` facade, a :class:`~repro.runtime.ExperimentRunner`
grid, or a :class:`~repro.service.ServiceClient` talking to a running
``letdma serve`` — is a view of the same contract:

* a :class:`SolveRequest` names *what* to solve (application,
  formulation config, backend) and *who* is asking (``job_id``,
  ``tags``).  Its :attr:`~SolveRequest.instance` property is the
  content hash of the answer-determining fields — the same key used by
  the persistent cache of :mod:`repro.io.cache` and by the solve
  service's job queue, so identical requests are identical everywhere;
* :func:`execute` runs one request through the portfolio/cache path and
  returns a :class:`SolveOutcome` bundling the
  :class:`~repro.core.AllocationResult` with its telemetry record;
* the ``*_to_dict`` / ``*_from_dict`` pairs are the wire format used by
  the service's socket protocol, so a request round-trips bit-exactly
  (and therefore hash-exactly) between client and server.

This module is intentionally small and dependency-light: it sits above
the solver stack and below every driver, and it is the only layer the
drivers need to agree on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.core.formulation import FormulationConfig, Objective
from repro.core.solution import AllocationResult
from repro.defaults import DEFAULT_PORTFOLIO, DEFAULT_SOLVE_BACKEND
from repro.io.cache import CACHEABLE_STATUSES, cache_key
from repro.io.serialization import (
    application_from_dict,
    application_to_dict,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.model.application import Application
from repro.runtime.portfolio import solve_with_portfolio
from repro.runtime.telemetry import build_solve_record

__all__ = [
    "SolveRequest",
    "SolveOutcome",
    "execute",
    "config_to_dict",
    "config_from_dict",
    "request_to_dict",
    "request_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
]


@dataclass(frozen=True)
class SolveRequest:
    """One solve, fully specified.

    Attributes:
        app: The application to allocate and schedule.
        config: Formulation tunables; ``None`` means the shared
            defaults of :mod:`repro.defaults`.  ``config.backend`` is
            ignored — ``backend`` below decides the solve path.
        backend: ``"portfolio"`` (default), or a single rung
            (``"highs"``, ``"bnb"``, ``"greedy"``).
        job_id: Caller-chosen identifier carried into telemetry; not
            part of the instance hash.
        tags: Caller-defined coordinates (grid point, campaign seed,
            ...) carried into telemetry; not part of the instance hash.
        prior: Optional :class:`repro.incremental.Prior` — a previous
            solve offered as a warm start.  Not part of the instance
            hash: a warm start can change solve speed, never the
            answer (any doubtful prior degrades to a cold solve), so
            two requests differing only in ``prior`` are the same
            solve.  The result's ``warm_start`` field records which
            tier was actually used.
    """

    app: Application
    config: FormulationConfig | None = None
    backend: str = DEFAULT_SOLVE_BACKEND
    job_id: str | None = None
    tags: dict = field(default_factory=dict)
    prior: "object | None" = field(default=None, compare=False)

    def resolved_config(self) -> FormulationConfig:
        """The effective config (defaults applied)."""
        return self.config or FormulationConfig()

    @property
    def instance(self) -> str:
        """Content hash of the answer-determining fields.

        Identical to the persistent-cache key of
        :func:`repro.io.cache.cache_key`, so deduplication in the solve
        service, cache hits, and telemetry ``instance`` fields all
        agree on what "the same solve" means.
        """
        return cache_key(
            self.app, replace(self.resolved_config(), backend=self.backend)
        )


@dataclass(frozen=True)
class SolveOutcome:
    """The answer to one :class:`SolveRequest`.

    Attributes:
        instance: The request's content hash (echoed).
        result: The allocation, with portfolio provenance
            (``backend``, ``fallback_chain``).
        record: The schema-v1 telemetry record describing this solve
            (see :mod:`repro.runtime.telemetry`).
        deduped: True when the service answered this request from a
            queue entry another request created (service dedup): a
            shared solve, or that solve's proven answer.  The
            underlying solve ran exactly once.
    """

    instance: str
    result: AllocationResult
    record: dict
    deduped: bool = False

    @property
    def status(self) -> str:
        """The solve status as a string (``"optimal"``, ...)."""
        return self.result.status.value

    @property
    def backend(self) -> str:
        """The portfolio rung that produced the result."""
        return self.result.backend

    @property
    def cached(self) -> bool:
        """True when the result was served from the persistent cache."""
        return bool(self.record.get("cached"))

    @property
    def wall_seconds(self) -> float:
        """End-to-end wall-clock time of the solve (0 for cache hits)."""
        return float(self.record.get("wall_seconds", 0.0))


def execute(
    request: SolveRequest,
    *,
    cache_dir: "str | Path | None" = None,
    deadline_seconds: float | None = None,
    sandbox=None,
    fault_plan: "dict | None" = None,
) -> SolveOutcome:
    """Run one request through the cache + portfolio path.

    This is *the* execution primitive: :func:`repro.solve`, the
    :class:`~repro.runtime.ExperimentRunner` workers, and the solve
    service's shards all land here.

    Args:
        request: What to solve.
        cache_dir: Optional persistent cache directory; proven
            outcomes (optimal/infeasible) are stored and reused by
            :attr:`SolveRequest.instance`.
        deadline_seconds: Optional wall-clock cap applied to each
            portfolio rung's time budget (``min`` with the config's own
            limit); excluded from the instance hash, like every time
            budget.
        sandbox / fault_plan: Resilience hooks forwarded to
            :func:`repro.runtime.solve_with_portfolio` (sandboxed rung
            execution, chaos fault injection); like time budgets, they
            shape *how* a solve runs, never its answer, so neither
            participates in the instance hash.
    """
    config = request.resolved_config()
    instance = request.instance
    if deadline_seconds is not None:
        limit = config.time_limit_seconds
        capped = (
            deadline_seconds if limit is None else min(limit, deadline_seconds)
        )
        config = replace(config, time_limit_seconds=capped)
    start = time.perf_counter()

    result: AllocationResult | None = None
    cached = False
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"{instance}.json"
        result = _load_cached(cache_path)
        cached = result is not None

    if result is None:
        rungs = (
            DEFAULT_PORTFOLIO
            if request.backend == "portfolio"
            else (request.backend,)
        )
        result = solve_with_portfolio(
            request.app,
            config,
            rungs=rungs,
            prior=request.prior,
            sandbox=sandbox,
            fault_plan=fault_plan,
        )
        if cache_path is not None and result.status in CACHEABLE_STATUSES:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            save_result(result, cache_path)

    record = build_solve_record(
        instance=instance,
        requested_backend=request.backend,
        result=result,
        wall_seconds=time.perf_counter() - start,
        mip_gap=config.mip_gap,
        cached=cached,
        job_id=request.job_id,
        tags=dict(request.tags),
    )
    return SolveOutcome(instance=instance, result=result, record=record)


def _load_cached(path: Path) -> AllocationResult | None:
    """A valid cached result, or None (corrupt entries are evicted)."""
    import json

    if not path.exists():
        return None
    try:
        return load_result(path)
    except (ValueError, KeyError, json.JSONDecodeError):
        path.unlink(missing_ok=True)
        return None


# ----------------------------------------------------------------------
# Wire format: the JSON shape the service's socket protocol speaks.
# ----------------------------------------------------------------------


def config_to_dict(config: FormulationConfig) -> dict:
    """JSON-safe dump of every :class:`FormulationConfig` field."""
    data = {f.name: getattr(config, f.name) for f in fields(FormulationConfig)}
    data["objective"] = config.objective.value
    return data


def config_from_dict(data: dict) -> FormulationConfig:
    """Rebuild a :class:`FormulationConfig` from :func:`config_to_dict`.

    Missing keys take the dataclass defaults; a key that names no field
    raises ``ValueError`` rather than being dropped.
    """
    unknown = set(data) - {f.name for f in fields(FormulationConfig)}
    if unknown:
        raise ValueError(f"unknown FormulationConfig field(s) {sorted(unknown)}")
    values = dict(data)
    if "objective" in values:
        values["objective"] = Objective(values["objective"])
    return FormulationConfig(**values)


def request_to_dict(request: SolveRequest) -> dict:
    """JSON-safe dump of a request; round-trips hash-exactly."""
    payload = {
        "application": application_to_dict(request.app),
        "config": config_to_dict(request.resolved_config()),
        "backend": request.backend,
        "job_id": request.job_id,
        "tags": dict(request.tags),
    }
    if request.prior is not None:
        from repro.incremental.warm import prior_to_dict

        payload["prior"] = prior_to_dict(request.prior)
    return payload


def request_from_dict(data: dict) -> SolveRequest:
    """Rebuild a :class:`SolveRequest` from :func:`request_to_dict`."""
    prior = None
    if data.get("prior") is not None:
        from repro.incremental.warm import prior_from_dict

        prior = prior_from_dict(data["prior"])
    return SolveRequest(
        app=application_from_dict(data["application"]),
        config=config_from_dict(data.get("config") or {}),
        backend=data.get("backend", DEFAULT_SOLVE_BACKEND),
        job_id=data.get("job_id"),
        tags=dict(data.get("tags") or {}),
        prior=prior,
    )


def outcome_to_dict(outcome: SolveOutcome) -> dict:
    """JSON-safe dump of an outcome (result + telemetry record)."""
    return {
        "instance": outcome.instance,
        "result": result_to_dict(outcome.result),
        "record": outcome.record,
        "deduped": outcome.deduped,
    }


def outcome_from_dict(data: dict) -> SolveOutcome:
    """Rebuild a :class:`SolveOutcome` from :func:`outcome_to_dict`."""
    return SolveOutcome(
        instance=data["instance"],
        result=result_from_dict(data["result"]),
        record=dict(data.get("record") or {}),
        deduped=bool(data.get("deduped")),
    )
