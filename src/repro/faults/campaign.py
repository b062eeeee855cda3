"""Chaos campaigns: sweep fault-intensity grids through the runner.

A chaos campaign asks "how does an *optimal* allocation degrade when
the platform misbehaves?".  Each grid point takes one WATERS instance
(alpha, objective) and replays its allocation under a
:class:`~repro.faults.spec.FaultSpec` derived from a scalar fault
intensity and a seed, under one graceful-degradation policy.

The grid collapses per alpha into one :class:`BatchChaosJob`: the
instance is solved once, and every ``(intensity, seed, policy)`` point
riding on that allocation is evaluated in a single vectorized
:func:`~repro.faults.batch.evaluate_robustness_batch` call.  The batch
runs through :class:`~repro.runtime.ExperimentRunner`, which supplies
per-job retries, incremental JSONL telemetry, checkpoint/resume
(``--resume``), and graceful SIGINT/SIGTERM handling.  Telemetry stays
grid-point-granular — the batch job emits one ``event: "chaos"`` line
per member, with the member's own ``job_id``, so summaries, tables,
and ``--resume`` work per grid point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.formulation import Objective
from repro.defaults import DEFAULT_SOLVE_BACKEND, DEFAULT_TIME_LIMIT_SECONDS
from repro.faults.spec import FaultSpec
from repro.runtime.runner import ExperimentRunner, JobOutcome
from repro.runtime.telemetry import build_solve_record

__all__ = [
    "ChaosVariant",
    "BatchChaosJob",
    "ChaosConfig",
    "chaos_grid",
    "run_chaos",
    "render_chaos_table",
]


@dataclass(frozen=True)
class ChaosVariant:
    """One grid point carried by a :class:`BatchChaosJob`: its
    ``job_id`` and ``tags`` label the member's telemetry record."""

    job_id: str
    intensity: float
    seed: int
    policy: str
    tags: dict = field(default_factory=dict)

    def spec(self) -> FaultSpec:
        return FaultSpec.from_intensity(self.intensity, seed=self.seed)


@dataclass
class BatchChaosJob:
    """All chaos grid points of one alpha, evaluated as one batch.

    Implements the runner's *batched* campaign-job protocol:
    ``member_ids`` lists the grid points covered, ``narrow(ids)``
    restricts the job to the members a resume still needs, and
    ``execute`` solves the instance **once** and hands the whole member
    list to :func:`~repro.faults.batch.evaluate_robustness_batch`,
    returning one telemetry record per member.
    """

    job_id: str
    alpha: float
    members: list[ChaosVariant] = field(default_factory=list)
    objective: Objective = Objective.MIN_TRANSFERS
    backend: str = DEFAULT_SOLVE_BACKEND
    time_limit_seconds: float = DEFAULT_TIME_LIMIT_SECONDS
    tags: dict = field(default_factory=dict)

    event = "chaos"

    @property
    def member_ids(self) -> list[str]:
        return [member.job_id for member in self.members]

    def narrow(self, ids) -> "BatchChaosJob":
        keep = set(ids)
        return replace(
            self,
            members=[m for m in self.members if m.job_id in keep],
        )

    def execute(self, cache_dir, deadline_seconds):
        """Worker-side body: one solve, one vectorized grid evaluation."""
        from repro.faults.batch import evaluate_robustness_batch
        from repro.reporting.experiments import solve_instance

        start = time.perf_counter()
        limit = self.time_limit_seconds
        if deadline_seconds is not None:
            limit = min(limit, deadline_seconds)
        app, result = solve_instance(
            self.objective,
            self.alpha,
            time_limit_seconds=limit,
            backend=self.backend,
            cache=cache_dir,
            verify=False,
        )
        if not result.feasible:
            reports = [None] * len(self.members)
        else:
            outcome = evaluate_robustness_batch(
                app,
                result,
                [(member.spec(), member.policy) for member in self.members],
            )
            reports = outcome.reports
        # The batch's wall time is attributed evenly across members so
        # telemetry sums stay meaningful.
        share = (time.perf_counter() - start) / max(len(self.members), 1)
        records = [
            self._record(member, result, report, share)
            for member, report in zip(self.members, reports)
        ]
        return result, records

    def _record(self, member, result, report, wall_seconds) -> dict:
        record = build_solve_record(
            instance="",
            requested_backend=self.backend,
            result=result,
            wall_seconds=wall_seconds,
            mip_gap=None,
            job_id=member.job_id,
            tags=member.tags,
        )
        record["event"] = self.event
        record["batched"] = True
        record["robustness"] = report.to_record() if report is not None else None
        return record


@dataclass
class ChaosConfig:
    """Shape of a chaos campaign grid.

    Attributes:
        alphas: LET-window scaling factors to solve at.
        intensities: Scalar fault intensities in [0, 1]; 0 is the
            byte-identical null-fault control point.
        seeds: Fault seeds; the grid is the full cross product.
        policies: Degradation policies to evaluate at each point.
        objective: MILP objective for the underlying solves.
        backend: Solver backend for the underlying solves.
        time_limit_seconds: Per-solve time limit.
    """

    alphas: tuple = (0.3,)
    intensities: tuple = (0.0, 0.25, 0.5, 1.0)
    seeds: tuple = (0,)
    policies: tuple = ("stale-data",)
    objective: Objective = Objective.MIN_TRANSFERS
    backend: str = DEFAULT_SOLVE_BACKEND
    time_limit_seconds: float = DEFAULT_TIME_LIMIT_SECONDS


def chaos_grid(config: ChaosConfig) -> list[BatchChaosJob]:
    """Expand a :class:`ChaosConfig` into one :class:`BatchChaosJob` per
    alpha, whose members are the ``(intensity, seed, policy)`` cross
    product: a single solve per distinct instance and a single
    vectorized simulation for all fault variants riding on it."""
    jobs = []
    for alpha in config.alphas:
        members = [
            ChaosVariant(
                job_id=f"chaos-a{alpha:g}-i{intensity:g}-s{seed}-{policy}",
                intensity=intensity,
                seed=seed,
                policy=policy,
                tags={
                    "alpha": alpha,
                    "intensity": intensity,
                    "seed": seed,
                    "policy": policy,
                    "objective": config.objective.value,
                },
            )
            for intensity in config.intensities
            for seed in config.seeds
            for policy in config.policies
        ]
        jobs.append(
            BatchChaosJob(
                job_id=f"chaos-batch-a{alpha:g}",
                alpha=alpha,
                members=members,
                objective=config.objective,
                backend=config.backend,
                time_limit_seconds=config.time_limit_seconds,
                tags={"alpha": alpha, "objective": config.objective.value},
            )
        )
    return jobs


def run_chaos(
    config: ChaosConfig,
    *,
    jobs: int = 1,
    telemetry=None,
    cache_dir: str | None = None,
    resume: bool = False,
    max_retries: int = 1,
    deadline_seconds: float | None = None,
    client=None,
) -> list[JobOutcome]:
    """Run the campaign grid through the experiment runner.

    Each alpha's fault variants are evaluated in one vectorized batch
    (one solve + one ``simulate_batch`` per alpha); outcomes and
    telemetry are grid-point-granular.

    Propagates :class:`~repro.runtime.runner.RunInterrupted` on
    SIGINT/SIGTERM; everything harvested before the signal is already
    flushed to ``telemetry``, so a re-run with ``resume=True`` picks up
    where the campaign stopped.
    """
    runner = ExperimentRunner(
        jobs=jobs,
        telemetry=telemetry,
        cache_dir=cache_dir,
        deadline_seconds=deadline_seconds,
        max_retries=max_retries,
        resume=resume,
        client=client,
    )
    return runner.run(chaos_grid(config))


def render_chaos_table(outcomes: list[JobOutcome]) -> str:
    """Monospace table of campaign results, one row per grid point."""
    from repro.reporting.tables import render_table

    rows = []
    for outcome in outcomes:
        robustness = outcome.record.get("robustness")
        tags = outcome.record.get("tags", {})
        if robustness is None:
            rows.append(
                (
                    str(tags.get("alpha", "?")),
                    str(tags.get("intensity", "?")),
                    str(tags.get("seed", "?")),
                    str(tags.get("policy", "?")),
                    outcome.record.get("status", "?"),
                    "-",
                    "-",
                    "-",
                    "resumed" if outcome.resumed else "-",
                )
            )
            continue
        rows.append(
            (
                str(tags.get("alpha", "?")),
                str(tags.get("intensity", "?")),
                str(tags.get("seed", "?")),
                robustness["policy"],
                "clean" if robustness["clean"] else "degraded",
                str(robustness["deadline_misses"]),
                str(robustness["acquisition_misses"]),
                str(robustness["worst_staleness"]),
                "resumed" if outcome.resumed else "-",
            )
        )
    return render_table(
        [
            "alpha",
            "intensity",
            "seed",
            "policy",
            "outcome",
            "deadline misses",
            "acq misses",
            "staleness",
            "note",
        ],
        rows,
        title="Chaos campaign",
    )
