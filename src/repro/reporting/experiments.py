"""Experiment drivers for the paper's evaluation (Section VII).

Shared by the benchmark harness, the examples, and the CLI so that
"Table I" and "Fig. 2" always mean the same computation:

* :func:`solve_instance` — gamma assignment + one :func:`repro.solve`
  call (portfolio/cache/telemetry aware) + optional verification;
* :func:`run_table1` — MILP running times and transfer counts per
  objective and alpha, run on a solve service by the
  :class:`~repro.runtime.ExperimentRunner`;
* :func:`run_fig2_panel` — per-task latency ratios of the proposed
  approach against the three Giotto baselines for one configuration;
* :func:`run_alpha_feasibility` — the paper's observation that the
  sweep is feasible for alpha in {0.2..0.5} and which alphas fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import assign_acquisition_deadlines
from repro.core import (
    FormulationConfig,
    Objective,
    all_profiles,
    verify_allocation,
)
from repro.defaults import (
    DEFAULT_MILP_BACKEND,
    DEFAULT_SOLVE_BACKEND,
    DEFAULT_TIME_LIMIT_SECONDS,
)
from repro.model.application import Application
from repro.runtime import ExperimentRunner, SolveJob
from repro.runtime.facade import solve as _facade_solve
from repro.waters import waters_application

__all__ = [
    "Table1Row",
    "solve_instance",
    "run_table1",
    "run_fig2_panel",
    "run_alpha_feasibility",
]

#: Fig. 2 competitor order.
COMPETITORS = ("giotto-cpu", "giotto-dma-a", "giotto-dma-b")


def solve_instance(
    objective: Objective,
    alpha: float,
    time_limit_seconds: float = DEFAULT_TIME_LIMIT_SECONDS,
    app: Application | None = None,
    verify: bool = True,
    *,
    backend: str = DEFAULT_MILP_BACKEND,
    mip_gap: float | None = None,
    cache: str | None = None,
    telemetry=None,
    cuts: bool | None = None,
):
    """Assign gammas for ``alpha``, solve via :func:`repro.solve`,
    optionally verify.

    Returns (application-with-gammas, AllocationResult).  Verification
    is skipped for greedy-produced results: the heuristic guarantees
    Properties 1 and 2 by construction but does not optimize for
    deadlines/Property 3, which is exactly why it is a *degraded*
    portfolio rung.  ``cuts`` overrides the formulation default for the
    cut layer (None keeps :mod:`repro.defaults`).
    """
    base = app if app is not None else waters_application()
    configured = assign_acquisition_deadlines(base, alpha)
    overrides = {}
    if cuts is not None:
        overrides["cuts"] = cuts
    config = FormulationConfig(
        objective=objective,
        time_limit_seconds=time_limit_seconds,
        mip_gap=mip_gap,
        **overrides,
    )
    result = _facade_solve(
        configured,
        config,
        backend=backend,
        cache=cache,
        telemetry=telemetry,
        tags={"objective": objective.value, "alpha": alpha},
    )
    if verify and result.feasible and result.backend != "greedy":
        verify_allocation(configured, result).raise_if_failed()
    return configured, result


@dataclass
class Table1Row:
    """One row of the Table I reproduction."""

    objective: Objective
    alpha: float
    runtime_seconds: float
    status: str
    num_transfers: int
    backend: str = ""
    warm_start: str = "none"

    def as_tuple(self) -> tuple:
        return (
            self.objective.value,
            f"{self.alpha:.1f}",
            f"{self.runtime_seconds:.2f} s",
            self.status,
            self.num_transfers,
        )


def _waters_grid(
    prefix: str,
    base: Application,
    objectives: tuple[Objective, ...],
    alphas: tuple[float, ...],
    time_limit_seconds: float,
    backend: str,
) -> list[SolveJob]:
    """One SolveJob per (objective, alpha) grid point."""
    grid = []
    for objective in objectives:
        for alpha in alphas:
            grid.append(
                SolveJob(
                    job_id=f"{prefix}[{objective.value}][alpha={alpha:g}]",
                    app=assign_acquisition_deadlines(base, alpha),
                    config=FormulationConfig(
                        objective=objective,
                        time_limit_seconds=time_limit_seconds,
                    ),
                    backend=backend,
                    tags={"objective": objective.value, "alpha": alpha},
                )
            )
    return grid


def run_table1(
    alphas: tuple[float, ...] = (0.2, 0.4),
    objectives: tuple[Objective, ...] = (
        Objective.NONE,
        Objective.MIN_TRANSFERS,
        Objective.MIN_DELAY_RATIO,
    ),
    time_limit_seconds: float = DEFAULT_TIME_LIMIT_SECONDS,
    app: Application | None = None,
    *,
    jobs: int = 1,
    telemetry=None,
    cache_dir: str | None = None,
    backend: str = DEFAULT_SOLVE_BACKEND,
    resume: bool = False,
    client=None,
    warm: bool = False,
) -> list[Table1Row]:
    """The Table I experiment: times and transfer counts per config.

    ``jobs > 1`` runs the grid on a solve service with that many
    worker processes; rows come back in grid order either way, and
    every row is a cold solve.  ``client`` routes solves through a
    running solve service instead (see :mod:`repro.service`); a
    ``letdma serve`` socket service warm-routes requests that carry no
    prior, so those rows can read ``reused`` or ``repaired``.
    ``resume`` skips grid points already recorded in ``telemetry``.

    ``warm`` runs the grid sequentially in-process, chaining each grid
    point's solve as a :class:`repro.incremental.Prior` for the next
    alpha of the same objective (see :mod:`repro.incremental`).  Warm
    starts only change speed, never answers, so rows are interchangeable
    with a cold sweep's.  Prior chaining is inherently sequential, so
    ``jobs`` is ignored in this mode, and ``resume`` or ``client``
    raises ``ValueError``.
    """
    if warm and (resume or client is not None):
        raise ValueError("warm=True runs in-process: no resume or client")
    base = app if app is not None else waters_application()
    grid = _waters_grid(
        "table1", base, objectives, tuple(alphas), time_limit_seconds, backend
    )
    if warm:
        outcomes = _run_grid_warm(grid, telemetry, cache_dir)
    else:
        runner = ExperimentRunner(
            jobs=jobs,
            telemetry=telemetry,
            cache_dir=cache_dir,
            resume=resume,
            client=client,
        )
        outcomes = runner.run(grid)
    rows = []
    for job, outcome in zip(grid, outcomes):
        # A resumed grid point carries only its telemetry record, so
        # rows read the record and only fresh allocations are verified.
        result, record = outcome.result, outcome.record
        resumed = getattr(outcome, "resumed", False)
        if result.feasible and result.backend != "greedy" and not resumed:
            verify_allocation(job.app, result).raise_if_failed()
        rows.append(
            Table1Row(
                objective=Objective(job.tags["objective"]),
                alpha=job.tags["alpha"],
                runtime_seconds=record["solver_seconds"],
                status=record["status"],
                num_transfers=record["num_transfers"],
                backend=record["backend"],
                warm_start=record.get("warm_start", "none"),
            )
        )
    return rows


def _run_grid_warm(grid, telemetry, cache_dir):
    """Solve ``grid`` sequentially, chaining priors per objective.

    Each proven or feasible outcome becomes the :class:`Prior` for the
    next grid point with the same objective tag, so a sweep over alphas
    re-solves incrementally instead of from scratch.  Falls back to a
    cold solve automatically whenever the prior cannot be mapped onto
    the new instance (that is :func:`repro.incremental.prepare_warm`'s
    contract).
    """
    from repro.api import SolveRequest, execute
    from repro.incremental import Prior
    from repro.runtime.telemetry import TelemetryWriter

    writer = TelemetryWriter.coerce(telemetry)
    priors: dict[str, Prior] = {}
    outcomes = []
    for job in grid:
        key = str(job.tags.get("objective", ""))
        request = SolveRequest(
            app=job.app,
            config=job.config,
            backend=job.backend,
            job_id=job.job_id,
            tags=job.tags,
            prior=priors.get(key),
        )
        outcome = execute(request, cache_dir=cache_dir)
        if writer is not None:
            writer.write(outcome.record)
        if outcome.result.feasible or outcome.result.status.value == "infeasible":
            priors[key] = Prior(
                app=job.app, result=outcome.result, config=job.config
            )
        outcomes.append(outcome)
    return outcomes


def run_fig2_panel(
    objective: Objective,
    alpha: float,
    time_limit_seconds: float = DEFAULT_TIME_LIMIT_SECONDS,
    app: Application | None = None,
    *,
    telemetry=None,
    cache: str | None = None,
) -> dict[str, dict[str, float]]:
    """One Fig. 2 panel: {competitor: {task: lambda ratio}}."""
    configured, result = solve_instance(
        objective,
        alpha,
        time_limit_seconds,
        app=app,
        cache=cache,
        telemetry=telemetry,
    )
    if not result.feasible:
        raise RuntimeError(
            f"MILP infeasible for objective={objective}, alpha={alpha}"
        )
    profiles = all_profiles(configured, result)
    ours = profiles["proposed"]
    return {
        competitor: ours.ratio_to(profiles[competitor])
        for competitor in COMPETITORS
    }


def run_alpha_feasibility(
    alphas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5),
    time_limit_seconds: float = 60.0,
    app: Application | None = None,
    *,
    jobs: int = 1,
    telemetry=None,
    cache_dir: str | None = None,
    backend: str = DEFAULT_SOLVE_BACKEND,
    resume: bool = False,
    client=None,
) -> dict[float, bool]:
    """Which alphas admit a feasible allocation (paper: 0.1 fails)."""
    base = app if app is not None else waters_application()
    grid = _waters_grid(
        "alphas", base, (Objective.NONE,), tuple(alphas), time_limit_seconds, backend
    )
    runner = ExperimentRunner(
        jobs=jobs,
        telemetry=telemetry,
        cache_dir=cache_dir,
        resume=resume,
        client=client,
    )
    return {
        job.tags["alpha"]: outcome.result.feasible
        for job, outcome in zip(grid, runner.run(grid))
    }
