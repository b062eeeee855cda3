"""The fuzz campaign: budgeted differential fuzzing with telemetry.

``letdma fuzz --budget N --seed S --jobs J`` lands here.  A campaign:

1. draws ``budget`` randomized applications from
   :func:`repro.workloads.random_spec` (deterministic in ``seed``);
2. fans every (instance, backend) solve out through
   :class:`repro.runtime.ExperimentRunner` — the same solve-service,
   fault-tolerance, and JSONL-telemetry machinery the experiment grids
   use, so ``--jobs`` and ``--telemetry`` behave identically here;
3. feeds each instance's results to the agreement rules of
   :mod:`repro.check.differential` and the end-to-end oracle;
4. shrinks every disagreeing instance with
   :mod:`repro.check.shrink` and writes the minimized reproducer to
   the corpus directory (see :mod:`repro.check.corpus`).

The report's :meth:`~FuzzReport.summary` is the CLI output; its
``ok`` property is the process exit status.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.corpus import Reproducer, save_reproducer
from repro.check.differential import (
    DifferentialConfig,
    InstanceVerdict,
    applicable_backends,
    check_instance,
    compare_runs,
)
from repro.check.shrink import shrink_application
from repro.core.formulation import Objective
from repro.model.application import Application
from repro.runtime.runner import ExperimentRunner, SolveJob
from repro.workloads.generator import generate_application, random_spec

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    """Tunables of one fuzz campaign.

    Attributes:
        budget: Number of random instances to draw and cross-check.
        seed: Campaign seed; the whole campaign is deterministic in it.
        jobs: Worker processes for the solve grid.
        backends: Backends to cross-check.
        objectives: Objective rotation (instance i uses objective
            ``i % len(objectives)``).
        time_limit_seconds: Per-backend budget per instance.
        bnb_max_comms: Size gate for the pure-Python branch and bound.
        check_presolve: Cross-check every exact backend against its
            ``-nopresolve`` variant (presolve differential).
        check_cuts: Cross-check every exact backend against its
            ``-nocuts`` variant — the cut layer of
            :mod:`repro.milp.cuts` must not change any proven verdict
            or optimal objective (cuts differential).
        check_batch_sim: Replay every feasible allocation through the
            vectorized batch simulator and assert byte-identical
            scalar traces (batch-simulation differential).
        check_warm: Perturb every instance by one element (WCET or
            label size) and require the warm re-solve to agree with a
            cold solve of the perturbation (warm == cold differential;
            see :mod:`repro.incremental`).
        telemetry: Optional JSONL sink (path or run directory).
        cache_dir: Optional persistent solve cache shared by all jobs.
        resume: Skip solves already recorded in ``telemetry``
            (continue a killed campaign; the campaign grid is
            deterministic in ``seed``, so job ids are stable).
        corpus_dir: Where shrunk reproducers are written; None disables
            writing (the failures are still reported).
        shrink: Minimize failing instances before writing them.
        shrink_attempts: Predicate-call budget per shrink.
    """

    budget: int = 50
    seed: int = 0
    jobs: int = 1
    backends: tuple[str, ...] = ("highs", "bnb", "greedy")
    objectives: tuple[Objective, ...] = (
        Objective.MIN_TRANSFERS,
        Objective.MIN_DELAY_RATIO,
        Objective.NONE,
    )
    time_limit_seconds: float = 20.0
    bnb_max_comms: int = 6
    check_presolve: bool = False
    check_cuts: bool = False
    check_batch_sim: bool = False
    check_warm: bool = False
    telemetry: "str | None" = None
    cache_dir: "str | None" = None
    resume: bool = False
    corpus_dir: "str | Path | None" = None
    shrink: bool = True
    shrink_attempts: int = 60


@dataclass
class FuzzFailure:
    """One disagreeing instance, possibly minimized."""

    instance_id: int
    objective: Objective
    disagreements: list[str]
    spec: dict
    original_tasks: int
    original_labels: int
    shrunk_tasks: int
    shrunk_labels: int
    reproducer_path: "Path | None" = None


@dataclass
class FuzzReport:
    """Aggregate outcome of a campaign."""

    config: FuzzConfig
    checked: int = 0
    solves: int = 0
    skipped_backend_runs: int = 0
    status_counts: dict = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.checked} instances, {self.solves} solves "
            f"({self.skipped_backend_runs} backend runs skipped), "
            f"{len(self.failures)} disagreement(s), "
            f"{self.wall_seconds:.1f} s wall",
        ]
        for backend in sorted(self.status_counts):
            counts = self.status_counts[backend]
            rendered = ", ".join(
                f"{status}={count}" for status, count in sorted(counts.items())
            )
            lines.append(f"  {backend}: {rendered}")
        for failure in self.failures:
            lines.append(
                f"  FAIL instance {failure.instance_id} "
                f"({failure.objective.value}): shrunk "
                f"{failure.original_tasks}t/{failure.original_labels}l -> "
                f"{failure.shrunk_tasks}t/{failure.shrunk_labels}l"
            )
            for message in failure.disagreements:
                lines.append(f"    {message}")
            if failure.reproducer_path is not None:
                lines.append(f"    reproducer: {failure.reproducer_path}")
        if self.ok:
            lines.append("  all backends agree")
        return "\n".join(lines)


def run_fuzz(config: FuzzConfig | None = None, *, client=None) -> FuzzReport:
    """Run one campaign; see the module docstring for the pipeline.

    ``client`` routes the campaign's solves through a running solve
    service (see :mod:`repro.service`) instead of local workers.
    """
    config = config or FuzzConfig()
    start = time.perf_counter()
    report = FuzzReport(config=config)

    instances = _draw_instances(config)
    grid, skipped = _build_grid(config, instances)
    report.skipped_backend_runs = sum(len(v) for v in skipped.values())
    report.solves = len(grid)

    runner = ExperimentRunner(
        jobs=config.jobs,
        telemetry=config.telemetry,
        cache_dir=config.cache_dir,
        resume=config.resume,
        client=client,
    )
    outcomes = runner.run(grid)
    by_instance: dict[int, dict[str, object]] = {}
    for outcome in outcomes:
        index = outcome.tags["fuzz_instance"]
        by_instance.setdefault(index, {})[outcome.tags["backend"]] = outcome.result
        backend = outcome.tags["backend"]
        counts = report.status_counts.setdefault(backend, {})
        status = outcome.result.status.value
        counts[status] = counts.get(status, 0) + 1

    for index, (app, spec, objective) in enumerate(instances):
        differential = _differential_config(config, objective)
        results = dict(by_instance.get(index, {}))
        skip_reasons = skipped.get(index, {})
        for backend in skip_reasons:
            results[backend] = None
        verdict = compare_runs(app, differential, results, skip_reasons)
        report.checked += 1
        report.notes.extend(f"instance {index}: {note}" for note in verdict.notes)
        if not verdict.ok:
            report.failures.append(
                _handle_failure(config, index, app, spec, objective, verdict)
            )

    report.wall_seconds = time.perf_counter() - start
    return report


def _draw_instances(config: FuzzConfig):
    instances = []
    for index in range(config.budget):
        rng = random.Random((config.seed << 20) ^ index)
        spec = random_spec(rng)
        app = generate_application(spec)
        objective = config.objectives[index % len(config.objectives)]
        instances.append((app, spec, objective))
    return instances


def _differential_config(
    config: FuzzConfig, objective: Objective
) -> DifferentialConfig:
    return DifferentialConfig(
        backends=config.backends,
        objective=objective,
        time_limit_seconds=config.time_limit_seconds,
        bnb_max_comms=config.bnb_max_comms,
        check_presolve=config.check_presolve,
        check_cuts=config.check_cuts,
        check_batch_sim=config.check_batch_sim,
        check_warm=config.check_warm,
    )


def _build_grid(config: FuzzConfig, instances):
    """One SolveJob per applicable (instance, backend) pair."""
    grid: list[SolveJob] = []
    skipped: dict[int, dict[str, str]] = {}
    for index, (app, spec, objective) in enumerate(instances):
        differential = _differential_config(config, objective)
        for backend, reason in applicable_backends(app, differential):
            if reason:
                skipped.setdefault(index, {})[backend] = reason
                continue
            grid.append(
                SolveJob(
                    job_id=f"fuzz-{index}-{backend}",
                    app=app,
                    config=differential.formulation_config(),
                    backend=backend,
                    tags={
                        "fuzz_instance": index,
                        "backend": backend,
                        "objective": objective.value,
                        "spec_seed": spec.seed,
                        "campaign_seed": config.seed,
                    },
                )
            )
    return grid, skipped


def _handle_failure(
    config: FuzzConfig,
    index: int,
    app: Application,
    spec,
    objective: Objective,
    verdict: InstanceVerdict,
) -> FuzzFailure:
    """Shrink a disagreeing instance and write its reproducer."""
    differential = _differential_config(config, objective)
    minimized = app
    if config.shrink:
        minimized = shrink_application(
            app,
            lambda candidate: not check_instance(candidate, differential).ok,
            max_attempts=config.shrink_attempts,
        ).app
    failure = FuzzFailure(
        instance_id=index,
        objective=objective,
        disagreements=list(verdict.disagreements),
        spec=dataclass_as_dict(spec),
        original_tasks=len(list(app.tasks)),
        original_labels=len(app.labels),
        shrunk_tasks=len(list(minimized.tasks)),
        shrunk_labels=len(minimized.labels),
    )
    if config.corpus_dir is not None:
        failure.reproducer_path = save_reproducer(
            Reproducer(
                app=minimized,
                objective=objective,
                backends=config.backends,
                description=(
                    f"shrunk from fuzz campaign seed={config.seed} "
                    f"instance={index} (spec seed {spec.seed})"
                ),
                disagreements=list(verdict.disagreements),
            ),
            config.corpus_dir,
        )
    return failure


def dataclass_as_dict(spec) -> dict:
    from dataclasses import asdict

    return asdict(spec)
