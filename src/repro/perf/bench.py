"""Microbenchmark scenarios for the solver and simulator hot paths.

Each scenario measures one stage in isolation — model construction,
presolve, a backend solve, or a simulation trace — and reports its
wall time together with stage-specific counters (branch-and-bound
nodes, LP calls, presolve reductions, simulated jobs).  Scenarios are
deterministic: fixed workload seeds, fixed solver budgets.

``run_benchmarks`` executes a selection ``repeat`` times each and
keeps the *minimum* wall time per scenario (the standard estimator for
microbenchmarks: noise is strictly additive).  The result feeds
:mod:`repro.perf.baseline` for regression tracking and the ``letdma
bench`` command.

Scenarios marked ``quick`` form the CI smoke subset; the rest are
sized for the nightly/full run (they include multi-second MILP
solves).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

__all__ = [
    "BenchResult",
    "BenchScenario",
    "SCENARIOS",
    "run_benchmarks",
    "scenario_names",
]

#: Wall-clock budget handed to every solver scenario.  Generous enough
#: that all of them finish normally on current code; a scenario that
#: hits it still reports (status shows up in the metrics).
_SOLVE_BUDGET_SECONDS = 120.0


@dataclass(frozen=True)
class BenchScenario:
    """One measurable stage.

    Attributes:
        name: Stable identifier (key in benchmark files).
        description: One line shown by ``letdma bench --list``.
        run: Callable returning the metric dict for one execution; its
            ``wall_seconds`` entry is the measured time.
        quick: Whether the scenario belongs to the CI smoke subset.
    """

    name: str
    description: str
    run: Callable[[], dict]
    quick: bool = False


@dataclass(frozen=True)
class BenchResult:
    """Best-of-``repeat`` outcome of one scenario."""

    name: str
    wall_seconds: float
    metrics: dict

    def to_dict(self) -> dict:
        return {"wall_seconds": self.wall_seconds, "metrics": self.metrics}


# ----------------------------------------------------------------------
# Workload builders (shared, deterministic)
# ----------------------------------------------------------------------


def _waters_formulation():
    from repro.core.formulation import FormulationConfig, LetDmaFormulation, Objective
    from repro.waters import waters_application

    return LetDmaFormulation(
        waters_application(),
        FormulationConfig(objective=Objective.MIN_TRANSFERS),
    )


def _synthetic_formulation(num_tasks: int):
    from repro.core.formulation import FormulationConfig, LetDmaFormulation, Objective
    from repro.workloads import WorkloadSpec, generate_application

    app = generate_application(
        WorkloadSpec(
            num_tasks=num_tasks,
            num_cores=2,
            communication_density=0.5,
            seed=11,
        )
    )
    return LetDmaFormulation(
        app, FormulationConfig(objective=Objective.MIN_TRANSFERS)
    )


def _solve_metrics(solution, wall: float) -> dict:
    from repro.milp.result import SolveStatus

    return {
        "wall_seconds": wall,
        "status": solution.status.value,
        "objective": solution.objective,
        "best_bound": solution.best_bound,
        "node_count": solution.node_count,
        "lp_calls": solution.lp_calls,
        "cuts_added": solution.cuts_added,
        "cut_rounds": solution.cut_rounds,
        "nodes_per_second": (
            solution.node_count / wall if solution.node_count and wall else 0.0
        ),
        "not_optimal": 0.0 if solution.status is SolveStatus.OPTIMAL else 1.0,
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _bench_model_build() -> dict:
    start = time.perf_counter()
    formulation = _waters_formulation()
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "num_variables": formulation.model.num_variables,
        "num_constraints": formulation.model.num_constraints,
    }


def _bench_presolve_waters() -> dict:
    from repro.milp.presolve import presolve_model

    model = _waters_formulation().model  # fresh model: cold presolve cache
    start = time.perf_counter()
    presolved = presolve_model(model)
    wall = time.perf_counter() - start
    stats = presolved.stats
    return {
        "wall_seconds": wall,
        "cols_after": stats.cols_after,
        "rows_after": stats.rows_after,
        "binaries_fixed": stats.binaries_fixed,
        "rows_dropped": stats.rows_dropped,
        "coefficients_tightened": stats.coefficients_tightened,
    }


def _bench_solve(
    backend: str,
    num_tasks: int | None,
    budget_seconds: float = _SOLVE_BUDGET_SECONDS,
) -> dict:
    formulation = (
        _waters_formulation()
        if num_tasks is None
        else _synthetic_formulation(num_tasks)
    )
    start = time.perf_counter()
    solution = formulation.model.solve(
        backend=backend, time_limit_seconds=budget_seconds
    )
    wall = time.perf_counter() - start
    metrics = _solve_metrics(solution, wall)
    # Machine-independent-ish ceiling: a solve that needs its whole
    # budget reports a fraction near 1.0 regardless of what that budget
    # is, which is what METRIC_GATES tracks for the gated scenarios.
    metrics["budget_fraction"] = wall / budget_seconds
    return metrics


def _bench_sim_waters() -> dict:
    from repro.core.heuristic import greedy_allocation
    from repro.sim.engine import simulate
    from repro.sim.timeline import proposed_timeline
    from repro.waters import waters_application

    app = waters_application()
    result = greedy_allocation(app)
    horizon = 5 * app.tasks.hyperperiod_us()
    timeline = proposed_timeline(app, result, horizon)
    start = time.perf_counter()
    trace = simulate(app, timeline, horizon)
    wall = time.perf_counter() - start
    return {"wall_seconds": wall, "jobs": len(trace.jobs)}


#: Variant count of the chaos-grid simulation scenarios.
_CHAOS_VARIANTS = 100


def _chaos_sim_inputs():
    """A deterministic 100-variant chaos grid on the WATERS instance.

    All variants share one timeline (the engine benchmark isolates
    simulation throughput, not timeline construction) and differ in
    release jitter and WCET factors drawn from the counter-hash fault
    streams — the same arrays :mod:`repro.faults.batch` tabulates.
    """
    import numpy as np

    from repro.core.heuristic import greedy_allocation
    from repro.faults.injector import jitter_tag
    from repro.faults.spec import FaultSpec
    from repro.faults.streams import site_uniforms_np
    from repro.sim.batch import _default_ready, _task_spans, build_job_table
    from repro.sim.timeline import proposed_timeline
    from repro.waters import waters_application

    app = waters_application()
    result = greedy_allocation(app)
    horizon = app.tasks.hyperperiod_us()
    timeline = proposed_timeline(app, result, horizon)
    timelines = [timeline] * _CHAOS_VARIANTS
    table = build_job_table(app, horizon, horizon)
    spans = _task_spans(table)
    ready = _default_ready(app, timelines, horizon, horizon)
    wcet = np.broadcast_to(table.base_wcets_us, ready.shape).copy()
    specs = [
        FaultSpec.from_intensity(0.05 + 0.9 * (v % 20) / 19, seed=v // 20)
        for v in range(_CHAOS_VARIANTS)
    ]
    for v, spec in enumerate(specs):
        for task in app.tasks:
            lo, hi = spans[task.name]
            u = site_uniforms_np(
                spec.seed, jitter_tag(task.name), table.releases_us[lo:hi]
            )
            ready[v, lo:hi] += spec.release_jitter_us * u
            wcet[v, lo:hi] *= spec.wcet_factor_of(task.name)
    return app, table, timelines, horizon, ready, wcet


def _scalar_chaos_run(app, table, timelines, horizon, ready, wcet) -> float:
    """Wall time of the grid as independent scalar ``Simulator.run()``
    calls (one per variant), fed the same per-job tables via hooks."""
    from repro.sim.batch import TabulatedHooks
    from repro.sim.engine import Simulator

    keys = list(zip(table.tasks, table.releases_us.tolist()))
    start = time.perf_counter()
    for v in range(len(timelines)):
        hooks = TabulatedHooks(
            dict(zip(keys, ready[v].tolist())),
            dict(zip(keys, wcet[v].tolist())),
        )
        Simulator(app, timelines[v], horizon, hooks=hooks).run()
    return time.perf_counter() - start


#: Scalar reference time, memoized per process: the reference does not
#: change between repeats, and re-measuring it would triple the smoke
#: scenario's cost for no information.
_scalar_chaos_cache: dict = {}


def _bench_sim_batch_chaos() -> dict:
    from repro.sim.batch import simulate_batch

    app, table, timelines, horizon, ready, wcet = _chaos_sim_inputs()
    start = time.perf_counter()
    batch = simulate_batch(
        app, timelines, horizon, ready_us=ready, wcet_us=wcet
    )
    wall = time.perf_counter() - start
    if "scalar_seconds" not in _scalar_chaos_cache:
        _scalar_chaos_cache["scalar_seconds"] = _scalar_chaos_run(
            app, table, timelines, horizon, ready, wcet
        )
    scalar_seconds = _scalar_chaos_cache["scalar_seconds"]
    return {
        "wall_seconds": wall,
        "variants": batch.num_variants,
        "jobs": batch.num_variants * batch.num_jobs,
        "scalar_fallbacks": int(batch.scalar_fallback.sum()),
        "scalar_seconds": scalar_seconds,
        "speedup_vs_scalar": scalar_seconds / wall,
    }


#: Memoized warm-delta fixtures, per process: the cold base solve of
#: WATERS is multi-second work whose result does not change between
#: repeats, and the warm scenario's whole point is to measure the
#: *incremental* re-solve against that fixed base.
_warm_delta_cache: dict = {}


def _warm_delta_inputs():
    """Cold-solved WATERS base plus a 1-task WCET perturbation.

    Returns ``(config, base_app, base_result, cold_base_seconds,
    perturbed_app)``.  The perturbation bumps one task's WCET by 20 %
    (clamped to its period), which leaves the MILP bit-identical —
    exactly the delta an incremental re-solve should dispatch in
    near-zero time via the ``reused`` warm tier.
    """
    if "inputs" not in _warm_delta_cache:
        from dataclasses import replace

        from repro.core.formulation import FormulationConfig, Objective
        from repro.model.application import Application
        from repro.model.task import TaskSet
        from repro.runtime.portfolio import solve_with_portfolio
        from repro.waters import waters_application

        app = waters_application()
        config = FormulationConfig(
            objective=Objective.MIN_TRANSFERS,
            time_limit_seconds=_SOLVE_BUDGET_SECONDS,
        )
        start = time.perf_counter()
        base_result = solve_with_portfolio(app, config, rungs=("highs",))
        cold_seconds = time.perf_counter() - start
        tasks = list(app.tasks)
        first = tasks[0]
        bumped = min(first.wcet_us * 1.2, float(first.period_us))
        if bumped == first.wcet_us:
            bumped = first.wcet_us * 0.8
        tasks[0] = replace(first, wcet_us=bumped)
        perturbed = Application(app.platform, TaskSet(tasks), list(app.labels))
        _warm_delta_cache["inputs"] = (
            config,
            app,
            base_result,
            cold_seconds,
            perturbed,
        )
    return _warm_delta_cache["inputs"]


def _bench_solve_warm_delta() -> dict:
    """Warm re-solve of the 1-task WCET perturbation of WATERS.

    ``fraction_of_cold`` divides by the cold base solve measured in the
    same process, so machine speed cancels out — the tracked gate
    (see :data:`repro.perf.baseline.METRIC_GATES`) trips on genuine
    warm-path regressions, not runner noise.
    """
    from repro.incremental import Prior
    from repro.runtime.portfolio import solve_with_portfolio

    config, base_app, base_result, cold_seconds, perturbed = _warm_delta_inputs()
    prior = Prior(app=base_app, result=base_result, config=config)
    start = time.perf_counter()
    result = solve_with_portfolio(
        perturbed, config, rungs=("highs",), prior=prior
    )
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "status": result.status.value,
        "objective": result.objective_value,
        "warm_start": result.warm_start,
        "cold_base_seconds": cold_seconds,
        "fraction_of_cold": wall / cold_seconds if cold_seconds else 0.0,
    }


def _bench_solve_cold_delta() -> dict:
    """Cold re-solve of the same perturbation — the warm scenario's
    reference point, sized for the nightly/full run."""
    from repro.runtime.portfolio import solve_with_portfolio

    config, _, _, _, perturbed = _warm_delta_inputs()
    start = time.perf_counter()
    result = solve_with_portfolio(perturbed, config, rungs=("highs",))
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "status": result.status.value,
        "objective": result.objective_value,
        "warm_start": result.warm_start,
    }


#: Memoized in-process reference solve for the sandbox-overhead
#: scenario: the reference does not change between repeats, and the
#: overhead fraction must compare against a number measured in the
#: same process.
_sandbox_overhead_cache: dict = {}


def _bench_solve_sandboxed_waters() -> dict:
    """Sandboxed HiGHS solve of WATERS vs an in-process reference.

    ``overhead_fraction`` is the extra wall time the supervised child
    (fork, pipe heartbeat, rlimits) costs relative to running the same
    rung in-process — the tracked gate keeps it under 5 %, which is
    what makes ``--sandbox`` a default-safe recommendation for
    ``letdma serve`` rather than a trade-off.
    """
    from repro.core.formulation import FormulationConfig, Objective
    from repro.milp.worker import solve_rung_entry
    from repro.resilience.sandbox import SandboxLimits, run_rung_sandboxed
    from repro.waters import waters_application

    app = waters_application()
    config = FormulationConfig(
        objective=Objective.MIN_TRANSFERS,
        time_limit_seconds=_SOLVE_BUDGET_SECONDS,
    )
    if "seconds" not in _sandbox_overhead_cache:
        start = time.perf_counter()
        solve_rung_entry({"app": app, "config": config, "rung": "highs"})
        _sandbox_overhead_cache["seconds"] = time.perf_counter() - start
    reference = _sandbox_overhead_cache["seconds"]
    start = time.perf_counter()
    result = run_rung_sandboxed(app, config, "highs", SandboxLimits())
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "status": result.status.value,
        "in_process_seconds": reference,
        "overhead_fraction": wall / reference - 1.0 if reference else 0.0,
    }


def _bench_sim_scalar_chaos() -> dict:
    app, table, timelines, horizon, ready, wcet = _chaos_sim_inputs()
    wall = _scalar_chaos_run(app, table, timelines, horizon, ready, wcet)
    return {
        "wall_seconds": wall,
        "variants": len(timelines),
    }


SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="model_build_waters",
        description="Build the WATERS MIN_TRANSFERS formulation",
        run=_bench_model_build,
        quick=True,
    ),
    BenchScenario(
        name="presolve_waters",
        description="Presolve the WATERS model (cold cache)",
        run=_bench_presolve_waters,
        quick=True,
    ),
    BenchScenario(
        name="solve_bnb_synth4",
        description="Branch and bound on a 4-task waters-like instance",
        run=lambda: _bench_solve("bnb", 4),
        quick=True,
    ),
    BenchScenario(
        name="solve_highs_synth4",
        description="HiGHS on the same 4-task waters-like instance",
        run=lambda: _bench_solve("highs", 4),
        quick=True,
    ),
    BenchScenario(
        name="sim_waters_5h",
        description="Simulate WATERS (greedy allocation) over 5 hyperperiods",
        run=_bench_sim_waters,
        quick=True,
    ),
    BenchScenario(
        name="sim_batch_chaos100",
        description="Vectorized batch simulation of a 100-variant chaos grid",
        run=_bench_sim_batch_chaos,
        quick=True,
    ),
    BenchScenario(
        name="solve_warm_waters_delta",
        description="Warm re-solve of a 1-task WCET delta on WATERS "
        "(incremental re-solve; gated at 10% of cold)",
        run=_bench_solve_warm_delta,
        quick=True,
    ),
    BenchScenario(
        name="solve_cold_waters_delta",
        description="Cold re-solve of the same 1-task WCET delta on WATERS",
        run=_bench_solve_cold_delta,
    ),
    BenchScenario(
        name="solve_sandboxed_waters",
        description="Sandboxed HiGHS solve of WATERS vs in-process "
        "(supervision overhead; gated at 5%)",
        run=_bench_solve_sandboxed_waters,
    ),
    BenchScenario(
        name="sim_scalar_chaos100",
        description="The same 100-variant chaos grid as scalar simulations",
        run=_bench_sim_scalar_chaos,
    ),
    BenchScenario(
        name="solve_bnb_synth5",
        description="Branch and bound on a 5-task waters-like instance",
        run=lambda: _bench_solve("bnb", 5),
    ),
    BenchScenario(
        name="solve_highs_waters",
        description="HiGHS on the full WATERS model (cut layer on; "
        "gated at a 5 s budget)",
        run=lambda: _bench_solve("highs", None, budget_seconds=5.0),
    ),
    BenchScenario(
        name="solve_bnb_waters",
        description="Branch and bound on the full WATERS model "
        "(cut layer on; gated OPTIMAL within the 120 s budget)",
        run=lambda: _bench_solve("bnb", None),
    ),
)


def scenario_names(quick_only: bool = False) -> list[str]:
    return [s.name for s in SCENARIOS if s.quick or not quick_only]


def run_benchmarks(
    names: Iterable[str] | None = None,
    quick_only: bool = False,
    repeat: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run the selected scenarios and keep the best wall time of each.

    Args:
        names: Scenario names to run (default: all, subject to
            ``quick_only``).  Unknown names raise ``ValueError``.
        quick_only: Restrict the default selection to the CI smoke
            subset.
        repeat: Executions per scenario; the minimum wall time wins,
            the other metrics come from the fastest execution.
        progress: Optional callback invoked with a line per scenario.
    """
    by_name = {s.name: s for s in SCENARIOS}
    if names is None:
        selected = [s for s in SCENARIOS if s.quick or not quick_only]
    else:
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ValueError(
                f"unknown scenario(s) {missing}; known: {sorted(by_name)}"
            )
        selected = [by_name[n] for n in names]
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    results = []
    for scenario in selected:
        best: dict | None = None
        for _ in range(repeat):
            metrics = scenario.run()
            if best is None or metrics["wall_seconds"] < best["wall_seconds"]:
                best = metrics
        wall = best.pop("wall_seconds")
        results.append(BenchResult(scenario.name, wall, best))
        if progress is not None:
            progress(f"{scenario.name}: {wall:.3f} s")
    return results
