"""Graceful-degradation solver portfolio.

The exact MILP is the tool of choice, but on large instances it can
exhaust its wall-clock budget without even an incumbent (HiGHS and the
pure-Python branch and bound both report ``TIMEOUT`` in that case).  A
portfolio runs a ladder of solvers and returns the first *usable*
outcome instead of raising or handing back an empty result:

1. ``"highs"``  — exact branch and cut (scipy/HiGHS);
2. ``"bnb"``    — the pure-Python branch and bound (independent oracle,
   small models);
3. ``"greedy"`` — the constructive heuristic, which never times out and
   always returns a feasible ordering (Properties 1 and 2 hold by
   construction; deadlines/Property 3 must be re-checked).

A MILP rung may carry a variant suffix: ``-nopresolve`` skips the
answer-preserving presolve pass and ``-nocuts`` disables the cut
layer (:mod:`repro.milp.cuts`).  Both exist mainly for the
differential harness (:mod:`repro.check`), which cross-checks each
optimization against the untouched solve path.

A rung's outcome is accepted when it is ``OPTIMAL``, a ``FEASIBLE``
incumbent, or a definitive ``INFEASIBLE``; the portfolio falls through
on a time limit without incumbent (``TIMEOUT``), a backend error, or
an exception.  Every attempt is recorded on the returned result's
``fallback_chain`` (and from there into run telemetry), so a degraded
answer is always distinguishable from an exact one.

The formulation (MILP model, its presolve reduction, and the standard
form arrays) is built once and shared by every MILP rung, so falling
from ``highs`` to ``bnb`` does not pay the model-construction cost
twice.

Each rung receives the configured ``time_limit_seconds`` as its own
budget; use :class:`repro.runtime.ExperimentRunner`'s per-job deadline
to bound the whole ladder.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.formulation import FormulationConfig, LetDmaFormulation
from repro.core.heuristic import greedy_allocation
from repro.core.solution import AllocationResult, FallbackAttempt
from repro.defaults import DEFAULT_PORTFOLIO
from repro.milp.result import SolveStatus
from repro.milp.worker import rung_solve_args
from repro.model.application import Application
from repro.resilience.sandbox import BackendFailure, run_rung_sandboxed

__all__ = ["PORTFOLIO_RUNGS", "solve_with_portfolio"]

#: Default rung order (re-exported for introspection).
PORTFOLIO_RUNGS = DEFAULT_PORTFOLIO

#: Statuses that stop the ladder: a proven optimum, a usable incumbent,
#: or a definitive proof that no allocation exists.
_ACCEPTED = (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)


def solve_with_portfolio(
    app: Application,
    config: FormulationConfig | None = None,
    rungs: tuple[str, ...] = DEFAULT_PORTFOLIO,
    prior=None,
    *,
    sandbox=None,
    fault_plan: "dict | None" = None,
) -> AllocationResult:
    """Solve ``app`` down the rung ladder; see the module docstring.

    The returned result carries ``backend`` (the rung that produced it)
    and ``fallback_chain`` (every attempt, in order).  A single-rung
    portfolio returns that rung's outcome verbatim — even an ``ERROR``
    — so direct-backend solves keep their non-raising contract.

    ``prior`` is an optional :class:`repro.incremental.Prior` — a
    previous solve offered as a warm start.  When the perturbation
    provably leaves the MILP unchanged, a proven prior answer is
    returned verbatim (``warm_start="reused"``); when the prior can be
    repaired and revalidated, it proves feasibility outright for the
    NO-OBJ objective and seeds the MILP rungs otherwise
    (``warm_start="repaired"``).  Any doubt degrades to a cold solve,
    so a warm solve can differ from a cold one only in speed.

    The resilience hooks (all optional, all off by default):

    * ``sandbox`` — a :class:`repro.resilience.SandboxLimits`: every
      MILP rung runs in a supervised child process; a hang, crash,
      OOM, or blown deadline becomes a ``sandbox-<kind>`` attempt on
      the fallback chain and the ladder degrades to the next rung.
      The in-process ``greedy`` rung never sandboxes — it is the
      last-resort answer and cannot hang.
    * ``fault_plan`` — chaos-shim modes per backend (testing only;
      applied inside the sandbox child, never in-process).
    """
    config = config or FormulationConfig()
    if not rungs:
        raise ValueError("portfolio needs at least one rung")
    attempts: list[FallbackAttempt] = []
    result: AllocationResult | None = None
    shared: dict = {}
    warm_tier = "none"
    if prior is not None:
        from repro.core.formulation import Objective
        from repro.incremental.warm import prepare_warm

        plan_start = time.perf_counter()
        plan = prepare_warm(app, config, prior)
        plan_seconds = time.perf_counter() - plan_start
        warm_tier = plan.tier
        if plan.tier == "reused":
            result = plan.reused
            result.fallback_chain = (
                FallbackAttempt(
                    backend="warm-reuse",
                    status=result.status.value,
                    runtime_seconds=plan_seconds,
                ),
            )
            return result
        if plan.formulation is not None:
            shared["formulation"] = plan.formulation
        if plan.tier == "repaired":
            shared["start"] = plan.start
            if config.objective is Objective.NONE:
                # A validated assignment *is* an optimal answer for the
                # pure-feasibility objective: return it without solving.
                result = plan.repaired
                result.status = SolveStatus.OPTIMAL
                result.objective_value = 0.0
                result.num_variables = plan.formulation.model.num_variables
                result.num_constraints = plan.formulation.model.num_constraints
                result.backend = "warm-repair"
                result.fallback_chain = (
                    FallbackAttempt(
                        backend="warm-repair",
                        status=result.status.value,
                        runtime_seconds=plan_seconds,
                    ),
                )
                return result
    for position, rung in enumerate(rungs):
        is_last = position == len(rungs) - 1
        start = time.perf_counter()
        try:
            if sandbox is not None and rung.partition("-")[0] != "greedy":
                result = _run_rung_sandboxed(
                    app, config, rung, sandbox, shared, fault_plan
                )
            else:
                result = _run_rung(app, config, rung, shared)
        except BackendFailure as exc:
            attempts.append(
                FallbackAttempt(
                    backend=rung,
                    status=f"sandbox-{exc.kind}",
                    runtime_seconds=exc.elapsed_seconds,
                    reason=exc.detail or str(exc),
                )
            )
            result = None
            continue  # a last-rung sandbox failure degrades to ERROR below
        except Exception as exc:
            elapsed = time.perf_counter() - start
            attempts.append(
                FallbackAttempt(
                    backend=rung,
                    status="error",
                    runtime_seconds=elapsed,
                    reason=f"{type(exc).__name__}: {exc}",
                )
            )
            if is_last:
                raise
            result = None
            continue
        accepted = result.status in _ACCEPTED
        attempts.append(
            FallbackAttempt(
                backend=rung,
                status=result.status.value,
                runtime_seconds=result.runtime_seconds,
                reason="" if accepted or is_last else _fail_reason(result),
            )
        )
        if accepted or is_last:
            break
        result = None
    if result is None:  # no rung produced a result (raised or failed)
        result = AllocationResult(status=SolveStatus.ERROR)
    result.backend = attempts[-1].backend
    result.fallback_chain = tuple(attempts)
    if warm_tier == "repaired" and result.backend != "greedy":
        result.warm_start = "repaired"
    return result


def _run_rung(
    app: Application,
    config: FormulationConfig,
    rung: str,
    shared: dict,
) -> AllocationResult:
    """Run one rung and return its raw result (exceptions propagate).

    MILP rungs share one formulation instance (keyed in ``shared``) so
    the model — and its cached presolve reduction and standard form —
    is built only once per portfolio solve.
    """
    if rung == "greedy":
        start = time.perf_counter()
        result = greedy_allocation(app)
        result.runtime_seconds = time.perf_counter() - start
        return result
    args = rung_solve_args(rung, config)
    formulation = shared.get("formulation")
    if formulation is None:
        formulation = LetDmaFormulation(
            app, replace(config, backend=args["backend"])
        )
        shared["formulation"] = formulation
    return formulation.solve(start=shared.get("start"), **args)


def _run_rung_sandboxed(
    app: Application,
    config: FormulationConfig,
    rung: str,
    sandbox,
    shared: dict,
    fault_plan: "dict | None",
) -> AllocationResult:
    """Run one MILP rung in a supervised child process.

    The child rebuilds the formulation (model objects cannot cross a
    process boundary), so sandboxed rungs trade the shared-formulation
    optimization for isolation; a repaired warm start still crosses
    over by variable name.  Raises
    :class:`repro.resilience.BackendFailure` on timeout/hang/OOM/crash.
    """
    start = shared.get("start")
    start_values = (
        {var.name: value for var, value in start.items()} if start else None
    )
    fault = (fault_plan or {}).get(rung.partition("-")[0])
    return run_rung_sandboxed(
        app,
        config,
        rung,
        sandbox,
        start_values=start_values,
        fault=fault,
    )


def _fail_reason(result: AllocationResult) -> str:
    if result.status is SolveStatus.TIMEOUT:
        return "time limit without an incumbent"
    if result.status is SolveStatus.ERROR:
        return "backend error"
    return f"status {result.status.value}"
