"""The sandboxed portfolio ladder: injected infrastructure failures
degrade to the next rung, and the provenance chain records every
step."""

import pytest

from repro.core import FormulationConfig, Objective
from repro.milp.result import SolveStatus
from repro.resilience import SandboxLimits
from repro.runtime.portfolio import solve_with_portfolio
from repro.workloads import WorkloadSpec, generate_application

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def app():
    return generate_application(
        WorkloadSpec(num_tasks=3, num_cores=2, communication_density=0.8, seed=5)
    )


def config():
    return FormulationConfig(
        objective=Objective.MIN_TRANSFERS, time_limit_seconds=30.0
    )


def chain_of(result):
    return [(a.backend, a.status) for a in result.fallback_chain]


def test_sandbox_failure_degrades_to_next_rung(app):
    result = solve_with_portfolio(
        app,
        config(),
        sandbox=SandboxLimits(),
        fault_plan={"highs": "crash"},
    )
    assert result.status is SolveStatus.OPTIMAL
    assert result.backend == "bnb"
    assert chain_of(result)[0] == ("highs", "sandbox-crash")


def test_all_exact_rungs_crashing_lands_on_greedy(app):
    result = solve_with_portfolio(
        app,
        config(),
        sandbox=SandboxLimits(),
        fault_plan={"highs": "crash", "bnb": "crash"},
    )
    assert result.status is SolveStatus.FEASIBLE
    assert result.backend == "greedy"
    assert [status for _, status in chain_of(result)[:2]] == [
        "sandbox-crash",
        "sandbox-crash",
    ]


def test_sandboxed_answers_match_in_process(app):
    sandboxed = solve_with_portfolio(app, config(), sandbox=SandboxLimits())
    in_process = solve_with_portfolio(app, config())
    assert sandboxed.status is in_process.status
    assert sandboxed.objective_value == in_process.objective_value
    assert sandboxed.backend == in_process.backend
