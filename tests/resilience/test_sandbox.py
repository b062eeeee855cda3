"""Sandboxed solver execution: every failure mode becomes a typed
:class:`BackendFailure` with the right kind, and the happy path returns
the child's result unchanged."""

from statistics import median

import pytest

from repro.api import SolveRequest, execute
from repro.core import FormulationConfig, Objective
from repro.milp.result import SolveStatus
from repro.resilience import BackendFailure, SandboxLimits, run_rung_sandboxed
from repro.waters import waters_application
from repro.workloads import WorkloadSpec, generate_application

from tests.conftest import in_fresh_interpreter


@pytest.fixture(scope="module")
def tiny_app():
    return generate_application(
        WorkloadSpec(num_tasks=2, num_cores=2, communication_density=1.0, seed=3)
    )


def config(limit=30.0):
    return FormulationConfig(
        objective=Objective.MIN_TRANSFERS, time_limit_seconds=limit
    )


def test_ok_path_returns_child_result(tiny_app):
    # The rung entry leaves `backend` blank (the portfolio stamps it);
    # the sandbox must hand back exactly what the child computed.
    from repro.milp.worker import solve_rung_entry

    result = run_rung_sandboxed(tiny_app, config(), "highs", SandboxLimits())
    assert result.status is SolveStatus.OPTIMAL
    reference = solve_rung_entry(
        {"app": tiny_app, "config": config(), "rung": "highs", "fault": None}
    )
    assert result.objective_value == reference.objective_value


def test_crash_is_typed(tiny_app):
    with pytest.raises(BackendFailure) as excinfo:
        run_rung_sandboxed(
            tiny_app, config(), "highs", SandboxLimits(), fault="crash"
        )
    failure = excinfo.value
    assert failure.kind == "crash"
    assert failure.backend == "highs"
    assert failure.elapsed_seconds >= 0.0


def test_oom_is_typed(tiny_app):
    limits = SandboxLimits(rss_mb=128.0)
    with pytest.raises(BackendFailure) as excinfo:
        run_rung_sandboxed(tiny_app, config(), "highs", limits, fault="oom")
    assert excinfo.value.kind == "oom"


def test_slow_backend_hits_the_wall(tiny_app):
    limits = SandboxLimits(wall_seconds=1.0)
    with pytest.raises(BackendFailure) as excinfo:
        run_rung_sandboxed(tiny_app, config(), "highs", limits, fault="slow")
    assert excinfo.value.kind == "timeout"


def test_hung_backend_loses_its_heartbeat(tiny_app):
    limits = SandboxLimits(wall_seconds=30.0, heartbeat_seconds=0.5)
    with pytest.raises(BackendFailure) as excinfo:
        run_rung_sandboxed(tiny_app, config(), "highs", limits, fault="hang")
    assert excinfo.value.kind == "hang"


def test_small_rss_headroom_does_not_starve_the_child(tiny_app):
    # RLIMIT_AS is applied as headroom above the forked child's
    # baseline address space; an rss_mb far below the parent's virtual
    # size must still leave a healthy solve runnable (regression: an
    # absolute cap starved the child before its first heartbeat).
    limits = SandboxLimits(rss_mb=192.0)
    result = run_rung_sandboxed(tiny_app, config(), "highs", limits)
    assert result.status is SolveStatus.OPTIMAL


def test_wall_for_derives_from_solver_budget():
    limits = SandboxLimits(grace_seconds=7.0)
    assert limits.wall_for(10.0) == 17.0
    assert limits.wall_for(None) > 7.0  # default budget + grace
    assert SandboxLimits(wall_seconds=3.0).wall_for(100.0) == 3.0


def test_exception_in_child_is_a_crash(tiny_app):
    bad = FormulationConfig(backend="no-such-backend")
    with pytest.raises(BackendFailure) as excinfo:
        run_rung_sandboxed(tiny_app, bad, "no-such-backend", SandboxLimits())
    assert excinfo.value.kind == "crash"


def _fixed_cost_and_waters_seconds(app):
    """Medians, in seconds: the sandbox's fixed cost on ``app`` and an
    in-process WATERS solve (see the test below)."""
    request = SolveRequest(app=app, config=config(), backend="highs")
    limits = SandboxLimits()
    assert execute(request, sandbox=limits).status == "optimal"  # warm-ups
    execute(request)
    fixed_s = median(
        execute(request, sandbox=limits).wall_seconds
        - execute(request).wall_seconds
        for _ in range(7)
    )
    waters = SolveRequest(
        app=waters_application(),
        config=FormulationConfig(objective=Objective.MIN_TRANSFERS),
        backend="highs",
    )
    execute(waters)
    return fixed_s, median(execute(waters).wall_seconds for _ in range(3))


def test_fixed_cost_is_under_5_percent_of_a_waters_solve(tiny_app):
    """The sandbox's fixed cost (fork, pipe heartbeat, rlimits) is at
    most 5% of an in-process WATERS solve.

    The cost is the median difference over interleaved pairs of
    sandboxed and in-process executes of the 2-task app, where it is
    most of the wall time.  Pairs of WATERS solves would spread wider
    than the 5% this checks.

    Both are measured in a fresh interpreter.  A fork copies the page
    tables of the process that forks, so the cost grows with its
    resident size: 9 ms at 41 MB and 36 ms at 640 MB on a 2-vCPU VM.
    """
    fixed_s, waters_s = in_fresh_interpreter(
        _fixed_cost_and_waters_seconds, tiny_app
    )
    assert fixed_s <= 0.05 * waters_s, (
        f"sandbox fixed cost {fixed_s * 1e3:.1f} ms > 5% of the WATERS "
        f"median {waters_s * 1e3:.0f} ms"
    )
