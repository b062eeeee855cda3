"""Parallel experiment runtime: the :func:`repro.solve` facade, the
solver portfolio, the experiment runner, and JSONL run telemetry.

Layering::

    repro.solve(app, ...)                 # one solve, observable
        └─ portfolio: highs → bnb → greedy (graceful degradation)
        └─ cache:     repro.io.cache content-hash keys
        └─ telemetry: one JSONL record per solve

    ExperimentRunner(jobs=N).run(grid)    # many solves, in parallel
        └─ solve jobs run on a repro.service.SolveService with N
           dispatchers (and N pool processes when N > 1)

See ``docs/runtime.md`` for the telemetry schema and CLI integration
(``letdma sweep --jobs 4 --telemetry runs/``).
"""

from repro.runtime.facade import solve, solve_recorded
from repro.runtime.portfolio import PORTFOLIO_RUNGS, solve_with_portfolio
from repro.runtime.runner import (
    ExperimentRunner,
    JobOutcome,
    RunInterrupted,
    SolveJob,
)
from repro.runtime.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryWriter,
    build_solve_record,
    read_telemetry,
    record_crc,
    render_telemetry_summary,
    summarize_telemetry,
    verify_record,
)

__all__ = [
    "solve",
    "solve_recorded",
    "PORTFOLIO_RUNGS",
    "solve_with_portfolio",
    "ExperimentRunner",
    "JobOutcome",
    "RunInterrupted",
    "SolveJob",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryWriter",
    "build_solve_record",
    "read_telemetry",
    "record_crc",
    "render_telemetry_summary",
    "summarize_telemetry",
    "verify_record",
]
