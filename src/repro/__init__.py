"""repro — reproduction of "Optimal Memory Allocation and Scheduling
for DMA Data Transfers under the LET Paradigm" (Pazzaglia, Casini,
Biondi, Di Natale — DAC 2021).

Quick start::

    import repro
    from repro import (
        waters_application, assign_acquisition_deadlines,
        FormulationConfig, Objective, verify_allocation,
    )

    app = assign_acquisition_deadlines(waters_application(), alpha=0.2)
    result = repro.solve(
        app, FormulationConfig(objective=Objective.MIN_DELAY_RATIO)
    )
    verify_allocation(app, result).raise_if_failed()
    print(result.summary())

:func:`repro.solve` is the single front door to the solver: a portfolio
of HiGHS → branch-and-bound → greedy with graceful degradation on
timeouts, an optional persistent cache, and optional JSONL telemetry.
Grids of solves run in parallel through
:class:`repro.runtime.ExperimentRunner`.  Underneath all of them is one
contract — :class:`repro.api.SolveRequest` in,
:class:`repro.api.SolveOutcome` out — which the resident solve service
(:mod:`repro.service`, ``letdma serve``) also speaks.

Package map:

* :mod:`repro.api`       — the stable request/outcome contract every
  solve path executes (facade, runner workers, solve service);
* :mod:`repro.model`     — platform, tasks, labels, application;
* :mod:`repro.let`       — LET semantics: skip rules, Algorithm 1, properties;
* :mod:`repro.milp`      — MILP modeling layer (HiGHS via scipy + pure-Python B&B);
* :mod:`repro.core`      — the paper's MILP formulation, protocol, baselines,
  greedy heuristic, and solution verifier;
* :mod:`repro.sim`       — discrete-event simulation of communications and tasks;
* :mod:`repro.analysis`  — response-time analysis and the gamma sensitivity sweep;
* :mod:`repro.waters`    — the WATERS 2019 case study (reconstructed);
* :mod:`repro.workloads` — synthetic taskset/communication generation;
* :mod:`repro.runtime`   — the solve facade, solver portfolio, parallel
  experiment runner, and run telemetry;
* :mod:`repro.check`     — differential correctness harness: backend
  cross-checking, end-to-end oracle, fuzzing (``letdma fuzz``),
  instance shrinking, and the reproducer corpus;
* :mod:`repro.faults`    — fault injection over the simulator's hook
  points, graceful-degradation policies, robustness reports, and the
  ``letdma chaos`` campaign grids;
* :mod:`repro.service`   — solve-as-a-service: content-addressed job
  queue, request dedup, FIFO dispatchers, live metrics, and the
  in-process/socket clients behind ``letdma serve``;
* :mod:`repro.reporting` — experiment drivers and text tables/figures.
"""

from repro.analysis import (
    analyze,
    assign_acquisition_deadlines,
    compute_slacks,
    schedulable_with_jitter,
)
from repro.core import (
    AllocationResult,
    FallbackAttempt,
    FormulationConfig,
    GreedyAllocator,
    LetDmaFormulation,
    LetDmaProtocol,
    Objective,
    all_profiles,
    greedy_allocation,
    verify_allocation,
)
from repro.faults import FaultSpec, evaluate_robustness
from repro.model import (
    Application,
    CpuCopyParameters,
    DmaParameters,
    Label,
    Platform,
    Task,
    TaskSet,
)
from repro.runtime import (
    ExperimentRunner,
    SolveJob,
    TelemetryWriter,
    read_telemetry,
    solve,
    solve_with_portfolio,
    summarize_telemetry,
)

# repro.api sits under repro.runtime.facade in the import graph; pull
# it in after repro.runtime so the facade's own `from repro.api import`
# never sees a partially initialized module.
from repro.api import SolveOutcome, SolveRequest
from repro.sim import simulate, timeline_for
from repro.waters import waters_application
from repro.workloads import WorkloadSpec, generate_application

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "assign_acquisition_deadlines",
    "compute_slacks",
    "schedulable_with_jitter",
    "AllocationResult",
    "FallbackAttempt",
    "FormulationConfig",
    "GreedyAllocator",
    "LetDmaFormulation",
    "LetDmaProtocol",
    "Objective",
    "all_profiles",
    "greedy_allocation",
    "verify_allocation",
    "FaultSpec",
    "evaluate_robustness",
    "Application",
    "CpuCopyParameters",
    "DmaParameters",
    "Label",
    "Platform",
    "Task",
    "TaskSet",
    "SolveRequest",
    "SolveOutcome",
    "ExperimentRunner",
    "SolveJob",
    "TelemetryWriter",
    "read_telemetry",
    "solve",
    "solve_with_portfolio",
    "summarize_telemetry",
    "simulate",
    "timeline_for",
    "waters_application",
    "WorkloadSpec",
    "generate_application",
    "__version__",
]
