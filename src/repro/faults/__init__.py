"""Fault injection and robustness evaluation (``repro.faults``).

The paper's allocations are optimal for a *nominal* platform: exact
WCETs, an exact DMA rate omega_c, transfers that never fail.  This
package measures how those schedules degrade when the platform
misbehaves, without forking the simulation engine — all faults enter
through the hook points of :class:`repro.sim.engine.SimulatorHooks` and
the :class:`repro.sim.dma_device.DmaTransferHook` shape:

* :mod:`repro.faults.spec` — :class:`FaultSpec`, the parameterized
  fault model (WCET overrun factors, DMA rate degradation, transient
  transfer failures with bounded retry, release jitter);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, deterministic
  site-keyed fault draws over both hook surfaces;
* :mod:`repro.faults.policies` — graceful-degradation policies grounded
  in LET semantics (stale-data fallback, fail-stop);
* :mod:`repro.faults.report` — :func:`evaluate_robustness` and the
  :class:`RobustnessReport` (simulated misses + verifier diagnostics);
* :mod:`repro.faults.streams` — counter-hash random streams shared by
  the scalar injector and the vectorized grid tabulation;
* :mod:`repro.faults.batch` — :func:`evaluate_robustness_batch`, whole
  fault grids in one vectorized simulation;
* :mod:`repro.faults.campaign` — ``letdma chaos`` grids through the
  self-healing :class:`~repro.runtime.ExperimentRunner`.

See ``docs/robustness.md`` for the full fault model and CLI guide.
"""

from repro.faults.campaign import (
    BatchChaosJob,
    ChaosConfig,
    ChaosVariant,
    chaos_grid,
    render_chaos_table,
    run_chaos,
)
from repro.faults.batch import BatchRobustnessOutcome, evaluate_robustness_batch
from repro.faults.injector import FaultInjector
from repro.faults.policies import (
    POLICIES,
    DegradationPolicy,
    FailStopPolicy,
    PolicyStats,
    StaleDataPolicy,
    make_policy,
)
from repro.faults.report import (
    RobustnessReport,
    degraded_application,
    evaluate_robustness,
)
from repro.faults.spec import FaultSpec

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "POLICIES",
    "PolicyStats",
    "DegradationPolicy",
    "StaleDataPolicy",
    "FailStopPolicy",
    "make_policy",
    "RobustnessReport",
    "degraded_application",
    "evaluate_robustness",
    "evaluate_robustness_batch",
    "BatchRobustnessOutcome",
    "ChaosVariant",
    "BatchChaosJob",
    "ChaosConfig",
    "chaos_grid",
    "run_chaos",
    "render_chaos_table",
]
