"""Resilience layer: sandboxed solvers, fsck, chaos.

The solve system treats its own infrastructure with the same chaos
discipline :mod:`repro.faults` applies to the modeled LET/DMA system:

* :mod:`repro.resilience.sandbox` — every MILP portfolio rung can run
  in a supervised child process with a wall deadline, an RSS ceiling,
  and heartbeat liveness; failures become structured
  :class:`BackendFailure` objects the ladder degrades past.
* :mod:`repro.resilience.journal` — ``letdma fsck``: per-record CRC
  verification with quarantine-and-replay recovery for telemetry and
  queue journals.
* :mod:`repro.resilience.shim` — deterministic fault injection
  (hang/slow/OOM/crash) for chosen backends, used by the chaos
  harness.
* :mod:`repro.resilience.chaos` — the service-chaos campaign
  (``letdma chaos --target service``) proving no submitted ticket is
  ever lost (loaded lazily: it imports the service stack).

See ``docs/robustness.md`` ("Service and solver resilience").
"""

from repro.resilience.journal import (
    FsckReport,
    fsck_path,
    fsck_state_dir,
    fsck_telemetry,
)
from repro.resilience.sandbox import (
    BackendFailure,
    SandboxLimits,
    run_rung_sandboxed,
    run_sandboxed,
)
from repro.resilience.shim import FAULT_MODES, trigger_fault, validate_fault_plan

__all__ = [
    "BackendFailure",
    "SandboxLimits",
    "run_sandboxed",
    "run_rung_sandboxed",
    "FsckReport",
    "fsck_path",
    "fsck_telemetry",
    "fsck_state_dir",
    "FAULT_MODES",
    "trigger_fault",
    "validate_fault_plan",
    "ServiceChaosConfig",
    "ServiceChaosReport",
    "run_service_chaos",
]

_CHAOS_NAMES = ("ServiceChaosConfig", "ServiceChaosReport", "run_service_chaos")


def __getattr__(name: str):
    # The chaos harness drives the whole service stack; importing it
    # eagerly here would cycle (portfolio -> resilience -> service ->
    # runner -> portfolio), so it loads on first use instead.
    if name in _CHAOS_NAMES:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
