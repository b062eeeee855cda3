"""Single source of solver defaults.

Every layer that exposes solver knobs — :class:`repro.core.FormulationConfig`,
the persistent cache in :mod:`repro.io.cache`, the :func:`repro.solve`
facade, the :class:`repro.runtime.ExperimentRunner`, and the ``letdma``
CLI — reads its defaults from this module, so a knob has exactly one
default value across the whole library.  (Before this module existed the
CLI defaulted ``--time-limit`` to 120 s while ``FormulationConfig``
defaulted to 600 s; grids silently solved under different budgets
depending on the entrypoint.)

This module is a leaf: it imports nothing from :mod:`repro`, so it can
be used from any layer without creating import cycles.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_TIME_LIMIT_SECONDS",
    "DEFAULT_MIP_GAP",
    "DEFAULT_MILP_BACKEND",
    "DEFAULT_CUTS",
    "DEFAULT_SOLVE_BACKEND",
    "DEFAULT_PORTFOLIO",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SERVICE_HOST",
    "DEFAULT_SERVICE_PORT",
    "DEFAULT_SERVICE_SHARDS",
    "DEFAULT_QUEUE_CAPACITY",
    "DEFAULT_METRICS_INTERVAL_SECONDS",
    "DEFAULT_SANDBOX_RSS_MB",
    "DEFAULT_SANDBOX_HEARTBEAT_SECONDS",
    "DEFAULT_SANDBOX_GRACE_SECONDS",
    "DEFAULT_CLIENT_READ_TIMEOUT_SECONDS",
    "DEFAULT_CLIENT_ATTEMPTS",
    "DEFAULT_RETRY_AFTER_SECONDS",
]

#: Wall-clock budget per solver rung (the paper used a 1-hour CPLEX
#: timeout on a 40-core Xeon; HiGHS on the reproduction's instances
#: finishes in seconds to minutes).
DEFAULT_TIME_LIMIT_SECONDS: float = 120.0

#: Relative MIP gap at which to stop (None = solve to proven optimality).
DEFAULT_MIP_GAP: float | None = None

#: The exact MILP backend used when a single backend is requested.
DEFAULT_MILP_BACKEND: str = "highs"

#: Whether exact solves run the structure-aware cut layer
#: (:mod:`repro.milp.cuts`): combinatorial transfer bounds, the
#: bound-fixing ladder, and cutting planes at B&B node LPs.  The layer
#: is answer-preserving, so it is on by default and excluded from the
#: persistent cache key.
DEFAULT_CUTS: bool = True

#: The backend of :func:`repro.solve`: the graceful-degradation
#: portfolio (HiGHS, then pure-Python branch and bound, then the greedy
#: heuristic).
DEFAULT_SOLVE_BACKEND: str = "portfolio"

#: Rung order of the default solver portfolio.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("highs", "bnb", "greedy")

#: Default persistent cache directory of :func:`repro.solve` callers
#: that enable caching without naming a directory.
DEFAULT_CACHE_DIR: str = ".letdma-cache"

#: Loopback interface the solve service binds to (``letdma serve``
#: is a local service; remote exposure is a deliberate act).
DEFAULT_SERVICE_HOST: str = "127.0.0.1"

#: Default TCP port of ``letdma serve`` (0 = let the OS pick).
DEFAULT_SERVICE_PORT: int = 6160

#: Dispatchers of the solve service; each claims one job at a time from
#: the shared FIFO queue (and owns one pool slot with ``--processes``).
DEFAULT_SERVICE_SHARDS: int = 2

#: Bounded queue capacity per solve service (pending + running jobs);
#: submissions beyond it are honestly rejected (backpressure).
DEFAULT_QUEUE_CAPACITY: int = 256

#: How often the solve service appends a ``service_metrics`` record to
#: its telemetry sink.
DEFAULT_METRICS_INTERVAL_SECONDS: float = 30.0

#: RSS ceiling of one sandboxed solver attempt (``RLIMIT_AS``); a rung
#: that allocates past it sees ``MemoryError`` instead of taking the
#: dispatcher (or the machine) down with it.
DEFAULT_SANDBOX_RSS_MB: float = 4096.0

#: A sandboxed solver child beats this often; missing the beat marks
#: the attempt hung (e.g. a stopped or deadlocked process).
DEFAULT_SANDBOX_HEARTBEAT_SECONDS: float = 5.0

#: Wall-clock grace a sandboxed rung gets on top of its solver time
#: limit before the supervisor declares a timeout and kills it.
DEFAULT_SANDBOX_GRACE_SECONDS: float = 10.0

#: Socket-client read timeout: how long one request/response round
#: trip may stall before the client retries or gives up.
DEFAULT_CLIENT_READ_TIMEOUT_SECONDS: float = 120.0

#: Bounded attempts (first try + retries) a socket client makes for an
#: idempotent operation before surfacing ``ServiceUnavailable``.
DEFAULT_CLIENT_ATTEMPTS: int = 3

#: Retry-after hint attached to backpressure rejections and transport
#: failures (seconds).
DEFAULT_RETRY_AFTER_SECONDS: float = 1.0
