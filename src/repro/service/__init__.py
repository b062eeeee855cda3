"""Solve-as-a-service: resident queue, dedup, and clients.

The service layer turns the one-shot solve pipeline into a long-lived
front door (``letdma serve``): a bounded content-addressed
:class:`~repro.service.queue.JobQueue` (instance hash = cache key =
ticket), FIFO dispatchers executing through the hardened runner
worker, request deduplication with fan-out to every waiter, live
:class:`~repro.service.metrics.ServiceMetrics`, and two interchangeable
clients (:class:`InProcessClient`, :class:`SocketClient`) speaking the
stable :mod:`repro.api` contract.  See ``docs/service.md``.
"""

from repro.service.client import (
    InProcessClient,
    ServiceError,
    ServiceRejected,
    ServiceUnavailable,
    SocketClient,
)
from repro.service.metrics import ServiceMetrics, render_service_metrics
from repro.service.queue import Job, JobQueue, JobState, QueueFull
from repro.service.server import ServiceServer, SolveService, serve
from repro.service.smoke import SmokeFailure, run_smoke

__all__ = [
    "SolveService",
    "ServiceServer",
    "serve",
    "InProcessClient",
    "SocketClient",
    "ServiceError",
    "ServiceRejected",
    "ServiceUnavailable",
    "JobQueue",
    "Job",
    "JobState",
    "QueueFull",
    "ServiceMetrics",
    "render_service_metrics",
    "SmokeFailure",
    "run_smoke",
]
