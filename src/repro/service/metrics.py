"""Live service metrics: queue depth, dedup rate, latency percentiles.

The JSONL solve telemetry already records everything about *individual*
solves; this module aggregates the service-level view — what an
operator asks a long-lived ``letdma serve`` process: how deep is the
queue, how often do concurrent requests collapse into one solve, what
are p50/p95 latencies, which backend is doing the work.

:class:`ServiceMetrics` is a thread-safe counter set updated by the
service on every submit/complete/reject; :meth:`ServiceMetrics.snapshot`
is the ``letdma serve --status`` payload, and
:meth:`ServiceMetrics.to_record` is the periodic
``event: "service_metrics"`` JSONL record appended to the service's
telemetry sink, so a run directory interleaves per-solve records with
service health samples.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.runtime.telemetry import TELEMETRY_SCHEMA_VERSION

__all__ = ["ServiceMetrics", "percentile", "render_service_metrics"]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty set)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


class ServiceMetrics:
    """Thread-safe aggregate counters for one service lifetime.

    Latencies are kept in a bounded window (the most recent ``window``
    completions), so percentiles track current behavior instead of
    averaging over the whole history of a long-lived process.
    """

    def __init__(self, window: int = 1024):
        self._lock = threading.Lock()
        self._started_s = time.monotonic()
        self.submitted = 0
        self.dedup_hits = 0
        self.rejected = 0
        self.cancelled = 0
        self.completed = 0
        self.failed = 0
        self.cache_hits = 0
        self.pool_rebuilds = 0
        self.sandbox_failures: dict[str, int] = {}
        self.by_backend: dict[str, int] = {}
        self.by_status: dict[str, int] = {}
        self._latencies: deque[float] = deque(maxlen=window)
        self._queue_delays: deque[float] = deque(maxlen=window)

    # -- updates --------------------------------------------------------

    def record_submit(self, deduped: bool) -> None:
        """Count one accepted submission (deduped or fresh)."""
        with self._lock:
            self.submitted += 1
            if deduped:
                self.dedup_hits += 1

    def record_reject(self) -> None:
        """Count one backpressure rejection."""
        with self._lock:
            self.rejected += 1

    def record_cancel(self) -> None:
        """Count one waiter cancellation."""
        with self._lock:
            self.cancelled += 1

    def record_pool_rebuild(self) -> None:
        """Count one process-pool rebuild after a worker death."""
        with self._lock:
            self.pool_rebuilds += 1

    def record_sandbox_failures(self, kinds) -> None:
        """Count sandboxed backend failures by kind (timeout/hang/...)."""
        if not kinds:
            return
        with self._lock:
            for kind in kinds:
                self.sandbox_failures[kind] = (
                    self.sandbox_failures.get(kind, 0) + 1
                )

    def record_complete(
        self,
        *,
        backend: str,
        status: str,
        latency_seconds: float,
        queue_seconds: float,
        cached: bool,
        failed: bool = False,
    ) -> None:
        """Count one finished job (latency = submit-to-finish)."""
        with self._lock:
            if failed:
                self.failed += 1
            else:
                self.completed += 1
            self.cache_hits += bool(cached)
            self.by_backend[backend] = self.by_backend.get(backend, 0) + 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            self._latencies.append(latency_seconds)
            self._queue_delays.append(queue_seconds)

    # -- reads ----------------------------------------------------------

    def snapshot(self, queue_depth: "int | None" = None) -> dict:
        """One JSON-safe health sample (the ``--status`` payload)."""
        with self._lock:
            total = max(1, self.submitted)
            done = self.completed + self.failed
            snapshot = {
                "uptime_seconds": time.monotonic() - self._started_s,
                "queue_depth": queue_depth,
                "submitted": self.submitted,
                "dedup_hits": self.dedup_hits,
                "dedup_hit_rate": self.dedup_hits / total,
                "rejected": self.rejected,
                "cancelled": self.cancelled,
                "completed": self.completed,
                "failed": self.failed,
                "cache_hits": self.cache_hits,
                "solves": done - self.cache_hits,
                "latency_p50_seconds": percentile(self._latencies, 0.50),
                "latency_p95_seconds": percentile(self._latencies, 0.95),
                "queue_delay_p95_seconds": percentile(self._queue_delays, 0.95),
                "pool_rebuilds": self.pool_rebuilds,
                "sandbox_failures": dict(self.sandbox_failures),
                "by_backend": dict(self.by_backend),
                "by_status": dict(self.by_status),
            }
            share_base = max(1, sum(self.by_backend.values()))
            snapshot["backend_share"] = {
                backend: count / share_base
                for backend, count in self.by_backend.items()
            }
            return snapshot

    def to_record(self, queue_depth: "int | None" = None) -> dict:
        """The periodic ``event: "service_metrics"`` telemetry record."""
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "event": "service_metrics",
            **self.snapshot(queue_depth=queue_depth),
        }


def render_service_metrics(snapshot: dict) -> str:
    """Monospace table of one metrics snapshot."""
    from repro.reporting.tables import render_table

    rows = [
        ("uptime", f"{snapshot.get('uptime_seconds', 0.0):.1f} s"),
        ("queue depth", str(snapshot.get("queue_depth", "?"))),
        ("submitted", str(snapshot.get("submitted", 0))),
        (
            "dedup hits",
            f"{snapshot.get('dedup_hits', 0)} "
            f"({snapshot.get('dedup_hit_rate', 0.0):.0%})",
        ),
        ("rejected (backpressure)", str(snapshot.get("rejected", 0))),
        ("cancelled", str(snapshot.get("cancelled", 0))),
        ("completed", str(snapshot.get("completed", 0))),
        ("failed", str(snapshot.get("failed", 0))),
        ("cache hits", str(snapshot.get("cache_hits", 0))),
        ("latency p50", f"{snapshot.get('latency_p50_seconds', 0.0):.3f} s"),
        ("latency p95", f"{snapshot.get('latency_p95_seconds', 0.0):.3f} s"),
        (
            "queue delay p95",
            f"{snapshot.get('queue_delay_p95_seconds', 0.0):.3f} s",
        ),
    ]
    if snapshot.get("pool_rebuilds"):
        rows.append(("pool rebuilds", str(snapshot["pool_rebuilds"])))
    for kind, count in sorted(
        (snapshot.get("sandbox_failures") or {}).items()
    ):
        rows.append((f"sandbox failures: {kind}", str(count)))
    for backend, share in sorted(
        (snapshot.get("backend_share") or {}).items()
    ):
        rows.append((f"backend share: {backend or '(none)'}", f"{share:.0%}"))
    for status, count in sorted((snapshot.get("by_status") or {}).items()):
        rows.append((f"status: {status}", str(count)))
    return render_table(["metric", "value"], rows, title="Solve service")
