"""The long-lived solve service and its socket front end.

:class:`SolveService` is the one execution engine behind every solve
grid: a bounded, content-addressed
:class:`~repro.service.queue.JobQueue` served as one FIFO by ``shards``
dispatcher threads, each claiming one job at a time and executing it
through the hardened worker body of :mod:`repro.runtime.jobs`
(retry-with-backoff, error containment) — in the dispatcher thread, or
in a process pool with one slot per dispatcher.  The persistent solve
cache is the shared warm store and JSONL telemetry the flight recorder.
Identical instances submitted concurrently collapse to one solve whose
result fans out to every waiter (request deduplication).

:class:`ServiceServer` exposes the service over a local TCP socket as
newline-delimited JSON (one request object per line, one response
object per line) — the transport behind
:class:`repro.service.client.SocketClient` and ``letdma serve``.  It
turns on *family warm routing*: its ``submit`` op gives a request that
carries no prior the most recent proven outcome of its structural
family as one.

Typical embedding::

    with SolveService(cache_dir=".letdma-cache") as service:
        ticket = service.submit(app)            # content-hash ticket
        outcome = service.result(ticket)        # blocks until done

See ``docs/service.md`` for the architecture and queue lifecycle.
"""

from __future__ import annotations

import hashlib
import json
import socketserver
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.api import (
    SolveOutcome,
    SolveRequest,
    outcome_to_dict,
    request_from_dict,
)
from repro.core.formulation import FormulationConfig
from repro.defaults import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_SERVICE_HOST,
    DEFAULT_SERVICE_SHARDS,
    DEFAULT_SOLVE_BACKEND,
)
from repro.model.application import Application
from repro.resilience.shim import validate_fault_plan
from repro.runtime.jobs import SolveJob, execute_with_retries
from repro.runtime.telemetry import TelemetryWriter
from repro.service.metrics import ServiceMetrics
from repro.service.queue import Job, JobQueue, JobState, QueueFull

__all__ = ["SolveService", "ServiceServer", "serve"]

#: Most-recent-prior families the service remembers for warm routing.
_WARM_MEMORY_LIMIT = 64


def _warm_family(request: SolveRequest) -> str:
    """Structure-invariant family hash for warm-start routing.

    Requests whose task/label *structure* matches (names, core mapping,
    writer/reader wiring, objective, backend) belong to one family even
    when WCETs, periods, deadlines, or label sizes differ — exactly the
    perturbations :mod:`repro.incremental` can reuse or repair.  The
    service keeps the most recent *proven* outcome per family, and the
    socket server's ``submit`` op offers it as the prior for the next
    family member; an unusable prior simply degrades to a cold solve.
    """
    app = request.app
    data = {
        "tasks": [[task.name, task.core_id] for task in app.tasks],
        "labels": [
            [label.name, label.writer, list(label.readers)]
            for label in app.labels
        ],
        "objective": request.resolved_config().objective.value,
        "backend": request.backend,
    }
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:24]


def _sandbox_failure_kinds(fallback_chain) -> list[str]:
    """Extract sandbox failure kinds from one result's fallback chain."""
    return [
        attempt.status.removeprefix("sandbox-")
        for attempt in fallback_chain or ()
        if attempt.status.startswith("sandbox-")
    ]


class SolveService:
    """A resident, deduplicating solve service.

    Args:
        shards: Dispatchers serving the one FIFO queue; each claims one
            job at a time and, with ``use_processes``, owns one slot of
            the process pool.  Telemetry records name the dispatcher
            that ran the job as ``service.shard``.
        queue_capacity: Bounded pending+running population; submissions
            beyond it raise :class:`~repro.service.queue.QueueFull`.
        cache_dir: Persistent solve cache shared by all dispatchers —
            the warm store that makes re-submitted instances free.
        telemetry: Optional JSONL sink: one record per *executed* solve
            (dedup fan-out adds waiters, not records) plus periodic
            ``service_metrics`` records.
        state_dir: Optional journal directory; pending work survives a
            service restart (see :meth:`JobQueue.restore`).
        deadline_seconds: Per-job wall-clock cap on each portfolio
            rung.
        max_retries / retry_backoff_seconds: The runner's crash-retry
            hardening, applied per job.
        use_processes: Execute solves in a process pool (one process
            per dispatcher) instead of the dispatcher threads; required
            for CPU-bound parallelism, off by default for embedding
            tests.  A worker killed mid-solve (OOM killer, operator,
            chaos) breaks the pool; the service rebuilds it and retries
            each affected job once before failing it typed.
        metrics_interval_seconds: Cadence of ``service_metrics``
            telemetry records (None disables the sampler thread).
        sandbox: Optional :class:`repro.resilience.SandboxLimits`; when
            set, every MILP portfolio rung runs in a supervised child
            process and hang/crash/OOM/timeout degrade the ladder
            instead of wedging a dispatcher.
        fault_plan: ``{backend: mode}`` chaos fault injection (testing
            only; requires ``sandbox``); see
            :mod:`repro.resilience.shim`.
    """

    def __init__(
        self,
        *,
        shards: int = DEFAULT_SERVICE_SHARDS,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        cache_dir: "str | None" = None,
        telemetry: "TelemetryWriter | str | None" = None,
        state_dir: "str | None" = None,
        deadline_seconds: "float | None" = None,
        max_retries: int = 1,
        retry_backoff_seconds: float = 0.2,
        use_processes: bool = False,
        metrics_interval_seconds: "float | None" = None,
        sandbox=None,
        fault_plan: "dict | None" = None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = int(shards)
        self.queue = JobQueue(capacity=queue_capacity, state_dir=state_dir)
        self.metrics = ServiceMetrics()
        self.telemetry = TelemetryWriter.coerce(telemetry)
        self.cache_dir = cache_dir
        self.deadline_seconds = deadline_seconds
        self.max_retries = int(max_retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        self.use_processes = use_processes
        self.metrics_interval_seconds = metrics_interval_seconds
        self.sandbox = sandbox
        self.fault_plan = validate_fault_plan(fault_plan)
        self._telemetry_lock = threading.Lock()
        self._warm_lock = threading.Lock()
        #: family hash -> most recent proven Prior (bounded, LRU-ish);
        #: None until :meth:`enable_warm_routing`.
        self._warm_memory: "dict | None" = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._pool: "ProcessPoolExecutor | None" = None
        self._pool_lock = threading.Lock()
        self._started = False
        self.restored_jobs = self.queue.restore()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SolveService":
        """Spin up the dispatchers (idempotent)."""
        if self._started:
            return self
        self._started = True
        if self.use_processes:
            with self._pool_lock:
                self._pool = ProcessPoolExecutor(max_workers=self.shards)
        for shard in range(self.shards):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(shard,),
                name=f"letdma-shard-{shard}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.metrics_interval_seconds is not None:
            sampler = threading.Thread(
                target=self._metrics_loop, name="letdma-metrics", daemon=True
            )
            sampler.start()
            self._threads.append(sampler)
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop dispatchers, drain nothing further, flush final metrics."""
        if not self._started:
            return
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
        self._write_telemetry(self.metrics.to_record(self.queue.depth()))
        self._started = False

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- client surface -------------------------------------------------

    def submit(
        self,
        app: Application,
        config: "FormulationConfig | None" = None,
        *,
        backend: str = DEFAULT_SOLVE_BACKEND,
        job_id: "str | None" = None,
        tags: "dict | None" = None,
    ) -> str:
        """Submit one solve; returns the content-hash ticket."""
        return self.submit_request(
            SolveRequest(
                app=app,
                config=config,
                backend=backend,
                job_id=job_id,
                tags=dict(tags or {}),
            )
        )

    def submit_request(self, request: SolveRequest) -> str:
        """Submit a :class:`~repro.api.SolveRequest`; returns its ticket.

        Raises :class:`~repro.service.queue.QueueFull` when the bounded
        queue rejects the submission (backpressure) — callers should
        drain results and retry.
        """
        try:
            job, deduped = self.queue.submit(request)
        except QueueFull:
            self.metrics.record_reject()
            raise
        self.metrics.record_submit(deduped)
        return job.instance

    def status(self, ticket: str) -> dict:
        """Lifecycle snapshot for one ticket."""
        job = self.queue.get(ticket)
        if job is None:
            return {"instance": ticket, "state": "unknown"}
        return {
            "instance": ticket,
            "state": job.state.value,
            "waiters": job.waiters,
            "queue_seconds": job.queue_seconds,
            "error": job.error,
        }

    def result(self, ticket: str, timeout: "float | None" = None) -> SolveOutcome:
        """Block until the ticket's shared solve finishes.

        Raises ``KeyError`` for unknown tickets, ``TimeoutError`` when
        ``timeout`` passes first, and ``RuntimeError`` for failed or
        cancelled entries.
        """
        job = self.queue.get(ticket)
        if job is None:
            raise KeyError(f"unknown ticket {ticket!r}")
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"solve {ticket} still {job.state.value} after {timeout} s"
            )
        if job.state is JobState.FAILED:
            raise RuntimeError(f"solve {ticket} failed: {job.error}")
        if job.state is JobState.CANCELLED:
            raise RuntimeError(f"solve {ticket} was cancelled")
        assert job.outcome is not None
        return replace(job.outcome, deduped=job.waiters > 1)

    def cancel(self, ticket: str) -> str:
        """Detach one waiter; see :meth:`JobQueue.cancel` for outcomes."""
        verdict = self.queue.cancel(ticket)
        if verdict in ("detached", "cancelled"):
            self.metrics.record_cancel()
        return verdict

    def metrics_snapshot(self) -> dict:
        """The live health sample (``letdma serve --status``)."""
        return self.metrics.snapshot(queue_depth=self.queue.depth())

    # -- worker side ----------------------------------------------------

    def _dispatch_loop(self, shard: int) -> None:
        while not self._stop.is_set():
            entry = self.queue.claim(timeout=0.2)
            if entry is None:
                continue
            request = entry.request
            job = SolveJob(
                job_id=request.job_id or entry.instance,
                app=request.app,
                config=request.resolved_config(),
                backend=request.backend,
                tags=dict(request.tags),
                prior=request.prior,
            )
            try:
                outcome = self._execute(job)
            except (Exception, KeyboardInterrupt) as exc:
                # A pool that died twice, an unpicklable payload, or a
                # pool worker hit by a terminal Ctrl-C, which reports
                # its KeyboardInterrupt as the job's result.
                self._account(entry, None, failed=True)
                self.queue.fail(entry, f"{type(exc).__name__}: {exc}")
                continue
            self.metrics.record_sandbox_failures(
                _sandbox_failure_kinds(outcome.result.fallback_chain)
            )
            record = dict(outcome.record)
            record["service"] = {
                "shard": shard,
                "waiters": entry.waiters,
                "queue_seconds": entry.queue_seconds,
            }
            shared = SolveOutcome(
                instance=entry.instance,
                result=outcome.result,
                record=record,
            )
            self._write_telemetry(record)
            # Account and remember *before* finish(): finish() wakes
            # waiters, and a client acting right after result() must see
            # its own completion counted and its family prior in place.
            self._account(entry, shared)
            self._remember_prior(request, outcome.result)
            self.queue.finish(entry, shared)

    def _execute(self, job: SolveJob):
        """Run one claimed job, in the dispatcher thread or the pool.

        A broken pool (a worker SIGKILLed mid-flight) is rebuilt and
        the job retried exactly once — solves are deterministic and
        content-addressed, so a replay is always safe; a second failure
        propagates and the dispatcher fails the job typed.
        """
        args = (
            job,
            self.cache_dir,
            self.deadline_seconds,
            self.max_retries,
            self.retry_backoff_seconds,
            self.sandbox,
            dict(self.fault_plan) or None,
        )
        if not self.use_processes:
            return execute_with_retries(*args)
        for attempt in (0, 1):
            with self._pool_lock:
                pool = self._pool
            if pool is None:
                raise RuntimeError("service process pool is shut down")
            try:
                return pool.submit(execute_with_retries, *args).result()
            except Exception:
                self._rebuild_pool(pool)
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _rebuild_pool(self, broken) -> None:
        """Replace a broken process pool (first dispatcher in wins)."""
        if self._stop.is_set():
            return
        with self._pool_lock:
            if self._pool is not broken:
                return  # another dispatcher already rebuilt it
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(max_workers=self.shards)
        self.metrics.record_pool_rebuild()

    # -- family warm routing -------------------------------------------

    def enable_warm_routing(self) -> None:
        """Remember each structural family's latest proven outcome for
        :meth:`warm_prior`.  :class:`ServiceServer` turns this on; a
        service used in-process (an ``ExperimentRunner``'s own) never
        does, so it retains nothing and its grids solve cold.
        """
        with self._warm_lock:
            if self._warm_memory is None:
                self._warm_memory = {}

    def warm_prior(self, request: SolveRequest):
        """The remembered proven prior of ``request``'s family, if any."""
        with self._warm_lock:
            if self._warm_memory is None:
                return None
            return self._warm_memory.get(_warm_family(request))

    def _remember_prior(self, request: SolveRequest, result) -> None:
        """Retain a proven outcome as its family's warm-start prior."""
        from repro.io.cache import CACHEABLE_STATUSES

        if self._warm_memory is None or result.status not in CACHEABLE_STATUSES:
            return
        from repro.incremental.warm import Prior

        prior = Prior(
            app=request.app,
            result=result,
            config=request.resolved_config(),
        )
        family = _warm_family(request)
        with self._warm_lock:
            self._warm_memory.pop(family, None)
            self._warm_memory[family] = prior
            while len(self._warm_memory) > _WARM_MEMORY_LIMIT:
                self._warm_memory.pop(next(iter(self._warm_memory)))

    def _account(
        self, entry: Job, outcome: "SolveOutcome | None", failed: bool = False
    ) -> None:
        self.metrics.record_complete(
            backend=outcome.backend if outcome else "",
            status=outcome.status if outcome else "failed",
            latency_seconds=time.monotonic() - entry.submitted_s,
            queue_seconds=entry.queue_seconds,
            cached=bool(outcome and outcome.cached),
            failed=failed,
        )

    def _metrics_loop(self) -> None:
        interval = self.metrics_interval_seconds
        while not self._stop.wait(interval):
            self._write_telemetry(self.metrics.to_record(self.queue.depth()))

    def _write_telemetry(self, record: dict) -> None:
        if self.telemetry is None:
            return
        with self._telemetry_lock:
            self.telemetry.write(record)


# ----------------------------------------------------------------------
# Socket transport: newline-delimited JSON over local TCP.
# ----------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a sequence of JSON-object lines, answered in
    order.  Unknown operations and malformed lines get error replies;
    the connection survives both."""

    def handle(self) -> None:  # noqa: D102 - protocol plumbing
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            message = None
            try:
                message = json.loads(line)
                response = self._dispatch(message)
            except json.JSONDecodeError as exc:
                response = {"ok": False, "error": f"bad json: {exc}"}
            except Exception as exc:
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if isinstance(message, dict) and message.get("op") == "shutdown":
                break

    def _dispatch(self, message: dict) -> dict:
        service: SolveService = self.server.service  # type: ignore[attr-defined]
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            request = request_from_dict(message["request"])
            if request.prior is None:
                prior = service.warm_prior(request)
                if prior is not None:
                    request = replace(request, prior=prior)
            try:
                ticket = service.submit_request(request)
            except QueueFull as exc:
                return {
                    "ok": False,
                    "code": "rejected",
                    "error": str(exc),
                    "depth": exc.depth,
                    "capacity": exc.capacity,
                    "retry_after_seconds": exc.retry_after_seconds,
                }
            return {
                "ok": True,
                "ticket": ticket,
                "state": service.status(ticket)["state"],
            }
        if op == "status":
            return {"ok": True, **service.status(message["ticket"])}
        if op == "result":
            try:
                outcome = service.result(
                    message["ticket"], timeout=message.get("timeout")
                )
            except KeyError as exc:
                return {"ok": False, "code": "unknown", "error": str(exc)}
            except TimeoutError as exc:
                return {"ok": False, "code": "timeout", "error": str(exc)}
            except RuntimeError as exc:
                return {"ok": False, "code": "failed", "error": str(exc)}
            return {"ok": True, "outcome": outcome_to_dict(outcome)}
        if op == "cancel":
            return {"ok": True, "cancelled": service.cancel(message["ticket"])}
        if op == "metrics":
            return {"ok": True, "metrics": service.metrics_snapshot()}
        if op == "shutdown":
            self.server.stopped.set()  # type: ignore[attr-defined]
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines TCP front end over one :class:`SolveService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: SolveService):
        super().__init__(address, _Handler)
        self.service = service
        service.enable_warm_routing()
        #: Set when a ``shutdown`` op arrives (the CLI waits on this).
        self.stopped = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        return self.server_address[:2]


def serve(
    service: SolveService,
    host: str = DEFAULT_SERVICE_HOST,
    port: int = 0,
) -> ServiceServer:
    """Start a socket front end for ``service`` in a daemon thread.

    Returns the running :class:`ServiceServer`; its
    :attr:`~ServiceServer.address` carries the OS-assigned port when
    ``port=0``.  Call ``server.shutdown()`` (or send the ``shutdown``
    op) to stop accepting connections; the service itself is owned by
    the caller.
    """
    server = ServiceServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="letdma-serve",
        daemon=True,
    )
    thread.start()
    return server
