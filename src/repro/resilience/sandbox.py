"""Supervised subprocess execution for solver portfolio rungs.

A MILP backend is untrusted infrastructure: it can hang (a deadlock or
a pathological node), blow through its wall budget, exhaust memory, or
die outright.  In-process, any of those takes a service dispatcher —
and every queued job behind it — down too.  :func:`run_sandboxed` runs
one function call in a child process under three independent watchdogs:

* a **wall-clock deadline** (the solver's own time limit plus a grace
  period) — exceeding it is a ``timeout``;
* a **heartbeat**: the child beats over a pipe every fraction of
  ``heartbeat_seconds``; silence means the process is alive but stuck
  (stopped, deadlocked) — a ``hang``;
* an **RSS ceiling** via ``RLIMIT_AS`` (``rss_mb`` of headroom above
  the child's baseline address space): allocation past it raises
  ``MemoryError`` in the child — an ``oom`` — and a child the kernel
  kills without a word is classified the same way.

Every failure becomes a structured :class:`BackendFailure` carrying the
kind, the backend, and the elapsed time — which the portfolio ladder
(:func:`repro.runtime.solve_with_portfolio`) records on the fallback
chain and degrades past.

The child is always reaped: on any failure the supervisor SIGKILLs it
(which also terminates *stopped* processes) and joins it, so sandboxed
failures never leak zombies or runaway solvers.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass

from repro.defaults import (
    DEFAULT_SANDBOX_GRACE_SECONDS,
    DEFAULT_SANDBOX_HEARTBEAT_SECONDS,
    DEFAULT_SANDBOX_RSS_MB,
    DEFAULT_TIME_LIMIT_SECONDS,
)

__all__ = [
    "FAILURE_KINDS",
    "SandboxLimits",
    "BackendFailure",
    "run_sandboxed",
    "run_rung_sandboxed",
]

#: The closed set of structured failure classifications.
FAILURE_KINDS = ("timeout", "hang", "oom", "crash")

#: Prefer fork-family start methods: model payloads are already in the
#: parent, so forking keeps per-attempt overhead in the milliseconds
#: (``test_fixed_cost_is_under_5_percent_of_a_waters_solve`` in
#: ``tests/resilience/test_sandbox.py`` depends on this).
_START_METHOD = next(
    (
        method
        for method in ("fork", "forkserver", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ),
    None,
)


@dataclass(frozen=True)
class SandboxLimits:
    """Resource envelope of one sandboxed solver attempt.

    Attributes:
        wall_seconds: Hard wall-clock deadline.  ``None`` derives it
            from the solve's own time limit plus ``grace_seconds`` —
            the sandbox is a backstop, not a second budget knob.
        rss_mb: Memory headroom in MiB the attempt may allocate beyond
            the child's baseline address space at sandbox entry
            (enforced via ``RLIMIT_AS``); ``None`` disables the limit.
        heartbeat_seconds: Longest tolerated heartbeat silence before
            the attempt is declared hung.
        grace_seconds: Slack added to the solver time limit when
            ``wall_seconds`` is derived.
    """

    wall_seconds: "float | None" = None
    rss_mb: "float | None" = DEFAULT_SANDBOX_RSS_MB
    heartbeat_seconds: float = DEFAULT_SANDBOX_HEARTBEAT_SECONDS
    grace_seconds: float = DEFAULT_SANDBOX_GRACE_SECONDS

    def wall_for(self, time_limit_seconds: "float | None") -> float:
        """The effective deadline for a solve with the given budget."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        budget = (
            DEFAULT_TIME_LIMIT_SECONDS
            if time_limit_seconds is None
            else time_limit_seconds
        )
        return budget + self.grace_seconds

    def to_dict(self) -> dict:
        """JSON-safe form (status payloads, chaos reports)."""
        return {
            "wall_seconds": self.wall_seconds,
            "rss_mb": self.rss_mb,
            "heartbeat_seconds": self.heartbeat_seconds,
            "grace_seconds": self.grace_seconds,
        }


class BackendFailure(RuntimeError):
    """A sandboxed backend attempt died, hung, timed out, or OOMed.

    Attributes:
        kind: One of :data:`FAILURE_KINDS`.
        backend: The portfolio rung that failed (``"highs"``, ...).
        elapsed_seconds: Wall time spent before the supervisor gave up.
        detail: Human-readable specifics (exit code, silence length).
    """

    def __init__(
        self,
        kind: str,
        *,
        backend: str = "",
        elapsed_seconds: float = 0.0,
        detail: str = "",
    ):
        label = f"sandboxed backend {backend or '?'} {kind}"
        if detail:
            label = f"{label}: {detail}"
        super().__init__(label)
        self.kind = kind
        self.backend = backend
        self.elapsed_seconds = elapsed_seconds
        self.detail = detail


def _sandbox_child(conn, fn, payload, rss_mb, beat_interval) -> None:
    """Child body: apply the RSS ceiling, heartbeat, run ``fn``."""
    if rss_mb is not None:
        try:
            import resource

            # RLIMIT_AS is an *absolute* address-space cap, but a forked
            # child inherits the parent's (large) virtual size — a cap
            # below it would starve the child before it could even
            # heartbeat.  The limit is therefore headroom *above* the
            # baseline measured here.
            baseline = 0
            try:
                with open("/proc/self/statm", "rb") as stream:
                    pages = int(stream.read().split()[0])
                baseline = pages * resource.getpagesize()
            except (OSError, ValueError, IndexError):
                pass
            ceiling = baseline + int(rss_mb * 1024 * 1024)
            resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
        except (ImportError, ValueError, OSError):
            pass  # platform without rlimits: the wall deadline still holds
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(beat_interval):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        result = fn(payload)
    except MemoryError:
        message = ("fail", "oom", "MemoryError under the RSS ceiling")
    except BaseException as exc:  # noqa: B036 - a crashed solver is the point
        message = ("fail", "crash", f"{type(exc).__name__}: {exc}")
    else:
        message = ("ok", result)
    stop.set()
    try:
        with send_lock:
            conn.send(message)
    except (OSError, ValueError):
        # An unpicklable result (or a closed pipe) must still register
        # as a structured failure, not a silent death.
        try:
            with send_lock:
                conn.send(("fail", "crash", "result could not be returned"))
        except OSError:
            pass
    conn.close()


def run_sandboxed(
    fn,
    payload,
    limits: SandboxLimits,
    *,
    backend: str = "",
    wall_seconds: "float | None" = None,
):
    """Run ``fn(payload)`` in a supervised child; return its result.

    ``fn`` must be a module-level callable (it crosses the process
    boundary).  Raises :class:`BackendFailure` on timeout, hang, OOM,
    or crash; any exception *raised by* ``fn`` inside the child is
    reported as a ``crash`` (the sandbox cannot tell a solver bug from
    a solver death, and treats both as an untrusted-backend failure).
    """
    if _START_METHOD is None:  # pragma: no cover - no multiprocessing
        return fn(payload)
    wall = wall_seconds if wall_seconds is not None else limits.wall_seconds
    heartbeat = max(0.1, limits.heartbeat_seconds)
    beat_interval = max(0.02, heartbeat / 4.0)
    ctx = multiprocessing.get_context(_START_METHOD)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_sandbox_child,
        args=(child_conn, fn, payload, limits.rss_mb, beat_interval),
        name=f"letdma-sandbox-{backend or 'fn'}",
    )
    started = time.monotonic()
    process.start()
    child_conn.close()
    last_beat = time.monotonic()
    outcome = None
    failure: "tuple[str, str] | None" = None
    try:
        while True:
            got_message = False
            try:
                got_message = parent_conn.poll(0.05)
                if got_message:
                    message = parent_conn.recv()
            except (EOFError, OSError):
                failure = _death_classification(process)
                break
            now = time.monotonic()
            if got_message:
                if message[0] == "hb":
                    last_beat = now
                    continue
                if message[0] == "ok":
                    outcome = message[1]
                    break
                failure = (message[1], message[2])
                break
            if wall is not None and now - started > wall:
                failure = (
                    "timeout",
                    f"wall-clock deadline of {wall:g} s exceeded",
                )
                break
            if now - last_beat > heartbeat:
                failure = (
                    "hang",
                    f"no heartbeat for {now - last_beat:.1f} s "
                    f"(limit {heartbeat:g} s)",
                )
                break
            if not process.is_alive():
                # Drain a final message racing the exit, then classify.
                if parent_conn.poll(0.2):
                    continue
                failure = _death_classification(process)
                break
    finally:
        if process.is_alive():
            process.kill()  # SIGKILL: also terminates stopped children
        process.join(timeout=10.0)
        parent_conn.close()
    if failure is not None:
        raise BackendFailure(
            failure[0],
            backend=backend,
            elapsed_seconds=time.monotonic() - started,
            detail=failure[1],
        )
    return outcome


def _death_classification(process) -> tuple[str, str]:
    """Classify a child that died without sending a verdict."""
    process.join(timeout=1.0)
    code = process.exitcode
    if code is not None and code < 0:
        sig = -code
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = str(sig)
        if sig == signal.SIGKILL:
            # SIGKILL without our supervisor sending it is the kernel
            # OOM killer's signature (we only kill after classifying).
            return ("oom", f"killed by {name} (likely the kernel OOM killer)")
        return ("crash", f"killed by signal {name}")
    return ("crash", f"exited with code {code} before reporting a result")


def run_rung_sandboxed(
    app,
    config,
    rung: str,
    limits: SandboxLimits,
    *,
    start_values: "dict | None" = None,
    fault: "str | None" = None,
):
    """Solve one portfolio rung in a sandbox child.

    Thin wrapper pairing :func:`run_sandboxed` with the picklable entry
    point :func:`repro.milp.worker.solve_rung_entry`; ``start_values``
    is a name-keyed warm start, ``fault`` a chaos-shim mode (testing
    only).  Returns the rung's ``AllocationResult`` or raises
    :class:`BackendFailure`.
    """
    from repro.milp.worker import solve_rung_entry

    payload = {
        "app": app,
        "config": config,
        "rung": rung,
        "start_values": start_values,
        "fault": fault,
    }
    return run_sandboxed(
        solve_rung_entry,
        payload,
        limits,
        backend=rung,
        wall_seconds=limits.wall_for(config.time_limit_seconds),
    )
