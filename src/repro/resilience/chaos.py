"""The service-chaos harness (``letdma chaos --target service``).

PRs 4–6 built chaos campaigns for the *modeled* LET/DMA system; this
module applies the same discipline to the solve infrastructure itself.
A deterministic campaign injects real failures into a live
:class:`~repro.service.SolveService` — killed pool workers, backends
that hang/stall/OOM/crash (via the fault shim under the sandbox),
truncated and bit-flipped journals between restarts, and a queue
flooded past capacity — and asserts one invariant throughout:

    **Every submitted ticket resolves to a verified-correct outcome or
    a typed rejection, and a restarted service recovers all journaled
    work that survives fsck.**

"Typed" means the failure arrives as a structured object the caller
can act on (:class:`~repro.service.queue.QueueFull` with
depth/capacity, a FAILED ticket with an error string, a quarantined
journal listed in the :class:`~repro.resilience.journal.FsckReport`) —
never a hang, never a silently dropped ticket.

Four phases, each hermetic under its own work directory:

1. **worker-kill** — solves run in a process pool; a pool worker is
   SIGKILLed between waves; the service must rebuild the pool and
   resolve every ticket of the second wave.
2. **faulty-backend** — the primary MILP backend is shimmed to
   crash/OOM (and, outside ``--quick``, hang/stall); the sandboxed
   portfolio must degrade to the next rung for every request, and once
   the fault clears the next fresh request must be answered by the
   primary backend again.
3. **journal-corruption** — jobs are journaled but never started; one
   journal is truncated mid-record and another bit-flipped; ``fsck``
   must quarantine exactly those two, and a fresh service from the
   same ``state_dir`` must restore and resolve all the rest.
4. **queue-flood** — more submissions than a tiny queue accepts; the
   overflow must be rejected typed (with depth/capacity), and every
   rejected instance must succeed on bounded retry once the queue
   drains.

The campaign is deterministic: fixed seeds generate the instances,
fault injection is by explicit plan (not randomness), and the phases
run sequentially — CI runs the ``--quick`` subset on every PR.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.formulation import FormulationConfig
from repro.core.verifier import verify_allocation
from repro.milp.result import SolveStatus
from repro.resilience.journal import fsck_state_dir
from repro.resilience.sandbox import SandboxLimits
from repro.service.queue import QueueFull
from repro.service.server import SolveService
from repro.workloads.generator import WorkloadSpec, generate_application

__all__ = ["ServiceChaosConfig", "PhaseReport", "ServiceChaosReport", "run_service_chaos"]

#: Statuses that count as a usable (verifiable or honest) solve.
_USABLE = (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)


@dataclass(frozen=True)
class ServiceChaosConfig:
    """Campaign knobs (all deterministic).

    Attributes:
        requests: Instances per phase (the flood phase submits
            ``requests`` against a queue one third that size).
        seed: Base RNG seed for instance generation.
        quick: CI subset — fewer fault modes, smaller instances,
            shorter sandbox deadlines; same invariant.
        work_dir: Campaign scratch root (a fresh temporary directory
            by default, so runs are hermetic).
        deadline_seconds: Per-ticket wait bound; a ticket still
            unresolved after this long counts as *lost* and fails the
            campaign.
    """

    requests: int = 6
    seed: int = 0
    quick: bool = False
    work_dir: "str | None" = None
    deadline_seconds: float = 120.0


@dataclass
class PhaseReport:
    """Accounting for one chaos phase.

    Every submission ends in exactly one bucket: ``verified`` (usable
    outcome that passed the verifier, or an exact re-check for
    infeasible), ``typed_failures`` (FAILED ticket with an error
    string), ``typed_rejections`` (``QueueFull`` and quarantined
    journals — rejections the caller was told about), or ``lost``
    (anything else: the invariant violation this harness exists to
    catch).
    """

    name: str
    submitted: int = 0
    verified: int = 0
    typed_failures: int = 0
    typed_rejections: int = 0
    lost: int = 0
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when nothing was lost and every assertion held."""
        return self.lost == 0 and not self.problems

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "submitted": self.submitted,
            "verified": self.verified,
            "typed_failures": self.typed_failures,
            "typed_rejections": self.typed_rejections,
            "lost": self.lost,
            "problems": list(self.problems),
            "details": dict(self.details),
            "ok": self.ok,
        }


@dataclass
class ServiceChaosReport:
    """The whole campaign: one :class:`PhaseReport` per phase."""

    phases: list[PhaseReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every phase upheld the no-lost-tickets invariant."""
        return all(phase.ok for phase in self.phases)

    def to_dict(self) -> dict:
        return {"phases": [p.to_dict() for p in self.phases], "ok": self.ok}

    def summary(self) -> str:
        """Monospace table of the campaign outcome."""
        from repro.reporting.tables import render_table

        rows = []
        for phase in self.phases:
            rows.append(
                (
                    phase.name,
                    str(phase.submitted),
                    str(phase.verified),
                    str(phase.typed_failures),
                    str(phase.typed_rejections),
                    str(phase.lost),
                    "ok" if phase.ok else "FAIL",
                )
            )
        table = render_table(
            ["phase", "submitted", "verified", "failed*", "rejected*", "lost", "verdict"],
            rows,
            title="Service chaos campaign (* = typed)",
        )
        problems = [
            f"  {phase.name}: {problem}"
            for phase in self.phases
            for problem in phase.problems
        ]
        verdict = (
            "invariant held: no ticket was lost"
            if self.ok
            else "INVARIANT VIOLATED:\n" + "\n".join(problems)
        )
        return f"{table}\n{verdict}"


def run_service_chaos(
    config: "ServiceChaosConfig | None" = None, progress=None
) -> ServiceChaosReport:
    """Run the deterministic service-chaos campaign; see module docs."""
    config = config or ServiceChaosConfig()
    if config.work_dir is None:
        with tempfile.TemporaryDirectory(prefix="letdma-chaos-") as tmp:
            return run_service_chaos(
                ServiceChaosConfig(
                    requests=config.requests,
                    seed=config.seed,
                    quick=config.quick,
                    work_dir=tmp,
                    deadline_seconds=config.deadline_seconds,
                ),
                progress,
            )
    root = Path(config.work_dir)
    say = progress or (lambda message: None)
    report = ServiceChaosReport()
    for phase_fn in (
        _phase_worker_kill,
        _phase_faulty_backend,
        _phase_journal_corruption,
        _phase_queue_flood,
    ):
        phase = phase_fn(config, root)
        report.phases.append(phase)
        say(
            f"chaos phase {phase.name}: "
            f"{'ok' if phase.ok else 'FAILED'} "
            f"({phase.verified} verified, {phase.typed_failures} failed*, "
            f"{phase.typed_rejections} rejected*, {phase.lost} lost)"
        )
    return report


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _instances(config: ServiceChaosConfig, salt: int, count: "int | None" = None):
    """Deterministic distinct instances (no accidental dedup)."""
    count = config.requests if count is None else count
    num_tasks = 3 if config.quick else 4
    return [
        generate_application(
            WorkloadSpec(
                num_tasks=num_tasks,
                num_cores=2,
                communication_density=0.8,
                seed=config.seed * 10_000 + salt * 100 + index,
            )
        )
        for index in range(count)
    ]


def _resolve(service, app, ticket, phase: PhaseReport, deadline: float):
    """Drive one ticket to a bucket: verified, typed failure, or lost.

    Returns the verified outcome, or None for any other bucket.
    """
    try:
        outcome = service.result(ticket, timeout=deadline)
    except TimeoutError:
        phase.lost += 1
        phase.problems.append(
            f"ticket {ticket[:12]} unresolved after {deadline:g} s"
        )
        return None
    except RuntimeError as exc:
        # FAILED/CANCELLED tickets raise with the error attached: the
        # outcome is honest (typed), the work is not lost.
        phase.typed_failures += 1
        phase.details.setdefault("failure_examples", []).append(str(exc)[:160])
        return None
    result = outcome.result
    if result.status not in _USABLE:
        phase.typed_failures += 1
        phase.details.setdefault("failure_examples", []).append(
            f"status {result.status.value} from {result.backend}"
        )
        return None
    if result.status is SolveStatus.INFEASIBLE:
        phase.verified += 1  # an honest proof, nothing to verify spatially
        return outcome
    greedy = result.backend == "greedy"
    verdict = verify_allocation(
        app,
        result,
        check_property3=not greedy,
        check_deadlines=not greedy,
        check_theorem1=not greedy,
    )
    if verdict.ok:
        phase.verified += 1
        return outcome
    phase.lost += 1
    phase.problems.append(
        f"ticket {ticket[:12]} returned an allocation that fails "
        f"verification: {verdict.violations[:2]}"
    )
    return None


def _service_config(config: ServiceChaosConfig) -> FormulationConfig:
    return FormulationConfig(
        time_limit_seconds=20.0 if config.quick else 60.0
    )


# ----------------------------------------------------------------------
# Phase 1: kill a pool worker mid-campaign
# ----------------------------------------------------------------------


def _phase_worker_kill(config: ServiceChaosConfig, root: Path) -> PhaseReport:
    phase = PhaseReport(name="worker-kill")
    apps = _instances(config, salt=1)
    solve_config = _service_config(config)
    service = SolveService(
        shards=2,
        use_processes=True,
        cache_dir=str(root / "kill-cache"),
        state_dir=str(root / "kill-state"),
        deadline_seconds=config.deadline_seconds,
        max_retries=0,
    )
    with service:
        half = max(1, len(apps) // 2)
        first, second = apps[:half], apps[half:]
        tickets = [(app, service.submit(app, solve_config)) for app in first]
        phase.submitted += len(tickets)
        for app, ticket in tickets:
            _resolve(service, app, ticket, phase, config.deadline_seconds)
        # The pool is warm now; SIGKILL one of its workers.  The next
        # job hits a BrokenProcessPool, and the service must rebuild
        # and replay instead of failing or (worse) hanging.
        victims = list(getattr(service._pool, "_processes", {}) or {})
        if victims:
            os.kill(victims[0], signal.SIGKILL)
            phase.details["killed_worker"] = victims[0]
        else:  # pragma: no cover - pool implementation detail changed
            phase.problems.append("could not find a pool worker to kill")
        tickets = [(app, service.submit(app, solve_config)) for app in second]
        phase.submitted += len(tickets)
        for app, ticket in tickets:
            _resolve(service, app, ticket, phase, config.deadline_seconds)
        snapshot = service.metrics_snapshot()
        phase.details["pool_rebuilds"] = snapshot.get("pool_rebuilds", 0)
        if victims and not snapshot.get("pool_rebuilds"):
            # The kill may land between jobs without breaking an
            # in-flight future; the pool then rebuilds lazily on the
            # next submit.  Either way every ticket must have resolved
            # above — only an unresolved ticket is a real violation.
            phase.details["note"] = "pool survived the kill without rebuild"
    return phase


# ----------------------------------------------------------------------
# Phase 2: hung / slow / OOM / crashing backends behind the sandbox
# ----------------------------------------------------------------------


def _phase_faulty_backend(config: ServiceChaosConfig, root: Path) -> PhaseReport:
    phase = PhaseReport(name="faulty-backend")
    modes = ("crash", "oom") if config.quick else ("crash", "oom", "slow", "hang")
    per_mode = max(3, min(config.requests, 4))
    solve_config = FormulationConfig(time_limit_seconds=15.0)
    sandbox = SandboxLimits(
        wall_seconds=4.0 if config.quick else 8.0,
        rss_mb=256.0,
        heartbeat_seconds=1.0,
    )
    degraded = 0
    for mode_index, mode in enumerate(modes):
        service = SolveService(
            shards=1,
            sandbox=sandbox,
            fault_plan={"highs": mode},
            cache_dir=None,
            deadline_seconds=config.deadline_seconds,
            max_retries=0,
        )
        apps = _instances(config, salt=2 + mode_index, count=per_mode + 1)
        fresh = apps.pop()
        with service:
            tickets = [(app, service.submit(app, solve_config)) for app in apps]
            phase.submitted += len(tickets)
            for app, ticket in tickets:
                before = phase.verified
                _resolve(service, app, ticket, phase, config.deadline_seconds)
                if phase.verified > before:
                    degraded += 1
            snapshot = service.metrics_snapshot()
            failures = sum(snapshot["sandbox_failures"].values())
            if failures < 2:
                phase.problems.append(
                    f"mode {mode}: expected >=2 sandbox failures, "
                    f"saw {failures}"
                )
            # Clear the fault: the next fresh request must be answered
            # by highs again, whatever the requests before it met.
            service.fault_plan.clear()
            ticket = service.submit(fresh, solve_config)
            phase.submitted += 1
            outcome = _resolve(
                service, fresh, ticket, phase, config.deadline_seconds
            )
            recovered = outcome is not None and outcome.backend == "highs"
            if not recovered:
                answered_by = outcome.backend if outcome else None
                phase.problems.append(
                    f"mode {mode}: highs did not answer once the fault "
                    f"cleared (answered by {answered_by})"
                )
        phase.details.setdefault("modes", {})[mode] = {
            "sandbox_failures": snapshot["sandbox_failures"],
            "recovered": recovered,
        }
    if degraded == 0:
        phase.problems.append("no request survived via a degraded rung")
    phase.details["degraded_solves"] = degraded
    return phase


# ----------------------------------------------------------------------
# Phase 3: corrupt the journal between service lives
# ----------------------------------------------------------------------


def _phase_journal_corruption(
    config: ServiceChaosConfig, root: Path
) -> PhaseReport:
    phase = PhaseReport(name="journal-corruption")
    state_dir = root / "journal-state"
    apps = _instances(config, salt=3, count=max(4, config.requests))
    solve_config = _service_config(config)
    # Life one: submit work, never start a dispatcher, "crash".  Every
    # job is journaled PENDING in state_dir.
    first_life = SolveService(
        shards=1, state_dir=str(state_dir), deadline_seconds=config.deadline_seconds
    )
    tickets = {}
    for app in apps:
        tickets[first_life.submit(app, solve_config)] = app
    phase.submitted = len(tickets)
    journals = sorted(state_dir.glob("*.job.json"))
    if len(journals) != len(tickets):
        phase.problems.append(
            f"expected {len(tickets)} journals, found {len(journals)}"
        )
    # Corrupt two journals the way real crashes and disks do:
    # truncate one mid-record, flip bytes in another.
    truncated, flipped = journals[0], journals[1]
    raw = truncated.read_bytes()
    truncated.write_bytes(raw[: len(raw) // 2])
    raw = flipped.read_bytes()
    flipped.write_bytes(raw[:40] + bytes(b ^ 0xFF for b in raw[40:48]) + raw[48:])
    corrupt_names = {truncated.name, flipped.name}
    # fsck: quarantine exactly the two corrupt journals, keep the rest.
    fsck = fsck_state_dir(state_dir)
    phase.details["fsck"] = fsck.to_dict()
    if set(fsck.quarantined) != corrupt_names:
        phase.problems.append(
            f"fsck quarantined {fsck.quarantined}, expected "
            f"{sorted(corrupt_names)}"
        )
    phase.typed_rejections += len(fsck.quarantined)
    # Life two: restore from the fsck'd state_dir and drain everything.
    second_life = SolveService(
        shards=1, state_dir=str(state_dir), deadline_seconds=config.deadline_seconds
    )
    phase.details["restored_jobs"] = second_life.restored_jobs
    expected = len(tickets) - len(corrupt_names)
    if second_life.restored_jobs != expected:
        phase.problems.append(
            f"restored {second_life.restored_jobs} jobs, expected {expected}"
        )
    with second_life:
        for ticket, app in tickets.items():
            known = second_life.status(ticket)["state"] != "unknown"
            if f"{ticket}.job.json" in corrupt_names:
                if known:
                    phase.problems.append(
                        f"quarantined ticket {ticket[:12]} was replayed anyway"
                    )
                continue
            if not known:
                phase.lost += 1
                phase.problems.append(
                    f"journaled ticket {ticket[:12]} vanished across restart"
                )
                continue
            _resolve(second_life, app, ticket, phase, config.deadline_seconds)
    return phase


# ----------------------------------------------------------------------
# Phase 4: flood the queue past capacity
# ----------------------------------------------------------------------


def _phase_queue_flood(config: ServiceChaosConfig, root: Path) -> PhaseReport:
    phase = PhaseReport(name="queue-flood")
    total = max(6, config.requests)
    capacity = max(2, total // 3)
    apps = _instances(config, salt=4, count=total)
    solve_config = _service_config(config)
    service = SolveService(
        shards=1,
        queue_capacity=capacity,
        cache_dir=str(root / "flood-cache"),
        deadline_seconds=config.deadline_seconds,
    )
    accepted: list[tuple] = []
    overflow = []
    # Flood before starting the dispatchers, so admission is exact:
    # the first `capacity` submissions fit, the rest must be rejected
    # with a typed, depth-carrying QueueFull.
    for app in apps:
        phase.submitted += 1
        try:
            accepted.append((app, service.submit(app, solve_config)))
        except QueueFull as exc:
            phase.typed_rejections += 1
            if exc.capacity != capacity or exc.depth != capacity:
                phase.problems.append(
                    f"QueueFull payload wrong: depth={exc.depth} "
                    f"capacity={exc.capacity}, queue capacity {capacity}"
                )
    if len(accepted) != capacity:
        phase.problems.append(
            f"{len(accepted)} submissions admitted, expected {capacity}"
        )
    phase.details["capacity"] = capacity
    phase.details["rejected_first_pass"] = phase.typed_rejections
    rejected_apps = apps[len(accepted):]
    with service:
        for app, ticket in accepted:
            _resolve(service, app, ticket, phase, config.deadline_seconds)
        # Backpressure contract, caller side: a rejected submission
        # retried after draining must eventually land and resolve.
        for app in rejected_apps:
            ticket = None
            deadline = time.monotonic() + config.deadline_seconds
            while ticket is None and time.monotonic() < deadline:
                try:
                    ticket = service.submit(app, solve_config)
                except QueueFull as exc:
                    time.sleep(min(0.05, exc.retry_after_seconds))
            if ticket is None:
                phase.lost += 1
                phase.problems.append(
                    "rejected submission never got through after draining"
                )
                continue
            _resolve(service, app, ticket, phase, config.deadline_seconds)
    return phase
