"""Command-line interface: ``letdma <command>``.

Commands:

* ``table1``  — reproduce Table I (MILP times and transfer counts);
* ``fig2``    — reproduce one Fig. 2 panel (latency ratios);
* ``alphas``  — the alpha feasibility sweep;
* ``sweep``   — run a (objective x alpha) solve grid in parallel
  (``--jobs N``) with optional JSONL telemetry (``--telemetry DIR``);
* ``solve``   — solve the WATERS case study once through the
  :func:`repro.solve` facade and print the allocation;
* ``telemetry`` — summarize a telemetry JSONL file / run directory;
* ``simulate``— run the discrete-event simulator for one approach;
* ``fuzz``    — differential fuzzing of the solver backends
  (``--budget/--seed/--jobs``), shrinking any disagreement to a
  corpus reproducer (see ``docs/fuzzing.md``);
* ``chaos``   — fault-injection campaigns: sweep a fault-intensity x
  seed x policy grid over solved allocations (``--resume`` continues a
  killed campaign from its telemetry), or attack the solve service
  itself with ``--target service`` — worker kills, faulty backends,
  journal corruption, queue floods (see ``docs/robustness.md``);
* ``fsck``    — verify journal checksums (telemetry files, service
  state dirs), quarantining corrupt records so the rest stay
  replayable;
* ``serve``   — run the resident solve service (content-addressed
  queue, request dedup, live metrics; see ``docs/service.md``), plus
  ``--status`` to query a running one and ``--smoke`` for the CI
  round-trip scenario.

Flags are shared through argparse *parent parsers*, so every command
spells the same knob the same way and reads its default from
:mod:`repro.defaults`:

* solver knobs — ``--time-limit``, ``--mip-gap`` (``fuzz`` keeps its
  own tighter ``--time-limit``: per-backend budget per instance);
* grid knobs — ``--jobs``, ``--telemetry``, ``--cache-dir``,
  ``--resume`` (on ``table1``, ``alphas``, ``sweep``, ``fuzz``,
  ``chaos``);
* ``--backend`` — one flag, per-command default (``solve`` defaults to
  the exact backend, grids to the portfolio);
* ``--service HOST:PORT`` — submit the grid's solves to a running
  ``letdma serve`` instead of a solve service opened for the run, so
  concurrent campaigns deduplicate identical instances against each
  other.

Exit codes (one contract for every command):

====  =============================================================
   0  success (including "nothing left to do")
   1  ran, but found a failure: fuzz disagreement, verification
      violation, unreachable service, failed smoke
   2  usage error (bad flags or flag combinations; argparse itself
      uses the same code) — including a service submission rejected
      by the bounded queue (the message carries depth/capacity and a
      retry-after hint)
 130  interrupted (Ctrl-C); completed jobs are already flushed to
      telemetry and a partial summary is printed first
====  =============================================================
"""

from __future__ import annotations

import argparse
import sys

from repro.core import Objective
from repro.defaults import (
    DEFAULT_CACHE_DIR,
    DEFAULT_METRICS_INTERVAL_SECONDS,
    DEFAULT_MILP_BACKEND,
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_SANDBOX_HEARTBEAT_SECONDS,
    DEFAULT_SANDBOX_RSS_MB,
    DEFAULT_SERVICE_HOST,
    DEFAULT_SERVICE_PORT,
    DEFAULT_SERVICE_SHARDS,
    DEFAULT_SOLVE_BACKEND,
    DEFAULT_TIME_LIMIT_SECONDS,
)
from repro.reporting import (
    render_ratio_figure,
    render_table,
    run_alpha_feasibility,
    run_fig2_panel,
    run_table1,
    solve_instance,
)
from repro.waters import TASK_NAMES

#: The one exit-code contract of every ``letdma`` command (see the
#: module docstring for the prose version).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

_OBJECTIVES = {obj.value.lower(): obj for obj in Objective}

_BACKENDS = ("portfolio", "highs", "bnb", "greedy")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def _address(value: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` service address."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a HOST:PORT address"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# Shared flag groups (argparse parent parsers): each knob is declared
# once, every command that takes it inherits the same spelling, help
# text, and default.
# ----------------------------------------------------------------------


def _solver_parent() -> argparse.ArgumentParser:
    """``--time-limit`` / ``--mip-gap``: the solver knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--time-limit",
        type=float,
        default=DEFAULT_TIME_LIMIT_SECONDS,
        help="MILP time limit in seconds per solver rung "
        f"(default: {DEFAULT_TIME_LIMIT_SECONDS:g})",
    )
    parent.add_argument(
        "--mip-gap",
        type=float,
        default=None,
        help="relative MIP gap at which to stop (default: prove optimality)",
    )
    return parent


def _grid_parent() -> argparse.ArgumentParser:
    """``--jobs`` / ``--telemetry`` / ``--cache-dir`` / ``--resume``:
    the grid-campaign knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="dispatchers (and, above 1, worker processes) of the solve "
        "grid's in-process service; chaos campaigns run one alpha at a "
        "time whatever this is (default: 1)",
    )
    parent.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write one JSONL telemetry record per solve to PATH "
        "(a .jsonl file or a run directory)",
    )
    parent.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent solve cache shared by all jobs (default: off)",
    )
    parent.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs whose records already exist in --telemetry "
        "(continue a killed campaign)",
    )
    return parent


def _backend_parent(default: str = DEFAULT_SOLVE_BACKEND) -> argparse.ArgumentParser:
    """``--backend`` with a per-command default."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend",
        choices=_BACKENDS,
        default=default,
        help=f"solver backend (default: {default})",
    )
    return parent


def _service_parent() -> argparse.ArgumentParser:
    """``--service``: route the grid's solves through ``letdma serve``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--service",
        type=_address,
        default=None,
        metavar="HOST:PORT",
        help="submit solves to a running `letdma serve` at HOST:PORT "
        "instead of a service opened for the run (concurrent campaigns then "
        "deduplicate identical instances against each other)",
    )
    return parent


def _objective(value: str) -> Objective:
    try:
        return _OBJECTIVES[value.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown objective {value!r}; choose from {sorted(_OBJECTIVES)}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="letdma",
        description="LET-DMA memory allocation and scheduling (DAC 2021 reproduction)",
        epilog="exit codes: 0 success, 1 failure found, 2 usage error, "
        "130 interrupted",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver, grid, service = _solver_parent(), _grid_parent(), _service_parent()

    p_table1 = sub.add_parser(
        "table1",
        help="reproduce Table I",
        parents=[solver, grid, _backend_parent(), service],
    )
    p_table1.add_argument(
        "--alphas", type=float, nargs="+", default=[0.2, 0.4]
    )

    p_fig2 = sub.add_parser(
        "fig2", help="reproduce one Fig. 2 panel", parents=[solver]
    )
    p_fig2.add_argument("--objective", type=_objective, default=Objective.NONE)
    p_fig2.add_argument("--alpha", type=float, default=0.2)

    p_alphas = sub.add_parser(
        "alphas",
        help="alpha feasibility sweep",
        parents=[solver, grid, _backend_parent(), service],
    )
    p_alphas.add_argument(
        "--alphas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5]
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (objective x alpha) solve grid in parallel worker "
        "processes, with portfolio fallback and telemetry",
        parents=[solver, grid, _backend_parent(), service],
    )
    p_sweep.add_argument(
        "--objectives",
        type=_objective,
        nargs="+",
        default=list(Objective),
        help="objectives to sweep (default: all three)",
    )
    p_sweep.add_argument(
        "--alphas", type=float, nargs="+", default=[0.2, 0.4]
    )
    p_sweep.add_argument(
        "--warm",
        action="store_true",
        help="solve the grid sequentially in-process, warm-starting each "
        "alpha from the previous solve of the same objective (incremental "
        "re-solve; answers are identical to a cold sweep); cannot be "
        "combined with --resume or --service",
    )

    p_telemetry = sub.add_parser(
        "telemetry", help="summarize a telemetry JSONL file or run directory"
    )
    p_telemetry.add_argument("path", help="telemetry .jsonl file or run directory")

    p_solve = sub.add_parser(
        "solve",
        help="solve WATERS and print the allocation",
        parents=[solver, _backend_parent(DEFAULT_MILP_BACKEND)],
    )
    p_solve.add_argument("--objective", type=_objective, default=Objective.NONE)
    p_solve.add_argument("--alpha", type=float, default=0.2)
    p_solve.add_argument("--telemetry", default=None, metavar="PATH")
    p_solve.add_argument("--cache-dir", default=None, metavar="DIR")
    p_solve.add_argument(
        "--cuts",
        dest="cuts",
        action="store_true",
        default=None,
        help="enable the cutting-plane layer on MILP rungs "
        "(default: the repro.defaults setting)",
    )
    p_solve.add_argument(
        "--no-cuts",
        dest="cuts",
        action="store_false",
        help="disable the cutting-plane layer",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the resident solve service (content-addressed queue, "
        "request dedup, live metrics; see docs/service.md)",
    )
    p_serve.add_argument(
        "--host",
        default=DEFAULT_SERVICE_HOST,
        help=f"interface to bind (default: {DEFAULT_SERVICE_HOST})",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"TCP port; 0 lets the OS pick (default: {DEFAULT_SERVICE_PORT})",
    )
    p_serve.add_argument(
        "--shards",
        type=_positive_int,
        default=DEFAULT_SERVICE_SHARDS,
        help="dispatchers serving the one FIFO queue, one job at a time "
        f"each (pool slots with --processes; default: {DEFAULT_SERVICE_SHARDS})",
    )
    p_serve.add_argument(
        "--queue-capacity",
        type=_positive_int,
        default=DEFAULT_QUEUE_CAPACITY,
        help="bounded pending+running population; submissions beyond it "
        f"are rejected (default: {DEFAULT_QUEUE_CAPACITY})",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="persistent solve cache shared by all dispatchers "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    p_serve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="JSONL sink: one record per executed solve plus periodic "
        "service_metrics records",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="journal directory; pending work survives a restart",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock cap on each solver rung (default: none)",
    )
    p_serve.add_argument(
        "--metrics-interval",
        type=float,
        default=DEFAULT_METRICS_INTERVAL_SECONDS,
        metavar="SECONDS",
        help="cadence of service_metrics telemetry records "
        f"(default: {DEFAULT_METRICS_INTERVAL_SECONDS:g})",
    )
    p_serve.add_argument(
        "--processes",
        action="store_true",
        help="execute solves in a process pool (one process per dispatcher) "
        "instead of dispatcher threads",
    )
    p_serve.add_argument(
        "--sandbox",
        action="store_true",
        help="run every MILP portfolio rung in a supervised child "
        "process: hangs, crashes, OOMs, and blown deadlines degrade "
        "the ladder instead of wedging a dispatcher",
    )
    p_serve.add_argument(
        "--sandbox-rss-mb",
        type=float,
        default=DEFAULT_SANDBOX_RSS_MB,
        metavar="MB",
        help="memory headroom each sandboxed attempt may allocate "
        f"(default: {DEFAULT_SANDBOX_RSS_MB:g})",
    )
    p_serve.add_argument(
        "--sandbox-heartbeat",
        type=float,
        default=DEFAULT_SANDBOX_HEARTBEAT_SECONDS,
        metavar="SECONDS",
        help="longest tolerated heartbeat silence before a sandboxed "
        "attempt counts as hung "
        f"(default: {DEFAULT_SANDBOX_HEARTBEAT_SECONDS:g})",
    )
    p_serve.add_argument(
        "--status",
        nargs="?",
        type=_address,
        const=(DEFAULT_SERVICE_HOST, DEFAULT_SERVICE_PORT),
        default=None,
        metavar="HOST:PORT",
        help="query a running service's live metrics and exit "
        "(default address: "
        f"{DEFAULT_SERVICE_HOST}:{DEFAULT_SERVICE_PORT})",
    )
    p_serve.add_argument(
        "--smoke",
        action="store_true",
        help="run the hermetic end-to-end smoke scenario (duplicate "
        "pair, cancel, metrics, clean shutdown) and exit",
    )

    p_sim = sub.add_parser(
        "simulate", help="simulate one approach on WATERS", parents=[solver]
    )
    p_sim.add_argument(
        "--approach",
        choices=["proposed", "giotto-cpu", "giotto-dma-a", "giotto-dma-b"],
        default="proposed",
    )
    p_sim.add_argument("--alpha", type=float, default=0.2)

    p_export = sub.add_parser(
        "export",
        help="solve WATERS and write firmware artifacts (C header, "
        "linker script, VCD trace, JSON model/result)",
        parents=[solver],
    )
    p_export.add_argument("--objective", type=_objective, default=Objective.MIN_DELAY_RATIO)
    p_export.add_argument("--alpha", type=float, default=0.2)
    p_export.add_argument("--out", default="letdma-out", help="output directory")

    p_chains = sub.add_parser(
        "chains", help="cause-effect chain latencies on WATERS", parents=[solver]
    )
    p_chains.add_argument("--alpha", type=float, default=0.2)

    p_codesign = sub.add_parser(
        "codesign",
        help="iterative gamma tightening until schedulable",
        parents=[solver],
    )
    p_codesign.add_argument("--alpha", type=float, default=0.3)
    p_codesign.add_argument("--shrink", type=float, default=0.5)
    p_codesign.add_argument("--max-iterations", type=int, default=6)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random instances, every backend, "
        "cross-checked; disagreements are shrunk to reproducers",
        parents=[grid, service],
    )
    p_fuzz.add_argument(
        "--budget",
        type=_positive_int,
        default=50,
        help="number of random instances to cross-check (default: 50)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    p_fuzz.add_argument(
        "--backends",
        nargs="+",
        choices=("highs", "bnb", "greedy"),
        default=["highs", "bnb", "greedy"],
        help="backends to cross-check (default: all three)",
    )
    p_fuzz.add_argument(
        "--corpus",
        default="fuzz-corpus",
        metavar="DIR",
        help="directory for shrunk reproducers (default: fuzz-corpus)",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing instances without minimizing them",
    )
    p_fuzz.add_argument(
        "--time-limit",
        type=float,
        default=20.0,
        help="per-backend budget per instance in seconds (default: 20)",
    )
    p_fuzz.add_argument(
        "--check-presolve",
        action="store_true",
        help="also run every exact backend without presolve and "
        "cross-check the variants (presolve differential)",
    )
    p_fuzz.add_argument(
        "--check-cuts",
        action="store_true",
        help="also run every exact backend without the cutting-plane "
        "layer and cross-check the variants (cuts differential)",
    )
    p_fuzz.add_argument(
        "--check-batch-sim",
        action="store_true",
        help="also replay every feasible allocation through the "
        "vectorized batch simulator and assert byte-identical scalar "
        "traces (batch-simulation differential)",
    )
    p_fuzz.add_argument(
        "--check-warm",
        action="store_true",
        help="also perturb every instance by one element and require "
        "the warm re-solve to agree with a cold solve of the "
        "perturbation (warm == cold differential)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign: sweep a fault-intensity grid "
        "over solved allocations (--target model), or attack the solve "
        "service itself — worker kills, faulty backends, journal "
        "corruption, queue floods (--target service)",
        parents=[solver, grid, _backend_parent(), service],
    )
    p_chaos.add_argument(
        "--target",
        choices=("model", "service"),
        default="model",
        help="what to inject faults into: the modeled LET/DMA system "
        "(default) or the solve service infrastructure "
        "(see docs/robustness.md)",
    )
    p_chaos.add_argument(
        "--requests",
        type=_positive_int,
        default=6,
        help="instances per phase of the service-chaos campaign "
        "(--target service only; default: 6)",
    )
    p_chaos.add_argument(
        "--quick",
        action="store_true",
        help="run the deterministic CI subset of the service-chaos "
        "campaign (--target service only)",
    )
    p_chaos.add_argument(
        "--alphas", type=float, nargs="+", default=[0.3],
        help="LET-window scaling factors to solve at (default: 0.3)",
    )
    p_chaos.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=[0.0, 0.25, 0.5, 1.0],
        help="fault intensities in [0, 1]; 0 is the null-fault control "
        "point (default: 0 0.25 0.5 1)",
    )
    p_chaos.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="fault seeds (default: 0)",
    )
    p_chaos.add_argument(
        "--policies",
        nargs="+",
        choices=("stale-data", "fail-stop"),
        default=["stale-data"],
        help="graceful-degradation policies to evaluate (default: stale-data)",
    )
    p_chaos.add_argument(
        "--objective", type=_objective, default=Objective.MIN_TRANSFERS
    )

    p_fsck = sub.add_parser(
        "fsck",
        help="verify journal checksums (telemetry files, service state "
        "dirs); corrupt records are quarantined, never deleted",
    )
    p_fsck.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry .jsonl file, run directory, or service state dir",
    )

    p_verify = sub.add_parser(
        "verify",
        help="independently verify a stored allocation against its model",
    )
    p_verify.add_argument(
        "application", help="model file (.json or .xml, see repro.io)"
    )
    p_verify.add_argument("allocation", help="allocation file (.json)")

    return parser


def _interrupted_exit(args) -> int:
    """The one Ctrl-C epilogue: summarize what the command flushed to
    its ``--telemetry`` sink before the interrupt and exit with 130."""
    print(f"{args.command}: interrupted", file=sys.stderr)
    if not hasattr(args, "telemetry"):
        return EXIT_INTERRUPTED
    telemetry = args.telemetry
    if telemetry:
        from repro.runtime import read_telemetry, render_telemetry_summary

        try:
            records = read_telemetry(telemetry)
        except FileNotFoundError:
            records = []
        print(
            f"{len(records)} completed record(s) flushed to {telemetry}",
            file=sys.stderr,
        )
        if records:
            print(render_telemetry_summary(records))
        if hasattr(args, "resume") and not getattr(args, "warm", False):
            print(
                f"continue with: --resume --telemetry {telemetry}",
                file=sys.stderr,
            )
    else:
        print(
            "no --telemetry sink was set; completed work was discarded",
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED


def _cmd_serve(args) -> int:
    """The ``letdma serve`` command (and its --status / --smoke modes)."""
    from repro.service import (
        ServiceUnavailable,
        SmokeFailure,
        SocketClient,
        SolveService,
        render_service_metrics,
        run_smoke,
        serve,
    )

    if args.smoke:
        try:
            report = run_smoke()
        except SmokeFailure as exc:
            print(f"SMOKE FAILED: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(render_service_metrics(report["metrics"]))
        print(
            f"smoke ok: duplicate pair -> 1 solve record, "
            f"status {report['status']}, cancel {report['cancel_verdict']}, "
            f"clean shutdown"
        )
        return EXIT_OK

    if args.status is not None:
        try:
            with SocketClient(*args.status) as client:
                print(render_service_metrics(client.metrics()))
        except ServiceUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        return EXIT_OK

    sandbox = None
    if args.sandbox:
        from repro.resilience import SandboxLimits

        sandbox = SandboxLimits(
            rss_mb=args.sandbox_rss_mb,
            heartbeat_seconds=args.sandbox_heartbeat,
        )
    service = SolveService(
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        cache_dir=args.cache_dir,
        telemetry=args.telemetry,
        state_dir=args.state_dir,
        deadline_seconds=args.deadline,
        use_processes=args.processes,
        metrics_interval_seconds=args.metrics_interval,
        sandbox=sandbox,
    )
    with service:
        server = serve(service, host=args.host, port=args.port)
        host, port = server.address
        print(f"letdma serve: listening on {host}:{port}", flush=True)
        if service.restored_jobs:
            print(
                f"restored {service.restored_jobs} journaled job(s) "
                f"from {args.state_dir}",
                flush=True,
            )
        try:
            while not server.stopped.wait(0.5):
                pass
        except KeyboardInterrupt:
            print("serve: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
        finally:
            server.shutdown()
            server.server_close()
    print("serve: stopped")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if getattr(args, "resume", False) and not getattr(args, "telemetry", None):
        print("error: --resume needs --telemetry", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "warm", False) and (args.resume or args.service is not None):
        print(
            "error: --warm solves in-process, so it takes neither --resume "
            "nor --service",
            file=sys.stderr,
        )
        return EXIT_USAGE
    client = None
    if getattr(args, "service", None) is not None:
        from repro.service import ServiceUnavailable, SocketClient

        try:
            client = SocketClient(*args.service)
        except ServiceUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    try:
        return _dispatch(args, client)
    except KeyboardInterrupt:
        return _interrupted_exit(args)
    except Exception as exc:
        from repro.service import ServiceRejected

        if not isinstance(exc, ServiceRejected):
            raise
        # Backpressure is a usage-level condition (the campaign asked
        # for more than the queue admits), so it exits 2 — with the
        # queue's depth/capacity so the operator can size the retry.
        where = (
            f" ({exc.depth}/{exc.capacity} pending+running jobs)"
            if exc.depth is not None and exc.capacity is not None
            else ""
        )
        hint = (
            f"; retry after {exc.retry_after_seconds:g} s"
            if exc.retry_after_seconds is not None
            else ""
        )
        print(
            f"error: solve service rejected the submission{where}{hint}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    finally:
        if client is not None:
            client.close()


def _dispatch(args, client) -> int:
    if args.command == "table1":
        rows = run_table1(
            alphas=tuple(args.alphas),
            time_limit_seconds=args.time_limit,
            jobs=args.jobs,
            telemetry=args.telemetry,
            cache_dir=args.cache_dir,
            backend=args.backend,
            resume=args.resume,
            client=client,
        )
        print(
            render_table(
                ["objective", "alpha", "MILP time", "status", "# DMA transfers"],
                [row.as_tuple() for row in rows],
                title="Table I (reproduction): running times and DMA transfer counts",
            )
        )
    elif args.command == "fig2":
        panel = run_fig2_panel(
            args.objective, args.alpha, time_limit_seconds=args.time_limit
        )
        title = f"Fig. 2 panel: {args.objective.value}, alpha={args.alpha}"
        print(render_ratio_figure({title: panel}, TASK_NAMES))
    elif args.command == "alphas":
        outcome = run_alpha_feasibility(
            alphas=tuple(args.alphas),
            time_limit_seconds=args.time_limit,
            jobs=args.jobs,
            telemetry=args.telemetry,
            cache_dir=args.cache_dir,
            backend=args.backend,
            resume=args.resume,
            client=client,
        )
        rows = [
            (f"{alpha:.1f}", "feasible" if ok else "INFEASIBLE")
            for alpha, ok in outcome.items()
        ]
        print(render_table(["alpha", "outcome"], rows, title="Alpha sensitivity"))
    elif args.command == "sweep":
        rows = run_table1(
            alphas=tuple(args.alphas),
            objectives=tuple(args.objectives),
            time_limit_seconds=args.time_limit,
            jobs=args.jobs,
            telemetry=args.telemetry,
            cache_dir=args.cache_dir,
            backend=args.backend,
            resume=args.resume,
            client=client,
            warm=args.warm,
        )
        print(
            render_table(
                [
                    "objective",
                    "alpha",
                    "MILP time",
                    "status",
                    "# DMA transfers",
                    "backend",
                    "warm",
                ],
                [
                    row.as_tuple() + (row.backend, row.warm_start)
                    for row in rows
                ],
                title=f"Sweep: {len(rows)} solves, jobs={args.jobs}, "
                f"backend={args.backend}",
            )
        )
        if args.telemetry:
            from repro.runtime import read_telemetry, render_telemetry_summary

            print(render_telemetry_summary(read_telemetry(args.telemetry)))
    elif args.command == "telemetry":
        from repro.runtime import read_telemetry, render_telemetry_summary

        try:
            records = read_telemetry(args.path)
        except FileNotFoundError:
            print(f"error: no telemetry found at {args.path!r}", file=sys.stderr)
            return 1
        print(render_telemetry_summary(records))
    elif args.command == "solve":
        app, result = solve_instance(
            args.objective,
            args.alpha,
            time_limit_seconds=args.time_limit,
            backend=args.backend,
            mip_gap=args.mip_gap,
            cache=args.cache_dir,
            telemetry=args.telemetry,
            cuts=args.cuts,
        )
        print(result.summary())
        for memory_id, layout in result.layouts.items():
            slots = ", ".join(layout.order) if layout.order else "(empty)"
            print(f"{memory_id}: {slots}")
    elif args.command == "simulate":
        from repro.sim import simulate, timeline_for

        app, result = solve_instance(
            Objective.MIN_DELAY_RATIO, args.alpha, time_limit_seconds=args.time_limit
        )
        timeline = timeline_for(args.approach, app, result)
        sim = simulate(app, timeline)
        rows = [
            (
                task,
                f"{sim.worst_acquisition_latency_us(task):.1f}",
                f"{sim.worst_response_us(task):.1f}",
            )
            for task in TASK_NAMES
        ]
        print(
            render_table(
                ["task", "worst acquisition latency (us)", "worst response (us)"],
                rows,
                title=f"Simulation ({args.approach}, alpha={args.alpha}): "
                f"deadlines {'met' if sim.all_deadlines_met else 'MISSED'}",
            )
        )
    elif args.command == "export":
        from pathlib import Path

        from repro.core import LetDmaProtocol
        from repro.io import (
            generate_c_header,
            generate_linker_script,
            protocol_to_vcd,
            save_application,
            save_result,
        )

        app, result = solve_instance(
            args.objective, args.alpha, time_limit_seconds=args.time_limit
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "let_dma_layout.h").write_text(generate_c_header(app, result))
        (out / "let_dma_layout.ld").write_text(generate_linker_script(app, result))
        protocol_to_vcd(app, LetDmaProtocol(app, result)).save(out / "protocol.vcd")
        save_application(app, out / "application.json")
        save_result(result, out / "allocation.json")
        print(f"wrote let_dma_layout.h, let_dma_layout.ld, protocol.vcd, "
              f"application.json, allocation.json to {out}/")
    elif args.command == "chains":
        from repro.analysis import CauseEffectChain, analyze_chain
        from repro.core import proposed_profile
        from repro.waters import waters_application

        app, result = solve_instance(
            Objective.MIN_DELAY_RATIO, args.alpha, time_limit_seconds=args.time_limit
        )
        latencies = proposed_profile(app, result).worst_case
        chains = [
            CauseEffectChain("steer", ("CAN", "EKF", "DASM")),
            CauseEffectChain("plan", ("CAN", "EKF", "PLAN")),
            CauseEffectChain("perceive", ("SFM", "LOC", "EKF", "PLAN")),
            CauseEffectChain("detect", ("DET", "PLAN", "DASM")),
        ]
        rows = []
        for chain in chains:
            outcome = analyze_chain(
                app, chain, final_output_delay_us=latencies[chain.tasks[-1]]
            )
            rows.append(
                (
                    chain.name,
                    " -> ".join(chain.tasks),
                    f"{outcome.reaction_time_us / 1000:.2f} ms",
                    f"{outcome.data_age_us / 1000:.2f} ms",
                )
            )
        print(
            render_table(
                ["chain", "tasks", "reaction time", "data age"],
                rows,
                title=f"WATERS cause-effect chains (alpha={args.alpha})",
            )
        )
    elif args.command == "codesign":
        from repro.analysis import iterate_codesign
        from repro.waters import waters_application

        report = iterate_codesign(
            waters_application(),
            alpha=args.alpha,
            shrink=args.shrink,
            max_iterations=args.max_iterations,
            time_limit_seconds=args.time_limit,
        )
        print(report.summary())
    elif args.command == "fuzz":
        from repro.check import FuzzConfig, run_fuzz

        report = run_fuzz(
            FuzzConfig(
                budget=args.budget,
                seed=args.seed,
                jobs=args.jobs,
                backends=tuple(args.backends),
                telemetry=args.telemetry,
                cache_dir=args.cache_dir,
                resume=args.resume,
                corpus_dir=args.corpus,
                shrink=not args.no_shrink,
                time_limit_seconds=args.time_limit,
                check_presolve=args.check_presolve,
                check_cuts=args.check_cuts,
                check_batch_sim=args.check_batch_sim,
                check_warm=args.check_warm,
            ),
            client=client,
        )
        print(report.summary())
        if args.telemetry:
            from repro.runtime import read_telemetry, render_telemetry_summary

            print(render_telemetry_summary(read_telemetry(args.telemetry)))
        return 0 if report.ok else 1
    elif args.command == "chaos" and args.target == "service":
        from repro.resilience import ServiceChaosConfig, run_service_chaos

        report = run_service_chaos(
            ServiceChaosConfig(requests=args.requests, quick=args.quick),
            progress=print,
        )
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_FAILURE
    elif args.command == "chaos":
        from repro.faults import ChaosConfig, render_chaos_table, run_chaos

        config = ChaosConfig(
            alphas=tuple(args.alphas),
            intensities=tuple(args.intensities),
            seeds=tuple(args.seeds),
            policies=tuple(args.policies),
            objective=args.objective,
            backend=args.backend,
            time_limit_seconds=args.time_limit,
        )
        outcomes = run_chaos(
            config,
            jobs=args.jobs,
            telemetry=args.telemetry,
            cache_dir=args.cache_dir,
            resume=args.resume,
            client=client,
        )
        print(render_chaos_table(outcomes))
        resumed = sum(outcome.resumed for outcome in outcomes)
        if resumed:
            print(f"({resumed} grid point(s) resumed from {args.telemetry})")
        degraded = sum(
            1
            for outcome in outcomes
            if outcome.record.get("robustness")
            and not outcome.record["robustness"]["clean"]
        )
        errors = sum(
            outcome.record.get("status") == "error" for outcome in outcomes
        )
        print(
            f"{len(outcomes)} grid point(s): {degraded} degraded, "
            f"{errors} error(s)"
        )
        return 1 if errors else 0
    elif args.command == "fsck":
        from repro.resilience import fsck_path

        dirty = 0
        for path in args.paths:
            report = fsck_path(path)
            print(report.summary())
            dirty += len(report.quarantined)
        return EXIT_FAILURE if dirty else EXIT_OK
    elif args.command == "verify":
        from repro.core import verify_allocation
        from repro.io import load_application, load_result, load_system_xml

        if args.application.endswith(".xml"):
            app = load_system_xml(args.application)
        else:
            app = load_application(args.application)
        result = load_result(args.allocation)
        report = verify_allocation(app, result)
        if report.ok:
            print(
                f"OK: {result.num_transfers} transfers verified over "
                f"{report.checked_instants} instants"
            )
        else:
            print("FAILED:")
            for violation in report.violations:
                print(f"  {violation}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
