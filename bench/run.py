"""The benchmark's one command.

Single-workload form (the last stdout line is one JSON object)::

    python3 bench/run.py --workload waters_cold --seed 3 --seconds 15 --trace 0

Interactive forms::

    PYTHONPATH=src python -m bench.run                     # every workload once
    PYTHONPATH=src python -m bench.run --trace             # per-layer numbers
    PYTHONPATH=src python -m bench.run --repeat 10 --check-bounds
    PYTHONPATH=src python -m bench.run --smoke             # everything, in seconds
    PYTHONPATH=src python -m bench.run --record-reference  # rewrite reference.json

Each measurement runs in fresh worker processes (``bench/worker.py``):
set-up is repeated :data:`SETUP_REPEATS` times and ``setup_s`` is the
median, and the last worker goes on to measure.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `bench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import common  # noqa: E402

SETUP_REPEATS = 3
#: A single-workload run must end within 180 s; workers are killed past this.
RUN_DEADLINE_S = 170.0
SMOKE_SECONDS = 1.0
#: WATERS requests and fresh service systems recorded into the reference
#: (the grid and the fuzz corpus are recorded whole).  600 fresh systems
#: cover a 60 s run's 108 req/s phase.
REFERENCE_WATERS = 100
REFERENCE_POOL = 600


class BenchError(RuntimeError):
    """A worker failed; the run has no valid result."""


def run_worker(
    workload, seed, seconds, trace, reference, *, setup_only, smoke, deadline
):
    """One worker process: ``(setup seconds, report or None)``."""
    command = [
        sys.executable,
        "-m",
        "bench.worker",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
        "--reference",
        str(reference),
    ]
    command += ["--setup-only"] * setup_only + ["--smoke"] * smoke
    started = time.perf_counter()
    # Its own process group, so that a kill also reaches the servers the
    # worker of ``service_open`` starts.
    process = subprocess.Popen(
        command,
        cwd=common.ROOT,
        env=common.child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def kill_group():
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    timer.start()
    setup_s, lines = None, []
    try:
        for line in process.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - started
            else:
                lines.append(line)
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            kill_group()
            process.wait()
    if code != 0 or setup_s is None:
        raise BenchError(f"worker {workload} (seed {seed}) exited with {code}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def measure(workload, seed, seconds, trace, reference, smoke=False):
    """Set up :data:`SETUP_REPEATS` times (once when tracing), measure once."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    repeats = 1 if trace or smoke else SETUP_REPEATS
    setups = []
    for repeat in range(repeats):
        setup_s, report = run_worker(
            workload,
            seed,
            seconds,
            trace,
            reference,
            setup_only=repeat < repeats - 1,
            smoke=smoke,
            deadline=deadline,
        )
        setups.append(setup_s)
    report["e2e"]["setup_s"] = statistics.median(setups)
    report["setups_s"] = setups
    return report


def result_object(report, spec, sections) -> dict:
    """The result line: every metric of ``sections`` with its unit."""
    metrics = {}
    for section in sections:
        values = report["e2e"] if section == "end_to_end" else report["layers"]
        for name, unit in common.metric_units(spec, section).items():
            metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report, result) -> None:
    info = report.get("info", {})
    print(
        f"== {report['workload']} seed={report['seed']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"correct={report['correct']} verified={report['verified']}"
    )
    if report["reasons"]:
        print(f"   failures: {report['reasons']}")
    if report["leftover_wrappers"]:
        print(f"   wrappers left installed: {report['leftover_wrappers']}")
    for key, value in info.items():
        print(f"   {key}: {value}")
    print(f"   fail_frac: {report['e2e']['fail_frac']:.4f}")
    for name, entry in result["metrics"].items():
        print(f"   {name:<58} {entry['value']:>14.6g} {entry['unit']}")


# ----------------------------------------------------------------------
# Repeats and bounds
# ----------------------------------------------------------------------


def summarize(runs, spec) -> dict:
    """Median, quartiles and spread of every end-to-end metric, plus the
    two checks the bounds stand for: spread within the bound (``setup_s``
    exempt), and the odd-numbered runs' median no worse than the even
    ones' by more than the bound."""
    summary = {}
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = common.quartiles(values)
        first = statistics.median(values[0::2])
        second = statistics.median(values[1::2]) if len(values) > 1 else first
        change = (second - first) / abs(first) if first else 0.0
        worse = -change if entry["better"] == "higher" else change
        spread = common.spread(values)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "halves_worse": worse,
            "spread_ok": name == "setup_s" or spread <= bound,
            "halves_ok": worse <= bound,
        }
    return summary


def print_summary(workload, summary) -> None:
    print(f"== {workload}: medians and quartiles")
    for name, row in summary.items():
        flags = "" if row["spread_ok"] and row["halves_ok"] else "  << OUT OF BOUND"
        print(
            f"   {name:<14} median {row['median']:<12.6g} "
            f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
            f"spread {row['spread']:6.3f} (bound {row['bound']:.3f}) "
            f"halves {row['halves_worse']:+.3f}{flags}"
        )


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------


def record_reference(path) -> int:
    """Solve the default seed's requests cold and store status and
    objective per workload and reference key; every answer is verified."""
    from repro import api

    from bench import check, inputs

    def items():
        cold = inputs.WatersCold(inputs.DEFAULT_SEED)
        yield cold.name, [cold.item(index) for index in range(REFERENCE_WATERS)]
        grid = inputs.WatersGrid(inputs.DEFAULT_SEED)
        yield grid.name, grid.reference_items()
        fuzz = inputs.FuzzMix(inputs.DEFAULT_SEED)
        yield fuzz.name, next(fuzz.units())
        service = inputs.ServiceOpen(inputs.DEFAULT_SEED)
        yield service.name, service.reference_items(REFERENCE_POOL)

    answers = {}
    for workload, batch in items():
        by_instance = {}
        table = answers.setdefault(workload, {})
        for item in batch:
            instance = item.request.instance
            if instance not in by_instance:
                outcome = api.execute(item.request)
                if not check.is_proven(outcome.result) or not check.verify(
                    item.request, outcome.result
                ):
                    raise BenchError(f"{workload} {item.key}: no verified answer")
                by_instance[instance] = check.answer_of(outcome.result)
            table[item.key] = by_instance[instance]
        print(f"{workload}: {len(table)} reference answers", flush=True)
    # One answer per line: reviewable, and a re-recording diffs cleanly.
    blocks = []
    for workload, table in sorted(answers.items()):
        rows = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(answer)}"
            for key, answer in sorted(table.items())
        )
        blocks.append(f'  "{workload}": {{\n{rows}\n  }}')
    body = ",\n".join(blocks)
    Path(path).write_text(
        f'{{\n "seed": {inputs.DEFAULT_SEED},\n "answers": {{\n{body}\n }}\n}}\n'
    )
    return 0


# ----------------------------------------------------------------------


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py",
        description="End-to-end solve benchmark (see bench/README.md).",
    )
    names = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="per-layer metrics from a traced run (bare --trace means 1)",
    )
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--check-bounds", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--reference", default=str(common.REFERENCE_PATH))
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv=None) -> int:
    common.ensure_src()
    spec = common.load_spec()
    args = parse_args(argv, spec)
    from bench import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    if args.record_reference:
        return record_reference(args.reference)

    if args.smoke:
        results, ok = {}, True
        for workload in args.workload:
            report = measure(
                workload, seed, SMOKE_SECONDS, 1, args.reference, smoke=True
            )
            result = result_object(report, spec, ("end_to_end", "per_layer"))
            print_report(report, result)
            ok &= report["correct"] and not report["leftover_wrappers"]
            results[workload] = result
        print(json.dumps({"smoke": True, "ok": ok, "workloads": results}))
        return 0 if ok else 1

    sections = ("per_layer",) if args.trace else ("end_to_end",)
    if len(args.workload) == 1 and args.repeat == 1:
        report = measure(
            args.workload[0], seed, args.seconds, args.trace, args.reference
        )
        result = result_object(report, spec, sections)
        print_report(report, result)
        print(json.dumps(result))
        return 0

    runs = {workload: [] for workload in args.workload}
    for repeat in range(args.repeat):
        for workload in args.workload:
            report = measure(
                workload, seed + repeat, args.seconds, args.trace, args.reference
            )
            result = result_object(report, spec, sections)
            print_report(report, result)
            runs[workload].append(result)
    ok = all(run["correct"] for group in runs.values() for run in group)
    summaries = {}
    if not args.trace:
        for workload, group in runs.items():
            summaries[workload] = summarize(group, spec)
            print_summary(workload, summaries[workload])
        if args.check_bounds:
            ok &= all(
                row["spread_ok"] and row["halves_ok"]
                for summary in summaries.values()
                for row in summary.values()
            )
    print(json.dumps({"ok": ok, "runs": runs, "summary": summaries}))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
    finally:  # a killed worker leaves its scratch directory behind
        shutil.rmtree(common.WORK, ignore_errors=True)
