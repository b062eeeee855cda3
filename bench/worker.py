"""One workload in one fresh process: set up, measure, check, report.

Started by ``bench/run.py`` as ``python -m bench.worker WORKLOAD ...``.
It prints ``READY`` when set-up is done (imports, input generation, the
warm-up solve, and for ``service_open`` the server start-ups) — the
parent times set-up up to that line — and then, unless
``--setup-only``, one JSON report as its last line.

With ``--trace 1`` every closed-loop request is solved twice in a row,
once with the layer wrappers recording and once with them idle, in
alternating order; the service workload runs every rate once against a
plain ``letdma serve`` and once against ``bench/serve_traced.py``.  The
untraced half gives the tracing overhead and the end-to-end numbers the
smoke run prints; the traced half gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

#: Service requests still open this long after the last send fail.
DRAIN_LIMIT_S = 10.0
#: ``max_rate_rps`` criteria: p90 limit and backlog drain limit.
P90_LIMIT_S = 0.5
DRAIN_OK_S = 2.0
POLL_BATCH = 32
POLL_SLEEP_S = 0.002
#: Per-layer metrics only the service workload measures (0 elsewhere).
SERVICE_ONLY = (
    "service.queue_wait_p50_s",
    "service.queue_wait_p90_s",
    "service.dedup_hit_rate",
    "service.solves",
    "service.rejected",
    "r12_p50_s",
    "r12_p90_s",
    "r36_p50_s",
    "r36_p90_s",
    "r108_p50_s",
    "r108_p90_s",
    "max_rate_rps",
    "bench.sender_lag_p99_s",
)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def answered_stats(samples) -> dict:
    """Per-request solver facts the layers do not expose as spans."""
    results = [s.outcome.result for s in samples if s.outcome is not None]
    count = max(1, len(results))
    return {
        "milp.bnb.nodes": sum(r.node_count for r in results) / count,
        "runtime.portfolio.fallback_frac": sum(
            len(r.fallback_chain) > 1 for r in results
        )
        / count,
        "incremental.reused_frac": sum(r.warm_start == "reused" for r in results)
        / count,
        "incremental.repaired_frac": sum(
            r.warm_start == "repaired" for r in results
        )
        / count,
    }


# ----------------------------------------------------------------------
# Closed loop: one caller, the next request after the previous answer.
# ----------------------------------------------------------------------


def timed_execute(api, check, key, request):
    start = time.perf_counter()
    try:
        outcome = api.execute(request)
    except Exception as exc:  # a crash is a failed request, not a crash of the run
        return check.Sample(
            key, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        )
    return check.Sample(key, time.perf_counter() - start, outcome)


def run_closed(workload, seconds, tracer, reference, smoke):
    from repro import api

    from bench import check, common, trace

    def units():
        return iter([workload.smoke_unit()]) if smoke else workload.units()

    samples, untraced, walls = [], [], {}
    start = time.perf_counter()
    for unit in units():
        # Whole units only: a run ends at a unit boundary past `seconds`.
        if samples and time.perf_counter() - start >= seconds:
            break
        for item in unit:
            if tracer is None:
                samples.append(timed_execute(api, check, item.key, item.request))
                continue
            # Two equal copies: a solved application carries memoised
            # data that would speed up a second solve of the same object.
            copies = {True: item.request, False: copy.deepcopy(item.request)}
            runs = {}
            for traced in (False, True) if len(samples) % 2 else (True, False):
                tracer.enabled = traced
                runs[traced] = timed_execute(api, check, item.key, copies[traced])
            tracer.enabled = True
            samples.append(runs[True])
            untraced.append(runs[False].latency)
            walls[item.request.job_id] = runs[True].latency
    elapsed = time.perf_counter() - start
    rss = peak_rss_mb()

    def verify_one(request, result):
        with trace.trace_context(request.job_id):
            return check.verify(request, result)

    requests = (item.request for unit in units() for item in unit)
    verdict = check.check(samples, requests, reference, verify_one)
    latencies = untraced or [s.latency for s in samples]
    window = sum(untraced) if untraced else elapsed
    e2e = {
        "lat_p50_s": common.quantile(latencies, 0.5),
        "lat_p90_s": common.quantile(latencies, 0.9),
        "solves_per_s": verdict.answered / window,
        "proven_frac": verdict.proven / max(1, verdict.attempted),
        "peak_rss_mb": rss,
    }
    report = {
        "verdict": verdict,
        "e2e": e2e,
        "info": {"requests": len(samples), "window_s": elapsed},
    }
    if tracer is not None:
        totals = trace.layer_totals(tracer.spans)
        layers = trace.layer_metrics(totals, len(samples), tracer.counts)
        layers.update(answered_stats(samples))
        layers["bench.trace_overhead_frac"] = (
            sum(walls.values()) / sum(untraced) - 1.0 if sum(untraced) else 0.0
        )
        layers["bench.span_gap_max_frac"] = max(
            trace.root_gaps(tracer.spans, walls), default=0.0
        )
        layers.update(dict.fromkeys(SERVICE_ONLY, 0.0))
        report["layers"] = layers
    return report


# ----------------------------------------------------------------------
# Open loop: Poisson arrivals against a ``letdma serve`` subprocess.
# ----------------------------------------------------------------------


class Server:
    """One ``letdma serve`` (or its traced twin) with a fresh cache."""

    def __init__(self, workdir, traced: bool):
        from bench.common import ROOT, child_env

        self.workdir = workdir
        self.spans_path = workdir / "spans.json" if traced else None
        serve_args = ["--host", "127.0.0.1", "--port", "0"]
        serve_args += ["--cache-dir", str(workdir / "cache")]
        if traced:
            command = ["-m", "bench.serve_traced", str(self.spans_path), *serve_args]
        else:
            command = ["-m", "repro.cli", "serve", *serve_args]
        self.process = subprocess.Popen(
            [sys.executable, *command],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.address = None

    def wait_ready(self) -> tuple[str, int]:
        for line in self.process.stdout:
            if "listening on" in line:
                host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
                self.address = (host, int(port))
                return self.address
        raise RuntimeError(f"letdma serve exited with {self.process.wait()}")

    def close(self) -> "dict | None":
        """Stop the server and wait for it; returns its trace dump
        (``{"spans": [...], "counts": {...}}``) when traced."""
        from repro.service import ServiceError, SocketClient

        if self.process.poll() is None and self.address is None:
            self.process.terminate()  # never came up
        elif self.process.poll() is None:
            try:
                with SocketClient(*self.address, max_attempts=1) as client:
                    client.shutdown_server()
            except ServiceError:
                self.process.terminate()
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if self.spans_path is not None and self.spans_path.is_file():
            return json.loads(self.spans_path.read_text())
        return None


def warm_up(address, request) -> None:
    from repro.service import SocketClient

    with SocketClient(*address) as client:
        client.result(client.submit_request(request), timeout=60)


def run_phase(address, schedule):
    """Send ``schedule`` on time from one thread, poll from this one.

    Latency runs from each request's *scheduled* send time to the status
    reply that first shows it finished; results are fetched after that
    stamp, so a slow solve never delays the timing of later requests.
    """
    from repro.service import ServiceError, SocketClient

    from bench import check, trace

    samples = [None] * len(schedule)
    lags: list[float] = []
    outstanding: deque = deque()
    lock = threading.Lock()
    sending = threading.Event()
    sending.set()
    last_send = [0.0]
    submitter = SocketClient(*address)
    poller = SocketClient(*address)
    begin = time.perf_counter() + 0.05

    def send_all():
        try:
            for index, (offset, item) in enumerate(schedule):
                due = begin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(max(0.0, time.perf_counter() - due))
                try:
                    with trace.trace_context(item.request.job_id):
                        ticket = submitter.submit_request(item.request)
                except ServiceError as exc:
                    error = type(exc).__name__
                    samples[index] = check.Sample(item.key, 0.0, None, error)
                    continue
                with lock:
                    outstanding.append((index, ticket, due))
                last_send[0] = time.perf_counter()
        finally:
            sending.clear()

    sender = threading.Thread(target=send_all, name="bench-sender")
    sender.start()
    last_done = begin
    try:
        while True:
            with lock:
                batch = list(itertools.islice(outstanding, POLL_BATCH))
                still_sending = sending.is_set()
            if not batch and not still_sending:
                break
            finished = []
            for entry in batch:
                index, ticket, due = entry
                with trace.trace_context(schedule[index][1].request.job_id):
                    state = poller.status(ticket)["state"]
                if state not in ("pending", "running"):
                    finished.append((entry, state, time.perf_counter()))
            if not finished:
                if (
                    not still_sending
                    and time.perf_counter() > last_send[0] + DRAIN_LIMIT_S
                ):
                    with lock:
                        for index, _ticket, _due in outstanding:
                            samples[index] = check.Sample(
                                schedule[index][1].key, 0.0, None, "drain timeout"
                            )
                        outstanding.clear()
                    break
                time.sleep(POLL_SLEEP_S)
                continue
            with lock:
                for entry, _state, _stamp in finished:
                    outstanding.remove(entry)
            for (index, ticket, due), state, stamp in finished:
                item = schedule[index][1]
                last_done = max(last_done, stamp)
                if state != "done":
                    samples[index] = check.Sample(
                        item.key, stamp - due, None, f"service {state}"
                    )
                    continue
                with trace.trace_context(item.request.job_id):
                    outcome = poller.result(ticket, timeout=DRAIN_LIMIT_S)
                samples[index] = check.Sample(item.key, stamp - due, outcome)
        metrics = poller.metrics()
    finally:
        sender.join()
        submitter.close()
        poller.close()
    for index, sample in enumerate(samples):
        if sample is None:  # the sender stopped early
            samples[index] = check.Sample(schedule[index][1].key, 0.0, None, "not sent")
    return {
        "samples": samples,
        "lags": lags,
        "drain_s": max(0.0, last_done - last_send[0]),
        "window_s": last_done - begin,
        "metrics": metrics,
    }


def phase_summary(phase) -> dict:
    from bench import common

    answered = [s for s in phase["samples"] if s.outcome is not None]
    latencies = [s.latency for s in answered]
    failures = len(phase["samples"]) - len(answered)
    p90 = common.quantile(latencies, 0.9)
    return {
        "p50": common.quantile(latencies, 0.5),
        "p90": p90,
        "mean": sum(latencies) / max(1, len(latencies)),
        "throughput": len(answered) / max(1e-9, phase["window_s"]),
        "meets": not failures
        and p90 <= P90_LIMIT_S
        and phase["drain_s"] <= DRAIN_OK_S,
    }


class ServiceWorkload:
    """Set-up and measurement of ``service_open``."""

    def __init__(self, seed, seconds, traced):
        from bench import common, inputs

        self.rates = inputs.SERVICE_RATES
        phase_seconds = seconds / len(self.rates)
        source = inputs.ServiceOpen(seed)
        self.schedules = {
            rate: source.phase(rate, phase_seconds) for rate in self.rates
        }
        self.modes = (False, True) if traced else (False,)
        common.WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=common.WORK)
        self.servers = {}
        for rate in self.rates:
            for mode in self.modes:
                path = Path(self.workdir) / f"r{rate}-{'traced' if mode else 'plain'}"
                path.mkdir()
                self.servers[rate, mode] = Server(path, mode)
        try:
            for number, server in enumerate(self.servers.values()):
                warm_up(server.wait_ready(), inputs.warmup_request(f"warmup-{number}"))
        except BaseException:
            self.close()
            raise

    def close(self) -> list:
        """Stop every server (once); returns their trace dumps (None if
        plain)."""
        servers, self.servers = self.servers, {}
        dumps = [server.close() for server in servers.values()]
        shutil.rmtree(self.workdir, ignore_errors=True)
        return dumps

    def run(self, tracer, reference):
        from bench import check, common, trace

        phases = {}
        for rate in self.rates:
            for mode in self.modes:
                if tracer is not None:
                    tracer.enabled = mode
                server = self.servers[rate, mode]
                phases[rate, mode] = run_phase(server.address, self.schedules[rate])
        if tracer is not None:
            tracer.enabled = True
        server_dumps = [dump for dump in self.close() if dump is not None]
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

        def verify_one(request, result):
            with trace.trace_context(request.job_id):
                return check.verify(request, result)

        plain = {rate: phases[rate, False] for rate in self.rates}
        samples, requests = [], []
        for (rate, _mode), phase in phases.items():
            samples += phase["samples"]
            requests += [item.request for _, item in self.schedules[rate]]
        verdict = check.check(samples, requests, reference, verify_one)
        summaries = {rate: phase_summary(plain[rate]) for rate in self.rates}
        top = self.rates[-1]
        plain_samples = [s for rate in self.rates for s in plain[rate]["samples"]]
        proven = sum(
            s.outcome is not None and check.is_proven(s.outcome.result)
            for s in plain_samples
        )
        # End-to-end latency from the two lower rates, pooled: the top
        # rate sits nearest the knee, where queueing multiplies every
        # scheduling hiccup of a shared host; it is reported per rate.
        light = [
            s.latency
            for rate in self.rates[:-1]
            for s in plain[rate]["samples"]
            if s.outcome is not None
        ]
        e2e = {
            "lat_p50_s": common.quantile(light, 0.5),
            "lat_p90_s": common.quantile(light, 0.9),
            "solves_per_s": summaries[top]["throughput"],
            "proven_frac": proven / max(1, len(plain_samples)),
            "peak_rss_mb": rss,
        }
        info = {
            "requests": len(samples),
            "rates": {
                str(rate): {
                    "p50_s": round(s["p50"], 4),
                    "p90_s": round(s["p90"], 4),
                    "answered_per_s": round(s["throughput"], 2),
                    "drain_s": round(plain[rate]["drain_s"], 3),
                    "meets": s["meets"],
                }
                for rate, s in summaries.items()
            },
        }
        report = {"verdict": verdict, "e2e": e2e, "info": info}
        if tracer is None:
            return report
        traced = [phases[rate, True] for rate in self.rates]
        traced_samples = [s for phase in traced for s in phase["samples"]]
        totals = trace.merge_totals(
            [trace.layer_totals(tracer.spans)]
            + [trace.layer_totals(dump["spans"]) for dump in server_dumps]
        )
        counts = dict(tracer.counts)
        for dump in server_dumps:
            for name, value in dump["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
        layers = trace.layer_metrics(totals, len(traced_samples), counts)
        layers.update(answered_stats(traced_samples))
        waits = {}
        for sample in traced_samples:
            if sample.outcome is not None:
                service = sample.outcome.record.get("service") or {}
                waits[sample.outcome.instance] = service.get("queue_seconds", 0.0)
        layers["service.queue_wait_p50_s"] = common.quantile(waits.values(), 0.5)
        layers["service.queue_wait_p90_s"] = common.quantile(waits.values(), 0.9)
        served = [phase["metrics"] for phase in traced]
        submitted = sum(m["submitted"] for m in served)
        layers["service.dedup_hit_rate"] = (
            sum(m["dedup_hits"] for m in served) / submitted if submitted else 0.0
        )
        layers["service.solves"] = float(sum(m["solves"] for m in served))
        layers["service.rejected"] = float(sum(m["rejected"] for m in served))
        for rate in self.rates:
            layers[f"r{rate}_p50_s"] = summaries[rate]["p50"]
            layers[f"r{rate}_p90_s"] = summaries[rate]["p90"]
        layers["max_rate_rps"] = float(
            max((rate for rate in self.rates if summaries[rate]["meets"]), default=0)
        )
        plain_mean = sum(summaries[rate]["mean"] for rate in self.rates)
        traced_mean = sum(phase_summary(phase)["mean"] for phase in traced)
        layers["bench.trace_overhead_frac"] = (
            traced_mean / plain_mean - 1.0 if plain_mean else 0.0
        )
        lags = [lag for phase in phases.values() for lag in phase["lags"]]
        layers["bench.sender_lag_p99_s"] = common.quantile(lags, 0.99)
        # Server-side execute() calls have no wall time measured around them.
        layers["bench.span_gap_max_frac"] = 0.0
        report["layers"] = layers
        return report


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from bench.common import ensure_src

    ensure_src()
    from repro import api

    from bench import check, inputs, trace

    reference = check.load_reference(args.reference).get(args.workload, {})
    if args.workload == inputs.ServiceOpen.name:
        workload = ServiceWorkload(args.seed, args.seconds, args.trace)
    else:
        workload = inputs.CLOSED_LOOP[args.workload](args.seed)
        api.execute(inputs.warmup_request())
    print("READY", flush=True)
    if args.setup_only:
        if isinstance(workload, ServiceWorkload):
            workload.close()
        return 0

    tracer = trace.Tracer().install() if args.trace else None
    try:
        if isinstance(workload, ServiceWorkload):
            report = workload.run(tracer, reference)
        else:
            report = run_closed(workload, args.seconds, tracer, reference, args.smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if isinstance(workload, ServiceWorkload):
            workload.close()
    verdict = report.pop("verdict")
    report.update(
        workload=args.workload,
        seed=args.seed,
        attempted=verdict.attempted,
        failed=verdict.failed,
        correct=verdict.wrong == 0,
        reasons=verdict.reasons,
        verified=verdict.verified,
        leftover_wrappers=trace.installed_wrappers(),
    )
    report["e2e"]["fail_frac"] = verdict.failed / max(1, verdict.attempted)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
