"""Outside-in layer tracing: spans around the public functions of each
layer, installed from the benchmark's own files.

The program has no tracing of its own yet, so :class:`Tracer` replaces
each function in :data:`TARGETS` with a wrapper that records a span —
name, parent span, trace id, start and end in ``perf_counter_ns`` — and
restores the originals on :meth:`Tracer.uninstall`.  Spans nest through
a :mod:`contextvars` variable, so each thread (each service dispatcher,
each socket handler) keeps its own stack.  The trace id is the request's
``job_id``: the wrappers of functions that receive a request read it
from their arguments, and every span beneath inherits it.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Spans are kept in
memory and summarised when the run ends (:func:`layer_metrics`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import sys
import types
from collections import defaultdict
from time import perf_counter_ns


def _job_id(value) -> "str | None":
    """The job id carried by a request, its wire dict, or an outcome."""
    if isinstance(value, dict):
        return value.get("job_id")
    record = getattr(value, "record", None)
    if isinstance(record, dict):
        return record.get("job_id")
    return getattr(value, "job_id", None)


def _count_rows(tracer: "Tracer", args, _result) -> None:
    tracer.count("core.formulation.rows", args[0].model.num_constraints)


#: (span name, module, attribute, position of the argument that carries
#: the job id or None, on-return hook or None).  An attribute
#: ``Class.method`` wraps the method on the class (position 0 is then
#: ``self``); a plain function is replaced in every module that imported it.
TARGETS = (
    ("api.execute", "repro.api", "execute", 0, None),
    ("api.request_from_dict", "repro.api", "request_from_dict", 0, None),
    ("api.outcome_to_dict", "repro.api", "outcome_to_dict", 0, None),
    ("io.cache.cache_key", "repro.io.cache", "cache_key", None, None),
    (
        "io.serialization.result_to_dict",
        "repro.io.serialization",
        "result_to_dict",
        None,
        None,
    ),
    (
        "runtime.portfolio.solve_with_portfolio",
        "repro.runtime.portfolio",
        "solve_with_portfolio",
        None,
        None,
    ),
    (
        "runtime.telemetry.build_solve_record",
        "repro.runtime.telemetry",
        "build_solve_record",
        None,
        None,
    ),
    (
        "incremental.warm.prepare_warm",
        "repro.incremental.warm",
        "prepare_warm",
        None,
        None,
    ),
    (
        "core.formulation.LetDmaFormulation",
        "repro.core.formulation",
        "LetDmaFormulation.__init__",
        None,
        _count_rows,
    ),
    (
        "core.heuristic.greedy_allocation",
        "repro.core.heuristic",
        "greedy_allocation",
        None,
        None,
    ),
    (
        "core.verifier.verify_allocation",
        "repro.core.verifier",
        "verify_allocation",
        None,
        None,
    ),
    ("milp.model.MilpModel.solve", "repro.milp.model", "MilpModel.solve", None, None),
    (
        "milp.cuts.solve_with_cut_layer",
        "repro.milp.cuts",
        "solve_with_cut_layer",
        None,
        None,
    ),
    (
        "milp.cuts.transfer_lower_bound",
        "repro.milp.cuts",
        "transfer_lower_bound",
        None,
        None,
    ),
    (
        "milp.cuts.construct_incumbent",
        "repro.milp.cuts",
        "construct_incumbent",
        None,
        None,
    ),
    (
        "milp.presolve.presolve_model",
        "repro.milp.presolve",
        "presolve_model",
        None,
        None,
    ),
    (
        "milp.scipy_backend.solve_with_highs",
        "repro.milp.scipy_backend",
        "solve_with_highs",
        None,
        None,
    ),
    (
        "milp.branch_and_bound.solve_with_branch_and_bound",
        "repro.milp.branch_and_bound",
        "solve_with_branch_and_bound",
        None,
        None,
    ),
    (
        "service.queue.JobQueue.submit",
        "repro.service.queue",
        "JobQueue.submit",
        1,
        None,
    ),
    (
        "service.client.SocketClient.submit_request",
        "repro.service.client",
        "SocketClient.submit_request",
        1,
        None,
    ),
    (
        "service.client.SocketClient.status",
        "repro.service.client",
        "SocketClient.status",
        None,
        None,
    ),
    (
        "service.client.SocketClient.result",
        "repro.service.client",
        "SocketClient.result",
        None,
        None,
    ),
)

SPAN_NAMES = tuple(target[0] for target in TARGETS)
#: Spans that mean an LP/MILP backend ran (for the certificate share).
BACKEND_SPANS = (
    "milp.scipy_backend.solve_with_highs",
    "milp.branch_and_bound.solve_with_branch_and_bound",
)
CUT_LAYER_SPAN = "milp.cuts.solve_with_cut_layer"
ROOT_SPAN = "api.execute"

#: (span id, trace id) of the innermost open span of this context.
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "bench_active_span", default=(None, None)
)


@contextlib.contextmanager
def trace_context(trace_id):
    """Give spans opened inside the block this trace id (how the
    benchmark tags its own calls, e.g. a status poll, with a job id)."""
    parent, _ = _ACTIVE.get()
    token = _ACTIVE.set((parent, trace_id))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def _program_modules():
    """Modules whose globals may hold a reference to a wrapped function."""
    for name, module in list(sys.modules.items()):
        if isinstance(module, types.ModuleType) and (
            name == "__main__" or name.split(".")[0] in ("repro", "bench")
        ):
            yield module


class Tracer:
    """Collects spans from wrapped layer functions.

    Spans are tuples ``(id, parent id, name, trace id, start ns, end ns)``.
    ``enabled`` can be cleared to run the same code without recording,
    which the benchmark uses to interleave traced and untraced requests.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (recorded only while enabled)."""
        if self.enabled:
            self.counts[name] += amount

    def _wrap(self, name, fn, carrier, on_return):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent, trace_id = _ACTIVE.get()
            if carrier is not None and len(args) > carrier:
                trace_id = _job_id(args[carrier]) or trace_id
            span_id = next(tracer._ids)
            token = _ACTIVE.set((span_id, trace_id))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                _ACTIVE.reset(token)
                tracer.spans.append((span_id, parent, name, trace_id, start, end))
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target; modules are imported first so that every
        module-level alias of a target function is found and replaced."""
        resolved = []
        for name, module_name, attribute, carrier, on_return in targets:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            resolved.append((name, owner, leaf, carrier, on_return))
        for name, owner, leaf, carrier, on_return in resolved:
            original = vars(owner)[leaf]
            wrapper = self._wrap(name, original, carrier, on_return)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for module in _program_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including aliases bound after install."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    original = getattr(value, "__bench_original__", None)
                    if original is not None:
                        setattr(module, key, original)


def installed_wrappers() -> list[str]:
    """Every wrapper still reachable from a program module or class
    (empty after a clean :meth:`Tracer.uninstall`)."""
    found = []
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, "__bench_original__"):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__bench_original__")
                )
    return found


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """``{span id: self time in ns}``: duration minus the union of the
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for span_id, parent, _name, _trace, start, end in spans:
        children[parent].append((start, end))
    result = {}
    for span_id, _parent, _name, _trace, start, end in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def _has_descendant(span_id, children, names) -> bool:
    stack = list(children.get(span_id, ()))
    while stack:
        child_id, child_name = stack.pop()
        if child_name in names:
            return True
        stack.extend(children.get(child_id, ()))
    return False


def layer_totals(spans) -> dict:
    """Per-span-name totals of one process's spans:
    ``{"calls": {...}, "self_ns": {...}, "cut_layer": n, "certified": n}``."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    children = defaultdict(list)
    for span_id, parent, name, _trace, _start, _end in spans:
        calls[name] += 1
        self_ns[name] += own[span_id]
        children[parent].append((span_id, name))
    cut_layer = [s[0] for s in spans if s[2] == CUT_LAYER_SPAN]
    certified = sum(
        not _has_descendant(span_id, children, BACKEND_SPANS)
        for span_id in cut_layer
    )
    return {
        "calls": dict(calls),
        "self_ns": dict(self_ns),
        "cut_layer": len(cut_layer),
        "certified": certified,
    }


def merge_totals(parts) -> dict:
    """Sum :func:`layer_totals` of several processes."""
    merged = {"calls": defaultdict(int), "self_ns": defaultdict(int)}
    merged["cut_layer"] = merged["certified"] = 0
    for part in parts:
        for key in ("calls", "self_ns"):
            for name, value in part[key].items():
                merged[key][name] += value
        merged["cut_layer"] += part["cut_layer"]
        merged["certified"] += part["certified"]
    return merged


def layer_metrics(totals: dict, requests: int, counts: dict) -> dict[str, float]:
    """Per-request span metrics: ``<span>.calls`` and ``<span>.self_s``
    for every wrapped function, plus the rows built and the share of
    cut-layer calls that finished without a backend beneath them."""
    per = max(1, requests)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = totals["calls"].get(name, 0) / per
        metrics[f"{name}.self_s"] = totals["self_ns"].get(name, 0) / 1e9 / per
    metrics["core.formulation.rows_per_req"] = (
        counts.get("core.formulation.rows", 0.0) / per
    )
    metrics["milp.cuts.certificate_frac"] = (
        totals["certified"] / totals["cut_layer"] if totals["cut_layer"] else 0.0
    )
    return metrics


def root_gaps(spans, walls: dict) -> list[float]:
    """For each traced request, ``|sum of self times under its
    api.execute root - wall| / wall`` with ``walls`` = ``{trace id:
    wall seconds measured around the call}``."""
    own = self_times(spans)
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span[0])
    gaps = []
    for span_id, parent, name, trace_id, _start, _end in spans:
        if name != ROOT_SPAN or parent is not None or trace_id not in walls:
            continue
        total, stack = 0, [span_id]
        while stack:
            current = stack.pop()
            total += own[current]
            stack.extend(children.get(current, ()))
        wall = walls[trace_id]
        gaps.append(abs(total / 1e9 - wall) / wall if wall else 0.0)
    return gaps
