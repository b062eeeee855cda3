"""Paths, the metric catalogue, and small statistics shared by the
benchmark's processes.

The benchmark measures the program in ``src/`` of the checkout it sits
in; it never imports an installed copy, so a checkout without ``src/``
fails loudly instead of measuring something else.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for per-run cache directories and span files; removed
#: at the end of every run (and ignored by git).
WORK = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def ensure_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: no program source at {SRC}; run from a full checkout"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for subprocesses: the checkout's ``src/`` and the
    benchmark package importable, nothing else changed."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def load_spec() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, section: str) -> dict[str, str]:
    """``{metric name: unit}`` of one section (``end_to_end``/``per_layer``)."""
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def quantile(values, fraction: float) -> float:
    """Linear-interpolation quantile (0.0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
