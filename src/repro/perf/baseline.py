"""Benchmark files and baseline comparison.

A benchmark file (``BENCH_<rev>.json``) records one
:func:`repro.perf.bench.run_benchmarks` session together with enough
provenance to interpret it later (revision, timestamp, Python
version).  The tracked baseline lives at
``benchmarks/baselines/BENCH_baseline.json`` and is compared against
fresh runs by ``letdma bench --compare`` and the CI smoke job.

Comparison is ratio-based: a scenario regresses when its wall time
exceeds ``baseline * (1 + threshold)``.  CI uses a deliberately loose
threshold because hosted runners are slower and noisier than the
machine that recorded the baseline — the job catches order-of-
magnitude regressions (an accidentally quadratic loop, a lost cache),
not percent-level drift.  Refresh the baseline with
``letdma bench --out benchmarks/baselines/BENCH_baseline.json``
whenever a deliberate performance change lands.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.perf.bench import BenchResult

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "METRIC_GATES",
    "Comparison",
    "check_metric_gates",
    "compare_benchmarks",
    "default_baseline_path",
    "load_benchmark",
    "render_comparison",
    "save_benchmark",
    "to_benchmark_dict",
]

BENCH_SCHEMA_VERSION = 1

#: Absolute per-scenario metric ceilings, checked by ``letdma bench``
#: on every run that executes the scenario.  Each scenario maps to a
#: tuple of ``(metric, ceiling)`` gates that must *all* hold.  Unlike
#: the ratio-based baseline comparison these are machine-independent
#: invariants:
#:
#: * ``solve_warm_waters_delta`` divides its warm wall time by a cold
#:   solve measured in the same process, so runner speed cancels out
#:   and the 10 % ceiling trips only on a genuine warm-path regression
#:   (e.g. the ``reused`` tier silently falling back to a cold solve).
#: * ``solve_sandboxed_waters`` divides a sandboxed solve by an
#:   in-process solve of the same rung measured in the same process,
#:   so the 5 % ceiling trips only on genuine supervision overhead
#:   (fork, pipe heartbeat, rlimits), not machine speed.
#: * ``solve_highs_waters`` / ``solve_bnb_waters`` gate
#:   ``budget_fraction`` (wall time over the scenario's budget — 5 s
#:   and 120 s respectively): the cut layer's transfer-ladder
#:   certificates must keep the full WATERS model inside its budget,
#:   and the branch-and-bound solve must additionally *prove* its
#:   optimum (``not_optimal`` = 0).
METRIC_GATES: dict[str, tuple[tuple[str, float], ...]] = {
    "solve_warm_waters_delta": (("fraction_of_cold", 0.10),),
    "solve_sandboxed_waters": (("overhead_fraction", 0.05),),
    "solve_highs_waters": (("budget_fraction", 1.0),),
    "solve_bnb_waters": (("budget_fraction", 1.0), ("not_optimal", 0.0)),
}

#: Repo-relative location of the tracked baseline.
_BASELINE_RELPATH = Path("benchmarks") / "baselines" / "BENCH_baseline.json"


def default_baseline_path(root: str | Path = ".") -> Path:
    return Path(root) / _BASELINE_RELPATH


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def to_benchmark_dict(results: list[BenchResult], repeat: int) -> dict:
    """The JSON document for one benchmark session."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "revision": _git_revision(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "scenarios": {r.name: r.to_dict() for r in results},
    }


def save_benchmark(document: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_benchmark(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported benchmark schema {version!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    return data


@dataclass(frozen=True)
class Comparison:
    """One scenario's current-vs-baseline outcome.

    ``ratio`` is current/baseline wall time; ``regressed`` applies the
    caller's threshold.  Scenarios present on only one side get
    ``ratio=None`` and never regress (they are reported as added or
    removed instead).
    """

    name: str
    current_seconds: float | None
    baseline_seconds: float | None
    ratio: float | None
    regressed: bool

    @property
    def note(self) -> str:
        if self.baseline_seconds is None:
            return "new scenario (no baseline)"
        if self.current_seconds is None:
            return "missing from this run"
        if self.regressed:
            return f"REGRESSED {self.ratio:.2f}x"
        if self.ratio < 1.0:
            return f"improved {1 / self.ratio:.2f}x"
        return f"{self.ratio:.2f}x"


def compare_benchmarks(
    current: dict, baseline: dict, threshold: float = 0.5
) -> list[Comparison]:
    """Compare two benchmark documents scenario by scenario.

    A scenario regresses when ``current > baseline * (1 + threshold)``.
    The returned list covers the union of scenario names, baseline
    order first.
    """
    cur = {n: e["wall_seconds"] for n, e in current.get("scenarios", {}).items()}
    base = {n: e["wall_seconds"] for n, e in baseline.get("scenarios", {}).items()}
    rows = []
    for name in list(base) + [n for n in cur if n not in base]:
        c = cur.get(name)
        b = base.get(name)
        ratio = c / b if c is not None and b else None
        regressed = ratio is not None and ratio > 1.0 + threshold
        rows.append(Comparison(name, c, b, ratio, regressed))
    return rows


def check_metric_gates(document: dict) -> list[str]:
    """Failure messages for every violated :data:`METRIC_GATES` entry.

    Scenarios absent from ``document`` (not selected this run) are
    skipped; a gated scenario that ran but lacks the gated metric is a
    failure — the gate must not rot silently.
    """
    failures = []
    scenarios = document.get("scenarios", {})
    for name, gates in sorted(METRIC_GATES.items()):
        entry = scenarios.get(name)
        if entry is None:
            continue
        for metric, ceiling in gates:
            value = entry.get("metrics", {}).get(metric)
            if value is None:
                failures.append(f"{name}: gated metric {metric!r} missing")
            elif value > ceiling:
                failures.append(
                    f"{name}: {metric} = {value:.4f} exceeds ceiling {ceiling:g}"
                )
    return failures


def render_comparison(rows: list[Comparison]) -> str:
    """Plain-text comparison table."""
    lines = [f"{'scenario':<24} {'current':>10} {'baseline':>10}  note"]
    for row in rows:
        cur = f"{row.current_seconds:.3f}s" if row.current_seconds is not None else "-"
        base = (
            f"{row.baseline_seconds:.3f}s"
            if row.baseline_seconds is not None
            else "-"
        )
        lines.append(f"{row.name:<24} {cur:>10} {base:>10}  {row.note}")
    return "\n".join(lines)
