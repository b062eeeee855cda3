"""Self-tests of the benchmark (``pytest bench``; not part of tier-1)."""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

from bench import common, trace

RUN = [sys.executable, str(common.ROOT / "bench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run(
        RUN + ["--smoke"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_smoke_prints_every_metric_with_its_unit(smoke):
    spec = common.load_spec()
    result = _last_json(smoke)
    assert result["ok"]
    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for workload, outcome in result["workloads"].items():
        assert outcome["correct"] and outcome["failed"] == 0, workload
        for section in ("end_to_end", "per_layer"):
            for name, unit in common.metric_units(spec, section).items():
                assert outcome["metrics"][name]["unit"] == unit, (workload, name)
                assert isinstance(outcome["metrics"][name]["value"], float)
                assert f"   {name} " in smoke
        for entry in spec["end_to_end"]:
            assert outcome["metrics"][entry["name"]]["value"] > 0, (workload, entry)


def test_corrupted_reference_objective_is_a_failure(tmp_path):
    reference = json.loads(common.REFERENCE_PATH.read_text())
    answer = reference["answers"]["fuzz_mix"]["0"]
    answer[1] += 1.0
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    done = subprocess.run(
        RUN + ["--smoke", "--workload", "fuzz_mix", "--reference", str(corrupted)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1
    outcome = _last_json(done.stdout)["workloads"]["fuzz_mix"]
    assert outcome["failed"] == 1 and not outcome["correct"]
    assert "reference mismatch" in done.stdout


def _span(span_id, parent, name, start, end, trace_id="job"):
    return (span_id, parent, name, trace_id, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, trace.ROOT_SPAN, 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 2, "a.inner", 20, 30),
        _span(4, 1, "b", 50, 90),
        _span(5, 1, "c", 80, 95),  # overlaps b: the union counts once
        _span(6, 4, "late", 85, 120),  # runs past its parent: clipped
    ]
    own = trace.self_times(spans)
    assert own == {1: 100 - 30 - 45, 2: 20, 3: 10, 4: 40 - 5, 5: 15, 6: 35}
    # Properly nested, the self times of a tree add up to its root.
    nested = spans[:4]
    assert sum(trace.self_times(nested).values()) == 100
    assert trace.root_gaps(nested, {"job": 100e-9}) == [0.0]
    assert trace.root_gaps(nested, {"job": 125e-9}) == [pytest.approx(0.2)]


def test_certificate_share_counts_cut_layer_calls_without_a_backend():
    spans = [
        _span(1, None, trace.CUT_LAYER_SPAN, 0, 10),
        _span(2, 1, "milp.cuts.transfer_lower_bound", 1, 2),
        _span(3, None, trace.CUT_LAYER_SPAN, 20, 40),
        _span(4, 3, "milp.model.MilpModel.solve", 21, 39),
        _span(5, 4, "milp.scipy_backend.solve_with_highs", 22, 38),
    ]
    totals = trace.layer_totals(spans)
    metrics = trace.layer_metrics(totals, requests=2, counts={})
    assert metrics["milp.cuts.certificate_frac"] == 0.5
    assert metrics[f"{trace.CUT_LAYER_SPAN}.calls"] == 1.0
    assert metrics["milp.scipy_backend.solve_with_highs.self_s"] == 16e-9 / 2


def test_every_wrapper_is_removed_after_a_traced_solve():
    from repro import api
    from repro.core.formulation import LetDmaFormulation

    from bench import inputs

    originals = (api.execute, LetDmaFormulation.__init__)
    tracer = trace.Tracer().install()
    try:
        assert api.execute is not originals[0]
        # A module imported while tracing binds the wrapper; uninstall
        # must find that alias too.
        late = types.ModuleType("repro._late_import")
        late.execute = api.execute
        sys.modules[late.__name__] = late
        outcome = api.execute(inputs.warmup_request("traced-job"))
    finally:
        tracer.uninstall()
    try:
        assert outcome.status == "optimal"
        assert (api.execute, LetDmaFormulation.__init__) == originals
        assert late.execute is originals[0]
        assert trace.installed_wrappers() == []
        names = {span[2] for span in tracer.spans}
        assert {"api.execute", "core.formulation.LetDmaFormulation"} <= names
        assert {span[3] for span in tracer.spans} == {"traced-job"}
        assert tracer.counts["core.formulation.rows"] > 0
    finally:
        del sys.modules[late.__name__]
