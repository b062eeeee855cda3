"""Tests for chaos campaign grids and checkpoint/resume.

The greedy backend keeps every solve sub-second; the cross-product
grids stay tiny so the whole module runs in the fast CI subset.
"""

import pytest

import repro.faults.batch as batch_module
from repro.faults import (
    BatchChaosJob,
    ChaosConfig,
    FaultSpec,
    chaos_grid,
    evaluate_robustness,
    render_chaos_table,
    run_chaos,
)
from repro.reporting.experiments import solve_instance
from repro.runtime import read_telemetry

TINY = ChaosConfig(
    alphas=(0.3,),
    intensities=(0.0, 1.0),
    seeds=(0,),
    policies=("stale-data", "fail-stop"),
    backend="greedy",
)


class TestGrid:
    def test_cross_product_and_unique_ids(self):
        config = ChaosConfig(
            alphas=(0.2, 0.3),
            intensities=(0.0, 0.5),
            seeds=(0, 1),
            policies=("stale-data",),
        )
        member_ids = [
            member_id for job in chaos_grid(config) for member_id in job.member_ids
        ]
        assert len(member_ids) == 8
        assert len(set(member_ids)) == 8

    def test_tags_carry_grid_coordinates(self):
        (job,) = chaos_grid(
            ChaosConfig(
                alphas=(0.4,), intensities=(0.5,), seeds=(2,),
                policies=("fail-stop",),
            )
        )
        (member,) = job.members
        assert member.tags == {
            "alpha": 0.4,
            "intensity": 0.5,
            "seed": 2,
            "policy": "fail-stop",
            "objective": job.objective.value,
        }

    def test_batch_grid_collapses_per_alpha(self):
        config = ChaosConfig(
            alphas=(0.2, 0.3),
            intensities=(0.0, 0.5),
            seeds=(0, 1),
            policies=("stale-data",),
        )
        batched = chaos_grid(config)
        assert len(batched) == 2  # one job per alpha
        assert all(isinstance(job, BatchChaosJob) for job in batched)
        # Each alpha's members cover exactly its fault cross product.
        for job in batched:
            assert {member.tags["alpha"] for member in job.members} == {
                job.alpha
            }
            assert len(job.member_ids) == 4

    def test_narrow_restricts_members(self):
        (job,) = chaos_grid(TINY)
        keep = job.member_ids[:1]
        narrowed = job.narrow(keep)
        assert narrowed.member_ids == keep
        assert len(job.member_ids) == 4  # original untouched


class TestRunChaos:
    def test_campaign_produces_chaos_records(self, tmp_path):
        telemetry = tmp_path / "chaos.jsonl"
        outcomes = run_chaos(TINY, telemetry=telemetry)
        assert len(outcomes) == 4
        records = read_telemetry(telemetry)
        assert all(r["event"] == "chaos" for r in records)
        assert all(r["robustness"] is not None for r in records)
        # The zero-intensity control points are clean...
        by_intensity = {
            (r["tags"]["intensity"], r["tags"]["policy"]): r["robustness"]
            for r in records
        }
        assert by_intensity[(0.0, "stale-data")]["clean"]
        assert by_intensity[(0.0, "fail-stop")]["clean"]
        # ...and full intensity degrades the greedy allocation.
        assert not by_intensity[(1.0, "stale-data")]["clean"]

    def test_batched_and_scalar_campaigns_agree(self, tmp_path):
        """Every batched member's robustness record equals the scalar
        engine's report on the same solved allocation."""
        outcomes = run_chaos(TINY, telemetry=tmp_path / "batched.jsonl")
        app, _ = solve_instance(
            TINY.objective, 0.3, backend=TINY.backend, verify=False
        )
        assert len(outcomes) == 4
        for outcome in outcomes:
            tags = outcome.record["tags"]
            spec = FaultSpec.from_intensity(tags["intensity"], seed=tags["seed"])
            expected = evaluate_robustness(
                app, outcome.result, spec, policy=tags["policy"]
            ).to_record()
            got = outcome.record["robustness"]
            for key in (
                "policy",
                "total_jobs",
                "deadline_misses",
                "acquisition_misses",
                "dropped_jobs",
                "max_staleness",
                "clean",
            ):
                assert got[key] == expected[key], (outcome.job_id, key)

    def test_killed_batched_campaign_resumes_narrowed(
        self, tmp_path, monkeypatch
    ):
        """A batched campaign resumes at grid-point granularity: the
        batch job is narrowed to the members missing from telemetry."""
        telemetry = tmp_path / "chaos.jsonl"
        run_chaos(TINY, telemetry=telemetry)
        lines = telemetry.read_text().splitlines()
        assert len(lines) == 4  # one line per member, not per batch
        telemetry.write_text("\n".join(lines[:3]) + "\n" + lines[3][:31])

        evaluated = []
        real_evaluate = batch_module.evaluate_robustness_batch

        def counting_evaluate(app, result, variants, **kwargs):
            evaluated.extend(variants)
            return real_evaluate(app, result, variants, **kwargs)

        # BatchChaosJob.execute imports from repro.faults.batch at call
        # time, so patching the module attribute is enough.
        monkeypatch.setattr(
            batch_module, "evaluate_robustness_batch", counting_evaluate
        )
        outcomes = run_chaos(TINY, telemetry=telemetry, resume=True)
        assert [o.resumed for o in outcomes] == [True, True, True, False]
        assert len(evaluated) == 1  # only the torn member re-ran
        records = read_telemetry(telemetry)
        assert len(records) == 4
        assert len({r["job_id"] for r in records}) == 4

    def test_rerun_with_resume_is_a_no_op(self, tmp_path, monkeypatch):
        telemetry = tmp_path / "chaos.jsonl"
        run_chaos(TINY, telemetry=telemetry)
        monkeypatch.setattr(
            batch_module,
            "evaluate_robustness_batch",
            lambda *a, **k: pytest.fail("resumed campaign re-evaluated"),
        )
        outcomes = run_chaos(TINY, telemetry=telemetry, resume=True)
        assert all(o.resumed for o in outcomes)
        assert len(read_telemetry(telemetry)) == 4


class TestRendering:
    def test_table_includes_resume_notes(self, tmp_path):
        telemetry = tmp_path / "chaos.jsonl"
        run_chaos(TINY, telemetry=telemetry)
        outcomes = run_chaos(TINY, telemetry=telemetry, resume=True)
        table = render_chaos_table(outcomes)
        assert "Chaos campaign" in table
        assert "resumed" in table
        assert "stale-data" in table and "fail-stop" in table
