"""Fuzz-campaign tests: healthy agreement, telemetry, and the injected
broken backend that must be caught and shrunk to a corpus reproducer."""

import dataclasses
import json

import pytest

import repro.runtime.facade as facade
import repro.runtime.jobs as jobs_module
from repro.check import FuzzConfig, load_reproducer, replay_reproducer, run_fuzz
from repro.workloads import random_spec
import random


class TestRandomSpec:
    def test_deterministic_in_rng(self):
        assert random_spec(random.Random(3)) == random_spec(random.Random(3))

    def test_draws_vary(self):
        specs = {random_spec(random.Random(i)).seed for i in range(10)}
        assert len(specs) > 1

    def test_spec_bounds(self):
        for i in range(20):
            spec = random_spec(random.Random(i))
            assert 3 <= spec.num_tasks <= 6
            assert 2 <= spec.num_cores <= 3
            assert 0.0 < spec.communication_density < 1.0


@pytest.mark.slow
class TestHealthyCampaign:
    def test_small_campaign_agrees(self, tmp_path):
        telemetry = tmp_path / "fuzz.jsonl"
        report = run_fuzz(
            FuzzConfig(
                budget=3,
                seed=0,
                telemetry=str(telemetry),
                corpus_dir=tmp_path / "corpus",
                time_limit_seconds=20,
            )
        )
        assert report.ok, report.summary()
        assert report.checked == 3
        assert report.solves > 0
        assert "all backends agree" in report.summary()
        # Telemetry: one record per solve, tagged with the campaign.
        records = [
            json.loads(line)
            for line in telemetry.read_text().splitlines()
        ]
        assert len(records) == report.solves
        assert all(r["tags"]["campaign_seed"] == 0 for r in records)
        # No disagreement -> no reproducers written.
        assert not list((tmp_path / "corpus").glob("*.json"))

    def test_campaign_is_deterministic(self):
        first = run_fuzz(FuzzConfig(budget=2, seed=5, shrink=False))
        second = run_fuzz(FuzzConfig(budget=2, seed=5, shrink=False))
        assert first.ok == second.ok
        assert first.solves == second.solves
        assert first.status_counts == second.status_counts


def _break_greedy(result):
    """The injected mutation: silently drop greedy's last transfer."""
    if result.backend == "greedy" and result.feasible and len(result.transfers) > 1:
        return dataclasses.replace(result, transfers=result.transfers[:-1])
    return result


@pytest.mark.slow
class TestBrokenBackendIsCaught:
    def test_injected_mutation_is_caught_and_shrunk(self, tmp_path, monkeypatch):
        """Acceptance: a deliberately broken backend is detected by the
        differential runner and shrunk to a corpus reproducer."""
        corpus = tmp_path / "corpus"
        real_solve = facade.solve
        real_execute = jobs_module.execute_request

        def broken_solve(app, config=None, **kwargs):
            return _break_greedy(real_solve(app, config, **kwargs))

        def broken_execute(request, **kwargs):
            outcome = real_execute(request, **kwargs)
            return dataclasses.replace(
                outcome, result=_break_greedy(outcome.result)
            )

        with monkeypatch.context() as patch:
            # The runner path (fuzz grid) and the facade path (shrinker
            # predicate) both go through the broken backend.
            patch.setattr(jobs_module, "execute_request", broken_execute)
            patch.setattr(facade, "solve", broken_solve)
            report = run_fuzz(
                FuzzConfig(
                    budget=2,
                    seed=1,
                    backends=("highs", "greedy"),
                    corpus_dir=corpus,
                    time_limit_seconds=20,
                    shrink_attempts=40,
                )
            )
            assert not report.ok
            failure = report.failures[0]
            assert failure.disagreements
            assert failure.reproducer_path is not None
            assert failure.reproducer_path.exists()
            # The shrinker must not have grown the instance, and the
            # reproducer must still fail under the broken backend.
            assert failure.shrunk_tasks <= failure.original_tasks
            assert failure.shrunk_labels <= failure.original_labels
            entry = load_reproducer(failure.reproducer_path)
            assert not replay_reproducer(entry).ok

        # With the mutation removed, the shrunk reproducer passes: the
        # harness blames the backend, not the instance.
        assert replay_reproducer(entry).ok
