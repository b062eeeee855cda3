"""Differential tests: the vectorized batch engine against the scalar
event engine.

The contract is byte identity — ``repr(result.jobs)`` of any batch
variant must equal the scalar engine's output for the same inputs —
exercised on handcrafted blackout edge cases, randomized workload
specs, and the documented fallback triggers.
"""

import random
import time
from statistics import median

import numpy as np
import pytest

from repro.core import greedy_allocation
from repro.faults import FaultSpec
from repro.faults.injector import jitter_tag
from repro.faults.streams import site_uniforms_np
from repro.model import Application, Platform, Task, TaskSet
from repro.sim import (
    CommunicationTimeline,
    Simulator,
    TabulatedHooks,
    batch_supported,
    proposed_timeline,
    simulate,
    simulate_batch,
    verify_batch_differential,
)
from repro.waters import waters_application
from repro.workloads import generate_application, random_spec

from tests.conftest import in_fresh_interpreter


def make_app(tasks):
    return Application(Platform.symmetric(2), TaskSet(tasks), [])


def empty_timeline(app, horizon):
    timeline = CommunicationTimeline()
    for task in app.tasks:
        for t in task.release_instants(horizon):
            timeline.ready_times[(task.name, t)] = float(t)
    return timeline


def assert_batch_matches_scalar(app, timeline, batch):
    """Every variant's rebuilt trace equals a scalar replay, bytewise."""
    checked = verify_batch_differential(
        app, timeline, batch, sample=batch.num_variants
    )
    assert checked == batch.num_variants


class TestPlainGrids:
    def test_default_batch_equals_hookless_scalar(self):
        app = make_app(
            [
                Task("HI", 5_000, 1_000.0, "P1", 0),
                Task("LO", 20_000, 6_000.0, "P1", 1),
                Task("X", 10_000, 2_500.0, "P2", 0),
            ]
        )
        horizon = 20_000
        tl = empty_timeline(app, horizon)
        batch = simulate_batch(app, tl, horizon, num_variants=3)
        scalar = simulate(app, tl, horizon)
        assert not batch.scalar_fallback.any()
        for v in range(3):
            assert repr(batch.result(v).jobs) == repr(scalar.jobs)

    def test_zero_intensity_grid_is_uniform(self):
        # A zero-intensity chaos grid: every variant identical to the
        # nominal run, no fallback lanes, zero miss spread.
        app = make_app(
            [
                Task("A", 4_000, 900.0, "P1", 0),
                Task("B", 8_000, 2_000.0, "P1", 1),
                Task("C", 8_000, 3_000.0, "P2", 0),
            ]
        )
        horizon = 8_000
        tl = empty_timeline(app, horizon)
        batch = simulate_batch(app, tl, horizon, num_variants=5)
        assert not batch.scalar_fallback.any()
        counts = batch.deadline_miss_counts()
        assert (counts == counts[0]).all()
        assert_batch_matches_scalar(app, tl, batch)

    def test_jittered_grid_matches_scalar(self):
        app = make_app(
            [
                Task("HI", 5_000, 1_000.0, "P1", 0),
                Task("MID", 10_000, 2_000.0, "P1", 1),
                Task("LO", 20_000, 5_500.0, "P1", 2),
            ]
        )
        horizon = 20_000
        tl = empty_timeline(app, horizon)
        base = simulate_batch(app, tl, horizon, num_variants=8)
        rng = np.random.default_rng(42)
        ready = base.ready_us + rng.uniform(0.0, 300.0, base.ready_us.shape)
        wcet = base.wcet_us * rng.uniform(1.0, 1.6, base.wcet_us.shape)
        batch = simulate_batch(app, tl, horizon, ready_us=ready, wcet_us=wcet)
        assert not batch.scalar_fallback.any()
        assert_batch_matches_scalar(app, tl, batch)

    def test_admission_vetoes_match_scalar(self):
        app = make_app(
            [
                Task("HI", 5_000, 1_500.0, "P1", 0),
                Task("LO", 10_000, 4_000.0, "P1", 1),
            ]
        )
        horizon = 10_000
        tl = empty_timeline(app, horizon)
        base = simulate_batch(app, tl, horizon, num_variants=4)
        admitted = np.ones_like(base.admitted)
        admitted[1, 0] = False  # drop HI's first job in variant 1
        admitted[3, :] = False  # drop everything in variant 3
        batch = simulate_batch(app, tl, horizon, admitted=admitted)
        assert not batch.scalar_fallback.any()
        assert_batch_matches_scalar(app, tl, batch)
        # A vetoed job keeps its record but never completes.
        assert batch.result(1).jobs[0].completion_us is None
        assert batch.deadline_miss_counts()[3] == batch.num_jobs


class TestBlackoutEdgeCases:
    def _app(self):
        return make_app(
            [
                Task("HI", 10_000, 2_000.0, "P1", 0),
                Task("LO", 20_000, 7_000.0, "P1", 1),
            ]
        )

    def _check(self, blackouts, horizon=20_000):
        app = self._app()
        tl = empty_timeline(app, horizon)
        tl.blackouts["P1"] = list(blackouts)
        batch = simulate_batch(app, tl, horizon, num_variants=2)
        assert not batch.scalar_fallback.any()
        scalar = simulate(app, tl, horizon)
        assert repr(batch.result(0).jobs) == repr(scalar.jobs)
        return batch

    def test_blackout_at_time_zero(self):
        self._check([(0.0, 1_500.0)])

    def test_touching_blackouts(self):
        self._check([(1_000.0, 2_000.0), (2_000.0, 3_000.0)])

    def test_overlapping_blackouts(self):
        self._check([(1_000.0, 4_000.0), (2_000.0, 3_000.0)])

    def test_unsorted_blackouts(self):
        self._check([(5_000.0, 6_000.0), (1_000.0, 2_000.0)])

    def test_exact_fit_against_blackout_start(self):
        # HI runs 0..2000; a blackout at exactly its completion instant
        # must not steal the completion (event-order tie break).
        self._check([(2_000.0, 3_000.0)])

    def test_job_ready_inside_blackout(self):
        self._check([(0.0, 12_000.0)])

    def test_blackout_past_horizon(self):
        self._check([(15_000.0, 40_000.0)])

    def test_degenerate_blackout_falls_back(self):
        app = self._app()
        horizon = 20_000
        tl = empty_timeline(app, horizon)
        tl.blackouts["P1"] = [(3_000.0, 3_000.0)]  # end <= start
        batch = simulate_batch(app, tl, horizon, num_variants=2)
        assert batch.scalar_fallback.all()
        # The fallback path is the scalar engine itself, so the traces
        # still agree with a direct scalar run.
        scalar = simulate(app, tl, horizon)
        assert repr(batch.result(0).jobs) == repr(scalar.jobs)


class TestFallbackTriggers:
    def test_valid_apps_are_batch_supported(self):
        # TaskSet construction already rejects duplicate per-core
        # priorities, so the batch_supported guard (which would route
        # such an app to the scalar engine) is purely defensive.
        app = make_app(
            [
                Task("A", 10_000, 2_000.0, "P1", 0),
                Task("B", 10_000, 2_000.0, "P1", 1),
            ]
        )
        assert batch_supported(app)

    def test_non_monotone_ready_falls_back_and_matches(self):
        app = make_app(
            [
                Task("A", 5_000, 1_000.0, "P1", 0),
                Task("B", 10_000, 3_000.0, "P1", 1),
            ]
        )
        horizon = 10_000
        tl = empty_timeline(app, horizon)
        base = simulate_batch(app, tl, horizon, num_variants=2)
        ready = base.ready_us.copy()
        # A's second release becomes ready before its first: the gap
        # filler cannot model the overtaking, the scalar replay can.
        cols = [
            j
            for j, name in enumerate(base.table.tasks)
            if name == "A"
        ]
        ready[1, cols[1]] = ready[1, cols[0]] - 2_000.0
        batch = simulate_batch(app, tl, horizon, ready_us=ready)
        assert bool(batch.scalar_fallback[1])
        assert not bool(batch.scalar_fallback[0])
        assert_batch_matches_scalar(app, tl, batch)


class TestRandomizedSpecs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_spec_grids_are_byte_identical(self, seed):
        from repro.core.heuristic import greedy_allocation
        from repro.sim.timeline import proposed_timeline

        spec = random_spec(random.Random(seed))
        app = generate_application(spec)
        result = greedy_allocation(app)
        horizon = app.tasks.hyperperiod_us()
        tl = proposed_timeline(app, result, horizon)
        base = simulate_batch(app, tl, horizon, num_variants=6)
        rng = np.random.default_rng(seed)
        ready = base.ready_us + rng.uniform(0.0, 150.0, base.ready_us.shape)
        wcet = base.wcet_us * rng.uniform(1.0, 1.5, base.wcet_us.shape)
        admitted = rng.random(base.admitted.shape) > 0.03
        batch = simulate_batch(
            app, tl, horizon, ready_us=ready, wcet_us=wcet, admitted=admitted
        )
        assert_batch_matches_scalar(app, tl, batch)

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_intensity_random_specs(self, seed):
        from repro.core.heuristic import greedy_allocation
        from repro.sim.timeline import proposed_timeline

        spec = random_spec(random.Random(100 + seed))
        app = generate_application(spec)
        result = greedy_allocation(app)
        horizon = app.tasks.hyperperiod_us()
        tl = proposed_timeline(app, result, horizon)
        batch = simulate_batch(app, tl, horizon, num_variants=3)
        scalar = simulate(app, tl, horizon)
        for v in range(3):
            if not batch.scalar_fallback[v]:
                assert repr(batch.result(v).jobs) == repr(scalar.jobs)
        assert_batch_matches_scalar(app, tl, batch)


class TestColumnarQueries:
    def test_miss_counts_agree_with_row_layout(self):
        app = make_app(
            [
                Task("HI", 5_000, 2_400.0, "P1", 0),
                Task("LO", 10_000, 4_000.0, "P1", 1),
            ]
        )
        horizon = 10_000
        tl = empty_timeline(app, horizon)
        base = simulate_batch(app, tl, horizon, num_variants=3)
        rng = np.random.default_rng(0)
        wcet = base.wcet_us * rng.uniform(1.0, 2.0, base.wcet_us.shape)
        batch = simulate_batch(app, tl, horizon, wcet_us=wcet)
        counts = batch.deadline_miss_counts()
        for v in range(3):
            assert counts[v] == len(batch.result(v).deadline_misses())

    def test_single_timeline_requires_variant_count(self):
        app = make_app([Task("A", 5_000, 1_000.0, "P1", 0)])
        tl = empty_timeline(app, 5_000)
        batch = simulate_batch(app, tl, 5_000)
        assert batch.num_variants == 1

    def test_shape_mismatch_is_rejected(self):
        app = make_app([Task("A", 5_000, 1_000.0, "P1", 0)])
        tl = empty_timeline(app, 5_000)
        with pytest.raises(ValueError, match="ready_us"):
            simulate_batch(
                app, tl, 5_000, num_variants=2, ready_us=np.zeros((3, 1))
            )


def _chaos_grid_seconds(variants):
    """Medians of 3 interleaved runs of a ``variants``-wide chaos grid on
    WATERS through ``simulate_batch`` and through one scalar
    ``Simulator.run()`` per variant, in seconds, and the number of
    variants the batch engine handed to the scalar engine."""
    app = waters_application()
    horizon = app.tasks.hyperperiod_us()
    timeline = proposed_timeline(app, greedy_allocation(app), horizon)
    base = simulate_batch(app, timeline, horizon, num_variants=1)  # warm-up
    table = base.table
    ready = np.repeat(base.ready_us, variants, axis=0)
    wcet = np.repeat(base.wcet_us, variants, axis=0)
    job_tasks = np.asarray(table.tasks)
    for v in range(variants):
        spec = FaultSpec.from_intensity(0.05 + 0.9 * v / (variants - 1))
        for task in app.tasks:
            jobs = job_tasks == task.name
            ready[v, jobs] += spec.release_jitter_us * site_uniforms_np(
                spec.seed, jitter_tag(task.name), table.releases_us[jobs]
            )
            wcet[v, jobs] *= spec.wcet_factor_of(task.name)
    keys = list(zip(table.tasks, table.releases_us.tolist()))
    batches = []

    def batched():
        batches.append(
            simulate_batch(app, timeline, horizon, ready_us=ready, wcet_us=wcet)
        )

    def scalar():
        for v in range(variants):
            hooks = TabulatedHooks(
                dict(zip(keys, ready[v].tolist())),
                dict(zip(keys, wcet[v].tolist())),
            )
            Simulator(app, timeline, horizon, hooks=hooks).run()

    def seconds(call):
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    pairs = [(seconds(batched), seconds(scalar)) for _ in range(3)]
    batch_s, scalar_s = (median(side) for side in zip(*pairs))
    fallbacks = sum(int(batch.scalar_fallback.sum()) for batch in batches)
    return batch_s, scalar_s, fallbacks


@pytest.mark.slow
class TestSpeed:
    def test_chaos_grid_runs_3x_faster_than_scalar(self):
        """A 20-variant chaos grid on WATERS (greedy allocation, one
        hyperperiod, counter-hash release jitter and WCET factors) runs at
        least 3x faster through ``simulate_batch`` than as one scalar
        ``Simulator.run()`` per variant.  Measured in a fresh interpreter:
        inside the full tier-1 run the same measurement took 12-14 s,
        against 9 s alone."""
        batch_s, scalar_s, fallbacks = in_fresh_interpreter(
            _chaos_grid_seconds, 20
        )
        assert fallbacks == 0
        assert 3 * batch_s <= scalar_s, (
            f"batch median {batch_s:.2f} s is not 3x faster than scalar "
            f"median {scalar_s:.2f} s"
        )
