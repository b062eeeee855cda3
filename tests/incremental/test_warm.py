"""Tests for warm-start planning (:mod:`repro.incremental.warm`) and
the warm channel through the portfolio and request layers."""

from dataclasses import replace
from statistics import median

import pytest

from repro.api import SolveRequest, execute
from repro.core import FormulationConfig, LetDmaFormulation, Objective
from repro.incremental import (
    Prior,
    build_start,
    model_fingerprint,
    prepare_warm,
    prior_from_dict,
    prior_to_dict,
)
from repro.runtime.portfolio import solve_with_portfolio
from repro.waters import waters_application

from tests.incremental.conftest import make_app, with_label_size, with_wcet


class TestFingerprint:
    def test_wcet_invariant(self):
        app = make_app()
        config = FormulationConfig(objective=Objective.MIN_TRANSFERS)
        assert model_fingerprint(app, config) == model_fingerprint(
            with_wcet(app, "A", 777.0), config
        )

    def test_size_changes_it(self):
        app = make_app()
        config = FormulationConfig(objective=Objective.MIN_TRANSFERS)
        assert model_fingerprint(app, config) != model_fingerprint(
            with_label_size(app, "ac", 1_111), config
        )

    def test_objective_changes_it(self):
        app = make_app()
        assert model_fingerprint(
            app, FormulationConfig(objective=Objective.MIN_TRANSFERS)
        ) != model_fingerprint(
            app, FormulationConfig(objective=Objective.NONE)
        )

    def test_time_limit_does_not_change_it(self):
        app = make_app()
        assert model_fingerprint(
            app, FormulationConfig(time_limit_seconds=1.0)
        ) == model_fingerprint(app, FormulationConfig(time_limit_seconds=99.0))


class TestPrepareWarm:
    def test_wcet_delta_reuses_proven_prior(self, solved):
        app, config, result = solved
        plan = prepare_warm(
            with_wcet(app, "A", 650.0), config, Prior(app, result, config)
        )
        assert plan.tier == "reused"
        assert plan.reused.warm_start == "reused"
        assert plan.reused.runtime_seconds == 0.0
        assert plan.reused.objective_value == result.objective_value

    def test_size_delta_repairs(self, solved):
        app, config, result = solved
        plan = prepare_warm(
            with_label_size(app, "ac", 1_200),
            config,
            Prior(app, result, config),
        )
        assert plan.tier == "repaired"
        assert plan.start is not None
        assert plan.formulation is not None
        assert plan.repaired.warm_start == "repaired"

    def test_structural_diff_goes_cold(self, solved):
        app, config, result = solved
        from dataclasses import replace

        from repro.model import Application

        labels = [
            replace(l, writer="B") if l.name == "ac" else l
            for l in app.labels
        ]
        rewired = Application(app.platform, app.tasks, labels)
        plan = prepare_warm(rewired, config, Prior(app, result, config))
        assert plan.tier == "none"
        assert "structural" in plan.note

    def test_objective_mismatch_goes_cold(self, solved):
        app, config, result = solved
        other = FormulationConfig(objective=Objective.MIN_DELAY_RATIO)
        plan = prepare_warm(
            with_label_size(app, "ac", 1_200),
            other,
            Prior(app, result, config),
        )
        assert plan.tier == "none"
        assert plan.note == "config changed"

    def test_impossible_deadlines_degrade_to_cold(self, solved):
        """A repaired assignment violating tightened gammas must never
        survive validation — warm changes speed, not answers."""
        app, config, result = solved
        from dataclasses import replace

        from repro.model import Application, TaskSet

        tight = TaskSet(
            [replace(t, acquisition_deadline_us=0.001) for t in app.tasks]
        )
        tightened = Application(app.platform, tight, list(app.labels))
        plan = prepare_warm(tightened, config, Prior(app, result, config))
        assert plan.tier == "none"


class TestBuildStart:
    def test_exact_result_round_trips(self, solved):
        app, config, result = solved
        formulation = LetDmaFormulation(app, config)
        start = build_start(formulation, result)
        assert start is not None
        assert formulation.model.check_assignment(start) == []
        assert set(start) == set(formulation.model.variables)

    def test_foreign_layout_is_rejected(self, solved):
        app, config, result = solved
        from dataclasses import replace

        formulation = LetDmaFormulation(app, config)
        broken_layouts = dict(result.layouts)
        broken_layouts.pop(next(iter(broken_layouts)))
        broken = replace(result, layouts=broken_layouts)
        assert build_start(formulation, broken) is None


class TestWarmEqualsCold:
    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_size_perturbation_agrees(self, solved, backend):
        app, config, result = solved
        perturbed = with_label_size(app, "ac", 1_200)
        cold = solve_with_portfolio(perturbed, config, rungs=(backend,))
        warm = solve_with_portfolio(
            perturbed,
            config,
            rungs=(backend,),
            prior=Prior(app, result, config),
        )
        assert warm.status is cold.status
        assert warm.objective_value == pytest.approx(cold.objective_value)
        assert warm.warm_start in ("repaired", "none")

    def test_wcet_perturbation_reuses(self, solved):
        app, config, result = solved
        perturbed = with_wcet(app, "A", 650.0)
        warm = solve_with_portfolio(
            perturbed,
            config,
            rungs=("highs",),
            prior=Prior(app, result, config),
        )
        assert warm.warm_start == "reused"
        assert warm.objective_value == result.objective_value
        assert warm.fallback_chain[0].backend == "warm-reuse"

    def test_none_objective_repair_short_circuits(self, solved):
        app, _, _ = solved
        config = FormulationConfig(objective=Objective.NONE)
        base = solve_with_portfolio(app, config, rungs=("highs",))
        perturbed = with_label_size(app, "ac", 1_200)
        warm = solve_with_portfolio(
            perturbed,
            config,
            rungs=("highs",),
            prior=Prior(app, base, config),
        )
        assert warm.feasible
        if warm.backend == "warm-repair":
            from repro.core import verify_allocation

            verify_allocation(
                perturbed, warm, check_property3=False
            ).raise_if_failed()


class TestWarmSpeed:
    def test_waters_wcet_delta_costs_a_tenth_of_cold(self):
        """A 20% WCET bump on one WATERS task leaves the MILP unchanged,
        so the warm re-solve reuses the prior: through ``execute()``, its
        median wall time is at most 10% of a cold solve's, measured over
        interleaved pairs in this process."""
        app = waters_application()
        config = FormulationConfig(objective=Objective.MIN_TRANSFERS)
        base = execute(SolveRequest(app=app, config=config, backend="highs"))
        first = next(iter(app.tasks))
        wcet = min(first.wcet_us * 1.2, float(first.period_us))
        cold = SolveRequest(
            app=with_wcet(app, first.name, wcet), config=config, backend="highs"
        )
        warm = replace(cold, prior=Prior(app, base.result, config))

        reused = execute(warm).result  # warm-up; the base solve was cold's
        assert reused.warm_start == "reused"
        assert reused.num_transfers == base.result.num_transfers
        pairs = [
            (execute(cold).wall_seconds, execute(warm).wall_seconds)
            for _ in range(3)
        ]
        cold_s, warm_s = (median(side) for side in zip(*pairs))
        assert warm_s <= 0.10 * cold_s, (
            f"warm median {warm_s * 1e3:.2f} ms > 10% of cold median "
            f"{cold_s * 1e3:.1f} ms"
        )


class TestWire:
    def test_prior_round_trips(self, solved):
        app, config, result = solved
        prior = Prior(app, result, config)
        back = prior_from_dict(prior_to_dict(prior))
        assert model_fingerprint(back.app, back.config) == model_fingerprint(
            app, config
        )
        assert back.result.status is result.status
        assert back.result.warm_start == result.warm_start

    def test_request_prior_excluded_from_instance_hash(self, solved):
        app, config, result = solved
        from repro.api import SolveRequest, request_from_dict, request_to_dict

        bare = SolveRequest(app=app, config=config)
        warm = SolveRequest(
            app=app, config=config, prior=Prior(app, result, config)
        )
        assert bare.instance == warm.instance
        back = request_from_dict(request_to_dict(warm))
        assert back.prior is not None
        assert back.instance == warm.instance

    def test_solve_job_passes_prior_through(self, solved):
        app, config, result = solved
        from repro.runtime.runner import SolveJob

        prior = Prior(app, result, config)
        job = SolveJob(job_id="j", app=app, config=config, prior=prior)
        assert job.to_request().prior is prior
