"""Tests for the structure-aware cut layer (:mod:`repro.milp.cuts`).

The load-bearing property: every cut the engine emits — static family
or separated at an arbitrary (even nonsensical) LP point — must hold
for every verifier-feasible integer point, so cuts can never change an
answer.  ``TestCutValidity`` checks exactly that against proven optima;
``letdma fuzz --check-cuts`` extends the same check to random
instances via the ``-nocuts`` differential backend.
"""

import pytest

from repro.core.formulation import FormulationConfig, LetDmaFormulation, Objective
from repro.milp import SolveStatus
from repro.milp.cuts import (
    _FEAS_TOL,
    CutEngine,
    apply_cuts,
    structure_hints,
    transfer_lower_bound,
)
from repro.waters import waters_application
from repro.workloads import WorkloadSpec, generate_application


def _synthetic_formulation(seed, num_tasks=4, density=0.5):
    app = generate_application(
        WorkloadSpec(
            num_tasks=num_tasks,
            num_cores=2,
            communication_density=density,
            seed=seed,
        )
    )
    return LetDmaFormulation(
        app, FormulationConfig(objective=Objective.MIN_TRANSFERS)
    )


@pytest.fixture(scope="module")
def waters_formulation():
    return LetDmaFormulation(
        waters_application(),
        FormulationConfig(objective=Objective.MIN_TRANSFERS),
    )


def _used_transfers(hints, values):
    return int(round(sum(values[hints.used[g]] for g in range(hints.num_transfers))))


class TestTransferLowerBound:
    def test_waters_bound_matches_known_optimum(self, waters_formulation):
        hints = structure_hints(waters_formulation.model)
        assert hints is not None
        bound = transfer_lower_bound(hints)
        # The WATERS case study provably needs 6 transfers (Table I);
        # the partition bound is tight here, which is what lets the
        # ladder certify the optimum without any tree search.
        assert bound.total == 6

    def test_bound_never_exceeds_optimum(self):
        checked = 0
        for seed in (1, 2, 3):
            formulation = _synthetic_formulation(seed)
            hints = structure_hints(formulation.model)
            bound = transfer_lower_bound(hints)
            solution = formulation.model.solve(backend="highs", cuts=False)
            if solution.status is not SolveStatus.OPTIMAL:
                continue
            assert bound.total <= _used_transfers(hints, solution.values)
            checked += 1
        assert checked > 0


class TestCutValidity:
    """No generated cut may separate a verifier-feasible integer point."""

    def _feasible_point(self, formulation):
        solution = formulation.model.solve(backend="highs", cuts=False)
        if solution.status is not SolveStatus.OPTIMAL:
            return None
        assert formulation.model.check_assignment(solution.values) == []
        return solution.values

    def test_static_and_separated_cuts_hold_at_optima(self):
        checked = 0
        for seed in (1, 2, 3):
            formulation = _synthetic_formulation(seed)
            values = self._feasible_point(formulation)
            if values is None:
                continue
            hints = structure_hints(formulation.model)
            engine = CutEngine(hints, transfer_lower_bound(hints))
            point = values.__getitem__
            for cut in engine.static_cuts():
                assert cut.violation(point) <= _FEAS_TOL, cut.name
            # Separating *at* the feasible integer point must find
            # nothing: a violated cut there would be an invalid cut.
            assert engine.separate(point) == []
            # Cuts separated at fractional points must still hold at
            # the feasible point — validity is global, not local to
            # the LP point that triggered separation.
            for fractional in (
                lambda var: 0.5,
                lambda var: 0.5 * (values[var] + 0.5),
            ):
                for cut in engine.separate(fractional, max_cuts=1000):
                    assert cut.violation(point) <= _FEAS_TOL, cut.name
            checked += 1
        assert checked > 0

    def test_cut_rows_are_namespaced(self):
        formulation = _synthetic_formulation(1)
        hints = structure_hints(formulation.model)
        engine = CutEngine(hints, transfer_lower_bound(hints))
        model = formulation.model
        before = model.num_constraints
        added = apply_cuts(model, engine.static_cuts())
        try:
            assert added > 0
            new_rows = model.constraints[before:]
            assert all(row.name.startswith("CUT_") for row in new_rows)
            # Symmetry rows are not cuts and must never appear here.
            assert not any("SYM_" in row.name for row in new_rows)
        finally:
            del model.constraints[before:]


class TestCutLayerSolve:
    def test_waters_certificate_both_backends(self, waters_formulation):
        for backend in ("highs", "bnb"):
            solution = waters_formulation.model.solve(
                backend=backend, cuts=True, time_limit_seconds=60.0
            )
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == pytest.approx(5.0)
            assert "certificate" in solution.message
            assert waters_formulation.model.check_assignment(solution.values) == []

    def test_ladder_agrees_with_plain_solve(self):
        for seed in (1, 2):
            formulation = _synthetic_formulation(seed)
            plain = formulation.model.solve(backend="highs", cuts=False)
            layered = formulation.model.solve(backend="highs", cuts=True)
            assert layered.status is plain.status
            if plain.status is SolveStatus.OPTIMAL:
                assert layered.objective == pytest.approx(plain.objective)

    def test_model_restored_after_ladder(self):
        formulation = _synthetic_formulation(2)
        model = formulation.model
        rows_before = model.num_constraints
        names_before = [c.name for c in model.constraints]
        bounds_before = [(v.lower, v.upper) for v in model.variables]
        objective_before = model.objective

        model.solve(backend="highs", cuts=True)

        assert model.num_constraints == rows_before
        assert [c.name for c in model.constraints] == names_before
        assert [(v.lower, v.upper) for v in model.variables] == bounds_before
        assert model.objective is objective_before
        assert not any(c.name.startswith("CUT_") for c in model.constraints)

    def test_plain_model_is_a_noop(self):
        from repro.milp import MilpModel

        model = MilpModel("plain")
        x = model.add_binary("x")
        model.maximize(x)
        assert structure_hints(model) is None
        assert model.solve(cuts=True).objective == pytest.approx(1.0)
