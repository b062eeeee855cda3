"""Tests for the graceful-degradation solver portfolio."""

import pytest

from repro.core import FormulationConfig, verify_allocation
from repro.milp import SolveStatus
from repro.milp.worker import solve_rung_entry
from repro.runtime import PORTFOLIO_RUNGS, solve_with_portfolio

pytestmark = pytest.mark.runtime


class TestHappyPath:
    def test_first_rung_wins(self, simple_app):
        result = solve_with_portfolio(simple_app)
        assert result.status is SolveStatus.OPTIMAL
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1
        assert result.fallback_chain[0].backend == "highs"
        assert result.fallback_chain[0].status == "optimal"

    def test_result_verifies(self, simple_app):
        result = solve_with_portfolio(simple_app)
        verify_allocation(simple_app, result).raise_if_failed()

    def test_infeasible_is_definitive(self, simple_app):
        # INFEASIBLE is an answer, not a failure: the ladder must stop.
        result = solve_with_portfolio(
            simple_app, FormulationConfig(max_transfers=1)
        )
        assert result.status is SolveStatus.INFEASIBLE
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1

    def test_default_rungs(self):
        assert PORTFOLIO_RUNGS == ("highs", "bnb", "greedy")


class TestDegradation:
    def test_falls_to_greedy_on_timeout(self, timeout_app, timeout_config):
        result = solve_with_portfolio(timeout_app, timeout_config)
        assert result.feasible
        assert result.backend == "greedy"
        assert [a.backend for a in result.fallback_chain] == [
            "highs",
            "bnb",
            "greedy",
        ]
        assert result.fallback_chain[0].status == "timeout"
        assert result.fallback_chain[1].status == "timeout"
        assert "time limit" in result.fallback_chain[0].reason

    def test_greedy_fallback_is_feasible_layout(self, timeout_app, timeout_config):
        result = solve_with_portfolio(timeout_app, timeout_config)
        assert result.num_transfers >= 1
        assert result.layouts

    def test_single_rung_keeps_timeout_verbatim(self, timeout_app, timeout_config):
        # Direct-backend solves keep their non-raising contract: a
        # time limit without an incumbent is TIMEOUT, not ERROR.
        result = solve_with_portfolio(timeout_app, timeout_config, rungs=("highs",))
        assert result.status is SolveStatus.TIMEOUT
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1


class TestContract:
    def test_empty_rungs_rejected(self, simple_app):
        with pytest.raises(ValueError):
            solve_with_portfolio(simple_app, rungs=())

    def test_unknown_last_rung_raises(self, simple_app):
        with pytest.raises(ValueError):
            solve_with_portfolio(simple_app, rungs=("bogus",))

    def test_unknown_rung_falls_through(self, simple_app):
        result = solve_with_portfolio(simple_app, rungs=("bogus", "highs"))
        assert result.status is SolveStatus.OPTIMAL
        assert result.backend == "highs"
        assert result.fallback_chain[0].status == "error"
        assert "ValueError" in result.fallback_chain[0].reason

    def test_config_backend_field_is_overridden(self, simple_app):
        # The rung decides the backend, not config.backend.
        result = solve_with_portfolio(
            simple_app,
            FormulationConfig(backend="bnb"),
            rungs=("highs",),
        )
        assert result.backend == "highs"

    @pytest.mark.parametrize("rung", ["highs-bogus", "bnb-parallel"])
    def test_unknown_variant_rejected_alike_in_process_and_sandbox(
        self, simple_app, rung
    ):
        config = FormulationConfig()
        with pytest.raises(ValueError) as in_process:
            solve_with_portfolio(simple_app, config, rungs=(rung,))
        with pytest.raises(ValueError) as sandboxed:
            solve_rung_entry({"app": simple_app, "config": config, "rung": rung})
        assert str(in_process.value) == str(sandboxed.value)
        assert rung in str(in_process.value)
