"""Tests for the reconstructed WATERS 2019 case study."""

import pytest

from repro.analysis import (
    assign_acquisition_deadlines,
    compute_slacks,
    schedulable_with_jitter,
)
from repro.api import SolveRequest, execute
from repro.core import FormulationConfig, Objective
from repro.let.grouping import active_instants, communications_at
from repro.model import DmaParameters
from repro.waters import TASK_NAMES, waters_application, waters_platform


@pytest.fixture(scope="module")
def app():
    return waters_application()


class TestStructure:
    def test_nine_tasks(self, app):
        assert sorted(app.tasks.names) == sorted(TASK_NAMES)

    def test_challenge_periods(self, app):
        expected_ms = {
            "LID": 33,
            "DASM": 5,
            "CAN": 10,
            "EKF": 15,
            "PLAN": 12,
            "SFM": 33,
            "LOC": 400,
            "LDET": 66,
            "DET": 200,
        }
        for name, period_ms in expected_ms.items():
            assert app.tasks[name].period_us == period_ms * 1_000

    def test_two_cores(self, app):
        assert app.platform.num_cores == 2
        assert set(app.tasks.core_ids) == {"P1", "P2"}

    def test_every_task_communicates_inter_core(self, app):
        communicating = {t.name for t in app.communicating_tasks()}
        assert communicating == set(TASK_NAMES)

    def test_single_writer_per_label(self, app):
        writers = [label.writer for label in app.labels]
        assert all(writers)

    def test_paper_dma_parameters(self, app):
        assert app.platform.dma.programming_overhead_us == pytest.approx(3.36)
        assert app.platform.dma.isr_overhead_us == pytest.approx(10.0)

    def test_custom_dma_parameters(self):
        platform = waters_platform(dma=DmaParameters(programming_overhead_us=5.0))
        assert platform.dma.programming_overhead_us == 5.0

    def test_utilizations_schedulable(self, app):
        assert app.tasks.utilization_of_core("P1") < 1.0
        assert app.tasks.utilization_of_core("P2") < 1.0


class TestCommunications:
    def test_eighteen_comms_at_s0(self, app):
        # 9 inter-core labels -> 9 writes + 9 reads at the synchronous
        # release.
        assert len(communications_at(app, 0)) == 18

    def test_perception_flows_dominate_volume(self, app):
        sizes = {label.name: label.size_bytes for label in app.labels}
        assert sizes["point_cloud"] > sizes["vehicle_state"]
        assert max(sizes.values()) == sizes["point_cloud"]

    def test_active_instants_fit_hyperperiod(self, app):
        instants = active_instants(app)
        assert instants[0] == 0
        assert instants[-1] < app.tasks.hyperperiod_us()

    def test_lidar_writes_are_sparse(self, app):
        """LID (33 ms) feeds only LOC (400 ms): nearly 11 of every 12
        lidar writes are skipped by the LET rules."""
        from repro.let import write_instants

        writes = write_instants(app.tasks["LID"], app.tasks["LOC"], 1_320_000)
        releases = len(app.tasks["LID"].release_instants(1_320_000))
        assert len(writes) < releases / 5


class TestSensitivity:
    def test_baseline_schedulable(self, app):
        slacks = compute_slacks(app)
        assert all(s > 0 for s in slacks.values())

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_alpha_sweep_keeps_schedulability(self, app, alpha):
        configured = assign_acquisition_deadlines(app, alpha)
        assert schedulable_with_jitter(configured)

    def test_gammas_set_for_all_nine(self, app):
        configured = assign_acquisition_deadlines(app, 0.2)
        for name in TASK_NAMES:
            assert configured.tasks[name].acquisition_deadline_us is not None


class TestExactSolve:
    @pytest.mark.parametrize(
        ("backend", "limit_s"), [("highs", 5.0), ("bnb", 120.0)]
    )
    def test_obj_dmat_is_proven_within_budget(self, app, backend, limit_s):
        """Both exact backends prove WATERS's OBJ-DMAT optimum (6
        transfers) inside their budget, through ``execute()``."""
        outcome = execute(
            SolveRequest(
                app=app,
                config=FormulationConfig(
                    objective=Objective.MIN_TRANSFERS, time_limit_seconds=limit_s
                ),
                backend=backend,
            )
        )
        assert outcome.status == "optimal"
        assert outcome.result.num_transfers == 6
        assert outcome.wall_seconds < limit_s
