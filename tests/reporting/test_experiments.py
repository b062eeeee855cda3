"""Tests for the shared experiment drivers (on a small fast app)."""

import pytest

from repro.core import Objective
from repro.model import Application, Label, Platform, Task, TaskSet
from repro.reporting import (
    run_alpha_feasibility,
    run_fig2_panel,
    run_table1,
    solve_instance,
)


@pytest.fixture(scope="module")
def small_app():
    """A fast-solving stand-in for the WATERS case study."""
    platform = Platform.symmetric(2)
    tasks = TaskSet(
        [
            Task("A", 10_000, 1_000.0, "P1", 0),
            Task("B", 20_000, 2_000.0, "P1", 1),
            Task("C", 10_000, 1_500.0, "P2", 0),
        ]
    )
    labels = [
        Label("ac", 4_096, "A", ("C",)),
        Label("cb", 512, "C", ("B",)),
    ]
    return Application(platform, tasks, labels)


class TestSolveInstance:
    def test_assigns_gammas_and_solves(self, small_app):
        app, result = solve_instance(
            Objective.NONE, 0.3, time_limit_seconds=30, app=small_app
        )
        assert result.feasible
        assert result.backend == "highs"
        for task in app.communicating_tasks():
            assert app.tasks[task.name].acquisition_deadline_us is not None

    def test_verification_is_on_by_default(self, small_app):
        # Would raise if the solution did not verify.
        solve_instance(Objective.NONE, 0.3, time_limit_seconds=30, app=small_app)

    def test_telemetry_emitted(self, tmp_path, small_app):
        from repro.runtime import read_telemetry

        solve_instance(
            Objective.NONE,
            0.3,
            time_limit_seconds=30,
            app=small_app,
            telemetry=tmp_path,
        )
        (record,) = read_telemetry(tmp_path)
        assert record["tags"] == {"objective": "NO-OBJ", "alpha": 0.3}


class TestRunTable1:
    def test_rows_cover_grid(self, small_app):
        rows = run_table1(
            alphas=(0.3,),
            objectives=(Objective.NONE, Objective.MIN_TRANSFERS),
            time_limit_seconds=30,
            app=small_app,
        )
        assert len(rows) == 2
        assert {row.objective for row in rows} == {
            Objective.NONE,
            Objective.MIN_TRANSFERS,
        }
        for row in rows:
            assert row.num_transfers >= 1
            assert row.runtime_seconds >= 0
            assert len(row.as_tuple()) == 5
            assert row.backend == "highs"

    @pytest.mark.slow
    def test_parallel_matches_sequential(self, small_app):
        kwargs = dict(
            alphas=(0.3, 0.5),
            objectives=(Objective.NONE, Objective.MIN_TRANSFERS),
            time_limit_seconds=30,
            app=small_app,
        )
        serial = run_table1(jobs=1, **kwargs)
        parallel = run_table1(jobs=4, **kwargs)
        assert [
            (r.objective, r.alpha, r.status, r.num_transfers) for r in serial
        ] == [
            (r.objective, r.alpha, r.status, r.num_transfers) for r in parallel
        ]


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_local_grids_solve_cold(self, small_app, jobs):
        """The runner's own service never warm-starts one grid point
        from another: Table I's times are cold times."""
        rows = run_table1(
            alphas=(0.3, 0.4, 0.5, 0.6),
            objectives=(Objective.MIN_TRANSFERS,),
            time_limit_seconds=30,
            app=small_app,
            jobs=jobs,
        )
        assert len(rows) == 4
        assert [row.warm_start for row in rows] == ["none"] * 4


    def test_resumed_rows_match_the_first_run(self, small_app, tmp_path):
        kwargs = dict(
            alphas=(0.3, 0.5),
            objectives=(Objective.MIN_TRANSFERS,),
            time_limit_seconds=30,
            app=small_app,
            telemetry=tmp_path / "t.jsonl",
        )
        first = run_table1(**kwargs)
        resumed = run_table1(resume=True, **kwargs)
        assert [r.as_tuple()[:2] + r.as_tuple()[3:] for r in resumed] == [
            r.as_tuple()[:2] + r.as_tuple()[3:] for r in first
        ]
        assert [r.backend for r in resumed] == [r.backend for r in first]

    @pytest.mark.parametrize(
        "extra", [{"resume": True}, {"client": object()}], ids=["resume", "client"]
    )
    def test_warm_grids_run_in_process_only(self, small_app, tmp_path, extra):
        with pytest.raises(ValueError, match="warm"):
            run_table1(
                app=small_app, warm=True, telemetry=tmp_path / "t.jsonl", **extra
            )


class TestRunFig2Panel:
    def test_panel_structure(self, small_app):
        panel = run_fig2_panel(
            Objective.MIN_DELAY_RATIO, 0.3, time_limit_seconds=30, app=small_app
        )
        assert set(panel) == {"giotto-cpu", "giotto-dma-a", "giotto-dma-b"}
        for ratios in panel.values():
            assert set(ratios) == {"A", "B", "C"}
            assert all(r > 0 for r in ratios.values())


class TestAlphaFeasibility:
    def test_sweep(self, small_app):
        outcome = run_alpha_feasibility(
            alphas=(0.2, 0.5), time_limit_seconds=30, app=small_app
        )
        assert set(outcome) == {0.2, 0.5}
        assert outcome[0.5]  # plenty of slack: must be feasible
