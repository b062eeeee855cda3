"""The service-chaos harness: phase accounting, and the deterministic
campaign itself (the full quick grid is exercised per-PR by the
``resilience-smoke`` CI job via ``letdma chaos --target service``)."""

import pytest

from repro.resilience import ServiceChaosConfig, run_service_chaos
from repro.resilience.chaos import (
    PhaseReport,
    ServiceChaosReport,
    _phase_journal_corruption,
    _phase_queue_flood,
)


def test_phase_report_buckets_decide_ok():
    phase = PhaseReport(name="x", submitted=3, verified=2, typed_rejections=1)
    assert phase.ok
    phase.lost = 1
    assert not phase.ok
    phase.lost = 0
    phase.problems.append("highs never answered again")
    assert not phase.ok


def test_campaign_report_aggregates_and_renders():
    report = ServiceChaosReport(
        phases=[
            PhaseReport(name="a", submitted=2, verified=2),
            PhaseReport(name="b", submitted=1, lost=1, problems=["ticket gone"]),
        ]
    )
    assert not report.ok
    text = report.summary()
    assert "INVARIANT VIOLATED" in text and "ticket gone" in text
    as_dict = report.to_dict()
    assert as_dict["ok"] is False
    assert [p["name"] for p in as_dict["phases"]] == ["a", "b"]


def test_journal_corruption_phase(tmp_path):
    config = ServiceChaosConfig(requests=4, quick=True, work_dir=str(tmp_path))
    phase = _phase_journal_corruption(config, tmp_path)
    assert phase.ok, phase.problems
    assert phase.submitted == 4
    assert phase.typed_rejections == 2  # the truncated + bit-flipped journals
    assert phase.verified == 2
    assert phase.details["fsck"]["quarantined"]


def test_queue_flood_phase(tmp_path):
    config = ServiceChaosConfig(requests=6, quick=True, work_dir=str(tmp_path))
    phase = _phase_queue_flood(config, tmp_path)
    assert phase.ok, phase.problems
    assert phase.submitted == 6
    assert phase.typed_rejections == 4  # capacity 2 of 6 admitted
    assert phase.verified == 6  # rejected submissions landed on retry


@pytest.mark.slow
def test_full_quick_campaign(tmp_path):
    report = run_service_chaos(
        ServiceChaosConfig(requests=4, quick=True, work_dir=str(tmp_path))
    )
    assert report.ok, report.summary()
    assert [p.name for p in report.phases] == [
        "worker-kill",
        "faulty-backend",
        "journal-corruption",
        "queue-flood",
    ]
    assert all(p.lost == 0 for p in report.phases)
