"""Correctness of every answer: the verifier, and the reference answers.

Runs after the timed window.  A request *fails* on an error, a verifier
rejection, a proven answer that differs from ``bench/reference.json``, a
service rejection, or a drain timeout; the first three mean a wrong or
missing answer, so they also make the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import verifier
from repro.milp.result import SolveStatus

#: Statuses that count as a proven answer when an exact rung gave them.
PROVEN = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
#: Statuses that are no answer at all.
NO_ANSWER = (SolveStatus.TIMEOUT, SolveStatus.ERROR, SolveStatus.UNBOUNDED)


@dataclass
class Sample:
    """One timed request and what came back.

    ``key`` names the reference answer; ``latency`` is in seconds;
    ``outcome`` is the :class:`repro.api.SolveOutcome` or None when
    ``error`` says why not.  A sample holds no application: solving
    memoises derived data on the application object, so keeping every
    solved one would grow the heap with the number of requests.
    """

    key: str
    latency: float = 0.0
    outcome: object = None
    error: "str | None" = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    proven: int = 0
    verified: int = 0
    reasons: dict = field(default_factory=dict)

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def answered(self) -> int:
        return self.attempted - self.failed


def load_reference(path: "str | Path") -> dict:
    """``{workload: {key: [status, objective]}}`` (empty when absent)."""
    path = Path(path)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["answers"]


def is_proven(result) -> bool:
    return result.status in PROVEN and result.backend != "greedy"


def answer_of(result) -> list:
    return [result.status.value, float(result.objective_value)]


def matches(answer: list, reference: list) -> bool:
    status, objective = answer
    ref_status, ref_objective = reference
    if status != ref_status:
        return False
    return abs(objective - ref_objective) <= 1e-6 * max(1.0, abs(ref_objective))


def verify(request, result) -> bool:
    """The independent verifier; greedy answers are held only to the
    structural properties the heuristic guarantees."""
    if not result.feasible:
        return result.status is SolveStatus.INFEASIBLE
    strict = result.backend != "greedy"
    return verifier.verify_allocation(
        request.app, result, check_property3=strict, check_deadlines=strict
    ).ok


def check(samples, requests, reference: dict, verify_one=verify) -> Verdict:
    """Judge every sample against ``requests`` (the same requests, in the
    same order, regenerated from the seed); each distinct instance is
    verified once."""
    verdict = Verdict(attempted=len(samples))
    checked: dict[str, bool] = {}
    for sample, request in zip(samples, requests):
        if sample.outcome is None:
            verdict.fail(sample.error or "no answer", wrong=False)
            continue
        result = sample.outcome.result
        if result.status in NO_ANSWER:
            verdict.fail(f"status {result.status.value}", wrong=True)
            continue
        expected = reference.get(sample.key)
        if expected is not None and is_proven(result):
            if not matches(answer_of(result), expected):
                verdict.fail("reference mismatch", wrong=True)
                continue
        instance = sample.outcome.instance
        if instance not in checked:
            checked[instance] = verify_one(request, result)
            verdict.verified += 1
        if not checked[instance]:
            verdict.fail("verifier rejected", wrong=True)
            continue
        verdict.proven += is_proven(result)
    return verdict
