"""Every field of every wire dataclass survives the JSON codec.

The service speaks ``*_to_dict`` -> JSON -> ``*_from_dict``.  A field
the codec forgets is silently reset to its default on the other side
(a client asking for ``cuts=False`` would be solved with cuts on), so
each test below first checks that its fixture sets *every* field away
from the dataclass default: a newly added field fails here until the
fixture — and therefore the round-trip check — covers it.
"""

import dataclasses
import json

import pytest

from repro.api import (
    SolveOutcome,
    SolveRequest,
    config_from_dict,
    config_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.core import FormulationConfig, Objective
from repro.core.solution import (
    AllocationResult,
    DmaTransfer,
    FallbackAttempt,
    MemoryLayout,
)
from repro.incremental.warm import Prior
from repro.io.serialization import (
    application_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.let.communication import Communication
from repro.milp import SolveStatus
from repro.model import Application

pytestmark = pytest.mark.runtime


def _config() -> FormulationConfig:
    return FormulationConfig(
        objective=Objective.MIN_DELAY_RATIO,
        max_transfers=7,
        enforce_deadlines=False,
        enforce_property3=False,
        backend="bnb",
        time_limit_seconds=12.5,
        mip_gap=0.03,
        presolve=False,
        symmetry_breaking=False,
        cuts=False,
    )


def _result() -> AllocationResult:
    return AllocationResult(
        status=SolveStatus.FEASIBLE,
        objective_value=4.0,
        runtime_seconds=1.25,
        layouts={
            "MG": MemoryLayout(
                memory_id="MG",
                order=("a", "b"),
                addresses={"a": 0, "b": 8},
                sizes={"a": 8, "b": 4},
            )
        },
        transfers=(
            DmaTransfer(
                index=0,
                source_memory="MG",
                dest_memory="M1",
                communications=(Communication.read("a", "t1"),),
                total_bytes=8,
                source_address=16,
                dest_address=32,
            ),
        ),
        latencies_us={"t1": 3.5},
        num_variables=120,
        num_constraints=340,
        backend="bnb",
        fallback_chain=(
            FallbackAttempt("highs", "timeout", 2.0, "time limit"),
            FallbackAttempt("bnb", "feasible", 1.25),
        ),
        best_bound=3.0,
        mip_gap=0.25,
        node_count=17,
        cuts_added=9,
        cut_rounds=2,
        warm_start="repaired",
    )


def _wire(to_dict, from_dict, value):
    return from_dict(json.loads(json.dumps(to_dict(value))))


def _norm(value):
    """Comparable form: applications by their serialized dict,
    dataclasses field by field (``compare=False`` fields included)."""
    if isinstance(value, Application):
        return application_to_dict(value)
    if dataclasses.is_dataclass(value):
        return {
            f.name: _norm(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {key: _norm(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_norm(item) for item in value]
    return value


def _assert_no_defaults(value) -> None:
    for f in dataclasses.fields(value):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            continue  # required field: any value is a set value
        assert getattr(value, f.name) != default, (
            f"fixture leaves {type(value).__name__}.{f.name} at its default"
        )


def _assert_fields_survive(original, clone) -> None:
    for f in dataclasses.fields(original):
        assert _norm(getattr(clone, f.name)) == _norm(
            getattr(original, f.name)
        ), f"{type(original).__name__}.{f.name} lost on the wire"


def test_formulation_config_roundtrip():
    config = _config()
    _assert_no_defaults(config)
    _assert_fields_survive(config, _wire(config_to_dict, config_from_dict, config))


def test_allocation_result_roundtrip():
    result = _result()
    _assert_no_defaults(result)
    _assert_fields_survive(result, _wire(result_to_dict, result_from_dict, result))


def test_solve_request_roundtrip(simple_app):
    prior = Prior(app=simple_app, result=_result(), config=_config())
    request = SolveRequest(
        app=simple_app,
        config=_config(),
        backend="bnb",
        job_id="wire-7",
        tags={"alpha": 0.4, "seed": 3},
        prior=prior,
    )
    _assert_no_defaults(prior)
    _assert_no_defaults(request)
    clone = _wire(request_to_dict, request_from_dict, request)
    _assert_fields_survive(request, clone)
    assert clone.instance == request.instance


def test_solve_outcome_roundtrip():
    outcome = SolveOutcome(
        instance="0123456789abcdef01234567",
        result=_result(),
        record={"status": "feasible", "wall_seconds": 1.5},
        deduped=True,
    )
    _assert_no_defaults(outcome)
    _assert_fields_survive(
        outcome, _wire(outcome_to_dict, outcome_from_dict, outcome)
    )


def test_unknown_config_key_is_rejected():
    data = config_to_dict(FormulationConfig())
    data["not_a_field"] = 1
    with pytest.raises(ValueError, match="not_a_field"):
        config_from_dict(data)
