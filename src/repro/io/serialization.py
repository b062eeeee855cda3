"""JSON (de)serialization of applications and allocation results.

Systems are usually maintained as model files (the WATERS challenge
ships Amalthea XML); this module provides the equivalent for this
library: a stable JSON schema for :class:`~repro.model.Application`
plus round-trippable dumps of :class:`~repro.core.AllocationResult`,
so solved layouts/schedules can be stored next to the model and diffed
in code review.

Schema (version 1)::

    {
      "schema_version": 1,
      "platform": {
        "cores": [{"core_id": "P1", "local_memory_bytes": 1048576}, ...],
        "global_memory_bytes": 16777216,
        "dma": {"programming_overhead_us": ..., "isr_overhead_us": ...,
                 "copy_cost_us_per_byte": ...},
        "cpu_copy": {"copy_cost_us_per_byte": ..., "per_label_overhead_us": ...}
      },
      "tasks": [{"name": ..., "period_us": ..., "wcet_us": ...,
                  "core_id": ..., "priority": ...,
                  "acquisition_deadline_us": ... | null}, ...],
      "labels": [{"name": ..., "size_bytes": ..., "writer": ... | null,
                   "readers": [...]}, ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.solution import (
    AllocationResult,
    DmaTransfer,
    FallbackAttempt,
    MemoryLayout,
)
from repro.let.communication import Communication, Direction
from repro.milp.result import SolveStatus
from repro.model import (
    Application,
    Core,
    CpuCopyParameters,
    DmaParameters,
    Label,
    Memory,
    Platform,
    Task,
    TaskSet,
)

__all__ = [
    "application_to_dict",
    "application_from_dict",
    "save_application",
    "load_application",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------


def application_to_dict(app: Application) -> dict:
    """Serialize an application to a JSON-compatible dict."""
    platform = app.platform
    return {
        "schema_version": SCHEMA_VERSION,
        "platform": {
            "cores": [
                {
                    "core_id": core.core_id,
                    "local_memory_bytes": core.local_memory.size_bytes,
                }
                for core in platform.cores
            ],
            "global_memory_bytes": platform.global_memory.size_bytes,
            "dma": {
                "programming_overhead_us": platform.dma.programming_overhead_us,
                "isr_overhead_us": platform.dma.isr_overhead_us,
                "copy_cost_us_per_byte": platform.dma.copy_cost_us_per_byte,
            },
            "cpu_copy": {
                "copy_cost_us_per_byte": platform.cpu_copy.copy_cost_us_per_byte,
                "per_label_overhead_us": platform.cpu_copy.per_label_overhead_us,
            },
        },
        "tasks": [
            {
                "name": task.name,
                "period_us": task.period_us,
                "wcet_us": task.wcet_us,
                "core_id": task.core_id,
                "priority": task.priority,
                "acquisition_deadline_us": task.acquisition_deadline_us,
            }
            for task in app.tasks
        ],
        "labels": [
            {
                "name": label.name,
                "size_bytes": label.size_bytes,
                "writer": label.writer,
                "readers": list(label.readers),
            }
            for label in app.labels
        ],
    }


def application_from_dict(data: dict) -> Application:
    """Deserialize an application; validates the schema version."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    platform_data = data["platform"]
    cores = tuple(
        Core(
            core_id=entry["core_id"],
            local_memory=Memory(
                memory_id=f"M{index + 1}",
                size_bytes=entry["local_memory_bytes"],
            ),
        )
        for index, entry in enumerate(platform_data["cores"])
    )
    platform = Platform(
        cores=cores,
        global_memory=Memory(
            memory_id="MG",
            size_bytes=platform_data["global_memory_bytes"],
            is_global=True,
        ),
        dma=DmaParameters(**platform_data["dma"]),
        cpu_copy=CpuCopyParameters(**platform_data["cpu_copy"]),
    )
    tasks = TaskSet(
        Task(
            name=entry["name"],
            period_us=entry["period_us"],
            wcet_us=entry["wcet_us"],
            core_id=entry["core_id"],
            priority=entry["priority"],
            acquisition_deadline_us=entry.get("acquisition_deadline_us"),
        )
        for entry in data["tasks"]
    )
    labels = [
        Label(
            name=entry["name"],
            size_bytes=entry["size_bytes"],
            writer=entry.get("writer"),
            readers=tuple(entry.get("readers", ())),
        )
        for entry in data["labels"]
    ]
    return Application(platform, tasks, labels)


def save_application(app: Application, path: str | Path) -> None:
    """Write the application as pretty-printed JSON."""
    Path(path).write_text(json.dumps(application_to_dict(app), indent=2) + "\n")


def load_application(path: str | Path) -> Application:
    """Read an application from a JSON file."""
    return application_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# AllocationResult
# ----------------------------------------------------------------------


def result_to_dict(result: AllocationResult) -> dict:
    """Serialize an allocation result (layouts + transfer schedule)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "status": result.status.value,
        "objective_value": result.objective_value,
        "runtime_seconds": result.runtime_seconds,
        "backend": result.backend,
        "best_bound": result.best_bound,
        "mip_gap": result.mip_gap,
        "node_count": result.node_count,
        "num_variables": result.num_variables,
        "num_constraints": result.num_constraints,
        "cuts_added": result.cuts_added,
        "cut_rounds": result.cut_rounds,
        "warm_start": result.warm_start,
        "fallback_chain": [
            attempt.to_dict() for attempt in result.fallback_chain
        ],
        "layouts": {
            memory_id: {
                "order": list(layout.order),
                "addresses": layout.addresses,
                "sizes": layout.sizes,
            }
            for memory_id, layout in result.layouts.items()
        },
        "transfers": [
            {
                "index": transfer.index,
                "source_memory": transfer.source_memory,
                "dest_memory": transfer.dest_memory,
                "source_address": transfer.source_address,
                "dest_address": transfer.dest_address,
                "total_bytes": transfer.total_bytes,
                "communications": [
                    {
                        "direction": comm.direction.value,
                        "task": comm.task,
                        "label": comm.label,
                    }
                    for comm in transfer.communications
                ],
            }
            for transfer in result.transfers
        ],
        "latencies_us": result.latencies_us,
    }


def result_from_dict(data: dict) -> AllocationResult:
    """Deserialize an allocation result; validates the schema version."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    layouts = {
        memory_id: MemoryLayout(
            memory_id=memory_id,
            order=tuple(entry["order"]),
            addresses={k: int(v) for k, v in entry["addresses"].items()},
            sizes={k: int(v) for k, v in entry["sizes"].items()},
        )
        for memory_id, entry in data["layouts"].items()
    }
    transfers = tuple(
        DmaTransfer(
            index=entry["index"],
            source_memory=entry["source_memory"],
            dest_memory=entry["dest_memory"],
            source_address=entry["source_address"],
            dest_address=entry["dest_address"],
            total_bytes=entry["total_bytes"],
            communications=tuple(
                Communication(
                    direction=Direction(comm["direction"]),
                    task=comm["task"],
                    label=comm["label"],
                )
                for comm in entry["communications"]
            ),
        )
        for entry in data["transfers"]
    )
    return AllocationResult(
        status=SolveStatus(data["status"]),
        objective_value=data["objective_value"],
        runtime_seconds=data["runtime_seconds"],
        layouts=layouts,
        transfers=transfers,
        latencies_us=dict(data.get("latencies_us", {})),
        backend=data.get("backend", ""),
        best_bound=data.get("best_bound"),
        mip_gap=data.get("mip_gap"),
        node_count=int(data.get("node_count", 0)),
        num_variables=int(data.get("num_variables", 0)),
        num_constraints=int(data.get("num_constraints", 0)),
        cuts_added=int(data.get("cuts_added", 0)),
        cut_rounds=int(data.get("cut_rounds", 0)),
        warm_start=data.get("warm_start", "none"),
        fallback_chain=tuple(
            FallbackAttempt.from_dict(entry)
            for entry in data.get("fallback_chain", ())
        ),
    )


def save_result(result: AllocationResult, path: str | Path) -> None:
    """Write an allocation result as pretty-printed JSON."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def load_result(path: str | Path) -> AllocationResult:
    """Read an allocation result from a JSON file."""
    return result_from_dict(json.loads(Path(path).read_text()))
