"""Reduce a sweep run directory back into the tables the paper reports.

Artifacts are grouped into **cells** — tasks that share every override
except the seed — and each cell's per-seed summary numbers are reduced to
mean/min/max/percentiles, the shape the paper's "averaged over N seeds"
tables quote.  Full :class:`~repro.sim.metrics.SimulationResult` objects
are reconstructed from the artifacts too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.metrics import SimulationResult, percentile_of
from repro.runtime.store import RunStore


@dataclass
class TaskRecord:
    """One completed task, loaded back from its artifact."""

    task_id: str
    key: str
    overrides: Dict[str, Any]
    summary: Dict[str, float]
    _result_payload: Dict[str, Any] = field(repr=False, default_factory=dict)
    _result: Optional[SimulationResult] = field(repr=False, default=None)

    @property
    def seed(self) -> int:
        return int(self.overrides.get("seed", 0))

    @property
    def result(self) -> SimulationResult:
        """The reconstructed simulation result (lazily deserialized)."""
        if self._result is None:
            self._result = SimulationResult.from_json_dict(self._result_payload)
        return self._result

    def cell_items(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(
            sorted(
                (key, value)
                for key, value in self.overrides.items()
                if key != "seed"
            )
        )

    def cell_label(self) -> str:
        items = self.cell_items()
        if not items:
            return "(defaults)"
        return " ".join(f"{key}={value}" for key, value in items)


@dataclass
class SweepCell:
    """All seeds of one configuration, with reduced summary statistics."""

    label: str
    overrides: Dict[str, Any]  # without the seed
    records: List[TaskRecord] = field(default_factory=list)

    @property
    def seeds(self) -> List[int]:
        return [record.seed for record in self.records]

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for record in self.records:
            for name in record.summary:
                if name not in names:
                    names.append(name)
        return names

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-metric mean/min/max/p10/p50/p90 across seeds."""
        reduced: Dict[str, Dict[str, float]] = {}
        for name in self.metric_names():
            values = [
                float(record.summary[name])
                for record in self.records
                if name in record.summary
            ]
            reduced[name] = {
                "n": float(len(values)),
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
                "p10": percentile_of(values, 0.1),
                "p50": percentile_of(values, 0.5),
                "p90": percentile_of(values, 0.9),
            }
        return reduced


def load_records(run_dir: "str | Path") -> List[TaskRecord]:
    """Load every completed task of a run directory, in manifest order."""
    store = RunStore(run_dir)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(f"no sweep manifest in {run_dir}")
    records: List[TaskRecord] = []
    for entry in manifest["tasks"]:
        artifact = store.read_artifact(entry["key"])
        if artifact is None:
            continue
        records.append(
            TaskRecord(
                task_id=entry["id"],
                key=entry["key"],
                overrides=dict(artifact["task"]["overrides"]),
                summary=dict(artifact["summary"]),
                _result_payload=artifact["result"],
            )
        )
    return records


def aggregate(records: List[TaskRecord]) -> List[SweepCell]:
    """Group records into seed-cells, preserving first-appearance order."""
    cells: Dict[Tuple[Tuple[str, Any], ...], SweepCell] = {}
    for record in records:
        items = record.cell_items()
        cell = cells.get(items)
        if cell is None:
            cell = cells[items] = SweepCell(
                label=record.cell_label(),
                overrides={key: value for key, value in items},
            )
        cell.records.append(record)
    return list(cells.values())


def aggregate_run(run_dir: "str | Path") -> List[SweepCell]:
    return aggregate(load_records(run_dir))


def results_by_label(records: List[TaskRecord]) -> Dict[str, SimulationResult]:
    """``label -> SimulationResult`` for reporting helpers that expect one
    result per named run (labels include the seed when cells have several)."""
    multi_seed = len({record.seed for record in records}) > 1
    named: Dict[str, SimulationResult] = {}
    for record in records:
        label = record.cell_label()
        if multi_seed:
            label = f"{label} seed={record.seed}"
        named[label] = record.result
    return named


def aggregate_json(cells: List[SweepCell]) -> str:
    """The reduced table as JSON (the ``soup sweep --json`` output)."""
    payload = [
        {
            "label": cell.label,
            "overrides": cell.overrides,
            "seeds": cell.seeds,
            "stats": cell.stats(),
        }
        for cell in cells
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
