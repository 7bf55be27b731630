"""Declarative resilience gates over a ``soup-resilience/v1`` report.

A gate file is TOML, one ``[[gate]]`` table per assertion::

    [[gate]]
    name = "availability-during-churn"
    metric = "availability.during_chaos_min"   # dotted path into the report
    op = ">="
    value = 0.85
    description = "kills + partition must not sink serving below 85%"

``metric`` is resolved with dot-notation against the report dict; a
numeric hop indexes into a list (``availability.samples.0.availability``
is the first sample's value, ``samples.-1...`` the last), so gates can
pin per-epoch series entries, not just scalar summaries.  A missing or
null metric **fails** the gate (a run that could not measure recovery
did not demonstrate recovery).  ``op`` is one of ``<=``, ``>=``, ``<``,
``>``, ``==``, ``!=``.

Evaluation is pure data-in/data-out: :func:`evaluate_gates` returns a
verdict dict that the ``soup resilience`` CLI embeds into the report
(under ``"gates"``) and turns into its exit code — 0 when every gate
passed, 5 on violation.  The gate *file*, the chaos spec, and the seed
together make a resilience claim replayable from one command line.

A gate file is input from outside the program: :func:`load_gates` reads
it with :mod:`tomllib` and rejects anything that is not ``[[gate]]``
tables with a numeric ``value`` (``ValueError`` naming the gate), so a
malformed file fails before a run starts, not at evaluation.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Union

Number = Union[int, float]

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda actual, bound: actual <= bound,
    ">=": lambda actual, bound: actual >= bound,
    "<": lambda actual, bound: actual < bound,
    ">": lambda actual, bound: actual > bound,
    "==": lambda actual, bound: actual == bound,
    "!=": lambda actual, bound: actual != bound,
}


@dataclass(frozen=True)
class Gate:
    """One declarative assertion against the report."""

    name: str
    metric: str
    op: str
    value: Number
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"gate {self.name!r}: unknown op {self.op!r}")
        if not self.metric:
            raise ValueError(f"gate {self.name!r}: empty metric path")


def resolve_metric(report: dict, path: str):
    """Walk a dotted path into the report; None if any hop is missing.

    Dict hops are key lookups; a hop that parses as an integer indexes
    into a list (negative indices count from the end), so paths like
    ``availability.samples.-1.availability`` reach into per-epoch series.

    Flattened summaries store nested metric groups under keys that
    *contain* literal dots (``arch.cache.hit_rate`` from
    ``SimulationResult.summary()``), so dict hops match longest-first:
    the longest joined run of remaining segments that is a key wins,
    backtracking to shorter prefixes when the rest of the path dead-ends.
    A stored ``None`` leaf is indistinguishable from a miss (gates fail
    on both, so nothing is lost).
    """
    return _resolve_segments(report, path.split("."))


def _resolve_segments(value, segments: List[str]):
    if not segments:
        return value
    if isinstance(value, dict):
        for cut in range(len(segments), 0, -1):
            key = ".".join(segments[:cut])
            if key in value:
                found = _resolve_segments(value[key], segments[cut:])
                if found is not None:
                    return found
        return None
    if isinstance(value, list):
        try:
            index = int(segments[0])
        except ValueError:
            return None
        if not -len(value) <= index < len(value):
            return None
        return _resolve_segments(value[index], segments[1:])
    return None


def evaluate_gates(gates: List[Gate], report: dict) -> dict:
    """Evaluate every gate; missing/null metrics fail (never vacuous)."""
    results = []
    for gate in gates:
        actual = resolve_metric(report, gate.metric)
        if isinstance(actual, bool):
            actual = int(actual)
        if actual is None or not isinstance(actual, (int, float)):
            results.append(
                {
                    "name": gate.name,
                    "metric": gate.metric,
                    "op": gate.op,
                    "value": gate.value,
                    "actual": None,
                    "passed": False,
                    "reason": "metric missing or not numeric",
                }
            )
            continue
        passed = _OPS[gate.op](actual, gate.value)
        results.append(
            {
                "name": gate.name,
                "metric": gate.metric,
                "op": gate.op,
                "value": gate.value,
                "actual": actual,
                "passed": passed,
                "reason": "" if passed else f"{actual!r} {gate.op} {gate.value!r} is false",
            }
        )
    return {
        "passed": all(result["passed"] for result in results),
        "violated": [result["name"] for result in results if not result["passed"]],
        "results": results,
    }


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def gates_from_mapping(data: dict) -> List[Gate]:
    raw_gates = data.get("gate", [])
    if not isinstance(raw_gates, list):
        raise ValueError("expected [[gate]] tables")
    gates = []
    for index, raw in enumerate(raw_gates):
        if not isinstance(raw, dict):
            raise ValueError(f"gate #{index}: expected a [[gate]] table, got {raw!r}")
        try:
            gate = Gate(
                name=str(raw["name"]),
                metric=str(raw["metric"]),
                op=str(raw["op"]),
                value=raw["value"],
                description=str(raw.get("description", "")),
            )
        except KeyError as exc:
            raise ValueError(f"gate #{index}: missing key {exc}") from None
        if isinstance(gate.value, bool) or not isinstance(gate.value, (int, float)):
            raise ValueError(f"gate #{index}: value must be a number, got {gate.value!r}")
        gates.append(gate)
    if not gates:
        raise ValueError("gate file defines no gates")
    return gates


def load_gates(path: Union[str, Path]) -> List[Gate]:
    return gates_from_mapping(tomllib.loads(Path(path).read_text(encoding="utf-8")))
