"""Schema-versioned benchmark artifacts (``BENCH_*.json``) and baseline diffs.

Every ``soup bench`` run serializes its results as a ``soup-bench/v2``
document.  Artifacts are the interchange format of the perf-regression
harness: CI uploads them, baselines are committed under
``benchmarks/baselines/``, and :func:`compare` diffs a fresh run against a
baseline with a configurable regression threshold.

Throughput is the primary metric (higher is better); wall-clock is kept
alongside for context.  A benchmark regresses when its throughput falls
below ``baseline * (1 - threshold)`` — the threshold absorbs scheduler
noise on shared CI hardware.

Beyond the per-benchmark numbers a document carries two blocks:

* ``provenance`` — git SHA + dirty flag + timestamp
  (:mod:`repro.bench.provenance`), so a diff names the commits compared;
* per-result ``phases`` — exclusive wall seconds per engine phase
  (:func:`repro.obs.perf.phase_breakdown`).  When a benchmark regresses,
  :func:`compare` attributes the regression to the phase(s) whose *share*
  of the total grew, turning "epoch_loop got slower" into
  "dropping-phase time doubled in epoch_loop".
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_SCHEMA = "soup-bench/v2"

#: Default relative throughput drop tolerated before a run is flagged.
DEFAULT_THRESHOLD = 0.30

#: A phase is attributed when its share of the run grew by at least this
#: many absolute points between baseline and current (see :func:`compare`).
PHASE_ATTRIBUTION_POINTS = 0.05


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    name: str
    wall_seconds: float
    throughput: float
    unit: str
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Exclusive wall seconds per phase (empty when the benchmark does not
    #: capture a breakdown).
    phases: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "unit": self.unit,
            "detail": dict(self.detail),
            "phases": {name: float(wall) for name, wall in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=str(data["name"]),
            wall_seconds=float(data["wall_seconds"]),
            throughput=float(data["throughput"]),
            unit=str(data.get("unit", "ops/s")),
            detail=dict(data.get("detail", {})),
            phases={
                str(name): float(wall)
                for name, wall in data.get("phases", {}).items()
            },
        )


def build_artifact(
    results: List[BenchResult],
    profile: str,
    seed: int,
    created: Optional[str] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``soup-bench/v2`` document for one suite run.

    ``provenance`` defaults to :func:`repro.bench.provenance.git_provenance`
    resolved at build time (all-``None`` fields outside a git checkout).
    """
    if provenance is None:
        from repro.bench.provenance import git_provenance

        provenance = git_provenance(created=created)
    return {
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "seed": seed,
        "created": created or "",
        "provenance": dict(provenance),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "results": {result.name: result.to_dict() for result in results},
    }


def validate_artifact(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed artifact."""
    if not isinstance(payload, dict):
        raise ValueError("bench artifact must be a JSON object")
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"expected schema {BENCH_SCHEMA!r}, got {schema!r}")
    results = payload.get("results")
    if not isinstance(results, dict):
        raise ValueError("bench artifact has no 'results' mapping")
    for name, entry in results.items():
        if not isinstance(entry, dict):
            raise ValueError(f"result {name!r} is not an object")
        for key in ("name", "wall_seconds", "throughput"):
            if key not in entry:
                raise ValueError(f"result {name!r} is missing {key!r}")
        if float(entry["wall_seconds"]) < 0:
            raise ValueError(f"result {name!r} has negative wall_seconds")
        if float(entry["throughput"]) < 0:
            raise ValueError(f"result {name!r} has negative throughput")
        phases = entry.get("phases", {})
        if not isinstance(phases, dict):
            raise ValueError(f"result {name!r} has non-mapping phases")
        for phase, wall in phases.items():
            if float(wall) < 0:
                raise ValueError(
                    f"result {name!r} phase {phase!r} has negative time"
                )
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ValueError("artifact provenance must be an object")


def write_artifact(payload: Dict[str, Any], path: str) -> None:
    validate_artifact(payload)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_artifact(path: str) -> Dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    validate_artifact(payload)
    return payload


def artifact_results(payload: Dict[str, Any]) -> Dict[str, BenchResult]:
    return {
        name: BenchResult.from_dict(entry)
        for name, entry in payload["results"].items()
    }


def attribute_phases(
    baseline_phases: Dict[str, float],
    current_phases: Dict[str, float],
    points: float = PHASE_ATTRIBUTION_POINTS,
) -> Tuple[Tuple[str, ...], Dict[str, Tuple[float, float]]]:
    """Which phase(s) explain a slowdown, by share growth.

    Shares (phase / total) are compared rather than absolute times so a
    uniformly slower machine attributes nothing, while a phase that
    doubled its share is named even if everything else also drifted.
    Returns ``(attributed, shares)`` where ``attributed`` lists phases
    whose share grew by at least ``points`` (falling back to the single
    fastest-growing phase when nothing clears the bar) and ``shares``
    maps every phase to its ``(baseline_share, current_share)`` pair.
    """
    base_total = sum(baseline_phases.values())
    cur_total = sum(current_phases.values())
    if base_total <= 0.0 or cur_total <= 0.0:
        return (), {}
    names = sorted(set(baseline_phases) | set(current_phases))
    shares = {
        name: (
            baseline_phases.get(name, 0.0) / base_total,
            current_phases.get(name, 0.0) / cur_total,
        )
        for name in names
    }
    growth = {name: cur - base for name, (base, cur) in shares.items()}
    attributed = tuple(
        sorted(
            (name for name, delta in growth.items() if delta >= points),
            key=lambda name: growth[name],
            reverse=True,
        )
    )
    if not attributed:
        positive = [name for name, delta in growth.items() if delta > 0.0]
        if positive:
            attributed = (max(positive, key=lambda name: growth[name]),)
    return attributed, shares


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's baseline-vs-current verdict."""

    name: str
    baseline_throughput: float
    current_throughput: float
    #: current / baseline; > 1 is faster, < 1 - threshold is a regression.
    ratio: float
    regressed: bool
    #: Phases (share-growth order) the regression is attributed to; empty
    #: unless the row regressed and both artifacts carry phase breakdowns.
    attributed_phases: Tuple[str, ...] = ()
    #: phase -> (baseline_share, current_share) for every known phase.
    phase_shares: Dict[str, Tuple[float, float]] = field(default_factory=dict)


@dataclass
class Comparison:
    """The full diff of a run against a baseline artifact."""

    threshold: float
    rows: List[ComparisonRow] = field(default_factory=list)
    #: Benchmarks present in only one of the two artifacts.
    only_in_baseline: List[str] = field(default_factory=list)
    only_in_current: List[str] = field(default_factory=list)
    #: Provenance blocks of the two artifacts (None when one has none).
    baseline_provenance: Optional[Dict[str, Any]] = None
    current_provenance: Optional[Dict[str, Any]] = None

    @property
    def regressions(self) -> List[ComparisonRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def report_lines(self) -> List[str]:
        from repro.bench.provenance import short_sha

        lines = [
            "baseline "
            + short_sha(self.baseline_provenance)
            + " vs current "
            + short_sha(self.current_provenance)
        ]
        for row in self.rows:
            verdict = "REGRESSION" if row.regressed else "ok"
            lines.append(
                f"{row.name:<24} baseline={row.baseline_throughput:>12.1f} "
                f"current={row.current_throughput:>12.1f} "
                f"ratio={row.ratio:.2f}  {verdict}"
            )
            if row.regressed and row.attributed_phases:
                parts = ", ".join(
                    f"{phase} (share {row.phase_shares[phase][0]:.0%}"
                    f" -> {row.phase_shares[phase][1]:.0%})"
                    for phase in row.attributed_phases
                )
                lines.append(f"{'':<24} ^ attributed phase(s): {parts}")
        for name in self.only_in_baseline:
            lines.append(f"{name:<24} missing from current run")
        for name in self.only_in_current:
            lines.append(f"{name:<24} new (no baseline)")
        return lines


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Diff two artifacts; only benchmarks present in both are judged."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    base = artifact_results(baseline)
    cur = artifact_results(current)
    comparison = Comparison(
        threshold=threshold,
        baseline_provenance=baseline.get("provenance"),
        current_provenance=current.get("provenance"),
    )
    for name in base:
        if name not in cur:
            comparison.only_in_baseline.append(name)
            continue
        base_tp = base[name].throughput
        cur_tp = cur[name].throughput
        ratio = cur_tp / base_tp if base_tp > 0 else float("inf")
        regressed = ratio < 1.0 - threshold
        attributed: Tuple[str, ...] = ()
        shares: Dict[str, Tuple[float, float]] = {}
        if regressed:
            attributed, shares = attribute_phases(
                base[name].phases, cur[name].phases
            )
        comparison.rows.append(
            ComparisonRow(
                name=name,
                baseline_throughput=base_tp,
                current_throughput=cur_tp,
                ratio=ratio,
                regressed=regressed,
                attributed_phases=attributed,
                phase_shares=shares,
            )
        )
    comparison.only_in_current = [name for name in cur if name not in base]
    return comparison
