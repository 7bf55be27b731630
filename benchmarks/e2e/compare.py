#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

``A`` is the parent (or the first set), ``B`` the change (or the second
set); both come from ``run.py --repeats K --out FILE``.  One row per
(workload, end-to-end metric) with both medians and quartiles, the bound
from ``BENCHMARK.json`` and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the run-to-run spread of either set is
  wider than the bound, so "unchanged" cannot be claimed (unless every run
  of B reads better than every run of A);
* ``ok`` — otherwise.

Runs of the same workload, seed and arguments must also agree exactly on
what cannot depend on timing (result digests, simulated statistics, the
plan, and every count of a fixed-work ``--ops`` run); a difference there is
``worse``.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B is worse, as a share of A's median.
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if worsening > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    return "ok"


def _by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _run_key(run: dict) -> Tuple:
    return (run["workload"], run["seed"], run["trace"], run["ops"])


def compare(
    runs_a: List[dict], runs_b: List[dict], end_to_end: List[dict]
) -> Tuple[List[List[str]], bool]:
    """The table rows and whether any verdict is ``worse``."""
    rows: List[List[str]] = []
    any_worse = False
    a_groups, b_groups = _by_workload(runs_a), _by_workload(runs_b)
    for workload in a_groups:
        if workload not in b_groups:
            continue
        for metric in end_to_end:
            name = metric["name"]
            a = [run["metrics"][name] for run in a_groups[workload]]
            b = [run["metrics"][name] for run in b_groups[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                [
                    workload,
                    name,
                    f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]",
                    f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]",
                    f"{metric['bound']:.0%} {metric['better']}",
                    result,
                ]
            )
    exact_b = {_run_key(run): run["exact"] for run in runs_b}
    for run in runs_a:
        other: Optional[dict] = exact_b.get(_run_key(run))
        if other is None:
            continue
        differing = sorted(
            key for key in set(run["exact"]) | set(other)
            if run["exact"].get(key) != other.get(key)
        )  # fmt: skip
        if differing:
            any_worse = True
            rows.append(
                [
                    run["workload"],
                    f"exact (seed {run['seed']})",
                    "-",
                    "-",
                    "equal",
                    "worse: " + ", ".join(differing),
                ]
            )
    return rows, any_worse


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows, any_worse = compare(load_runs(argv[0]), load_runs(argv[1]), end_to_end)
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
