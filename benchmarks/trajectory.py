#!/usr/bin/env python3
"""The performance trajectory: ``benchmarks/baselines/HISTORY.jsonl``.

``trajectory.py --label "PR 20" FILE...`` appends one row per workload from
the ``run.py --repeats K --out FILE`` documents a PR already made for
``compare.py``: label, commit, seeds, run length and ``[q1, median, q3]`` of
every end-to-end metric ``BENCHMARK.json`` names.  Only measurements go in: a
dirty or unknown tree, a ``--tiny`` or traced run, a run that is not
``correct`` and a (commit, workload, seeds) already recorded are each refused
before anything is written.

``trajectory.py`` alone prints the trajectory, one table per workload.  The
file is append-only, which is why its first two rows still have the schema of
the retired in-tree suite; they are counted, never rewritten.  A row with a
``source`` was transcribed from the prose it names: quartiles are ``null``
where that prose gives only a median, a metric is ``null`` where it gives no
number.  This is a record, not a gate — ``compare.py`` on same-machine
alternating pairs is the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "benchmarks" / "e2e") not in sys.path:
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))

from compare import load_runs, quartiles  # noqa: E402

HISTORY = REPO / "benchmarks" / "baselines" / "HISTORY.jsonl"
SCHEMA = "soup-e2e-history/v1"
RETIRED_SCHEMA = "soup-bench-history/v1"


def metric_names() -> List[str]:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)["end_to_end"]]


def _key(row: dict) -> Tuple:
    return (row["git_sha"], row["workload"], tuple(row["seeds"]))


def load_history(path: Path) -> Tuple[List[dict], int]:
    """The rows of the current schema, checked, and how many retired rows the
    file holds; ``ValueError`` names ``path:lineno`` of a bad line."""
    names = set(metric_names())
    rows: List[dict] = []
    retired = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            row = json.loads(line)
            if row["schema"] == RETIRED_SCHEMA:
                retired += 1
                continue
            if row["schema"] != SCHEMA:
                raise ValueError(f"unknown schema {row['schema']!r}")
            if not (row["label"] and row["git_sha"] and row["workload"]):
                raise ValueError("empty label, commit or workload")
            if not (row["seeds"] or "source" in row):
                raise ValueError("no seeds, and no source whose prose left them out")
            if set(row["metrics"]) != names:
                raise ValueError(f"metrics are not {sorted(names)}")
            if any(v is not None and len(v) != 3 for v in row["metrics"].values()):
                raise ValueError("a metric is neither null nor [q1, median, q3]")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc!r}") from exc
        rows.append(row)
    return rows, retired


def rows_from(paths: List[str], label: str) -> List[dict]:
    """One row per workload of the documents; ``ValueError`` says why not."""
    shas, by_workload = set(), {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        dirty = document["provenance"]["git_dirty"]
        if dirty is not False:
            raise ValueError(f"{path}: git_dirty is {json.dumps(dirty)}, not a clean tree")
        if document["tiny"]:
            raise ValueError(f"{path}: a --tiny run is a self-test, not a measurement")
        shas.add(document["provenance"]["git_sha"])
        for run in load_runs(path):
            if run["trace"]:
                raise ValueError(f"{path}: {run['workload']} seed {run['seed']} is a traced run")
            if not run["correct"]:
                raise ValueError(f"{path}: {run['workload']} seed {run['seed']} is not correct")
            by_workload.setdefault(run["workload"], []).append(run)
    if len(shas) != 1:
        raise ValueError(f"documents of {len(shas)} commits, need one: {sorted(shas)}")
    (sha,) = shas
    names = metric_names()
    rows = []
    for workload, runs in by_workload.items():
        lengths = {run.get("seconds") for run in runs}
        if len(lengths) != 1:
            raise ValueError(f"{workload}: runs of different lengths: {lengths}")
        rows.append({
            "schema": SCHEMA, "label": label, "git_sha": sha, "git_dirty": False,
            "workload": workload, "seeds": sorted(run["seed"] for run in runs),
            "seconds": lengths.pop(),
            "metrics": {
                name: list(quartiles([run["metrics"][name] for run in runs]))
                for name in names
            },
        })  # fmt: skip
    return rows


def append(history: Path, paths: List[str], label: str) -> List[dict]:
    recorded = set(map(_key, load_history(history)[0]))
    rows = rows_from(paths, label)
    for row in rows:
        if _key(row) in recorded:
            raise ValueError(f"{row['workload']} at {row['git_sha'][:7]}: seeds already recorded")
    with history.open("a", encoding="utf-8") as sink:
        for row in rows:
            sink.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return rows


def _cell(value: Optional[List[Optional[float]]]) -> str:
    if value is None:
        return "-"
    q1, median, q3 = value
    return f"{median:.6g}" if q1 is None else f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def _seeds(seeds: List[int]) -> str:
    return f"{seeds[0]}-{seeds[-1]} ({len(seeds)})" if seeds else "?"


def render(history: Path) -> List[str]:
    rows, retired = load_history(history)
    names = metric_names()
    lines: List[str] = []
    for workload in dict.fromkeys(row["workload"] for row in rows):
        table = [["label", "commit", "seeds", *names]] + [
            [
                row["label"] + ("*" if "source" in row else ""),
                row["git_sha"][:7],
                _seeds(row["seeds"]),
                *(_cell(row["metrics"][name]) for name in names),
            ]
            for row in rows
            if row["workload"] == workload
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        lines += [workload] + [
            "  " + "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
            for cells in table
        ] + [""]  # fmt: skip
    lines.append("median [q1, q3]; * transcribed from the prose the row's `source` names")
    lines.append(f"{retired} rows of retired schema {RETIRED_SCHEMA} not shown")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("documents", nargs="*", metavar="FILE", help="run.py --out documents")
    parser.add_argument("--label", help="name of the appended rows, e.g. 'PR 20'")
    args = parser.parse_args(argv)
    if bool(args.documents) != bool(args.label):
        parser.error("--label and FILE go together")
    try:
        if args.documents:
            for row in append(HISTORY, args.documents, args.label):
                print(f"appended {row['label']} {row['workload']} {row['git_sha'][:7]}")
        else:
            print("\n".join(render(HISTORY)))
    except ValueError as exc:
        print(f"trajectory.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
