#!/usr/bin/env python3
"""The performance trajectory: ``benchmarks/baselines/HISTORY.jsonl``.

``trajectory.py --label "PR 20" FILE...`` appends one row per workload from
the ``run.py --repeats K --out FILE`` documents a PR already made for
``compare.py``: label, commit, seeds, run length and ``[q1, median, q3]`` of
every end-to-end metric ``BENCHMARK.json`` names.  Only measurements go in: a
dirty or unknown tree, a ``--tiny`` or traced run, a run that is not
``correct`` and a (commit, workload, seeds) already recorded are each refused
before anything is written.

Raw medians of different days do not compare: the host's speed wanders by
up to a quarter between days.  What a PR's alternating pairs do measure is
the ratio of change to parent on one day, so ``--parent FILE...`` takes the
parent-side documents of the same pairs (same seeds, one parent commit) and
writes a row of schema ``soup-e2e-history/v2``: the change side as in v1,
plus the parent's quartiles and the paired median ratio (the median over
seeds of change / parent) of every metric.

``trajectory.py`` alone prints the trajectory, one table per workload with
one row per PR (its v2 row where it has one, else its v1 row), and
under it the chained index of the workload's v2 rows, in PR order: the
running product of their paired median ratios, the one form in which a
number compares across PRs measured on different days.  The
file is append-only, which is why its first two rows still have the schema of
the retired in-tree suite; they are counted, never rewritten.  A row with a
``source`` was transcribed from the prose it names: quartiles are ``null``
where that prose gives only a median, a metric is ``null`` where it gives no
number; a transcribed v2 row whose prose kept no per-seed pairs carries
the ratio of the two medians.  This is a record, not a gate —
``compare.py`` on same-machine alternating pairs is the gate.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "benchmarks" / "e2e") not in sys.path:
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))

from compare import load_runs, quartiles  # noqa: E402

HISTORY = REPO / "benchmarks" / "baselines" / "HISTORY.jsonl"
SCHEMA = "soup-e2e-history/v1"
#: A v1 row plus ``parent`` (commit, quartiles) and ``paired_ratio``.
PAIRED_SCHEMA = "soup-e2e-history/v2"
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
            if row["schema"] not in (SCHEMA, PAIRED_SCHEMA):
                raise ValueError(f"unknown schema {row['schema']!r}")
            if not (row["label"] and row["git_sha"] and row["workload"]):
                raise ValueError("empty label, commit or workload")
            if not (row["seeds"] or "source" in row):
                raise ValueError("no seeds, and no source whose prose left them out")
            if set(row["metrics"]) != names:
                raise ValueError(f"metrics are not {sorted(names)}")
            if any(v is not None and len(v) != 3 for v in row["metrics"].values()):
                raise ValueError("a metric is neither null nor [q1, median, q3]")
            if row["schema"] == PAIRED_SCHEMA:
                if not row["parent"]["git_sha"]:
                    raise ValueError("empty parent commit")
                if set(row["parent"]["metrics"]) != names or set(row["paired_ratio"]) != names:
                    raise ValueError(f"parent metrics or ratios are not {sorted(names)}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc!r}") from exc
        rows.append(row)
    return rows, retired


def _runs_of(paths: List[str]) -> Tuple[str, Dict[str, List[dict]]]:
    """The one commit of the documents and their runs per workload, in
    document order; ``ValueError`` says why they are not a measurement."""
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
    for workload, runs in by_workload.items():
        lengths = {run.get("seconds") for run in runs}
        if len(lengths) != 1:
            raise ValueError(f"{workload}: runs of different lengths: {lengths}")
    return shas.pop(), by_workload


def _quartiles(runs: List[dict], names: List[str]) -> Dict[str, List[float]]:
    return {name: list(quartiles([run["metrics"][name] for run in runs])) for name in names}


def _paired_ratio(runs: List[dict], parent_runs: List[dict], name: str) -> Optional[float]:
    """Median over seeds of change / parent; None if no parent value is
    nonzero."""
    parent = {run["seed"]: run["metrics"][name] for run in parent_runs}
    ratios = [
        run["metrics"][name] / parent[run["seed"]] for run in runs if parent[run["seed"]]
    ]
    return statistics.median(ratios) if ratios else None


def rows_from(paths: List[str], label: str, parent_paths: Sequence[str] = ()) -> List[dict]:
    """One row per workload of the documents (v2 rows with ``parent_paths``);
    ``ValueError`` says why not."""
    sha, by_workload = _runs_of(paths)
    if parent_paths:
        parent_sha, parent_by_workload = _runs_of(list(parent_paths))
        if parent_sha == sha:
            raise ValueError(f"the parent documents are of the change's own commit {sha[:7]}")
    names = metric_names()
    rows = []
    for workload, runs in by_workload.items():
        seeds = sorted(run["seed"] for run in runs)
        row = {
            "schema": SCHEMA, "label": label, "git_sha": sha, "git_dirty": False,
            "workload": workload, "seeds": seeds, "seconds": runs[0].get("seconds"),
            "metrics": _quartiles(runs, names),
        }  # fmt: skip
        if parent_paths:
            parent_runs = parent_by_workload.get(workload, [])
            parent_seeds = sorted(run["seed"] for run in parent_runs)
            if parent_seeds != seeds or len(set(seeds)) != len(seeds):
                raise ValueError(
                    f"{workload}: parent seeds {parent_seeds} do not pair one to one"
                    f" with change seeds {seeds}"
                )
            if parent_runs[0].get("seconds") != row["seconds"]:
                raise ValueError(f"{workload}: parent runs of a different length")
            row["schema"] = PAIRED_SCHEMA
            row["parent"] = {"git_sha": parent_sha, "metrics": _quartiles(parent_runs, names)}
            row["paired_ratio"] = {
                name: _paired_ratio(runs, parent_runs, name) for name in names
            }
        rows.append(row)
    return rows


def append(
    history: Path, paths: List[str], label: str, parent_paths: Sequence[str] = ()
) -> List[dict]:
    recorded = set(map(_key, load_history(history)[0]))
    rows = rows_from(paths, label, parent_paths)
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


def _table(table: List[List[str]]) -> List[str]:
    widths = [max(map(len, column)) for column in zip(*table)]
    return [
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
        for cells in table
    ]


def chained_index(rows: List[dict], names: List[str]) -> List[Dict[str, Optional[float]]]:
    """Per v2 row, in order: the product of the paired median ratios of it
    and every v2 row before it; None from the first row without a ratio."""
    index: Dict[str, Optional[float]] = dict.fromkeys(names, 1.0)
    out = []
    for row in rows:
        for name in names:
            ratio = row["paired_ratio"][name]
            index[name] = None if index[name] is None or ratio is None else index[name] * ratio
        out.append(dict(index))
    return out


def _pr_order(row: dict) -> float:
    """A row's PR number (``"PR 23"`` -> 23), or +inf for other labels, so
    that transcribed rows appended later still chain in PR order."""
    match = re.fullmatch(r"PR (\d+)", row["label"])
    return int(match[1]) if match else math.inf


def one_per_label(rows: List[dict]) -> List[dict]:
    """One row per label, in the order labels first appear: the label's v2
    row where it has one, else its native row."""
    chosen: Dict[str, dict] = {}
    for row in rows:
        held = chosen.get(row["label"])
        if held is None or row["schema"] == PAIRED_SCHEMA or held["schema"] != PAIRED_SCHEMA:
            chosen[row["label"]] = row
    return list(chosen.values())


def _ratio(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def render(history: Path) -> List[str]:
    rows, retired = load_history(history)
    names = metric_names()
    lines: List[str] = []
    for workload in dict.fromkeys(row["workload"] for row in rows):
        mine = one_per_label([row for row in rows if row["workload"] == workload])
        lines += [workload] + _table([["label", "commit", "seeds", *names]] + [
            [
                row["label"] + ("*" if "source" in row else ""),
                row["git_sha"][:7],
                _seeds(row["seeds"]),
                *(_cell(row["metrics"][name]) for name in names),
            ]
            for row in mine
        ])  # fmt: skip
        paired = sorted(
            (row for row in mine if row["schema"] == PAIRED_SCHEMA), key=_pr_order
        )
        if paired:
            lines += ["  chained index (paired ratio)"] + _table(
                [["label", "commit", "parent", *names]] + [
                    [
                        row["label"] + ("*" if "source" in row else ""),
                        row["git_sha"][:7], row["parent"]["git_sha"][:7],
                        *(
                            f"{_ratio(index[name])} ({_ratio(row['paired_ratio'][name])})"
                            for name in names
                        ),
                    ]
                    for row, index in zip(paired, chained_index(paired, names))
                ]
            )  # fmt: skip
        lines.append("")
    lines.append("median [q1, q3]; * transcribed from the prose the row's `source` names")
    lines.append(
        "chained index: product of the paired median ratios (change / parent)"
        " of the workload's --parent rows so far"
    )
    lines.append(f"{retired} rows of retired schema {RETIRED_SCHEMA} not shown")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("documents", nargs="*", metavar="FILE", help="run.py --out documents")
    parser.add_argument("--label", help="name of the appended rows, e.g. 'PR 20'")
    parser.add_argument(
        "--parent", nargs="+", default=[], metavar="FILE",
        help="run.py --out documents of the parent side of the same pairs",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if bool(args.documents) != bool(args.label):
        parser.error("--label and FILE go together")
    if args.parent and not args.documents:
        parser.error("--parent needs the change's FILE too")
    try:
        if args.documents:
            for row in append(HISTORY, args.documents, args.label, args.parent):
                print(f"appended {row['label']} {row['workload']} {row['git_sha'][:7]}")
        else:
            print("\n".join(render(HISTORY)))
    except ValueError as exc:
        print(f"trajectory.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
