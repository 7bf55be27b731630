#!/usr/bin/env python3
"""Run the end-to-end benchmark: ``python3 benchmarks/e2e/run.py --help``.

Each run of a workload happens in a fresh ``soupbench.worker`` process (one
process, one closed-loop client, no extra threads).  For every run this
prints each metric as ``workload metric value unit``, the run's details, and
then one JSON object ``{"correct", "attempted", "failed", "metrics"}``, which
is therefore the last line of stdout.  ``--out FILE`` keeps all runs, with
provenance, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from soupbench.spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

OUT_SCHEMA = "soup-e2e/v1"
#: A worker that has not finished by then is stuck (the contract allows 180 s).
_WORKER_TIMEOUT_S = 170


def _default_seconds() -> float:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def provenance() -> Dict[str, object]:
    """Where these numbers come from: commit, interpreter, machine."""

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(REPO), *args],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    ops: Optional[int] = None,
    tiny: bool = False,
) -> Dict[str, object]:
    """One run in a fresh process; raises ``RuntimeError`` if it produced no
    valid result."""
    if not (REPO / "src" / "repro").is_dir():
        raise RuntimeError(f"no program to measure: {REPO / 'src' / 'repro'} is missing")
    command = [
        sys.executable,
        "-m",
        "soupbench.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if ops is not None:
        command += ["--ops", str(ops)]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(HERE)])
    # Same str hashes, hence same dict and set layouts, in every run.
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run(
            command,
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=_WORKER_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload}: worker exceeded {_WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {done.returncode}")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"{workload}: worker printed no result") from exc
    expected = PER_LAYER if trace else END_TO_END
    if set(result["metrics"]) != set(expected):
        raise RuntimeError(
            f"{workload}: metric names differ from the benchmark's: "
            f"{sorted(set(result['metrics']) ^ set(expected))}"
        )
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, ops=ops)
    return result


def contract_line(result: Dict[str, object]) -> str:
    """The run as the one JSON object the benchmark contract asks for."""
    units = PER_LAYER if result["trace"] else END_TO_END
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def print_run(result: Dict[str, object]) -> None:
    units = PER_LAYER if result["trace"] else END_TO_END
    workload = result["workload"]
    for name, value in result["metrics"].items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    print(
        f"{workload} detail seed={result['seed']} trace={result['trace']} "
        + json.dumps(result["detail"], sort_keys=True)
    )
    print(contract_line(result), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SOUP end-to-end benchmark: two engine and two live-cluster workloads."
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced region",
    )  # fmt: skip
    parser.add_argument(
        "--ops", type=int, default=None,
        help="live_*: stop after this many ops, so every count repeats exactly",
    )  # fmt: skip
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per workload; run i uses seed + i",
    )  # fmt: skip
    parser.add_argument("--out", default=None, help="write every run here as JSON")
    parser.add_argument(
        "--tiny", action="store_true", help="self-test size (not a measurement)"
    )
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    workloads = args.workload or list(WORKLOADS)

    runs: List[Dict[str, object]] = []
    try:
        for repeat in range(args.repeats):
            for workload in workloads:
                result = run_worker(
                    workload, args.seed + repeat, seconds, args.trace, args.ops, args.tiny
                )
                runs.append(result)
                print_run(result)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        document = {
            "schema": OUT_SCHEMA,
            "provenance": provenance(),
            "tiny": args.tiny,
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
