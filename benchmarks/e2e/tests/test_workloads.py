"""Every workload, end to end through ``run.py``, at self-test size."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import E2E, REPO
from soupbench.spec import END_TO_END, LAYERS_SELF_ONLY, LAYERS_WITH_CALLS, PER_LAYER, WORKLOADS

RUN = [sys.executable, str(E2E / "run.py")]


def _run(*args, cwd=REPO, timeout=170):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One traced and one untraced tiny run of every workload, fixed work."""
    out = tmp_path_factory.mktemp("e2e")
    documents = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        done = _run(
            "--tiny", "--seed", "5", "--seconds", "1", "--ops", "400",
            "--trace", str(trace), "--out", str(path),
        )  # fmt: skip
        assert done.returncode == 0, done.stderr[-2000:]
        documents[trace] = (done.stdout, json.loads(path.read_text()))
    return documents


@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_completes_and_prints_the_benchmarks_metric_names(tiny_runs, trace):
    stdout, document = tiny_runs[trace]
    expected = PER_LAYER if trace else END_TO_END
    runs = {run["workload"]: run for run in document["runs"]}
    assert list(runs) == list(WORKLOADS)
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS and parts[1] != "detail":
            printed.setdefault(parts[0], {})[parts[1]] = parts[3]
    for workload, run in runs.items():
        assert run["correct"] is True, run["detail"]["problems"]
        assert run["attempted"] >= 1 and run["failed"] == 0
        assert printed[workload] == expected
    # The last line is the contract's object for the last run.
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert set(document["provenance"]) == {"git_sha", "git_dirty", "python", "nproc"}


def test_end_to_end_metrics_are_never_zero(tiny_runs):
    for run in tiny_runs[0][1]["runs"]:
        assert all(value > 0 for value in run["metrics"].values()), run["metrics"]


def test_layers_a_workload_never_enters_read_zero(tiny_runs):
    runs = {run["workload"]: run["metrics"] for run in tiny_runs[1][1]["runs"]}
    for workload in ("sim_scale", "sim_adverse"):
        metrics = runs[workload]
        assert metrics["sim.engine.self_s"] > 0 and metrics["trace.overhead_ratio"] > 1
        for name in ("node.middleware.self_s", "dht.self_s", "wire.pickle_s", "wire.frames"):
            assert metrics[name] == 0
    assert runs["sim_adverse"]["sim.repairs_triggered"] > 0
    assert runs["sim_scale"]["sim.repairs_triggered"] == 0
    read, write = runs["live_read"], runs["live_write"]
    assert read["security.sign_calls"] == 0 and read["security.verify_calls"] == 0
    assert write["security.sign_calls"] > 0 and write["reliability.acks"] > 0
    assert read["dht.lookups"] > 0 and read["wire.frames_per_op"] <= 1
    assert write["wire.frames_per_op"] > read["wire.frames_per_op"]
    for metrics in (read, write):
        assert metrics["sim.engine.self_s"] == 0 and metrics["reliability.giveups"] == 0


def test_tracer_leaves_under_two_percent_of_repro_time_unassigned(tiny_runs):
    outside = {"eventloop", "ext.numpy", "ext.builtins", "ext.stdlib", "bench"}
    for run in tiny_runs[1][1]["runs"]:
        metrics = run["metrics"]
        inside = [
            metrics[f"{layer}.self_s"]
            for layer in (*LAYERS_WITH_CALLS, *LAYERS_SELF_ONLY)
            if layer not in outside
        ]
        assert sum(inside) > 0
        assert metrics["repro.unassigned.self_s"] < 0.02 * sum(inside), run["workload"]


def test_counts_repeat_exactly_for_a_fixed_seed(tiny_runs, tmp_path):
    again = tmp_path / "again.json"
    done = _run(
        "--tiny", "--seed", "5", "--seconds", "1", "--ops", "400", "--trace", "0",
        "--out", str(again),
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    first = {run["workload"]: run["exact"] for run in tiny_runs[0][1]["runs"]}
    second = {run["workload"]: run["exact"] for run in json.loads(again.read_text())["runs"]}
    assert first == second
    assert "frames_delivered" in first["live_write"] and "sim.result_digest" in first["sim_scale"]
    # compare.py reads the same files and agrees.
    first_path = tmp_path / "first.json"
    first_path.write_text(json.dumps(tiny_runs[0][1]))
    compared = subprocess.run(
        [sys.executable, str(E2E / "compare.py"), str(first_path), str(again)],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert "exact" not in compared.stdout, compared.stdout


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "live_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
