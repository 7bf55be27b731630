"""Verdicts of compare.py on made-up runs."""

import json
import subprocess
import sys

from conftest import E2E, REPO

import compare

THROUGHPUT = {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}


def _runs(throughputs, latencies, digest="d"):
    return [
        {
            "workload": "sim_scale", "seed": seed, "trace": 0, "ops": None,
            "metrics": {"throughput_per_s": t, "latency_p50_ms": l},
            "exact": {"sim.result_digest": digest},
        }
        for seed, (t, l) in enumerate(zip(throughputs, latencies))
    ]  # fmt: skip


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 0.95 for v in steady], "higher", 0.1) == "ok"
    assert compare.verdict(steady, [v * 0.85 for v in steady], "higher", 0.1) == "worse"
    assert compare.verdict(steady, [v * 1.15 for v in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [v * 1.15 for v in steady], "higher", 0.1) == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
    # Wide spread, yet every run of B beats every run of A.
    assert compare.verdict(noisy, [v + 100 for v in noisy], "higher", 0.1) == "ok"


def test_rows_and_exit_code_on_worse_and_on_exact_mismatch():
    a = _runs([100.0, 101.0, 99.0], [5.0, 5.1, 4.9])
    rows, worse = compare.compare(a, _runs([98.0, 99.0, 100.0], [5.0, 5.2, 5.1]), [THROUGHPUT, LATENCY])
    assert not worse and [row[-1] for row in rows] == ["ok", "ok"]
    rows, worse = compare.compare(a, _runs([80.0, 81.0, 79.0], [5.0, 5.1, 4.9]), [THROUGHPUT, LATENCY])
    assert worse and [row[-1] for row in rows] == ["worse", "ok"]
    rows, worse = compare.compare(a, _runs([100.0, 101.0, 99.0], [5.0, 5.1, 4.9], digest="x"), [THROUGHPUT])
    assert worse and rows[-1][-1] == "worse: sim.result_digest"


def test_command_line_reads_bounds_from_benchmark_json(tmp_path):
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["end_to_end"]]

    def document(scale):
        run = {
            "workload": "live_read", "seed": 1, "trace": 0, "ops": None,
            "metrics": {name: 10.0 * (scale if name == "throughput_per_s" else 1.0) for name in names},
            "exact": {},
        }  # fmt: skip
        return {"runs": [run, dict(run, seed=2), dict(run, seed=3)]}

    paths = []
    for label, scale in (("a", 1.0), ("same", 1.0), ("slow", 0.5)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(document(scale)))
        paths.append(str(path))
    command = [sys.executable, str(E2E / "compare.py")]
    same = subprocess.run([*command, paths[0], paths[1]], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and same.stdout.count(" ok") == len(names)
    slow = subprocess.run([*command, paths[0], paths[2]], capture_output=True, text=True, timeout=60)
    assert slow.returncode == 1 and "worse" in slow.stdout
