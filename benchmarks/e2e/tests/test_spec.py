"""The benchmark's names and plans are pure data and match BENCHMARK.json."""

import itertools
import json
import subprocess
import sys

from conftest import E2E, REPO
from soupbench.spec import (
    END_TO_END,
    LIVE_READ,
    LIVE_WRITE,
    PER_LAYER,
    WORKLOADS,
    build_live_plan,
)


def _benchmark():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_equal_the_code():
    doc = _benchmark()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert not set(END_TO_END) & set(PER_LAYER)


def test_benchmark_json_meets_the_contract_limits():
    doc = _benchmark()
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_plan_is_a_function_of_workload_and_seed():
    first, again = build_live_plan(LIVE_READ, 7), build_live_plan(LIVE_READ, 7)
    assert first == again
    assert first.digest() == again.digest()
    head = list(itertools.islice(first.ops(), 500))
    assert head == list(itertools.islice(again.ops(), 500))
    assert first.digest() != build_live_plan(LIVE_READ, 8).digest()
    assert first.digest() != build_live_plan(LIVE_WRITE, 7).digest()


def test_plan_actors_stay_online_and_never_target_themselves():
    plan = build_live_plan(LIVE_READ, 3)
    gone = set(plan.graceful) | set(plan.abrupt)
    assert len(plan.graceful) == len(plan.abrupt) == 2 and 0 not in gone
    assert set(plan.actors) == set(range(LIVE_READ.n_nodes)) - gone
    ops = list(itertools.islice(plan.ops(), 2_000))
    assert all(actor in plan.actors and actor != target for _, actor, target in ops)
    assert {kind for kind, _, _ in ops} == {"read"}
    # Departed owners are read too: that is what exercises the mirrors.
    assert gone & {target for _, _, target in ops}
    mix = [kind for kind, _, _ in itertools.islice(build_live_plan(LIVE_WRITE, 3).ops(), 4_000)]
    assert 0.65 < mix.count("post") / len(mix) < 0.75


def test_plan_exists_before_the_program_is_imported():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import soupbench.spec as s; "
        "s.build_live_plan(s.LIVE_WRITE, 1).digest(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"
    )
    subprocess.run([sys.executable, "-c", code, str(E2E)], check=True, timeout=60)
