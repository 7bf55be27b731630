"""The perf-regression harness: artifacts, baseline diffs, and the CLI.

The timing-sensitive test injects a sleep into a synthetic benchmark and
asserts ``soup bench --check`` trips on it — real benchmarks are too slow
(and too noisy) to regress on purpose in CI.
"""

import json
import time

import pytest

from repro import cli
from repro.bench import (
    BENCH_SCHEMA,
    BenchResult,
    attribute_phases,
    build_artifact,
    compare,
    load_artifact,
    register,
    resolve_profile,
    run_suite,
    validate_artifact,
    write_artifact,
)
from repro.bench import suite as suite_module


def _result(name, throughput, wall=1.0, phases=None):
    return BenchResult(
        name=name, wall_seconds=wall, throughput=throughput, unit="ops/s",
        phases=phases or {},
    )


# --- artifacts ------------------------------------------------------------


def test_artifact_round_trip(tmp_path):
    artifact = build_artifact(
        [_result("a", 100.0), _result("b", 5.0, wall=0.25)],
        profile="smoke",
        seed=5,
        created="2026-08-08T00:00:00+00:00",
    )
    path = tmp_path / "BENCH_smoke.json"
    write_artifact(artifact, str(path))
    loaded = load_artifact(str(path))
    assert loaded == artifact
    assert loaded["schema"] == BENCH_SCHEMA
    assert set(loaded["results"]) == {"a", "b"}
    assert loaded["results"]["b"]["wall_seconds"] == 0.25


@pytest.mark.parametrize(
    "mutate",
    [
        lambda a: a.__setitem__("schema", "soup-bench/v0"),
        lambda a: a.pop("results"),
        lambda a: a["results"]["a"].pop("throughput"),
        lambda a: a["results"]["a"].__setitem__("wall_seconds", -1.0),
    ],
)
def test_validate_rejects_malformed_artifacts(mutate):
    artifact = build_artifact([_result("a", 100.0)], profile="smoke", seed=5)
    mutate(artifact)
    with pytest.raises(ValueError):
        validate_artifact(artifact)


def test_compare_flags_only_regressions_beyond_threshold():
    baseline = build_artifact(
        [_result("fast", 100.0), _result("slow", 10.0), _result("gone", 1.0)],
        profile="smoke",
        seed=5,
    )
    current = build_artifact(
        # fast dropped 25% (within a 30% threshold), slow dropped 50%.
        [_result("fast", 75.0), _result("slow", 5.0), _result("new", 2.0)],
        profile="smoke",
        seed=5,
    )
    comparison = compare(baseline, current, threshold=0.30)
    assert [row.name for row in comparison.regressions] == ["slow"]
    assert not comparison.ok
    assert comparison.only_in_baseline == ["gone"]
    assert comparison.only_in_current == ["new"]
    # At a looser threshold the same diff is clean.
    assert compare(baseline, current, threshold=0.60).ok
    with pytest.raises(ValueError):
        compare(baseline, current, threshold=1.5)


def test_v1_artifact_is_refused(tmp_path):
    """Nothing writes ``soup-bench/v1`` any more and no committed document
    uses it: the loader names the one schema it accepts."""
    v1 = {
        "schema": "soup-bench/v1",
        "profile": "smoke",
        "seed": 5,
        "created": "2026-01-01T00:00:00+00:00",
        "host": {},
        "results": {
            "epoch_loop": {
                "name": "epoch_loop",
                "wall_seconds": 1.0,
                "throughput": 100.0,
                "unit": "node-epochs/s",
                "detail": {},
            }
        },
    }
    path = tmp_path / "BENCH_v1.json"
    path.write_text(json.dumps(v1))
    with pytest.raises(ValueError, match="soup-bench/v2"):
        load_artifact(str(path))


def test_artifact_carries_git_provenance():
    artifact = build_artifact([_result("a", 1.0)], profile="smoke", seed=5)
    provenance = artifact["provenance"]
    assert set(provenance) >= {"git_sha", "git_dirty", "created"}
    # The test suite runs inside the repo's git checkout.
    assert provenance["git_sha"] is None or len(provenance["git_sha"]) == 40


def test_report_lines_name_the_commits_compared():
    baseline = build_artifact(
        [_result("a", 100.0)], profile="smoke", seed=5,
        provenance={"git_sha": "a" * 40, "git_dirty": False, "created": ""},
    )
    current = build_artifact(
        [_result("a", 90.0)], profile="smoke", seed=5,
        provenance={"git_sha": "b" * 40, "git_dirty": True, "created": ""},
    )
    lines = compare(baseline, current).report_lines()
    assert lines[0] == "baseline aaaaaaa vs current bbbbbbb+dirty"


# --- phase attribution ----------------------------------------------------


def test_attribute_phases_names_the_grown_share():
    attributed, shares = attribute_phases(
        {"dropping": 0.1, "selection": 0.9},
        {"dropping": 1.1, "selection": 0.9},
    )
    assert attributed == ("dropping",)
    base_share, cur_share = shares["dropping"]
    assert base_share == pytest.approx(0.1)
    assert cur_share == pytest.approx(0.55)


def test_attribute_phases_ignores_uniform_slowdown():
    # Everything 3x slower: shares unchanged, nothing clears the bar, and
    # the fallback has no positive growth to name.
    attributed, _ = attribute_phases(
        {"a": 0.2, "b": 0.8}, {"a": 0.6, "b": 2.4}
    )
    assert attributed == ()


def test_attribute_phases_falls_back_to_largest_growth():
    attributed, _ = attribute_phases(
        {"a": 0.50, "b": 0.50}, {"a": 0.52, "b": 0.48}, points=0.5
    )
    assert attributed == ("a",)


def test_attribute_phases_empty_without_breakdowns():
    assert attribute_phases({}, {"a": 1.0}) == ((), {})
    assert attribute_phases({"a": 1.0}, {}) == ((), {})


def test_compare_attributes_only_regressed_rows():
    baseline = build_artifact(
        [
            _result("slow", 100.0, phases={"dropping": 0.1, "selection": 0.9}),
            _result("fine", 100.0, phases={"dropping": 0.1, "selection": 0.9}),
        ],
        profile="smoke",
        seed=5,
    )
    current = build_artifact(
        [
            _result("slow", 40.0, phases={"dropping": 1.6, "selection": 0.9}),
            _result("fine", 99.0, phases={"dropping": 1.6, "selection": 0.9}),
        ],
        profile="smoke",
        seed=5,
    )
    comparison = compare(baseline, current, threshold=0.30)
    by_name = {row.name: row for row in comparison.rows}
    assert by_name["slow"].attributed_phases == ("dropping",)
    assert by_name["fine"].attributed_phases == ()
    joined = "\n".join(comparison.report_lines())
    assert "attributed phase(s): dropping" in joined


# --- suite registry -------------------------------------------------------


def test_standing_suite_is_registered():
    from repro.bench import benchmark_names

    names = benchmark_names()
    for expected in (
        "epoch_loop",
        "simnet_messages",
        "sweep_overhead",
        "crypto_modes",
    ):
        assert expected in names


def test_unknown_benchmark_and_profile_rejected():
    with pytest.raises(KeyError):
        run_suite(resolve_profile("smoke"), ["no_such_bench"])
    with pytest.raises(KeyError):
        resolve_profile("gigantic")


# --- the CLI, end to end --------------------------------------------------


@pytest.fixture
def toy_benchmark():
    """Register a synthetic 'toy' benchmark whose speed the test controls."""
    state = {"sleep": 0.0}

    @register("toy")
    def bench_toy(profile):
        ops = 200
        start = time.perf_counter()
        for _ in range(ops):
            if state["sleep"]:
                time.sleep(state["sleep"] / ops)
        wall = time.perf_counter() - start
        # Guard against a zero-length measurement on the fast path.
        wall = max(wall, 1e-6)
        return BenchResult(
            name="toy", wall_seconds=wall, throughput=ops / wall, unit="ops/s"
        )

    try:
        yield state
    finally:
        suite_module._REGISTRY.pop("toy", None)


def test_bench_cli_check_trips_on_injected_sleep(tmp_path, toy_benchmark, capsys):
    baseline_path = tmp_path / "BENCH_baseline.json"
    current_path = tmp_path / "BENCH_current.json"

    assert cli.main(["bench", "toy", "--out", str(baseline_path)]) == 0
    validate_artifact(json.loads(baseline_path.read_text()))

    # Clean re-run: no regression.
    assert (
        cli.main(
            [
                "bench", "toy",
                "--out", str(current_path),
                "--baseline", str(baseline_path),
                "--check",
            ]
        )
        == 0
    )

    # Inject a sleep; throughput collapses and --check must fail.
    toy_benchmark["sleep"] = 0.2
    assert (
        cli.main(
            [
                "bench", "toy",
                "--out", str(current_path),
                "--baseline", str(baseline_path),
                "--check",
                "--threshold", "0.5",
            ]
        )
        == 4
    )
    out = capsys.readouterr()
    assert "REGRESSION" in out.out


def test_bench_cli_check_requires_baseline(tmp_path, toy_benchmark):
    assert (
        cli.main(
            ["bench", "toy", "--out", str(tmp_path / "b.json"), "--check"]
        )
        == 2
    )


def test_bench_cli_list(capsys):
    assert cli.main(["bench", "--list"]) == 0
    assert "epoch_loop" in capsys.readouterr().out


def test_committed_baseline_is_valid():
    payload = load_artifact("benchmarks/baselines/BENCH_baseline.json")
    assert payload["profile"] == "smoke"
    assert "epoch_loop" in payload["results"]
    assert payload["results"]["epoch_loop"]["phases"], (
        "the committed baseline must carry a phase breakdown so "
        "regressions attribute"
    )


def test_bench_check_attributes_injected_dropping_slowdown(tmp_path, capsys):
    """The acceptance path end to end: slow down only the dropping phase
    (a sleep inside ``ReplicaStore.dropping_score``, which runs inside the
    ``engine.dropping`` span) and ``soup bench --check`` must exit 4
    naming both the case and the phase."""
    from repro.core.dropping import ReplicaStore

    baseline_path = tmp_path / "BENCH_baseline.json"
    current_path = tmp_path / "BENCH_current.json"
    assert cli.main(["bench", "epoch_loop", "--out", str(baseline_path)]) == 0

    original = ReplicaStore.dropping_score

    def slowed(self, owner):
        time.sleep(0.0002)
        return original(self, owner)

    ReplicaStore.dropping_score = slowed
    try:
        code = cli.main(
            [
                "bench", "epoch_loop",
                "--out", str(current_path),
                "--baseline", str(baseline_path),
                "--check",
                "--threshold", "0.5",
            ]
        )
    finally:
        ReplicaStore.dropping_score = original
    captured = capsys.readouterr()
    assert code == 4, captured.out + captured.err
    assert "perf regression: epoch_loop [dropping]" in captured.err
    assert "attributed phase(s): dropping" in captured.out

    current = json.loads(current_path.read_text())
    phases = current["results"]["epoch_loop"]["phases"]
    baseline_phases = json.loads(baseline_path.read_text())[
        "results"]["epoch_loop"]["phases"]
    dropping_share = phases["dropping"] / sum(phases.values())
    baseline_share = baseline_phases["dropping"] / sum(baseline_phases.values())
    assert dropping_share > baseline_share + 0.05
