"""Declarative resilience gates: evaluation semantics and TOML loading.

A gate must never pass vacuously: missing or non-numeric metrics fail.
A gate file is outside input: whatever :mod:`tomllib` hands back that is
not ``[[gate]]`` tables with numeric values is refused at load time.
"""

import pytest

from repro.deploy.gates import (
    Gate,
    evaluate_gates,
    gates_from_mapping,
    load_gates,
    resolve_metric,
)

REPORT = {
    "availability": {"mean": 0.97, "during_chaos_min": 0.8125, "final": 1.0},
    "latency": {"read": {"p99_s": 0.003}},
    "durability": {"lost_acked_updates": 0},
    "recovery": {"seconds": 0.4, "recovered": True},
}


class TestResolveMetric:
    def test_dotted_walk(self):
        assert resolve_metric(REPORT, "latency.read.p99_s") == 0.003

    def test_missing_hops_return_none(self):
        assert resolve_metric(REPORT, "latency.write.p99_s") is None
        assert resolve_metric(REPORT, "nope") is None
        assert resolve_metric(REPORT, "availability.mean.deeper") is None

    def test_numeric_hops_index_lists(self):
        report = {"availability": {"samples": [
            {"epoch": 0, "availability": 1.0},
            {"epoch": 1, "availability": 0.9},
            {"epoch": 2, "availability": 0.95},
        ]}}
        assert resolve_metric(report, "availability.samples.0.availability") == 1.0
        assert resolve_metric(report, "availability.samples.-1.availability") == 0.95
        assert resolve_metric(report, "availability.samples.1.epoch") == 1

    def test_list_indexing_failure_modes_return_none(self):
        report = {"samples": [{"v": 1.0}]}
        assert resolve_metric(report, "samples.3.v") is None  # out of range
        assert resolve_metric(report, "samples.-2.v") is None
        assert resolve_metric(report, "samples.first.v") is None  # not an int
        assert resolve_metric(report, "samples.0.v.deeper") is None

    def test_flat_keys_with_literal_dots(self):
        """SimulationResult.summary() flattens per-strategy metric groups
        into keys that contain dots; gates must reach them."""
        report = {
            "arch.cache.hit_rate": 0.42,
            "arch.dht.mean_lookup_hops": 1.8,
            "availability_steady": 0.97,
        }
        assert resolve_metric(report, "arch.cache.hit_rate") == 0.42
        assert resolve_metric(report, "arch.dht.mean_lookup_hops") == 1.8
        assert resolve_metric(report, "arch.cache.miss_rate") is None

    def test_longest_match_wins_with_backtracking(self):
        """A literal dotted key shadows a nested walk of the same spelling,
        but the resolver backtracks to shorter prefixes when the longer
        match dead-ends."""
        report = {
            "a.b": {"c": 1.0},
            "a": {"b": {"c": 2.0}, "x": {"y": 3.0}},
        }
        # Longest prefix "a.b" matches first and its remainder resolves.
        assert resolve_metric(report, "a.b.c") == 1.0
        # "a.x" is not a key: backtrack to "a", then walk x.y.
        assert resolve_metric(report, "a.x.y") == 3.0

    def test_mixed_flat_and_structured_hops(self):
        """Dotted flat keys compose with list indexing on either side."""
        report = {"arch.dht": {"samples": [{"hops": 2.0}, {"hops": 3.0}]}}
        assert resolve_metric(report, "arch.dht.samples.-1.hops") == 3.0


class TestEvaluate:
    def test_all_ops(self):
        report = {"x": 5}
        cases = [
            ("<=", 5, True), (">=", 5, True), ("<", 5, False),
            (">", 4, True), ("==", 5, True), ("!=", 5, False),
        ]
        for op, bound, expected in cases:
            verdict = evaluate_gates([Gate("g", "x", op, bound)], report)
            assert verdict["passed"] is expected, (op, bound)

    def test_violations_are_named(self):
        gates = [
            Gate("ok-gate", "availability.mean", ">=", 0.95),
            Gate("bad-gate", "availability.mean", ">=", 0.99),
        ]
        verdict = evaluate_gates(gates, REPORT)
        assert not verdict["passed"]
        assert verdict["violated"] == ["bad-gate"]
        by_name = {r["name"]: r for r in verdict["results"]}
        assert by_name["ok-gate"]["passed"]
        assert by_name["bad-gate"]["actual"] == 0.97
        assert "false" in by_name["bad-gate"]["reason"]

    def test_missing_metric_fails_not_passes(self):
        verdict = evaluate_gates([Gate("g", "recovery.missing", "<=", 1)], REPORT)
        assert not verdict["passed"]
        assert verdict["results"][0]["reason"] == "metric missing or not numeric"

    def test_non_numeric_metric_fails(self):
        verdict = evaluate_gates([Gate("g", "availability", "<=", 1)], REPORT)
        assert not verdict["passed"]

    def test_bool_metric_coerces_to_int(self):
        verdict = evaluate_gates([Gate("g", "recovery.recovered", "==", 1)], REPORT)
        assert verdict["passed"]

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("g", "x", "~=", 1)
        with pytest.raises(ValueError):
            Gate("g", "", "<=", 1)


TOML_TEXT = """
# comment line
[[gate]]
name = "a"
metric = "availability.mean"   # trailing comment
op = ">="
value = 0.95
description = "mean stays up"

[[gate]]
name = "b"
metric = "durability.lost_acked_updates"
op = "<="
value = 0
"""


class TestLoading:
    def test_load_gates_handles_committed_gate_files(self):
        for path in ("configs/gates/smoke.toml", "configs/gates/strict.toml"):
            gates = load_gates(path)
            assert gates, path
            assert all(g.name and g.metric for g in gates)

    def test_load_gates_from_file(self, tmp_path):
        path = tmp_path / "gates.toml"
        path.write_text(TOML_TEXT)
        gates = load_gates(path)
        assert [g.name for g in gates] == ["a", "b"]
        assert gates[0].value == 0.95 and gates[1].value == 0
        assert gates[1].description == ""

    def test_empty_gate_file_rejected(self, tmp_path):
        path = tmp_path / "gates.toml"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_gates(path)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            gates_from_mapping({"gate": [{"name": "x", "metric": "m", "op": "<="}]})

    def test_load_gates_rejects_garbage(self, tmp_path):
        bad_value = "[[gate]]\nname = 'c'\nmetric = 'm'\nop = '=='\nvalue = {}\n"
        cases = [
            ("[other]\nname = 'x'\n", "no gates"),
            ("name = 'orphan'\n", "no gates"),
            ("[[gate]]\njust-a-line\n", None),  # a TOMLDecodeError
            ("gate = [1, 2]\n", r"gate #0: expected a \[\[gate\]\] table"),
            (TOML_TEXT + bad_value.format("[1]"), "gate #2: value must be a number"),
            (TOML_TEXT + bad_value.format('"high"'), "gate #2: value must be a number"),
            (TOML_TEXT + bad_value.format("true"), "gate #2: value must be a number"),
        ]
        path = tmp_path / "gates.toml"
        for text, match in cases:
            path.write_text(text)
            with pytest.raises(ValueError, match=match):
                load_gates(path)

    def test_committed_smoke_gates_pass_a_healthy_report(self):
        gates = load_gates("configs/gates/smoke.toml")
        report = {
            "availability": {"mean": 0.99, "during_chaos_min": 0.85, "final": 1.0},
            "latency": {"read": {"p99_s": 0.01}},
            "durability": {"lost_acked_updates": 0},
            "recovery": {"seconds": 0.5},
        }
        assert evaluate_gates(gates, report)["passed"]

    def test_committed_strict_gates_fail_any_chaos_dip(self):
        gates = load_gates("configs/gates/strict.toml")
        report = {
            "availability": {"during_chaos_min": 0.99},
            "durability": {"lost_acked_updates": 0},
        }
        verdict = evaluate_gates(gates, report)
        assert not verdict["passed"]
        assert verdict["violated"] == ["availability-perfect"]
