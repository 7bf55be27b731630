"""The resilience harness: backend equivalence, determinism, and gates.

The claims under test are the PR's acceptance criteria:

* the SAME SoupNode code paths run on the simulated and the live TCP
  backend, and availability accounting comes out identical;
* two same-seed runs replay the same chaos and produce the same report
  (modulo wall-clock timestamps);
* the ``soup resilience`` CLI exits 0 when every gate passes and 5 when
  a gate is violated, naming the gate in the report.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.deploy.live import ResilienceConfig, ResilienceHarness

CHAOS = "kill:epoch=3:count=3;partition:epoch=5:heal=7"


def run_harness(backend, **overrides):
    defaults = dict(
        n_nodes=10,
        seed=7,
        backend=backend,
        chaos=CHAOS,
        epochs=9,
        epoch_s=0.15,
        load_rps=30.0,
        settle_s=0.1,
    )
    defaults.update(overrides)
    return ResilienceHarness(ResilienceConfig(**defaults)).run()


def strip_wallclock(records):
    """Drop the clock column: ``t`` is sim-time on the sim backend and
    wall-clock on the live one, so only the structural fields compare."""
    return [{k: v for k, v in record.items() if k != "t"} for record in records]


@pytest.fixture(scope="module")
def sim_report():
    return run_harness("sim")


@pytest.fixture(scope="module")
def live_report():
    return run_harness("live")


class TestBackendEquivalence:
    def test_availability_series_identical(self, sim_report, live_report):
        # Structural determinism: availability is computed from membership,
        # mirror sets, and chaos state — all of which evolve identically on
        # both backends under the same seed.  Exact equality, not tolerance.
        assert strip_wallclock(sim_report["availability"]["samples"]) == (
            strip_wallclock(live_report["availability"]["samples"])
        )

    def test_chaos_replays_identically(self, sim_report, live_report):
        assert strip_wallclock(sim_report["chaos"]["events"]) == (
            strip_wallclock(live_report["chaos"]["events"])
        )
        assert sim_report["chaos"]["killed"] == live_report["chaos"]["killed"]

    def test_durability_identical(self, sim_report, live_report):
        assert sim_report["durability"] == live_report["durability"]
        assert sim_report["durability"]["lost_acked_updates"] == 0
        assert sim_report["durability"]["acked_updates"] > 0

    def test_live_backend_really_used_sockets(self, live_report):
        assert live_report["config"]["backend"] == "live"
        assert live_report["net"]["delivered"] > 0


class TestDeterminism:
    def test_same_seed_live_runs_match(self, live_report):
        again = run_harness("live")
        assert strip_wallclock(again["availability"]["samples"]) == (
            strip_wallclock(live_report["availability"]["samples"])
        )
        assert strip_wallclock(again["chaos"]["events"]) == (
            strip_wallclock(live_report["chaos"]["events"])
        )
        assert again["durability"] == live_report["durability"]
        assert again["requests"] == live_report["requests"]

    def test_different_seed_changes_chaos_victims(self, sim_report):
        other = run_harness("sim", seed=8)
        mine = [e for e in sim_report["chaos"]["events"] if e["kind"] == "kill"]
        theirs = [e for e in other["chaos"]["events"] if e["kind"] == "kill"]
        assert mine and theirs
        assert mine[0]["nodes"] != theirs[0]["nodes"]


class TestReportShape:
    def test_schema_and_sections(self, sim_report):
        assert sim_report["schema"] == "soup-resilience/v1"
        for section in (
            "config", "chaos", "availability", "latency", "requests",
            "durability", "recovery", "reliability", "net",
        ):
            assert section in sim_report, section

    def test_chaos_dips_availability_then_recovers(self, sim_report):
        availability = sim_report["availability"]
        assert availability["during_chaos_min"] < 1.0
        assert availability["final"] >= availability["during_chaos_min"]
        assert sim_report["recovery"]["applicable"]
        assert sim_report["recovery"]["recovered"]

    def test_latency_percentiles_recorded(self, sim_report):
        read = sim_report["latency"]["read"]
        assert read["count"] > 0
        # Quantiles are bucket-boundary estimates: monotone in q, but the
        # p99 bound may sit above the true max.
        assert 0 <= read["p50_s"] <= read["p95_s"] <= read["p99_s"]
        assert read["max_s"] > 0


class TestCliGates:
    def test_passing_gates_exit_zero(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli_main([
            "resilience", "--nodes", "12", "--backend", "sim",
            "--chaos", CHAOS, "--epochs", "9",
            "--gates", "configs/gates/smoke.toml",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["gates"]["passed"] is True
        assert report["gates"]["violated"] == []
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_violated_gate_exits_five_and_is_named(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli_main([
            "resilience", "--nodes", "12", "--backend", "sim",
            "--chaos", CHAOS, "--epochs", "9",
            "--gates", "configs/gates/strict.toml",
            "--report", str(report_path),
        ])
        assert code == 5
        report = json.loads(report_path.read_text())
        assert report["gates"]["passed"] is False
        assert "availability-perfect" in report["gates"]["violated"]
        assert "availability-perfect" in capsys.readouterr().out

    def test_bad_gate_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def run(self):
            pytest.fail("the harness ran before the gate file was loaded")

        monkeypatch.setattr(ResilienceHarness, "run", run)
        bad = tmp_path / "gates.toml"
        bad.write_text("gate = [1, 2]\n")
        for gates in (bad, tmp_path / "missing.toml"):
            code = cli_main([
                "resilience", "--nodes", "8", "--backend", "sim",
                "--chaos", "", "--epochs", "4",
                "--gates", str(gates), "--report", str(tmp_path / "report.json"),
            ])
            assert code == 2
            assert "cannot load --gates" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_no_gates_means_report_only_exit_zero(self, capsys):
        code = cli_main([
            "resilience", "--nodes", "8", "--backend", "sim",
            "--chaos", "", "--epochs", "4",
        ])
        assert code == 0
        assert "availability mean=" in capsys.readouterr().out
