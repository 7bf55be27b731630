"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import SCENARIO_PRESETS, build_parser, main, scenario_config


def base(*overrides):
    """``--base`` flags, one per ``KEY=VALUE``."""
    return [flag for override in overrides for flag in ("--base", override)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "SOUP" in out
    assert "Diaspora" in out


def test_table3_full_scale(capsys):
    code, out = run_cli(capsys, "table3")
    assert code == 0
    assert "facebook" in out and "90269" in out
    assert "6.71" in out


def test_table4_spec_crosses_three_online_time_rows():
    """Table 4 is a ``soup compare`` run: SOUP's, PeerSoN's and Safebook's
    online-time assumptions, each a row of the committed spec."""
    from pathlib import Path

    from repro.runtime import SweepSpec
    from repro.sim.scenario import OnlineDistribution

    spec = SweepSpec.from_file(
        Path(__file__).resolve().parents[1] / "configs" / "compare" / "table4.toml"
    )
    tasks = spec.expand()
    assert [task.build_config().online_distribution for task in tasks] == [
        OnlineDistribution.POWER_LAW,
        OnlineDistribution.PEERSON,
        OnlineDistribution.UNIFORM_03,
    ]


def test_fig5_small(capsys):
    code, out = run_cli(
        capsys, "fig5", *base("scale=0.004", "n_days=3", "dataset=epinions")
    )
    assert code == 0
    assert "availability/day:" in out
    assert "replicas/day:" in out


def test_fig10_with_ties_flag(capsys):
    code, out = run_cli(
        capsys,
        "fig10",
        *base("scale=0.004", "n_days=3", "slander_fraction=0.3",
              "use_tie_strength=true"),
    )
    assert code == 0
    assert "slander fraction=0.3" in out


def test_fig11_reports_blacklist(capsys):
    code, out = run_cli(
        capsys, "fig11", *base("scale=0.004", "n_days=3", "sybil_fraction=0.3")
    )
    assert code == 0
    assert "blacklist entries:" in out


def test_fig15(capsys):
    code, out = run_cli(capsys, "fig15", "--rate", "5", "--duration", "30")
    assert code == 0
    assert "mean=" in out and "timeouts=" in out


def test_deploy_small(capsys):
    code, out = run_cli(
        capsys, "deploy", "--desktop", "8", "--mobile", "1",
        "--duration", "120", "--rounds", "3",
    )
    assert code == 0
    assert "users=9" in out
    assert "availability=" in out


def test_fig6_snapshots(capsys):
    code, out = run_cli(
        capsys, "fig6", *base("scale=0.004", "n_days=3", "dataset=epinions")
    )
    assert code == 0
    assert "day   1:" in out or "day 1" in out
    assert "top-half replica share" in out


def test_fig7_cohorts(capsys):
    code, out = run_cli(capsys, "fig7", *base("scale=0.004", "n_days=2"))
    assert code == 0
    for cohort in ("top_online", "bottom_online", "top_friends", "bottom_friends"):
        assert cohort in out


def test_fig8_altruism(capsys):
    code, out = run_cli(
        capsys, "fig8", *base("scale=0.004", "n_days=3",
                              "altruist_fraction=0.05", "altruist_join_day=1"),
    )
    assert code == 0
    assert "altruism fraction=0.05" in out


def test_fig9_departure(capsys):
    code, out = run_cli(
        capsys, "fig9", *base("scale=0.004", "n_days=3",
                              "departure_fraction=0.05", "departure_day=1"),
    )
    assert code == 0
    assert "departure fraction=0.05" in out


def test_fig5_sparkline_present(capsys):
    code, out = run_cli(capsys, "fig5", *base("scale=0.004", "n_days=2"))
    assert code == 0
    assert any(block in out for block in "▁▂▃▄▅▆▇█")


def test_fig5_json_export(capsys):
    import json

    code, out = run_cli(
        capsys, "fig5", *base("scale=0.004", "n_days=2"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dataset"] == "facebook"
    assert len(payload["daily_availability"]) == 2
    assert 0.0 <= payload["steady_availability"] <= 1.0


def test_fig11_json_export(capsys):
    import json

    code, out = run_cli(
        capsys, "fig11", *base("scale=0.004", "n_days=2", "sybil_fraction=0.2"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "flooding"
    assert payload["fraction"] == 0.2
    assert "blacklisted_owner_count" in payload


@pytest.mark.parametrize(
    "command, key", [
        ("fig6", "stored_profiles_snapshots"),
        ("fig7", "cohort_availability"),
    ],
)
def test_fig6_fig7_json_export(capsys, command, key):
    code, out = run_cli(
        capsys, command, *base("scale=0.004", "n_days=2"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[key]
    assert len(payload["daily_availability"]) == 2


def test_sim_generic_entry_point(capsys):
    code, out = run_cli(capsys, "sim", *base("scale=0.004", "n_days=2"))
    assert code == 0
    assert "availability/day:" in out


def test_sim_writes_valid_trace(capsys, tmp_path):
    from repro.obs import get_tracer, validate_trace_file

    trace = tmp_path / "trace.jsonl"
    code, out = run_cli(
        capsys, "sim", *base("scale=0.004", "n_days=2", "check_invariants=true"),
        "--trace", str(trace),
    )
    assert code == 0
    assert trace.exists()
    assert validate_trace_file(str(trace)) == []
    assert not get_tracer().enabled  # teardown restored the disabled tracer


def test_sim_trace_filter(capsys, tmp_path):
    import json

    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        capsys, "sim", *base("scale=0.004", "n_days=2"),
        "--trace", str(trace), "--trace-filter", "mirror_selected",
    )
    assert code == 0
    events = {
        json.loads(line)["event"]
        for line in trace.read_text().splitlines()
    }
    assert events == {"mirror_selected"}


def test_trace_validate_ok(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        capsys, "sim", *base("scale=0.004", "n_days=2"), "--trace", str(trace)
    )
    assert code == 0
    code, out = run_cli(capsys, "trace", "validate", str(trace))
    assert code == 0
    assert "all valid" in out


def test_trace_validate_rejects_unknown_event(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1, "seq": 0, "event": "bogus_event"}\n')
    code, _ = run_cli(capsys, "trace", "validate", str(bad))
    assert code == 1


class TestTraceCommands:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl.gz"
        code = main([
            "sim",
            *base("scale=0.004", "n_days=3", "repair=true",
                  "faults=drop_transfer:rate=0.5:from_epoch=6:until_epoch=40"),
            "--trace", str(path),
        ])
        assert code == 0
        return str(path)

    def test_trace_validate_subcommand_reads_gzip(self, capsys, trace_path):
        code, out = run_cli(capsys, "trace", "validate", trace_path)
        assert code == 0
        assert "all valid" in out

    def test_trace_analyze_text_and_json(self, capsys, trace_path):
        import json

        code, out = run_cli(capsys, "trace", "analyze", trace_path)
        assert code == 0
        assert "unavailability attribution" in out
        assert "replica lifecycles" in out
        code, out = run_cli(capsys, "trace", "analyze", trace_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lifecycles"]
        assert payload["total_unavailable_epochs"] == sum(
            row["unavailable_epochs"] for row in payload["attribution"]
        )

    def test_trace_anomalies(self, capsys, trace_path):
        import json

        code, out = run_cli(
            capsys, "trace", "anomalies", trace_path, "--json",
            "--churn-storm-drops", "5",
        )
        assert code == 0
        findings = json.loads(out)
        assert any(f["rule"] == "churn_storm" for f in findings)

    def test_trace_timeline(self, capsys, trace_path):
        import json

        code, out = run_cli(capsys, "trace", "analyze", trace_path, "--json")
        owner = json.loads(out)["attribution"][0]["owner"]
        code, out = run_cli(capsys, "trace", "timeline", trace_path, str(owner))
        assert code == 0
        assert f"owner {owner}:" in out
        assert "unavailable" in out


def test_metrics_view(capsys):
    code, out = run_cli(
        capsys, "metrics", *base("scale=0.004", "n_days=2", "repair=true")
    )
    assert code == 0
    assert "engine.replicas.placed" in out
    assert "engine.selection.churn" in out
    assert "reliability summary:" in out
    assert "circuit_transitions_total" in out


def test_metrics_json(capsys):
    import json

    code, out = run_cli(
        capsys, "metrics", *base("scale=0.004", "n_days=2"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "engine.selection.rounds" in payload["metrics"]
    assert "availability_steady" in payload["summary"]


def test_deploy_profile_flag_prints_breakdown(capsys):
    code = main([
        "deploy", "--desktop", "3", "--mobile", "0", "--duration", "60",
        "--rounds", "1", "--profile",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "crypto.sign" in captured.err
    assert "share" in captured.err
    from repro.obs.profiling import PROFILER

    assert not PROFILER.enabled  # teardown disabled it


class TestPerfCommand:
    PERF_ARGS = ("perf", *base("scale=0.003", "n_days=1", "seed=1"))

    def test_json_is_the_only_thing_on_stdout(self, capsys):
        import json

        code = main([*self.PERF_ARGS, "--json", "--by-epoch"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert {"phases", "totals", "counts"} <= set(payload)
        assert payload["counts"]["engine.epoch"] == 24
        assert payload["totals"]["engine.epoch"] > 0.0
        assert "epoch" in payload["phases"]
        # The tables are still printed, just not into the document.
        assert "share" in captured.err and "epoch    0:" in captured.err

    def test_table_goes_to_stdout_without_json(self, capsys):
        code, out = run_cli(capsys, *self.PERF_ARGS)
        assert code == 0
        assert out.startswith("phase") and "engine.epoch" in out

    def test_folded_writes_path_micros_lines(self, capsys, tmp_path):
        folded = tmp_path / "perf.folded"
        code, _ = run_cli(capsys, *self.PERF_ARGS, "--folded", str(folded))
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            path, micros = line.rsplit(" ", 1)
            assert path.startswith("engine.epoch") and int(micros) > 0

    def test_chrome_writes_a_loadable_trace_event_document(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "perf.json"
        code, _ = run_cli(capsys, *self.PERF_ARGS, "--chrome", str(chrome))
        assert code == 0
        events = json.loads(chrome.read_text())["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert {"engine.epoch", "engine.sync"} <= {e["name"] for e in events}


class TestSweepCommand:
    SWEEP_ARGS = (
        "sweep",
        "--base", "scale=0.004", "--base", "n_days=2",
        "--set", "altruist_fraction=0.0,0.02",
        "--seeds", "3",
        "--jobs", "1",
    )

    def test_sweep_runs_and_aggregates(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        code, out = run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir))
        assert code == 0
        assert (run_dir / "manifest.json").exists()
        assert len(list((run_dir / "tasks").glob("*.json"))) == 2
        assert "altruist_fraction=0.0" in out
        assert "altruist_fraction=0.02" in out
        assert "availability_steady" in out

    def test_sweep_resume_skips_cached(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir))
        code = main([*self.SWEEP_ARGS, "--out", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cached" in captured.err

    def test_sweep_status_exit_codes(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir), "--limit", "1")
        code, out = run_cli(capsys, "sweep", "--out", str(run_dir), "--status")
        assert code == 3
        assert "1/2 tasks complete" in out
        run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir))
        code, out = run_cli(capsys, "sweep", "--out", str(run_dir), "--status")
        assert code == 0
        assert "2/2 tasks complete" in out

    def test_sweep_json_output(self, capsys, tmp_path):
        import json

        code, out = run_cli(
            capsys, *self.SWEEP_ARGS, "--out", str(tmp_path / "run"), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [cell["overrides"]["altruist_fraction"] for cell in payload] == [
            0.0,
            0.02,
        ]
        assert all("availability_steady" in cell["stats"] for cell in payload)

    def test_sweep_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "sweep.toml"
        spec.write_text(
            "seeds = [3]\n"
            "[base]\n"
            "scale = 0.004\n"
            "n_days = 2\n"
            "[grid]\n"
            'dataset = ["epinions"]\n'
        )
        code, out = run_cli(
            capsys, "sweep", str(spec), "--out", str(tmp_path / "run"), "--jobs", "1"
        )
        assert code == 0
        assert "dataset=epinions" in out

    def test_sweep_writes_telemetry(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir))
        assert (run_dir / "telemetry" / "heartbeat.json").exists()
        code, _ = run_cli(
            capsys, "trace", "validate",
            str(run_dir / "telemetry" / "events.jsonl"),
        )
        assert code == 0

    def test_sweep_status_watch_exits_when_complete(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(capsys, *self.SWEEP_ARGS, "--out", str(run_dir))
        code, out = run_cli(
            capsys, "sweep", "--out", str(run_dir), "--status", "--watch",
            "--interval", "0.1",
        )
        assert code == 0
        assert "2/2 tasks complete" in out

    def test_sweep_status_watch_surfaces_failures(self, capsys, tmp_path, monkeypatch):
        from repro.runtime import executor as executor_module

        real = executor_module.execute_task

        def flaky(payload):
            if payload["overrides"].get("altruist_fraction") == 0.02:
                raise RuntimeError("boom")
            return real(payload)

        monkeypatch.setattr(executor_module, "execute_task", flaky)
        run_dir = tmp_path / "run"
        main([*self.SWEEP_ARGS, "--out", str(run_dir)])
        capsys.readouterr()
        code, out = run_cli(
            capsys, "sweep", "--out", str(run_dir), "--status", "--watch",
            "--interval", "0.1",
        )
        assert code == 1
        assert "failed" in out and "boom" in out

    def test_sweep_rejects_bad_override(self, capsys, tmp_path):
        code = main(
            ["sweep", "--base", "scale=-1", "--out", str(tmp_path / "run")]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "scale" in captured.err


    def test_sweep_rejects_unknown_dataset_before_any_task(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        code = main([
            "sweep", *base("scale=0.004", "n_days=2"),
            "--set", "dataset=facebook,facebok", "--out", str(run_dir),
        ])
        assert code == 2
        assert "unknown dataset 'facebok'" in capsys.readouterr().err
        assert not (run_dir / "manifest.json").exists()


ARCHS = ("soup", "superpeer", "social_dht", "cache", "peerson", "safebook")


class TestCompareCommand:
    COMPARE_ARGS = (
        "compare",
        "--base", "scale=0.004", "--base", "n_days=2",
        "--seeds", "3",
        "--jobs", "1",
    )

    def test_compare_runs_all_architectures_one_table(self, capsys, tmp_path):
        import json

        run_dir = tmp_path / "run"
        code, out = run_cli(capsys, *self.COMPARE_ARGS, "--out", str(run_dir))
        assert code == 0
        # One table row per architecture, plus the acceptance metrics.
        for arch in ARCHS:
            assert arch in out
        for column in ("avail", "lookup_hops", "control_msgs", "storage_gini"):
            assert column in out
        payload = json.loads((run_dir / "compare.json").read_text())
        assert payload["schema"] == "soup-compare/v1"
        archs = {cell["architecture"] for cell in payload["cells"]}
        assert archs == set(ARCHS)
        for cell in payload["cells"]:
            assert "arch.dht.mean_lookup_hops" in cell["stats"]
            assert "arch.storage.gini" in cell["stats"]

    def test_compare_subset_and_resume(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        code, _ = run_cli(
            capsys, *self.COMPARE_ARGS, "--archs", "soup,cache",
            "--out", str(run_dir),
        )
        assert code == 0
        code = main([
            *self.COMPARE_ARGS, "--archs", "soup,cache", "--out", str(run_dir),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cached" in captured.err

    def test_compare_rejects_unknown_architecture(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "compare", "--archs", "no_such_arch", "--out", str(tmp_path / "r"),
        )
        assert code == 2

    def test_sim_architecture_flag_prints_arch_metrics(self, capsys):
        code, out = run_cli(
            capsys, "sim",
            *base("dataset=epinions", "scale=0.004", "n_days=2", "seed=3",
                  "architecture=cache", "measure_dht=true"),
        )
        assert code == 0
        assert "arch.cache:" in out and "hit_rate=" in out
        assert "arch.dht:" in out and "arch.storage:" in out

    def test_deploy_architecture_flag_prints_arch_metrics(self, capsys):
        code, out = run_cli(
            capsys, "deploy", "--desktop", "8", "--mobile", "2",
            "--duration", "300", "--rounds", "4",
            "--architecture", "superpeer",
        )
        assert code == 0
        assert "arch.selection:" in out and "superpeer_count=" in out


def test_replay_prints_the_violation_it_reproduces(capsys):
    from repro.sim.invariants import format_repro
    from repro.sim.scenario import ScenarioConfig

    base = dict(dataset="epinions", scale=0.004, seed=3)
    violating = format_repro(
        ScenarioConfig(n_days=6, faults="drop_transfer:rate=1.0:from_epoch=24", **base)
    )
    code, out = run_cli(capsys, "replay", violating)
    assert code == 0
    violation = json.loads(out)
    assert violation["invariant"] == "announced-mirrors-stored"
    assert violation["repro"] == violating

    code, out = run_cli(capsys, "replay", format_repro(ScenarioConfig(n_days=2, **base)))
    assert code == 1
    assert out.startswith("no violation")


@pytest.mark.parametrize(
    "line",
    [
        "garbage",
        "soup-repro/v1 dataset=epinions scale=0.004 seed=3 days=6",
        "soup-repro/v2 scale=abc",
        'soup-repro/v2 scale="abc"',
        "soup-repro/v2 scale",
        "soup-repro/v2 nope=1",
        "",
    ],
    ids=[
        "not-a-repro-line", "v1-line", "bad-value", "wrong-type", "no-equals",
        "unknown-token", "empty",
    ],
)
def test_replay_refuses_a_malformed_line(capsys, line):
    # Exit 1 means "ran clean, no violation"; a line that does not parse
    # must not be reported that way.
    code = main(["replay", line])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("replay: ") and captured.err.count("\n") == 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["does-not-exist"])


def test_parser_rejects_bad_dataset(capsys):
    with pytest.raises(SystemExit):
        main(["fig5", *base("dataset=myspace")])
    assert "unknown dataset 'myspace'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", ["repair=yes", "n_days=two", "invariant_names=x", "nope=1", "scale"]
)
def test_scenario_command_refuses_a_bad_override(capsys, override):
    """A bad --base is a usage error, like any argparse error: exit 2
    before anything runs, naming the field."""
    with pytest.raises(SystemExit) as exit_info:
        main(["sim", *base(override)])
    assert exit_info.value.code == 2
    assert override.partition("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SCENARIO_PRESETS))
def test_every_scenario_preset_builds_a_valid_config(command):
    config = scenario_config(command)
    for key, value in SCENARIO_PRESETS[command].items():
        assert getattr(config, key) == value


def test_no_scenario_command_has_a_flag_for_a_config_field():
    import argparse
    import dataclasses

    from repro.sim.scenario import ScenarioConfig

    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    named = {f"--{name}" for name in fields} | {
        f"--{name.replace('_', '-')}" for name in fields
    }
    removed = {"--days", "--fraction", "--event-day", "--ties"}
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command in SCENARIO_PRESETS:
        options = {
            option for action in commands[command]._actions
            for option in action.option_strings
        }
        assert "--base" in options, command
        assert not options & (named | removed), command


def test_scenario_config_rules():
    # Faults imply the checker unless it is set explicitly.
    faults = "faults=drop_transfer:rate=1.0"
    assert scenario_config("sim", [faults]).check_invariants
    assert not scenario_config("sim", [faults, "check_invariants=false"]).check_invariants
    # Fig. 6 snapshots day 1, day 14 and the last day, unless told otherwise.
    assert scenario_config("fig6").cdf_snapshot_days == (1, 14, 30)
    assert scenario_config("fig6", ["n_days=2"]).cdf_snapshot_days == (1, 2)
    assert scenario_config(
        "fig6", ["cdf_snapshot_days=[3]"]
    ).cdf_snapshot_days == (3,)
    # Later flags win, and a repro token's quoted JSON string is a string.
    assert scenario_config(
        "fig10", ["dataset=\"epinions\"", "seed=1", "seed=2"]
    ) == scenario_config("fig10", ["dataset=epinions", "seed=2"])
