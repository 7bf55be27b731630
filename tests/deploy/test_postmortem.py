"""End-to-end post-mortem: kill chaos -> bundle -> reconstructed chains.

The PR's acceptance scenario: a resilience run with a kill fault on the
live backend produces a post-mortem bundle from which ``soup postmortem``
reconstructs at least one **cross-node causal chain** linking the kill to
a repair or unavailability window — and the sim-side anomaly detectors
run unchanged over the merged live trace.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.deploy.live import ResilienceConfig, ResilienceHarness
from repro.deploy.postmortem import (
    BundleError,
    assemble_bundle,
    correlate,
    load_bundle,
)
from repro.obs.analysis import TraceAnalysis

EPOCHS = 14
KILLS = 8


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One live run harsh enough that owners actually lose their data:
    8 of 10 nodes die, so some owners have no serving mirror left."""
    root = tmp_path_factory.mktemp("postmortem")
    obs_dir = str(root / "obs")
    report = ResilienceHarness(ResilienceConfig(
        n_nodes=10,
        seed=7,
        backend="live",
        chaos=f"kill:epoch=3:count={KILLS}",
        epochs=EPOCHS,
        epoch_s=0.15,
        load_rps=30.0,
        settle_s=0.1,
        obs_dir=obs_dir,
    )).run()
    report["gates"] = {"passed": True, "violated": [], "results": []}
    bundle_dir = assemble_bundle(obs_dir, str(root), report=report)
    return {"root": str(root), "obs_dir": obs_dir,
            "report": report, "bundle_dir": bundle_dir}


class TestObsReport:
    def test_report_carries_obs_section(self, run):
        obs = run["report"]["obs"]
        assert obs["trace_events"] > 0
        assert obs["trace_errors"] == 0
        assert obs["flight_files"] == 10 + 1  # nodes + harness
        assert obs["live_msgs"]["sent"] >= obs["live_msgs"]["recv"] > 0

    def test_every_chaos_event_has_a_trace_action(self, run):
        # Satellite #1: the chaos controller mirrors each FaultPlan step
        # into the trace with both scheduled and actual epoch.
        obs = run["report"]["obs"]
        chaos_events = run["report"]["chaos"]["events"]
        assert obs["chaos_actions"] == len(chaos_events) >= 1

    def test_availability_sampled_every_epoch(self, run):
        assert (
            run["report"]["obs"]["events_by_type"]["availability_sample"]
            == EPOCHS
        )


class TestBundleIntegrity:
    def test_assembly_is_content_keyed_and_idempotent(self, run):
        again = assemble_bundle(
            run["obs_dir"], run["root"], report=run["report"]
        )
        assert again == run["bundle_dir"]
        assert os.path.basename(again).startswith("bundle-")

    def test_load_verifies_hashes(self, run):
        bundle = load_bundle(run["bundle_dir"])
        assert bundle.report["gates"]["passed"] is True
        assert len(bundle.flight_paths()) == 10 + 1

    def test_tampered_file_is_rejected(self, run, tmp_path):
        import shutil

        copy = tmp_path / "bundle"
        shutil.copytree(run["bundle_dir"], copy)
        victim = next(copy.glob("flight/node-*.jsonl"))
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("{}\n")
        with pytest.raises(BundleError, match="corrupted"):
            load_bundle(str(copy))

    def test_non_bundle_dir_is_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="MANIFEST"):
            load_bundle(str(tmp_path))


def write_bundle(directory, manifest, files=(), report=None):
    """A bundle directory whose ``MANIFEST.json`` holds ``manifest``
    verbatim (a string is written as is, anything else as JSON)."""
    os.makedirs(directory / "flight", exist_ok=True)
    for name in files:
        (directory / name).write_text("{}\n")
    if report is not None:
        (directory / "report.json").write_text(report)
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    (directory / "MANIFEST.json").write_text(text)
    return str(directory)


GOOD_FILE = {
    "flight/node-1.jsonl": {
        "sha256": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356"
    }
}


class TestUntrustedManifest:
    """A bundle's manifest is input: whatever it gets wrong ends as a
    ``BundleError`` (exit 2 from ``soup postmortem``), never a traceback."""

    def test_a_well_formed_bundle_loads(self, tmp_path):
        path = write_bundle(
            tmp_path,
            {"schema": "soup-postmortem/v1", "key": "k", "files": GOOD_FILE},
            files=GOOD_FILE,
            report='{"gates": null}',
        )
        bundle = load_bundle(path)
        assert bundle.key == "k" and bundle.report == {"gates": None}
        assert bundle.flight_paths() == [os.path.join(path, "flight/node-1.jsonl")]

    @pytest.mark.parametrize(
        "manifest, match",
        [
            ("{not json", "not JSON"),
            ('["soup-postmortem/v1"]', "not a JSON object"),
            ({"schema": "soup-postmortem/v1", "files": {}}, "no key"),
            ({"schema": "soup-postmortem/v1", "key": 7, "files": {}}, "no key"),
            ({"schema": "soup-postmortem/v1", "key": "k", "files": ["a"]}, "files"),
            ({"schema": "soup-postmortem/v1", "key": "k",
              "files": {"flight/node-1.jsonl": {}}}, "sha256"),
            ({"schema": "soup-postmortem/v1", "key": "k",
              "files": {"flight/node-1.jsonl": "abc"}}, "sha256"),
            ({"schema": "soup-postmortem/v1", "key": "k",
              "files": {"/outside.json": {"sha256": "0"}}}, "outside"),
            ({"schema": "soup-postmortem/v1", "key": "k",
              "files": {"../outside.json": {"sha256": "0"}}}, "outside"),
            ({"schema": "soup-postmortem/v1", "key": "k",
              "files": {"flight/../../outside.json": {"sha256": "0"}}}, "outside"),
        ],
        ids=[
            "not-json", "not-an-object", "no-key", "non-string-key",
            "files-is-a-list", "entry-without-sha256", "entry-not-an-object",
            "absolute-name", "parent-name", "escaping-name",
        ],
    )
    def test_a_malformed_manifest_is_a_bundle_error(self, tmp_path, manifest, match):
        (tmp_path / "outside.json").write_text("{}\n")
        path = write_bundle(tmp_path / "bundle", manifest, files=GOOD_FILE)
        with pytest.raises(BundleError, match=match):
            load_bundle(path)
        assert cli_main(["postmortem", path]) == 2

    @pytest.mark.parametrize("report", ["{truncated", "[1, 2]"], ids=["not-json", "list"])
    def test_a_malformed_report_is_a_bundle_error(self, tmp_path, report):
        path = write_bundle(
            tmp_path,
            {"schema": "soup-postmortem/v1", "key": "k", "files": {}},
            report=report,
        )
        with pytest.raises(BundleError, match="report.json"):
            load_bundle(path)
        assert cli_main(["postmortem", path]) == 2


class TestCausalChains:
    def test_kill_chain_links_to_unavailability_cross_node(self, run):
        # The acceptance criterion: >= 1 cross-node chain linking the
        # kill to a repair round or an unavailability window.
        result = correlate(load_bundle(run["bundle_dir"]))
        assert len(result.chains) >= 1
        chain = result.chains[0]
        assert chain.action["kind"] == "kill"
        assert chain.action["scheduled_epoch"] == 3
        assert len(chain.victims) == KILLS
        assert chain.cross_node, "chain evidence must span >= 2 recorders"
        kinds = {link.kind for link in chain.links}
        assert kinds & {"repair_round", "unavailability"}, kinds
        # Every consequence references an actual victim of this action.
        for link in chain.links:
            if link.kind == "unavailability":
                assert link.data["owner"] in chain.victims
                assert link.epoch >= chain.action["epoch"]

    def test_sim_side_anomaly_detectors_ran_over_merged_trace(self, run):
        result = correlate(load_bundle(run["bundle_dir"]))
        analysis = result.analysis
        assert isinstance(analysis, TraceAnalysis)
        # The analyzer consumed the merged live trace: it reconstructed
        # the same owner-epoch unavailability total the harness reported.
        assert (
            analysis.total_unavailable_epochs
            == run["report"]["obs"]["unavailable_owner_epochs"]
            > 0
        )
        assert analysis.samples == EPOCHS
        assert isinstance(analysis.findings, list)
        # Victims' windows are attributed to the kill, not left causeless.
        victim_windows = [
            window
            for victim in result.chains[0].victims
            for window in analysis.windows_by_owner.get(victim, ())
        ]
        assert any(w.cause == "replica_loss" for w in victim_windows)


class TestPostmortemCli:
    def test_text_view_and_require_chain(self, run, capsys):
        rc = cli_main(["postmortem", run["bundle_dir"], "--require-chain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cross-node" in out
        assert "kill @epoch 3" in out

    def test_json_view_round_trips(self, run, capsys):
        rc = cli_main(["postmortem", run["bundle_dir"], "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "soup-postmortem/v1"
        assert payload["cross_node_chains"] >= 1
        assert payload["gates"]["passed"] is True

    def test_bad_bundle_exits_2(self, tmp_path, capsys):
        rc = cli_main(["postmortem", str(tmp_path)])
        assert rc == 2

    def test_live_top_renders_final_heartbeat(self, run, capsys):
        rc = cli_main(["live", "top", "--dir", run["obs_dir"], "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"epoch {EPOCHS}/{EPOCHS} [done]" in out
        assert "messages:" in out
