"""Golden result/trace digests: behaviour is pinned *across commits*.

The digests in ``golden_digests.json`` were recorded once (PR 14, at the
parent commit of the selection-round rewrite) and every later commit must
reproduce them: same result JSON, same trace bytes.  The engine used to
carry a second, per-node "reference" traversal behind a mode knob, and
both modes were asserted against this file until the knob was deleted, so
the digests *are* that reference path's output, frozen; the one path left
has to keep reproducing them.
``arch_superpeer_dht`` was re-recorded in PR 15 for the lookup-alternates
fix: its shadow DHT's lookups now ask the last alternate they route to, so
2,431 of 23,627 ``dht_lookup`` events read ``delivered: true`` and
``dht.lookups.failed`` falls accordingly; nothing else in result or trace
moved.

An intended behaviour change re-records them, reviewed like any other
golden file::

    PYTHONPATH=src python -m tests.sim.test_golden_digests --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import SoupConfig
from repro.graphs.datasets import generate_dataset
from repro.obs import Tracer, set_tracer
from repro.sim import invariants
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: (id, overrides): the three scenario families the epoch-loop overhaul
#: touched most (plain fig5 availability, fig7 cohorts with churny
#: settings, fig8 altruists with faults layered on top), a non-default
#: architecture with the shadow-DHT probe, and one adversarial run in
#: which protective dropping really blacklists (sybil flooding + slander +
#: mass departure + repair; 451 base nodes + 226 sybils, 3 days).  The last
#: four (PR 23) pin branches the default path never takes: tie-weighted
#: reports + the per-mirror request capacity + forged, reordered and
#: duplicated experience reports; the ``by_cap`` normalisation (reports read
#: by attribute in ``update_experience``); the cache read path; traitors
#: with proactive repair.
SCENARIOS = [
    (
        "fig5_availability",
        dict(dataset="facebook", scale=0.01, n_days=6, seed=3),
    ),
    (
        "fig7_cohorts_churny",
        dict(
            dataset="epinions",
            scale=0.01,
            n_days=5,
            seed=11,
            departure_fraction=0.1,
            departure_day=2.0,
        ),
    ),
    (
        "fig8_altruists_faults",
        dict(
            dataset="facebook",
            scale=0.01,
            n_days=5,
            seed=7,
            altruist_fraction=0.05,
            altruist_join_day=2.0,
            faults="crash:epoch=30:count=2",
            check_invariants=True,
            # The trace's ``invariant_checked`` events carry the number of
            # checks run, and the digest was recorded with four, so the
            # scenario names four.  ``membership-columns-consistent`` stands
            # in for a check of a mirror -> owners map the engine no longer
            # keeps.  Every invariant is covered by tests/sim/test_invariants.py.
            invariant_names=(
                "announced-mirrors-stored",
                "membership-columns-consistent",
                "replica-count-meets-target",
                "storage-within-capacity",
            ),
        ),
    ),
    (
        "arch_superpeer_dht",
        dict(
            dataset="facebook",
            scale=0.008,
            n_days=4,
            seed=9,
            architecture="superpeer",
            measure_dht=True,
        ),
    ),
    (
        "adverse_blacklisting",
        dict(
            dataset="facebook",
            scale=0.005,
            n_days=3,
            seed=5,
            departure_fraction=0.2,
            departure_day=1.5,
            slander_fraction=0.1,
            sybil_fraction=0.5,
            repair=True,
        ),
    ),
    (
        "ties_capacity_report_faults",
        dict(
            dataset="facebook",
            scale=0.01,
            n_days=5,
            seed=13,
            use_tie_strength=True,
            mirror_request_capacity=3,
            slander_fraction=0.05,
            faults="reorder:from_epoch=24;stale_reports:rate=0.5:from_epoch=24",
        ),
    ),
    (
        "by_cap_normalization",
        dict(
            dataset="facebook",
            scale=0.01,
            n_days=4,
            seed=17,
            soup=SoupConfig(experience_normalization="by_cap"),
        ),
    ),
    (
        "arch_cache",
        dict(
            dataset="facebook",
            scale=0.01,
            n_days=4,
            seed=19,
            architecture="cache",
        ),
    ),
    (
        "traitors_repair",
        dict(
            dataset="facebook",
            scale=0.01,
            n_days=5,
            seed=23,
            traitor_fraction=0.05,
            betrayal_day=3.0,
            repair=True,
        ),
    ),
]


def _run(overrides, trace_path):
    config = ScenarioConfig(**overrides)
    graph = generate_dataset(
        config.dataset, scale=config.scale, seed=config.seed
    )
    tracer = Tracer.to_path(str(trace_path))
    set_tracer(tracer)
    try:
        simulation = SoupSimulation(graph, config)
        simulation.run()
        return simulation
    finally:
        set_tracer(None)
        tracer.close()


def _digests(result, trace_path):
    result_json = json.dumps(
        result.to_json_dict(include_derived=True), sort_keys=True
    )
    return {
        "result_sha256": hashlib.sha256(result_json.encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "blacklisted_owner_count": result.blacklisted_owner_count,
    }


@pytest.mark.parametrize(
    "name,overrides", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
def test_run_reproduces_golden_digests(name, overrides, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    trace_path = tmp_path / "trace.jsonl"
    simulation = _run(overrides, trace_path)
    found = _digests(simulation.result, trace_path)
    if invariants.FORCE_CHECKS and not overrides.get("check_invariants"):
        # ``pytest --check-invariants`` turns the checker on in every run,
        # which adds one ``invariant_checked`` event per epoch to the
        # trace; the result must still match.
        del expected["trace_sha256"], found["trace_sha256"]
    assert found == expected
    # The engine's nodes share MirrorManager's replication state, so they
    # must keep its local invariants too.
    last_epoch = simulation.config.n_epochs - 1
    assert [
        violation
        for node in simulation.nodes
        for violation in invariants.mirror_manager_violations(node, last_epoch)
    ] == []


def test_adversarial_golden_scenario_really_blacklists():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["adverse_blacklisting"]["blacklisted_owner_count"] > 0


def _record() -> None:
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in SCENARIOS:
            trace_path = Path(tmp) / f"{name}.jsonl"
            golden[name] = _digests(_run(overrides, trace_path).result, trace_path)
            print(name, golden[name], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.sim.test_golden_digests --record")
    _record()
