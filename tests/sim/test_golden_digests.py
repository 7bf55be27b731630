"""Golden result/trace digests: behaviour is pinned *across commits*.

``test_equivalence`` compares the two engine modes at one commit, so a
change that moves both modes together passes it.  The digests in
``golden_digests.json`` were recorded once (PR 14, at the parent commit of
the selection-round rewrite) and every later commit must reproduce them in
both engine modes: same result JSON, same trace bytes.
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

from tests.sim.test_equivalence import SCENARIOS as EQUIVALENCE_SCENARIOS
from tests.sim.test_equivalence import _run

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: The equivalence scenarios plus one adversarial run in which protective
#: dropping really blacklists (sybil flooding + slander + mass departure +
#: repair; 451 base nodes + 226 sybils, 3 days).
SCENARIOS = EQUIVALENCE_SCENARIOS + [
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
]


def _digests(overrides, engine_mode, trace_path):
    result = _run(overrides, engine_mode, trace_path=trace_path)
    result_json = json.dumps(
        result.to_json_dict(include_derived=True), sort_keys=True
    )
    return {
        "result_sha256": hashlib.sha256(result_json.encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "blacklisted_owner_count": result.blacklisted_owner_count,
    }


@pytest.mark.parametrize("engine_mode", ["columnar", "reference"])
@pytest.mark.parametrize(
    "name,overrides", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
def test_run_reproduces_golden_digests(name, overrides, engine_mode, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digests(overrides, engine_mode, tmp_path / "trace.jsonl") == golden[name]


def test_adversarial_golden_scenario_really_blacklists():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["adverse_blacklisting"]["blacklisted_owner_count"] > 0


def _record() -> None:
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in SCENARIOS:
            golden[name] = _digests(overrides, "columnar", Path(tmp) / f"{name}.jsonl")
            print(name, golden[name], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.sim.test_golden_digests --record")
    _record()
