"""Golden deployment digests: the middleware cluster is pinned *across commits*.

``tests/sim`` and ``tests/dht`` pin the epoch engine and the overlay; this
file pins what runs *on top of* them — a cluster of real ``SoupNode``
middleware driven by :class:`~repro.deploy.emulation.Deployment` (each of
the four architectures) and by the sim-backend
:class:`~repro.deploy.live.ResilienceHarness` (kill + partition chaos).
The digests in ``golden_digests.json`` were recorded once (PR 22, at the
parent commit of the cluster-builder refactor) and every later commit must
reproduce them: a change to how nodes are constructed, seeded, joined or
befriended that moves a single counter in either report shows up here.

Each digest is the SHA-256 of the report as canonical JSON (sorted keys).
The harness report's ``latency`` section is wall-clock
(``time.perf_counter`` around each operation) and is removed first;
everything else in it is structural.

An intended behaviour change re-records them, reviewed like any other
golden file::

    PYTHONPATH=src python -m tests.deploy.test_golden_digests --record
"""

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.deploy.emulation import Deployment
from repro.deploy.live import ResilienceConfig, ResilienceHarness

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

DEPLOYMENT = dict(n_desktop=8, n_mobile=2, seed=7)
DEPLOYMENT_RUN = dict(duration_s=300.0, selection_rounds=4)
RESILIENCE = dict(
    n_nodes=12,
    seed=7,
    backend="sim",
    chaos="kill:epoch=2:count=2;partition:epoch=4:heal=6",
    epochs=8,
    epoch_s=0.2,
    load_rps=30.0,
)

#: The architectures whose deployment reports are pinned.  ``peerson`` and
#: ``safebook`` are Table 4's simulator baselines: their deployment runs
#: are checked by ``test_emulation.py`` instead.
DEPLOY_ARCHITECTURES = ("cache", "social_dht", "soup", "superpeer")

CASES = [f"deploy_{name}" for name in DEPLOY_ARCHITECTURES] + [
    "resilience_sim_kill_partition"
]


def _sha256(document) -> str:
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _digest(case: str) -> dict:
    if case.startswith("deploy_"):
        deployment = Deployment(
            architecture=case[len("deploy_"):], **DEPLOYMENT
        )
        report = deployment.run(**DEPLOYMENT_RUN)
        return {
            "report_sha256": _sha256(asdict(report)),
            "friendships": report.friendships,
            "profile_requests": report.profile_requests,
        }
    report = ResilienceHarness(ResilienceConfig(**RESILIENCE)).run()
    del report["latency"]
    return {
        "report_sha256": _sha256(report),
        "acked_updates": report["durability"]["acked_updates"],
        "chaos_events": len(report["chaos"]["events"]),
    }


@pytest.mark.parametrize("case", CASES)
def test_cluster_reproduces_golden_digest(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest(case) == golden[case]


def test_golden_cases_exercise_the_cluster():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    for case in CASES:
        if case.startswith("deploy_"):
            assert golden[case]["friendships"] > 0, case
            assert golden[case]["profile_requests"] > 0, case
    resilience = golden["resilience_sim_kill_partition"]
    assert resilience["acked_updates"] > 0
    assert resilience["chaos_events"] >= 3  # kill, partition, heal


def _record() -> None:
    golden = {}
    for case in CASES:
        golden[case] = _digest(case)
        print(case, golden[case], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.deploy.test_golden_digests --record")
    _record()
