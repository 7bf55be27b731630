"""Golden routing digests: the overlay's behaviour is pinned *across commits*.

Every path the overlay hands out (join routes, plain routes, publish and
lookup routes including the re-routes around dead homes), every entry
transfer churn causes, and every lookup's ``(found, delivered)`` outcome is
folded into one digest per seeded scenario.  ``golden_digests.json`` was
recorded once (PR 15, at the parent commit of the leaf-set/ring index) and
every later commit must reproduce it: an index that picks a different
closest node on a tie, or a leaf set that evicts a different member, shows
up here even when every route still terminates.

The scenarios stay clear of one behaviour on purpose: no lookup needs more
than ``lookup_max_alternates - 1`` re-routes (asserted below), because what
happens at that boundary was a defect at the recording commit (the last
alternate was routed to but never probed) and is pinned by
``tests/dht/test_pastry_liveness.py`` instead.

An intended behaviour change re-records the file, reviewed like any other
golden file::

    PYTHONPATH=src python -m tests.dht.test_golden_digests --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.arch.social import SocialMap, SocialRouting
from repro.dht.node_state import ID_SPACE
from repro.dht import pastry
from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: Ring positions random ids never hit: both ends of the id space, the exact
#: antipode of 0 and its two neighbours (equal-distance ties).
EDGE_IDS = [0, ID_SPACE - 1, 1 << 63, (1 << 63) - 1, (1 << 63) + 1, 1]

SCENARIOS = [
    ("half2_churn", dict(leaf_half_size=2, seed=21)),
    ("half4_churn", dict(leaf_half_size=4, seed=22)),
    ("half8_churn", dict(leaf_half_size=8, seed=23)),
    ("half8_dead_quarter", dict(leaf_half_size=8, seed=24, dead_fraction=0.25)),
    ("half2_dead_quarter", dict(leaf_half_size=2, seed=25, dead_fraction=0.25)),
    ("half4_policy_dead_quarter",
     dict(leaf_half_size=4, seed=26, dead_fraction=0.25, policy=True)),
]

INITIAL_NODES = 40
CHURN_STEPS = 160


def _dead_set(rng, members, fraction):
    """A seeded ``fraction`` of the members, no three ring-neighbours among
    them — a key's home and its first two alternates are never all dead."""
    ordered = sorted(members)
    n = len(ordered)
    while True:
        dead = set(rng.sample(ordered, int(n * fraction)))
        if not any(
            all(ordered[(i + k) % n] in dead for k in range(3)) for i in range(n)
        ):
            return dead


def _run(seed, dead_fraction=0.0, policy=False):
    """Drive one scenario; returns ``(events, summary)``."""
    rng = random.Random(seed)
    overlay = PastryOverlay()
    pool = EDGE_IDS + [rng.getrandbits(64) for _ in range(150)]
    rng.shuffle(pool)
    if policy:
        social = SocialMap()
        for node_id in pool:
            # Shortcuts to ids that may have left or never joined.
            social.register_shortcuts(node_id, rng.sample(pool, 3))
        overlay.set_routing_policy(SocialRouting(social))

    events = []
    members = []
    keys = []
    version = 0

    def some_key():
        roll = rng.random()
        if roll < 0.5 and keys:
            return rng.choice(keys)
        if roll < 0.6:
            return rng.choice(members)
        if roll < 0.7:
            return rng.choice(EDGE_IDS)
        return rng.getrandbits(64)

    def join():
        node_id = pool.pop()
        route = overlay.join(node_id, rng.choice(members) if members else None)
        members.append(node_id)
        events.append(("join", node_id, route.path, route.responsible))

    def publish():
        nonlocal version
        key = some_key()
        version += 1
        route = overlay.publish(
            rng.choice(members), key, DirectoryEntry(soup_id=key, version=version)
        )
        if key not in keys:
            keys.append(key)
        events.append(("publish", key, route.path, route.responsible, route.delivered))

    def lookup(key=None):
        key = some_key() if key is None else key
        before = overlay.lookup_retries
        entry, route = overlay.lookup(rng.choice(members), key)
        assert overlay.lookup_retries - before < overlay.lookup_max_alternates
        events.append((
            "lookup", key, route.path, route.responsible,
            None if entry is None else entry.version, route.delivered,
        ))

    for _ in range(INITIAL_NODES):
        join()
        publish()

    for _ in range(CHURN_STEPS):
        roll = rng.random()
        if roll < 0.20 and pool:
            join()
        elif roll < 0.32 and len(members) > 8:
            victim = members.pop(rng.randrange(len(members)))
            transfers = overlay.leave(victim)
            events.append(("leave", victim, len(transfers)))
        elif roll < 0.40 and len(members) > 8:
            victim = members.pop(rng.randrange(len(members)))
            overlay.fail(victim)
            events.append(("fail", victim))
        elif roll < 0.60:
            publish()
        elif roll < 0.85:
            lookup()
        else:
            key = some_key()
            route = overlay.route(rng.choice(members), key)
            events.append(("route", key, route.path, route.responsible))

    if dead_fraction:
        dead = _dead_set(rng, members, dead_fraction)
        overlay.set_liveness(lambda node_id: node_id not in dead)
        for _ in range(60):
            publish()
    for key in keys:
        lookup(key)

    events.append((
        "transfers",
        [(t.from_node, t.to_node, t.key, t.size_bytes) for t in overlay.transfer_log],
    ))
    events.append(("misplaced", sorted(overlay.misplaced_entries())))
    lookups = [e for e in events if e[0] == "lookup"]
    summary = {
        "events": len(events),
        "transfers": len(overlay.transfer_log),
        "lookups_found": sum(1 for e in lookups if e[4] is not None),
        "lookups_delivered_miss": sum(1 for e in lookups if e[4] is None and e[5]),
        "lookups_undelivered": sum(1 for e in lookups if not e[5]),
        "lookup_retries": overlay.lookup_retries,
        "lookup_alternate_hits": overlay.lookup_alternate_hits,
        "publishes_unreachable": overlay.publishes_unreachable,
    }
    return events, summary


def _digest(params):
    params = dict(params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pastry, "LEAF_HALF_SIZE", params.pop("leaf_half_size"))
        events, summary = _run(**params)
    payload = json.dumps(events, separators=(",", ":"))
    return dict(summary, sha256=hashlib.sha256(payload.encode()).hexdigest())


@pytest.mark.parametrize(
    "name,params", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
def test_overlay_reproduces_golden_digest(name, params):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest(params) == golden[name]


def test_golden_scenarios_exercise_alternates_and_transfers():
    golden = json.loads(GOLDEN_PATH.read_text())
    for name, params in SCENARIOS:
        assert golden[name]["transfers"] > 0, name
        if params.get("dead_fraction"):
            assert golden[name]["lookup_retries"] > 0, name
            assert golden[name]["publishes_unreachable"] > 0, name


def _record() -> None:
    golden = {}
    for name, params in SCENARIOS:
        golden[name] = _digest(params)
        print(name, golden[name], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.dht.test_golden_digests --record")
    _record()
