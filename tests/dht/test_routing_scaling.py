"""A routing step must not scan the leaf set; a join must not scan the ring
once per stored entry.

Deterministic guards (Python call counts via ``sys.setprofile``, no timing).
One route inside the leaf range used to cost O(l) calls per hop (``covers``
looped over the members, ``closest_to`` ran ``min`` over a lambda: 125 calls
at ``LEAF_HALF_SIZE`` 8, 797 at 64, in the scenario below), and one join
used to call the O(N) ``_responsible_node`` for every entry stored anywhere
(84,839 calls for the 200th join, 1,294,700 for the 800th: cubic in total).
With the sorted-ring index a route costs the same at any leaf-set size (25
calls), and a join grows with the population only through
``_repair_leaf_sets`` visiting every node (5,106 and 17,846 calls).

A route the ring has already computed since its last change is answered
from the overlay's memo: no routing step at all (6 calls against 25 for
the same two-hop route computed), and the memo never holds more than
``ROUTE_MEMO_ENTRIES`` routes however many distinct ones are asked for.
"""

import random
import sys

from repro.dht import pastry
from repro.dht.pastry import ROUTE_MEMO_ENTRIES, PastryOverlay
from repro.dht.storage import DirectoryEntry


def _python_calls(fn, names=None) -> int:
    """Python-level calls ``fn`` makes; their names go to ``names``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if names is not None:
                names.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _ring(size: int):
    rng = random.Random(3)
    ids = sorted(rng.getrandbits(64) for _ in range(size))
    overlay = PastryOverlay()
    for index, node_id in enumerate(ids):
        overlay.join(node_id, ids[0] if index else None)
    return overlay, ids, rng


def _calls_of_one_leaf_range_route() -> int:
    overlay, ids, _ = _ring(160)
    start, target = ids[40], ids[43]
    key = target + 1
    assert overlay._nodes[start].leaf_set.covers(key)
    assert len(overlay._nodes[start].leaf_set) == 2 * pastry.LEAF_HALF_SIZE
    result = []
    calls = _python_calls(lambda: result.append(overlay.route(start, key)))
    assert result[0].path == [start, target]
    return calls


def test_route_cost_independent_of_leaf_set_size(monkeypatch):
    monkeypatch.setattr(pastry, "LEAF_HALF_SIZE", 8)
    small = _calls_of_one_leaf_range_route()
    monkeypatch.setattr(pastry, "LEAF_HALF_SIZE", 64)
    large = _calls_of_one_leaf_range_route()
    assert large < 1.5 * small, (small, large)


def test_join_cost_grows_no_faster_than_the_population():
    rng = random.Random(5)
    overlay = PastryOverlay()
    first = None
    calls_at = {}
    for count in range(1, 801):
        node_id = rng.getrandbits(64)
        if count in (200, 800):
            calls_at[count] = _python_calls(lambda: overlay.join(node_id, first))
        else:
            overlay.join(node_id, first)
        first = first if first is not None else node_id
        key = rng.getrandbits(64)
        overlay.publish(node_id, key, DirectoryEntry(soup_id=key))
    assert overlay.misplaced_entries() == []
    assert calls_at[800] < 4.5 * calls_at[200], calls_at



def test_repeated_route_takes_no_routing_step():
    overlay, ids, rng = _ring(160)
    start = ids[0]
    key = rng.getrandbits(64)
    while overlay.route(start, key).hops < 2:
        key = rng.getrandbits(64)
    first = overlay.route(start, key)
    names = []
    repeated = []
    calls = _python_calls(lambda: repeated.append(overlay.route(start, key)), names)
    assert "_next_hop" not in names and "_route" not in names, names
    assert calls <= 8, names
    assert repeated[0] is not first and repeated[0] == first


def test_route_memo_stays_within_its_bound():
    overlay, ids, rng = _ring(32)
    start = ids[0]
    for _ in range(ROUTE_MEMO_ENTRIES + 100):
        overlay.route(start, rng.getrandbits(64))
    assert 0 < len(overlay._route_memo) <= ROUTE_MEMO_ENTRIES
    # Emptied when full, not switched off: the newest route is remembered.
    key = rng.getrandbits(64)
    overlay.route(start, key)
    names = []
    _python_calls(lambda: overlay.route(start, key), names)
    assert "_next_hop" not in names, names
