"""A routing step must not scan the leaf set; a join must not scan the ring
once per stored entry.

Deterministic guards (Python call counts via ``sys.setprofile``, no timing).
One route inside the leaf range used to cost O(l) calls per hop (``covers``
looped over the members, ``closest_to`` ran ``min`` over a lambda: 125 calls
at ``leaf_half_size`` 8, 797 at 64, in the scenario below), and one join
used to call the O(N) ``_responsible_node`` for every entry stored anywhere
(84,839 calls for the 200th join, 1,294,700 for the 800th: cubic in total).
With the sorted-ring index a route costs the same at any leaf-set size (25
calls), and a join grows with the population only through
``_repair_leaf_sets`` visiting every node (5,106 and 17,846 calls).
"""

import random
import sys

from repro.dht.pastry import PastryOverlay
from repro.dht.storage import DirectoryEntry


def _python_calls(fn) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _calls_of_one_leaf_range_route(leaf_half_size: int) -> int:
    rng = random.Random(3)
    ids = sorted(rng.getrandbits(64) for _ in range(160))
    overlay = PastryOverlay(leaf_half_size=leaf_half_size)
    for index, node_id in enumerate(ids):
        overlay.join(node_id, ids[0] if index else None)
    start, target = ids[40], ids[43]
    key = target + 1
    assert overlay._nodes[start].leaf_set.covers(key)
    assert len(overlay._nodes[start].leaf_set) == 2 * leaf_half_size
    result = []
    calls = _python_calls(lambda: result.append(overlay.route(start, key)))
    assert result[0].path == [start, target]
    return calls


def test_route_cost_independent_of_leaf_set_size():
    small = _calls_of_one_leaf_range_route(8)
    large = _calls_of_one_leaf_range_route(64)
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

