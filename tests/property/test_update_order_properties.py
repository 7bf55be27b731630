"""Property-based tests for the ordered update containers.

``UpdateLog`` and ``UpdateBuffer`` keep their updates in order by insertion
(append in the steady case, a binary search for a late arrival).  The
oracles below are what they did before that: append, then re-sort the whole
log with the ordering key (``UpdateLog``), or scan for duplicates and evict
the minimum (``UpdateBuffer``).  Under any arrival order, duplicates and cap
overflow the two must agree entry for entry.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.node import devices, sync
from repro.node.devices import UpdateLog
from repro.node.sync import PendingUpdate, UpdateBuffer


def _order(update):
    return (update.timestamp, update.origin_id, update.sequence)


class SortPerAppendLog:
    """The log as it was: sort on every append, drop from the front."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.entries = []
        self.keys = set()

    def append(self, update):
        key = (update.origin_id, update.sequence)
        if key in self.keys:
            return False
        self.entries.append(update)
        self.keys.add(key)
        self.entries.sort(key=_order)
        while len(self.entries) > self.max_entries:
            evicted = self.entries.pop(0)
            self.keys.discard((evicted.origin_id, evicted.sequence))
        return True


class ScanAndEvictBuffer:
    """The buffer as it was: linear dedup scan, evict the minimum."""

    def __init__(self, max_per_target):
        self.max_per_target = max_per_target
        self.queues = {}
        self.dropped = 0

    def add(self, update):
        queue = self.queues.setdefault(update.target_id, [])
        if any(
            u.origin_id == update.origin_id and u.sequence == update.sequence
            for u in queue
        ):
            return
        queue.append(update)
        if self.max_per_target is not None and len(queue) > self.max_per_target:
            queue.remove(min(queue, key=_order))
            self.dropped += 1

    def pending_for(self, target_id):
        return sorted(self.queues.get(target_id, []), key=_order)


# Small ranges on purpose: collisions of timestamp, origin and sequence are
# the interesting cases (ties, duplicates, re-adding an evicted update).
updates_strategy = st.lists(
    st.builds(
        PendingUpdate,
        target_id=st.integers(1, 2),
        origin_id=st.integers(1, 3),
        timestamp=st.one_of(
            st.integers(0, 6).map(float),
            st.floats(0.0, 6.0, allow_nan=False),
        ),
        sequence=st.integers(0, 8),
        payload=st.none(),
    ),
    max_size=60,
)


@given(updates=updates_strategy, cap=st.integers(1, 8))
def test_update_log_equals_sort_per_append(updates, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(devices, "UPDATE_LOG_ENTRIES", cap)
        log, oracle = UpdateLog(), SortPerAppendLog(cap)
        for update in updates:
            assert log.append(update) == oracle.append(update)
            assert log.entries() == oracle.entries
            assert len(log) == len(oracle.entries)
    assert log.size_bytes() == sum(u.size_bytes for u in oracle.entries)


@given(updates=updates_strategy, cap=st.integers(1, 8))
def test_update_buffer_equals_scan_and_evict(updates, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sync, "UPDATE_BUFFER_PER_TARGET", cap)
        buffer, oracle = UpdateBuffer(), ScanAndEvictBuffer(cap)
        for update in updates:
            buffer.add(update)
            oracle.add(update)
            for target in (1, 2):
                assert buffer.pending_for(target) == oracle.pending_for(target)
                assert buffer.pending_count(target) == len(oracle.pending_for(target))
    assert buffer.dropped_updates == oracle.dropped
    assert buffer.pending_count() == sum(len(q) for q in oracle.queues.values())
    collected = buffer.collect(1)
    assert collected == oracle.pending_for(1)
    assert buffer.pending_count(1) == 0
