"""Tests for update buffering and reconciliation (Sec. 3.5)."""

import copy
import dataclasses
import pickle

import pytest

from repro.node import sync
from repro.node.sync import PendingUpdate, UpdateBuffer


def update(target=1, origin=2, timestamp=0.0, sequence=0, payload="x"):
    return PendingUpdate(
        target_id=target,
        origin_id=origin,
        timestamp=timestamp,
        sequence=sequence,
        payload=payload,
    )


def test_pending_updates_have_slots_and_stay_immutable_and_hashable():
    one = update(sequence=3)
    assert not hasattr(one, "__dict__")
    assert one.size_bytes == 500
    same = PendingUpdate(1, 2, 0.0, 3, "x", 500)
    assert one == same and hash(one) == hash(same) and len({one, same}) == 1
    assert one != update(sequence=4)
    assert repr(one) == (
        "PendingUpdate(target_id=1, origin_id=2, timestamp=0.0, sequence=3, "
        "payload='x', size_bytes=500)"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.sequence = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        del one.payload
    assert one.sequence == 3
    assert pickle.loads(pickle.dumps(one)) == one
    assert copy.copy(one) == one


class TestUpdateBuffer:
    def test_add_and_collect(self):
        buffer = UpdateBuffer()
        buffer.add(update(sequence=1))
        buffer.add(update(sequence=2))
        collected = buffer.collect(1)
        assert len(collected) == 2
        assert buffer.pending_count(1) == 0

    def test_duplicates_deduplicated(self):
        buffer = UpdateBuffer()
        buffer.add(update(sequence=1))
        buffer.add(update(sequence=1))  # same origin+sequence via two paths
        assert buffer.pending_count(1) == 1

    def test_ordering_by_timestamp(self):
        buffer = UpdateBuffer()
        buffer.add(update(timestamp=5.0, sequence=2))
        buffer.add(update(timestamp=1.0, sequence=1))
        ordered = buffer.pending_for(1)
        assert [u.timestamp for u in ordered] == [1.0, 5.0]

    def test_per_target_isolation(self):
        buffer = UpdateBuffer()
        buffer.add(update(target=1, sequence=1))
        buffer.add(update(target=2, sequence=2))
        assert buffer.pending_count(1) == 1
        assert buffer.pending_count() == 2
        buffer.collect(1)
        assert buffer.pending_count(2) == 1


class TestUpdateBufferCap:
    def test_cap_drops_oldest_keeps_newest(self, monkeypatch):
        monkeypatch.setattr(sync, "UPDATE_BUFFER_PER_TARGET", 2)
        buffer = UpdateBuffer()
        buffer.add(update(timestamp=1.0, sequence=1))
        buffer.add(update(timestamp=2.0, sequence=2))
        buffer.add(update(timestamp=3.0, sequence=3))
        pending = buffer.pending_for(1)
        assert [u.timestamp for u in pending] == [2.0, 3.0]
        assert buffer.dropped_updates == 1

    def test_duplicate_does_not_evict(self, monkeypatch):
        monkeypatch.setattr(sync, "UPDATE_BUFFER_PER_TARGET", 2)
        buffer = UpdateBuffer()
        buffer.add(update(timestamp=1.0, sequence=1))
        buffer.add(update(timestamp=2.0, sequence=2))
        buffer.add(update(timestamp=2.0, sequence=2))  # dedup, not overflow
        assert buffer.pending_count(1) == 2
        assert buffer.dropped_updates == 0

    def test_cap_is_per_target(self, monkeypatch):
        monkeypatch.setattr(sync, "UPDATE_BUFFER_PER_TARGET", 1)
        buffer = UpdateBuffer()
        buffer.add(update(target=1, sequence=1))
        buffer.add(update(target=2, sequence=2))
        assert buffer.pending_count(1) == 1
        assert buffer.pending_count(2) == 1
        assert buffer.dropped_updates == 0
