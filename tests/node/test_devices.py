"""Tests for multi-device synchronization (Sec. 3.5)."""

import pytest

from repro.node import devices
from repro.node.devices import DeviceGroup, DeviceReplica, UpdateLog
from repro.node.profile import DataItem
from repro.node.sync import PendingUpdate


def update(seq, timestamp=0.0, origin=1, action="post_item", item_id=None):
    payload = {"action": action}
    if action == "post_item":
        payload.update({"item_id": item_id if item_id is not None else seq,
                        "kind": "text", "size": 100})
    return PendingUpdate(
        target_id=1, origin_id=origin, timestamp=timestamp, sequence=seq,
        payload=payload,
    )


class TestUpdateLog:
    def test_append_and_dedup(self):
        log = UpdateLog()
        assert log.append(update(1))
        assert not log.append(update(1))
        assert len(log) == 1

    def test_ordering_by_timestamp(self):
        log = UpdateLog()
        log.append(update(2, timestamp=5.0))
        log.append(update(1, timestamp=1.0))
        assert [u.sequence for u in log.entries()] == [1, 2]

    def test_bounded_retention(self, monkeypatch):
        monkeypatch.setattr(devices, "UPDATE_LOG_ENTRIES", 3)
        log = UpdateLog()
        for seq in range(6):
            log.append(update(seq, timestamp=float(seq)))
        assert len(log) == 3
        assert [u.sequence for u in log.entries()] == [3, 4, 5]


class TestDeviceReplica:
    def test_apply_builds_profile(self):
        replica = DeviceReplica(device_name="laptop", owner_id=1)
        fresh = replica.apply([update(1, item_id=10), update(2, item_id=11)])
        assert len(fresh) == 2
        assert replica.item_count == 2

    def test_apply_idempotent(self):
        replica = DeviceReplica(device_name="laptop", owner_id=1)
        replica.apply([update(1)])
        assert replica.apply([update(1)]) == []
        assert replica.item_count == 1

    def test_local_updates_not_reapplied(self):
        replica = DeviceReplica(device_name="laptop", owner_id=1)
        u = update(1)
        replica.record_local(u)
        assert replica.apply([u]) == []


class TestDeviceGroup:
    def test_attach_and_lookup(self):
        group = DeviceGroup(owner_id=1)
        group.attach("desktop")
        group.attach("phone")
        assert group.devices() == ["desktop", "phone"]
        assert group.device("phone").device_name == "phone"
        with pytest.raises(ValueError):
            group.attach("phone")
        with pytest.raises(LookupError):
            group.device("tablet")

    def test_in_sync_detection(self):
        group = DeviceGroup(owner_id=1)
        a = group.attach("a")
        b = group.attach("b")
        assert group.in_sync()
        a.apply([update(1)])
        assert not group.in_sync()
        b.apply([update(1)])
        assert group.in_sync()


class TestEndToEndDeviceSync:
    @pytest.fixture()
    def world(self, cluster):
        cluster.add("boot", seed=1)
        for i in range(6):
            cluster.add(f"p{i}", seed=10 + i)
        owner = cluster.add("owner", seed=99)
        cluster.join_all()
        for other in cluster.users[:-1]:
            owner.contact(other.node_id)
        owner.run_selection_round()
        loop = cluster.network.loop
        loop.run_until(loop.now + 5)
        return loop, owner

    def test_second_device_catches_up_via_mirrors(self, world):
        loop, owner = world
        owner.attach_device("desktop")
        owner.attach_device("phone")

        # The desktop posts while the phone is "asleep".
        for _ in range(3):
            owner.post_item(DataItem.text(1500, created_at=loop.now), device="desktop")
        loop.run_until(loop.now + 5)

        assert owner.devices.device("phone").item_count == 0
        fresh = owner.sync_device("phone")
        assert len(fresh) == 3
        assert owner.devices.device("phone").item_count == 3
        assert owner.devices.in_sync()

    def test_sync_is_idempotent(self, world):
        loop, owner = world
        owner.attach_device("desktop")
        owner.attach_device("phone")
        owner.post_item(DataItem.photo(50_000, created_at=loop.now), device="desktop")
        loop.run_until(loop.now + 5)
        assert len(owner.sync_device("phone")) == 1
        assert owner.sync_device("phone") == []

    def test_bidirectional_sync(self, world):
        loop, owner = world
        owner.attach_device("desktop")
        owner.attach_device("phone")
        owner.post_item(DataItem.text(1000, created_at=loop.now), device="desktop")
        owner.post_item(DataItem.photo(60_000, created_at=loop.now), device="phone")
        loop.run_until(loop.now + 5)
        owner.sync_device("desktop")
        owner.sync_device("phone")
        assert owner.devices.in_sync()
        assert owner.devices.device("desktop").item_count == 2
        assert owner.devices.device("phone").item_count == 2
