"""Tests for mobile gateway switching (Sec. 3.3) and object verification
hardening (Sec. 3.4)."""

import pytest

from repro.core.objects import ObjectType, SoupObject


@pytest.fixture()
def world(cluster):
    def make(name, seed, mobile=False, relay_limit=4):
        return cluster.add(
            name, seed=seed, is_mobile=mobile, mobile_relay_limit=relay_limit
        )

    boot = make("boot", 1)
    cluster.join_all()
    return cluster.network.loop, cluster.network, cluster.nodes, make, boot


class TestGatewaySwitching:
    def test_mobile_switches_away_from_bootstrap(self, world):
        loop, network, nodes, make, boot = world
        regular = make("regular", 10)
        regular.join()
        phone = make("phone", 20, mobile=True)
        phone.join(bootstrap_id=boot.node_id)
        assert phone.interface.gateway_id == boot.node_id

        phone.contact(regular.node_id)
        assert phone.interface.gateway_id == regular.node_id
        assert phone.node_id in regular.relayed_mobiles

    def test_relay_limit_respected(self, world):
        loop, network, nodes, make, boot = world
        regular = make("regular", 10, relay_limit=1)
        regular.join()
        phones = [make(f"phone{i}", 20 + i, mobile=True) for i in range(3)]
        for phone in phones:
            phone.join(bootstrap_id=boot.node_id)
            phone.contact(regular.node_id)
        switched = [p for p in phones if p.interface.gateway_id == regular.node_id]
        assert len(switched) == 1
        assert len(regular.relayed_mobiles) == 1

    def test_no_switch_between_non_bootstrap_gateways(self, world):
        loop, network, nodes, make, boot = world
        a = make("a", 10)
        b = make("b", 11)
        a.join()
        b.join()
        phone = make("phone", 20, mobile=True)
        phone.join(bootstrap_id=boot.node_id)
        phone.contact(a.node_id)
        assert phone.interface.gateway_id == a.node_id
        phone.contact(b.node_id)  # already has a regular gateway: stay
        assert phone.interface.gateway_id == a.node_id

    def test_mobile_never_becomes_gateway(self, world):
        loop, network, nodes, make, boot = world
        phone_a = make("phoneA", 20, mobile=True)
        phone_b = make("phoneB", 21, mobile=True)
        phone_a.join(bootstrap_id=boot.node_id)
        phone_b.join(bootstrap_id=boot.node_id)
        phone_a.contact(phone_b.node_id)
        assert phone_a.interface.gateway_id == boot.node_id

    def test_fallback_when_gateway_dies(self, world):
        loop, network, nodes, make, boot = world
        regular = make("regular", 10)
        regular.join()
        phone = make("phone", 20, mobile=True)
        phone.join(bootstrap_id=boot.node_id)
        phone.contact(regular.node_id)
        assert phone.interface.gateway_id == regular.node_id

        regular.go_offline()
        entry = phone.lookup_user(boot.node_id)  # triggers the fallback
        assert entry is not None
        assert phone.interface.gateway_id == boot.node_id


class TestObjectVerification:
    def test_legit_message_delivered(self, world):
        loop, network, nodes, make, boot = world
        a = make("a", 10)
        b = make("b", 11)
        a.join()
        b.join()
        assert a.send_message(b.node_id, "hello")
        loop.run_until(loop.now + 5)
        assert len(b.applications.messages_received()) == 1
        assert b.dropped_objects == 0

    def test_unsigned_message_discarded(self, world):
        loop, network, nodes, make, boot = world
        a = make("a", 10)
        b = make("b", 11)
        a.join()
        b.join()
        forged = SoupObject(
            source=a.node_id, dest=b.node_id, object_type=ObjectType.MESSAGE,
            payload={"text": "unsigned"},
        )
        network.send(a.node_id, b.node_id, forged, forged.size_bytes())
        loop.run_until(loop.now + 5)
        assert b.applications.messages_received() == []
        assert b.dropped_objects == 1

    def test_spoofed_source_discarded(self, world):
        loop, network, nodes, make, boot = world
        a = make("a", 10)
        b = make("b", 11)
        mallory = make("mallory", 66)
        for node in (a, b, mallory):
            node.join()
        # Mallory signs with her key but claims the object came from a.
        spoof = SoupObject(
            source=a.node_id, dest=b.node_id, object_type=ObjectType.MESSAGE,
            payload={"text": "trust me, I'm a"},
        )
        mallory.security.sign_object(spoof)
        network.send(mallory.node_id, b.node_id, spoof, spoof.size_bytes())
        loop.run_until(loop.now + 5)
        assert b.applications.messages_received() == []
        assert b.dropped_objects == 1

    def test_tampered_payload_discarded(self, world):
        loop, network, nodes, make, boot = world
        a = make("a", 10)
        b = make("b", 11)
        a.join()
        b.join()
        obj = a.applications.encapsulate(
            b.node_id, ObjectType.MESSAGE, {"text": "original"}, 0.0
        )
        a.security.sign_object(obj)
        obj.payload = {"text": "tampered in flight"}
        network.send(a.node_id, b.node_id, obj, obj.size_bytes())
        loop.run_until(loop.now + 5)
        assert b.applications.messages_received() == []
        assert b.dropped_objects == 1
