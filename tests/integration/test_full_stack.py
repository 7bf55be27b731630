"""End-to-end integration: middleware + DHT + network + crypto together.

Exercises the complete user story of the paper: join, befriend, encrypt and
replicate a profile, go offline, have data served by mirrors, receive
buffered messages on return — across a network that includes mobile nodes.
"""

import pytest

from repro.node.profile import DataItem


def test_full_user_story(cluster):
    loop, nodes = cluster.network.loop, cluster.nodes
    alice = cluster.add("alice", seed=1)
    others = [cluster.add(f"user{i}", seed=10 + i) for i in range(8)]
    cluster.join_all()  # alice, the first regular node, bootstraps the rest
    bob = others[0]
    mallory_free_world = others[1:]

    # Everyone meets everyone (small deployment).
    for node in [alice] + others:
        for other in [alice] + others:
            if node is not other:
                node.contact(other.node_id)

    # Alice and Bob become friends: keys exchanged.
    assert alice.befriend(bob.node_id)
    assert alice.security.can_decrypt_from(bob.node_id)

    # Alice posts data and replicates it.
    alice.post_item(DataItem.text(4000, created_at=loop.now))
    alice.post_item(DataItem.photo(60_000, created_at=loop.now))
    accepted = alice.run_selection_round()
    assert accepted
    loop.run_until(loop.now + 10)

    # The replica is ciphertext at the mirror: Bob (friend) can decrypt it,
    # the mirror itself cannot.
    ciphertext = alice.security.encrypt_replica(b"alice's profile bytes")
    assert bob.security.decrypt_from(alice.node_id, ciphertext) == b"alice's profile bytes"
    mirror = nodes[accepted[0]]
    from repro.crypto.abe import AbeError

    if not mirror.social.is_friend(alice.node_id):
        with pytest.raises(AbeError):
            mirror.security.decrypt_from(alice.node_id, ciphertext)

    # Alice goes offline; Bob still gets her data (from the mirrors).
    alice.go_offline()
    assert bob.request_profile(alice.node_id)

    # Bob messages offline Alice; she finds it on return.
    assert bob.send_message(alice.node_id, "welcome back!")
    loop.run_until(loop.now + 5)
    alice.go_online()
    loop.run_until(loop.now + 5)
    texts = [
        (o.payload or {}).get("text") for o in alice.applications.messages_received()
    ]
    assert "welcome back!" in texts


def test_mobile_user_story(cluster):
    loop, nodes = cluster.network.loop, cluster.nodes
    gateway = cluster.add("gateway", seed=1)
    desktops = [cluster.add(f"d{i}", seed=20 + i) for i in range(5)]
    phone = cluster.add("phone", seed=99, is_mobile=True)
    cluster.join_all()

    for node in desktops + [gateway]:
        phone.contact(node.node_id)
        node.contact(phone.node_id)

    # The phone selects mirrors for its data (but never mirrors others).
    accepted = phone.run_selection_round()
    assert accepted
    assert all(not nodes[m].is_mobile for m in accepted)

    # Lookups work through the gateway relay.
    entry = phone.lookup_user(desktops[0].node_id)
    assert entry is not None

    # The phone's data survives it going offline.
    phone.post_item(DataItem.photo(80_000, created_at=loop.now))
    phone.run_selection_round()
    loop.run_until(loop.now + 10)
    phone.go_offline()
    assert desktops[0].request_profile(phone.node_id)


def test_mirror_churn_recovery(cluster):
    """When mirrors leave, the owner's next round replaces them."""
    loop, nodes = cluster.network.loop, cluster.nodes
    boot = cluster.add("boot", seed=1)
    others = [cluster.add(f"n{i}", seed=30 + i) for i in range(10)]
    cluster.join_all()
    owner = others[0]
    for node in others[1:] + [boot]:
        owner.contact(node.node_id)

    accepted = owner.run_selection_round()
    assert accepted
    # Half the mirrors vanish.
    for mirror_id in accepted[: len(accepted) // 2]:
        nodes[mirror_id].go_offline()
    replacement = owner.run_selection_round()
    online_mirrors = [m for m in replacement if nodes[m].online]
    assert online_mirrors  # data is still hosted somewhere reachable
