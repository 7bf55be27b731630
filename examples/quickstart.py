"""Quickstart: a five-minute tour of the SOUP middleware.

Builds a small SOUP network in-process, walks through the paper's core
user story — join, befriend, encrypt + replicate a profile, survive going
offline, receive messages buffered by mirrors — and prints what happens.

Run with:  python examples/quickstart.py
"""

import random

from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem


def main() -> None:
    # --- infrastructure: event loop, metered network; the cluster owns ---
    # --- the Pastry overlay and the bootstrap registry --------------------
    loop = EventLoop()
    network = SimNetwork(loop)
    cluster = Cluster(network, random.Random(0))
    nodes = cluster.nodes

    # --- a bootstrap node plus a handful of users ------------------------
    boot = cluster.add("bootstrap", seed=1)
    alice = cluster.add("alice", seed=2)
    bob = cluster.add("bob", seed=3)
    peers = [cluster.add(f"peer{i}", seed=10 + i) for i in range(6)]
    cluster.join_all()  # the first node bootstraps, the rest join through it
    print(f"bootstrap node up: {boot!r}")
    print(f"{len(nodes)} nodes joined the overlay")

    # Users meet each other (bootstrapping: recommendations flow).
    everyone = [boot, alice, bob] + peers
    for node in everyone:
        for other in everyone:
            if node is not other:
                node.contact(other.node_id)

    # --- friendship: signed handshake + ABE attribute-key exchange --------
    alice.befriend(bob.node_id)
    print(f"alice and bob are friends; bob can decrypt alice's data: "
          f"{bob.security.can_decrypt_from(alice.node_id)}")

    # --- alice posts data and replicates it to mirrors --------------------
    alice.post_item(DataItem.text(4_000, created_at=loop.now))
    alice.post_item(DataItem.photo(80_000, created_at=loop.now))
    mirrors = alice.run_selection_round()
    names = [nodes[m].name for m in mirrors]
    print(f"alice selected {len(mirrors)} mirrors: {names}")
    loop.run_until(loop.now + 10)

    # Mirrors hold ciphertext they cannot read; friends can.
    ciphertext = alice.security.encrypt_replica(b"alice's private post")
    print(f"replica is {len(ciphertext.payload)} bytes of ciphertext "
          f"(policy: {ciphertext.policy.describe()})")
    print(f"bob decrypts it: {bob.security.decrypt_from(alice.node_id, ciphertext)!r}")

    # --- alice goes offline; her data stays available ----------------------
    # Leaving the overlay re-homes the directory entries she stored (her own
    # among them: a node is the closest to its own id), so lookups still work.
    cluster.overlay.leave(alice.node_id)
    alice.go_offline()
    fetched = bob.request_profile(alice.node_id)
    print(f"alice offline; bob fetched her profile from a mirror: {fetched}")

    # Bob messages offline alice; a mirror buffers it (Sec. 3.5).
    bob.send_message(alice.node_id, "ping me when you're back!")
    loop.run_until(loop.now + 5)

    cluster.overlay.join(alice.node_id, boot.node_id)
    alice.go_online()
    loop.run_until(loop.now + 5)
    inbox = [
        (o.payload or {}).get("text") for o in alice.applications.messages_received()
    ]
    print(f"alice returned online and collected her inbox: {inbox}")

    # --- traffic accounting ------------------------------------------------
    meter = network.meters[alice.node_id]
    print(f"alice's traffic: sent {meter.total_sent()/1024:.1f} KB, "
          f"received {meter.total_received()/1024:.1f} KB")


if __name__ == "__main__":
    main()
