"""Mobile-friendly SOUP: phones relaying through a gateway.

Demonstrates Sec. 3.3 and the Sec. 7 mobile findings: mobile nodes stay
off the DHT (their publish/lookup operations relay through a gateway),
never mirror for others by default, and still get full data availability
because their data is mirrored at desktop nodes.

Run with:  python examples/mobile_social_app.py
"""

import random

from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem


def main() -> None:
    loop = EventLoop()
    network = SimNetwork(loop)
    cluster = Cluster(network, random.Random(0))
    nodes, overlay = cluster.nodes, cluster.overlay

    gateway = cluster.add("gateway", seed=1)
    desktops = [cluster.add(f"desktop{i}", seed=10 + i) for i in range(8)]
    phone = cluster.add("phone", seed=42, is_mobile=True)
    cluster.join_all()  # the phone relays through the gateway
    print(f"phone joined via gateway; in overlay: {phone.node_id in overlay}")

    for node in desktops + [gateway]:
        phone.contact(node.node_id)
        node.contact(phone.node_id)

    # The phone shares a photo and replicates its profile — only to
    # desktops (mobile mirroring is disabled by default, saving battery).
    phone.post_item(DataItem.photo(120_000, created_at=loop.now))
    mirrors = phone.run_selection_round()
    loop.run_until(loop.now + 10)
    print(f"phone's mirrors: {[nodes[m].name for m in mirrors]}")
    assert all(not nodes[m].is_mobile for m in mirrors)

    # Lookups relay through the gateway; the relay traffic is metered on
    # the gateway's control link (Fig. 14a's mobile-relay cost).
    for desktop in desktops:
        phone.lookup_user(desktop.node_id)
    relay = network.control_meter(gateway.node_id)
    print(f"gateway relay traffic: {relay.total_sent()/1024:.1f} KB sent, "
          f"{relay.total_received()/1024:.1f} KB received")

    # The phone disconnects (high mobile churn) — its data stays up.
    phone.go_offline()
    reader = desktops[0]
    reader.befriend(gateway.node_id)  # unrelated action keeps network lively
    fetched = reader.request_profile(phone.node_id)
    print(f"phone offline; desktop fetched the phone's profile from a mirror: {fetched}")

    # Messages sent meanwhile are buffered and delivered on reconnect.
    reader.send_message(phone.node_id, "saw your photo!")
    loop.run_until(loop.now + 5)
    phone.go_online()
    loop.run_until(loop.now + 5)
    inbox = [
        (o.payload or {}).get("text") for o in phone.applications.messages_received()
    ]
    print(f"phone reconnected; inbox: {inbox}")


if __name__ == "__main__":
    main()
