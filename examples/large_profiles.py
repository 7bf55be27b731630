"""Large profiles with erasure coding (the Sec. 8 extension, end to end).

A power user's profile (tens of MB of photo albums and a video) would
burden every mirror with the full copy under plain replication.  With the
coding extension, the profile is split into k pieces, encoded into n
Reed-Solomon fragments, and each mirror stores only one fragment — any k
of them reconstruct the data.

Run with:  python examples/large_profiles.py
"""

import random

from repro.coding import ReedSolomonCode
from repro.coding.fragments import availability_probability
from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.node.profile import DataItem


def main() -> None:
    # --- the codec itself, on real bytes --------------------------------
    code = ReedSolomonCode(n=12, k=6)
    video = bytes(i % 251 for i in range(3_000_000))  # a 3 MB item
    fragments = code.encode(video)
    print(f"encoded 3 MB into {len(fragments)} fragments of "
          f"{len(fragments[0].data) / 1e6:.2f} MB each "
          f"(storage overhead {code.storage_overhead:.1f}x)")
    recovered = code.decode(fragments[3:9], len(video))  # any 6 of 12
    print(f"reconstruction from parity-heavy fragment subset: "
          f"{'OK' if recovered == video else 'FAILED'}")

    # --- the middleware path ------------------------------------------------
    loop = EventLoop()
    network = SimNetwork(loop)
    cluster = Cluster(network, random.Random(0))

    boot = cluster.add("boot", seed=1)
    peers = [cluster.add(f"peer{i}", seed=10 + i) for i in range(10)]
    # A power user with coding enabled above 5 MB.
    owner = cluster.add(
        "power-user", seed=99, coding_k=4, coding_threshold_bytes=5_000_000
    )
    cluster.join_all()
    for other in peers + [boot]:
        owner.contact(other.node_id)

    for _ in range(3):
        owner.post_item(DataItem.photo(400_000, created_at=loop.now))
    owner.post_item(DataItem.video(28_000_000, created_at=loop.now))
    print(f"\npower user's profile: {owner.profile.size_bytes() / 1e6:.1f} MB "
          f"in {len(owner.profile)} items")

    accepted = owner.run_selection_round()
    loop.run_until(loop.now + 120)
    plan = owner.mirror_manager.coded_plan
    print(f"replicated as ({plan.n}, {plan.k}) fragments across "
          f"{len(accepted)} mirrors")
    print(f"per-mirror burden: {plan.fragment_bytes / 1e6:.1f} MB "
          f"(vs {owner.replica_size_bytes() / 1e6:.1f} MB under full replication)")
    print(f"total stored: {plan.stored_bytes / 1e6:.1f} MB "
          f"({plan.storage_overhead:.2f}x the profile)")

    sent = network.meters[owner.node_id].total_sent()
    print(f"owner's upload for distribution: {sent / 1e6:.1f} MB")

    # Availability math: any k of n holders suffice.
    holder_p = [0.4] * plan.n
    print(f"\nwith mirrors online 40% of the time: "
          f"P(profile available) = "
          f"{availability_probability(holder_p, plan.k):.3f} "
          f"(needs only {plan.k} of {plan.n} fragment holders)")

    # Fetch while the owner is offline (it leaves the overlay first, so the
    # directory entry it homed — its own — moves to a neighbour).
    cluster.overlay.leave(owner.node_id)
    owner.go_offline()
    reader = peers[0]
    print(f"owner offline; fetch via fragments succeeded: "
          f"{reader.request_profile(owner.node_id)}")


if __name__ == "__main__":
    main()
