"""Large profiles with erasure coding (the Sec. 8 extension).

A power user's profile (tens of MB of photo albums and a video) burdens
every mirror with the full copy under plain replication.  The paper's
proposal: split the profile into k pieces, encode them into n Reed-Solomon
fragments, and let each mirror store one fragment — any k of them
reconstruct the data.

The middleware replicates whole profiles; this example shows the codec on
real bytes and the availability maths the extension benchmark uses.  The
codec lives beside that benchmark, in ``benchmarks/coding``.

Run with:  PYTHONPATH=src:. python examples/large_profiles.py
"""

from benchmarks.coding import ReedSolomonCode
from benchmarks.coding.fragments import (
    availability_probability,
    equivalent_full_replication,
)


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

    # --- availability maths: any k of n holders suffice -----------------
    profile_mb = 29.2
    holder_p = [0.7] * code.n
    coded = availability_probability(holder_p, code.k)
    print(f"\nwith mirrors online 70% of the time: "
          f"P(profile available) = {coded:.3f} "
          f"(needs only {code.k} of {code.n} fragment holders)")
    print(f"per-mirror burden: {profile_mb / code.k:.1f} MB "
          f"(vs {profile_mb:.1f} MB under full replication)")
    replicas = equivalent_full_replication(holder_p, epsilon=1 - coded)
    print(f"full replication at the same availability: {replicas} replicas, "
          f"{replicas * profile_mb:.1f} MB stored "
          f"(coded: {profile_mb * code.storage_overhead:.1f} MB)")


if __name__ == "__main__":
    main()
