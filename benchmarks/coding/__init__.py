"""Erasure coding for large profiles (paper Sec. 8, "Large profiles").

The paper proposes distributing large profiles as coded fragments instead
of full replicas: "a file f can be split into k equally sized (f/k)
pieces, which are in turn encoded into n fragments using an (n, k) maximum
distance separable code. After distributing the fragments to n nodes, it
is possible to obtain the complete information from k encoded fragments."

This package holds the codec and the availability maths of that extension.
It lives beside its only users, ``benchmarks/test_extension_coding.py``,
its tests and ``examples/large_profiles.py``: the middleware replicates
whole profiles, and no run-time path under ``src/`` encodes or decodes a
fragment.  It moves back into the library when a coded replica carries
bytes.

* :mod:`benchmarks.coding.gf256` — arithmetic in GF(2^8) (the field every
  practical storage code uses), with log/antilog tables.
* :mod:`benchmarks.coding.reed_solomon` — a systematic (n, k)
  Reed-Solomon MDS code over GF(2^8): encode into n fragments, reconstruct
  from any k.
* :mod:`benchmarks.coding.fragments` — availability semantics ("data
  available iff ≥ k fragment holders online") and the full-replication
  count that meets the same target.
"""

from benchmarks.coding.gf256 import GF256
from benchmarks.coding.reed_solomon import ReedSolomonCode, ReedSolomonError

__all__ = [
    "GF256",
    "ReedSolomonCode",
    "ReedSolomonError",
]
