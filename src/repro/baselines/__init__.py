"""Related-work data (paper Sec. 2, Table 1).

``features`` encodes Table 1's DOSN feature matrix.  Table 4's replication
comparison runs PeerSoN and Safebook as architectures of the one engine
(``repro.arch.peerson``, ``repro.arch.safebook``), not from here.
"""

from repro.baselines.features import FEATURES, SYSTEMS, feature_matrix, table1_rows

__all__ = [
    "FEATURES",
    "SYSTEMS",
    "feature_matrix",
    "table1_rows",
]
