"""A systematic (n, k) Reed-Solomon code over GF(2^8).

Maximum distance separable: any k of the n fragments reconstruct the
original data, exactly the property the paper's "large profiles" extension
needs (Sec. 8, citing [34, 35]).

Construction: the encoding matrix is the k×k identity stacked on top of
(n-k) rows of a Cauchy-style matrix of distinct evaluation points, which
keeps every k×k submatrix invertible.  Fragments carry their row index;
decoding inverts the k rows that survived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from benchmarks.coding.gf256 import GF256, gf_matrix_invert, gf_matrix_multiply


class ReedSolomonError(Exception):
    """Raised on invalid parameters or insufficient fragments."""


@dataclass(frozen=True)
class Fragment:
    """One coded fragment: its row index and payload bytes."""

    index: int
    data: bytes


def _build_cauchy_rows(n: int, k: int) -> List[List[int]]:
    """(n-k) parity rows of a Cauchy matrix: entry 1/(x_i + y_j).

    With distinct x over the parity rows and distinct y over the data
    columns (and x ∩ y = ∅), every square submatrix of a Cauchy matrix is
    nonsingular — combined with the identity top, any k rows of the full
    encoding matrix are invertible.
    """
    xs = [k + i for i in range(n - k)]
    ys = list(range(k))
    rows = []
    for x in xs:
        rows.append([GF256.inverse(x ^ y) for y in ys])
    return rows


class ReedSolomonCode:
    """Encoder/decoder for one (n, k) parameter choice."""

    def __init__(self, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ReedSolomonError(f"need 1 <= k <= n, got n={n} k={k}")
        if n >= GF256.ORDER:
            raise ReedSolomonError(f"n must be < 256, got {n}")
        self.n = n
        self.k = k
        identity = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        self._matrix = identity + _build_cauchy_rows(n, k)

    @property
    def storage_overhead(self) -> float:
        """Total stored bytes relative to the original data (n/k)."""
        return self.n / self.k

    # ------------------------------------------------------------------
    def _split(self, data: bytes) -> List[List[int]]:
        """Split data into k equal pieces (zero-padded), as byte columns."""
        piece_length = (len(data) + self.k - 1) // self.k
        piece_length = max(piece_length, 1)
        padded = data.ljust(self.k * piece_length, b"\x00")
        return [
            list(padded[i * piece_length : (i + 1) * piece_length])
            for i in range(self.k)
        ]

    def encode(self, data: bytes) -> List[Fragment]:
        """Encode ``data`` into n fragments (the first k are systematic)."""
        pieces = self._split(data)
        coded = gf_matrix_multiply(self._matrix, pieces)
        return [Fragment(index=i, data=bytes(row)) for i, row in enumerate(coded)]

    def decode(self, fragments: Sequence[Fragment], original_length: int) -> bytes:
        """Reconstruct the original data from any k distinct fragments."""
        unique: Dict[int, Fragment] = {}
        for fragment in fragments:
            if not 0 <= fragment.index < self.n:
                raise ReedSolomonError(f"fragment index {fragment.index} out of range")
            unique.setdefault(fragment.index, fragment)
        if len(unique) < self.k:
            raise ReedSolomonError(
                f"need {self.k} distinct fragments, got {len(unique)}"
            )
        chosen = [unique[index] for index in sorted(unique)][: self.k]
        lengths = {len(fragment.data) for fragment in chosen}
        if len(lengths) != 1:
            raise ReedSolomonError("fragments have inconsistent lengths")

        submatrix = [list(self._matrix[fragment.index]) for fragment in chosen]
        inverse = gf_matrix_invert(submatrix)
        coded_rows = [list(fragment.data) for fragment in chosen]
        pieces = gf_matrix_multiply(inverse, coded_rows)
        data = b"".join(bytes(piece) for piece in pieces)
        if original_length > len(data):
            raise ReedSolomonError("original_length exceeds reconstructed data")
        return data[:original_length]
