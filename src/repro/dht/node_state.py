"""Pastry routing state: routing table and leaf set over 64-bit IDs.

IDs are 64-bit integers (the SOUP ID space) interpreted as 16 hexadecimal
digits, Pastry's ``b = 4`` configuration.  The routing table has one row per
digit position and one column per digit value; the leaf set keeps the
``l/2`` numerically closest nodes on each side of the owner (with
wraparound, as the ID space is a ring).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Set

ID_BITS = 64
ID_DIGITS = 16  # 64 bits / 4 bits per hex digit
_DIGIT_MASK = 0xF
ID_SPACE = 1 << ID_BITS
_HALF_RING = ID_SPACE // 2


def digit_at(node_id: int, position: int) -> int:
    """The ``position``-th hex digit of ``node_id`` (0 = most significant)."""
    if not 0 <= position < ID_DIGITS:
        raise ValueError(f"digit position out of range: {position}")
    shift = 4 * (ID_DIGITS - 1 - position)
    return (node_id >> shift) & _DIGIT_MASK


def shared_prefix_length(a: int, b: int) -> int:
    """Number of leading hex digits two IDs share (16 when equal)."""
    for position in range(ID_DIGITS):
        if digit_at(a, position) != digit_at(b, position):
            return position
    return ID_DIGITS


def ring_distance(a: int, b: int) -> int:
    """Shortest distance between two IDs on the 64-bit ring."""
    d = (a - b) % ID_SPACE
    return d if d <= _HALF_RING else ID_SPACE - d


def closest_on_ring(sorted_ids: Sequence[int], key: int) -> int:
    """The id minimising ``(ring_distance(id, key), id)`` in a non-empty
    ascending sequence: one of the key's two cyclic neighbours."""
    index = bisect_left(sorted_ids, key)
    after = sorted_ids[index % len(sorted_ids)]
    before = sorted_ids[index - 1]
    if (ring_distance(before, key), before) < (ring_distance(after, key), after):
        return before
    return after


class RoutingTable:
    """Pastry prefix-routing table for one node."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._rows: List[List[Optional[int]]] = [
            [None] * 16 for _ in range(ID_DIGITS)
        ]

    def entry(self, row: int, column: int) -> Optional[int]:
        return self._rows[row][column]

    def consider(self, node_id: int) -> bool:
        """Offer a node for inclusion; returns True if the table changed.

        The node lands in the row given by its shared prefix length with the
        owner and the column given by its first differing digit.  Existing
        entries are kept (first-come), matching Pastry's locality-agnostic
        simulation behaviour.
        """
        if node_id == self.owner:
            return False
        row = shared_prefix_length(self.owner, node_id)
        if row >= ID_DIGITS:
            return False
        column = digit_at(node_id, row)
        if self._rows[row][column] is None:
            self._rows[row][column] = node_id
            return True
        return False

    def remove(self, node_id: int) -> None:
        row = shared_prefix_length(self.owner, node_id)
        if row < ID_DIGITS:
            column = digit_at(node_id, row)
            if self._rows[row][column] == node_id:
                self._rows[row][column] = None

    def next_hop(self, key: int) -> Optional[int]:
        """The routing-table hop for ``key``: the entry matching one more
        prefix digit than the owner does."""
        row = shared_prefix_length(self.owner, key)
        if row >= ID_DIGITS:
            return None
        return self._rows[row][digit_at(key, row)]

    def known_nodes(self) -> List[int]:
        return [entry for row in self._rows for entry in row if entry is not None]

    def size(self) -> int:
        return len(self.known_nodes())


class LeafSet:
    """The numerically closest neighbours on the ID ring.

    Pastry keeps the ``l/2`` nearest nodes on *each side* of the owner
    (clockwise successors and counter-clockwise predecessors), not the
    ``l`` nearest by absolute ring distance.  The per-side split matters
    for correctness: it guarantees the immediate neighbour in both
    directions stays in the set, which is what makes leaf-set delivery
    land on the numerically closest node.
    """

    def __init__(self, owner: int, half_size: int = 8) -> None:
        if half_size < 1:
            raise ValueError(f"half_size must be positive, got {half_size}")
        self.owner = owner
        self.half_size = half_size
        self._members: Set[int] = set()
        #: Index over the members, rebuilt on first use after a membership
        #: change and never otherwise: the sorted ring (members + owner)
        #: and how far the set reaches on each side of the owner.
        self._ring: Optional[List[int]] = None
        self._succ_span = 0
        self._pred_span = 0

    def _trim(self) -> None:
        """Keep the ``half_size`` nearest members per side."""
        ordered = sorted(self._members)
        split = bisect_left(ordered, self.owner)
        by_cw = ordered[split:] + ordered[:split]  # nearest successor first
        self._members = set(by_cw[: self.half_size] + by_cw[-self.half_size :])

    def _reindex(self) -> List[int]:
        """Rebuild the ring and the per-side spans.

        Every member counts in the direction it is actually nearer: the
        successor span is the farthest clockwise reach among members no
        farther clockwise than counter-clockwise, the predecessor span the
        farthest counter-clockwise reach among the others.
        """
        owner = self.owner
        succ_span = pred_span = 0
        for member in self._members:
            cw = (member - owner) % ID_SPACE
            if cw <= _HALF_RING:
                if cw > succ_span:
                    succ_span = cw
            elif ID_SPACE - cw > pred_span:
                pred_span = ID_SPACE - cw
        self._succ_span = succ_span
        self._pred_span = pred_span
        self._ring = ring = sorted(self._members | {owner})
        return ring

    def consider(self, node_id: int) -> None:
        """Offer a node; keeps the ``half_size`` nearest per side."""
        if node_id == self.owner or node_id in self._members:
            return
        self._members.add(node_id)
        if len(self._members) > 2 * self.half_size:
            self._trim()
            if node_id not in self._members:
                return  # the newcomer was the one trimmed: nothing changed
        self._ring = None

    def consider_all(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.consider(node_id)

    def remove(self, node_id: int) -> None:
        if node_id in self._members:
            self._members.remove(node_id)
            self._ring = None

    def members(self) -> List[int]:
        return sorted(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def covers(self, key: int) -> bool:
        """Whether ``key`` falls within the leaf set's ring span.

        The span is measured per side: a key is covered when it lies no
        farther clockwise than the farthest successor, or no farther
        counter-clockwise than the farthest predecessor.
        """
        if not self._members:
            return False
        if self._ring is None:
            self._reindex()
        key_cw = (key - self.owner) % ID_SPACE
        return key_cw <= self._succ_span or ID_SPACE - key_cw <= self._pred_span

    def closest_to(self, key: int) -> int:
        """The leaf-set member (or owner) numerically closest to ``key``."""
        return closest_on_ring(self._ring or self._reindex(), key)
