"""Data synchronization through mirrors (paper Sec. 3.5, Fig. 2).

While a user is offline, updates addressed to her are stored by her mirrors
acting as surrogates.  If a mirror is itself offline, the update is passed
on to *that mirror's* mirrors, so at least one online holder always exists.
On returning online the user collects them: each mirror hands back its
queue ordered by the timestamps in the SOUP objects, and the user keeps the
first copy of each update — which also keeps her devices in sync.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.obs import get_registry, get_tracer

logger = logging.getLogger("repro.node.sync")


@dataclass(frozen=True, slots=True)
class PendingUpdate:
    """One buffered update for an offline user.

    Mirrors and devices hold one per update in their logs, so the update
    has ``__slots__`` instead of an instance dict.  Immutable and
    hashable, compared field by field.
    """

    target_id: int
    origin_id: int
    timestamp: float
    sequence: int
    payload: object
    size_bytes: int = 500


def update_id(update: PendingUpdate) -> Tuple[int, int]:
    """What makes two copies the same update: (origin id, sequence)."""
    return (update.origin_id, update.sequence)


def update_order(update: PendingUpdate) -> Tuple[float, int, int]:
    """The order updates are applied in: by the timestamp in the SOUP
    object, ties broken by origin and sequence so every holder agrees."""
    return (update.timestamp, update.origin_id, update.sequence)


class OrderedUpdates:
    """Updates deduplicated by :func:`update_id` and held in
    :func:`update_order`.

    Updates nearly always arrive in order, so an insert is an append
    after one comparison with the newest entry; only a late arrival pays
    for a binary search.
    """

    __slots__ = ("_entries", "_ids")

    def __init__(self) -> None:
        self._entries: List[PendingUpdate] = []
        self._ids: Set[Tuple[int, int]] = set()

    def insert(self, update: PendingUpdate) -> bool:
        """Add an update; False (and no change) if it is already held."""
        uid = update_id(update)
        if uid in self._ids:
            return False
        self._ids.add(uid)
        entries = self._entries
        if not entries or update_order(entries[-1]) <= update_order(update):
            entries.append(update)
        else:
            insort(entries, update, key=update_order)
        return True

    def pop_oldest(self) -> PendingUpdate:
        oldest = self._entries.pop(0)
        self._ids.discard(update_id(oldest))
        return oldest

    def entries(self) -> List[PendingUpdate]:
        """A copy, oldest first."""
        return list(self._entries)

    def __iter__(self) -> Iterator[PendingUpdate]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: Updates a mirror buffers per offline target before it drops the oldest.
UPDATE_BUFFER_PER_TARGET = 512


class UpdateBuffer:
    """A mirror's surrogate storage of updates for the users it mirrors.

    Each target's queue is bounded by :data:`UPDATE_BUFFER_PER_TARGET`: otherwise one
    flooding origin could grow a mirror's surrogate storage without limit
    (the same resource-exhaustion angle protective dropping guards the
    forwarding path against).  When full, the oldest update is dropped —
    the returning user can still fetch missed history from the origin's
    profile — and ``dropped_updates`` counts the losses.
    """

    def __init__(self) -> None:
        self._pending: Dict[int, OrderedUpdates] = {}
        self.dropped_updates = 0

    def add(self, update: PendingUpdate) -> None:
        queue = self._pending.get(update.target_id)
        if queue is None:
            queue = self._pending[update.target_id] = OrderedUpdates()
        # Idempotent: the same update may arrive via several mirrors.
        if not queue.insert(update):
            return
        if len(queue) > UPDATE_BUFFER_PER_TARGET:
            evicted = queue.pop_oldest()
            self.dropped_updates += 1
            get_registry().counter("sync.updates_dropped").inc()
            logger.debug(
                "update buffer for target %s full: dropped oldest from %s",
                evicted.target_id, evicted.origin_id,
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    "update_dropped",
                    target=evicted.target_id,
                    origin=evicted.origin_id,
                    reason="buffer-full",
                )

    def pending_for(self, target_id: int) -> List[PendingUpdate]:
        """Updates for a returning user, ordered by (timestamp, sequence)."""
        queue = self._pending.get(target_id)
        return queue.entries() if queue is not None else []

    def collect(self, target_id: int) -> List[PendingUpdate]:
        """Hand pending updates to the returning user and clear them."""
        queue = self._pending.pop(target_id, None)
        return queue.entries() if queue is not None else []

    def pending_count(self, target_id: Optional[int] = None) -> int:
        if target_id is not None:
            return len(self._pending.get(target_id, ()))
        return sum(len(queue) for queue in self._pending.values())

