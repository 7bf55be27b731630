"""LRU/TTL read-cache tier over mirrors (Masinde et al. baseline).

Caching structures for P2P social networks keep hot profiles on the
*readers'* side: once a friend's profile has been fetched from a mirror,
subsequent reads within a freshness window are served locally, cutting
mirror load and surviving short mirror-offline windows.  This baseline
implements a per-reader LRU with a TTL:

* A successful mirror fetch inserts ``owner`` into the reader's cache
  stamped with the fetch epoch.
* A later read hits if the entry is younger than
  :data:`CACHE_TTL_EPOCHS` (6); the mirrors are *not* contacted — which
  deliberately starves the experience sets of observations (cached
  reads produce no mirror evidence).  That trade-off is real in any
  cache-over-reputation design, and it is exactly what the head-to-head
  comparison is for.
* The cache holds :data:`CACHE_CAPACITY` (8) owners per reader; insertion
  beyond capacity evicts the least recently used entry.

Availability accounting: an owner counts as available if any reader
holds a fresh cached copy — the cache is an extra serving tier, tracked
through a reverse index so the per-epoch measurement stays vectorized.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List

import numpy as np

from repro.arch.base import Architecture, ReadPathStrategy, register_architecture

#: Owners one reader's cache holds before it evicts the least recently used.
CACHE_CAPACITY = 8
#: Epochs a cached copy stays fresh after its fetch.
CACHE_TTL_EPOCHS = 6


class MirrorReadCache(ReadPathStrategy):
    """Per-reader LRU/TTL cache of recently fetched profiles."""

    name = "cache"

    def __init__(self) -> None:
        #: reader -> OrderedDict(owner -> insert_epoch), LRU order (oldest
        #: use first).
        self._by_reader: Dict[int, "OrderedDict[int, int]"] = {}
        #: owner -> {reader: insert_epoch} — the reverse index the
        #: availability measurement walks.
        self._holders: Dict[int, Dict[int, int]] = {}

        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        self._staleness_sum = 0
        self._staleness_samples = 0

    # ------------------------------------------------------------------
    def _drop(self, reader: int, owner: int) -> None:
        entries = self._by_reader.get(reader)
        if entries is not None:
            entries.pop(owner, None)
        holders = self._holders.get(owner)
        if holders is not None:
            holders.pop(reader, None)
            if not holders:
                del self._holders[owner]

    def try_serve(self, reader: int, owner: int, epoch: int) -> bool:
        entries = self._by_reader.get(reader)
        if entries is None or owner not in entries:
            self.misses += 1
            return False
        inserted = entries[owner]
        if epoch - inserted >= CACHE_TTL_EPOCHS:
            self.expirations += 1
            self.misses += 1
            self._drop(reader, owner)
            return False
        entries.move_to_end(owner)
        self.hits += 1
        self._staleness_sum += epoch - inserted
        self._staleness_samples += 1
        return True

    def on_fetch(self, reader: int, owner: int, epoch: int, success: bool) -> None:
        if not success:
            return
        entries = self._by_reader.setdefault(reader, OrderedDict())
        if owner in entries:
            entries.move_to_end(owner)
        elif len(entries) >= CACHE_CAPACITY:
            evicted, _ = entries.popitem(last=False)
            holders = self._holders.get(evicted)
            if holders is not None:
                holders.pop(reader, None)
                if not holders:
                    del self._holders[evicted]
            self.evictions += 1
        entries[owner] = epoch
        self._holders.setdefault(owner, {})[reader] = epoch

    def invalidate(self, owner: int) -> None:
        holders = self._holders.pop(owner, None)
        if not holders:
            return
        self.invalidations += len(holders)
        for reader in holders:
            entries = self._by_reader.get(reader)
            if entries is not None:
                entries.pop(owner, None)

    # ------------------------------------------------------------------
    def fresh_readers(self, owner: int) -> Iterable[int]:
        return list(self._holders.get(owner, ()))

    def available_owners(self, online_now: np.ndarray, epoch: int) -> List[int]:
        """Owners some *online* reader holds a fresh copy of."""
        served = []
        for owner, holders in self._holders.items():
            for reader, inserted in holders.items():
                if epoch - inserted < CACHE_TTL_EPOCHS and online_now[reader]:
                    served.append(owner)
                    break
        return served

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hits / total if total else 0.0,
            "evictions": float(self.evictions),
            "expirations": float(self.expirations),
            "invalidations": float(self.invalidations),
            "mean_staleness_epochs": (
                self._staleness_sum / self._staleness_samples
                if self._staleness_samples
                else 0.0
            ),
        }


@register_architecture("cache")
def _make_cache() -> Architecture:
    return Architecture(
        name="cache",
        read_path=MirrorReadCache(),
    )
