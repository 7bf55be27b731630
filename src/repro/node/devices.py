"""Multi-device synchronization (paper Sec. 3.5).

"Hereby, all mirrors always present the most recent user data if they are
online, which also enables the data owner to synchronize different
personal devices."  A user runs SOUP on several devices (desktop, laptop,
phone) sharing one identity; whichever device is active posts updates,
the mirrors retain them in a bounded per-owner log, and any other device
replays the log when it comes online — idempotently, in timestamp order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.node.profile import DataItem, Profile
from repro.node.sync import (
    OrderedUpdates,
    PendingUpdate,
    update_id,
    update_order,
)

UpdateKey = Tuple[int, int]  # (origin id, sequence)

#: Updates a mirror retains per owner for device replay.
UPDATE_LOG_ENTRIES = 500


class UpdateLog:
    """A mirror's bounded, ordered log of one owner's updates.

    Unlike the offline-message buffer (which is drained on collection),
    the log is *retained* so that any number of devices can replay it;
    old entries are pruned by count (:data:`UPDATE_LOG_ENTRIES`).
    """

    def __init__(self) -> None:
        self._updates = OrderedUpdates()

    def append(self, update: PendingUpdate) -> bool:
        """Add an update; duplicates (same origin+sequence) are ignored."""
        if not self._updates.insert(update):
            return False
        if len(self._updates) > UPDATE_LOG_ENTRIES:
            self._updates.pop_oldest()
        return True

    def entries(self) -> List[PendingUpdate]:
        return self._updates.entries()

    def size_bytes(self) -> int:
        return sum(update.size_bytes for update in self._updates)

    def __len__(self) -> int:
        return len(self._updates)


@dataclass
class DeviceReplica:
    """One device's local copy of the user's data."""

    device_name: str
    owner_id: int
    profile: Profile = None
    _applied: Set[UpdateKey] = field(default_factory=set)
    applied_updates: List[PendingUpdate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.profile is None:
            self.profile = Profile(owner_id=self.owner_id)

    def record_local(self, update: PendingUpdate) -> None:
        """Mark a locally produced update as already applied."""
        self._applied.add(update_id(update))
        self.applied_updates.append(update)

    def apply(self, updates: Iterable[PendingUpdate]) -> List[PendingUpdate]:
        """Apply foreign updates in order; returns the newly applied ones."""
        fresh = [u for u in updates if update_id(u) not in self._applied]
        fresh.sort(key=update_order)
        for update in fresh:
            self._applied.add(update_id(update))
            self.applied_updates.append(update)
            payload = update.payload if isinstance(update.payload, dict) else {}
            if payload.get("action") == "post_item":
                self.profile.add_item(
                    DataItem(
                        item_id=payload["item_id"],
                        kind=payload.get("kind", "text"),
                        size_bytes=payload.get("size", 0),
                        created_at=update.timestamp,
                    )
                )
        return fresh

    @property
    def item_count(self) -> int:
        return len(self.profile)


class DeviceGroup:
    """All devices of one user, kept consistent through the mirrors."""

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._devices: Dict[str, DeviceReplica] = {}

    def attach(self, device_name: str) -> DeviceReplica:
        if device_name in self._devices:
            raise ValueError(f"device {device_name!r} already attached")
        device = DeviceReplica(device_name=device_name, owner_id=self.owner_id)
        self._devices[device_name] = device
        return device

    def device(self, device_name: str) -> DeviceReplica:
        try:
            return self._devices[device_name]
        except KeyError:
            raise LookupError(f"no device {device_name!r}") from None

    def devices(self) -> List[str]:
        return sorted(self._devices)

    def in_sync(self) -> bool:
        """All devices have applied the same update set."""
        applied_sets = [d._applied for d in self._devices.values()]
        return all(s == applied_sets[0] for s in applied_sets[1:])

    def __len__(self) -> int:
        return len(self._devices)
