"""User profiles: the data SOUP replicates.

A profile is a set of data items (posts, messages, photos, videos) with
realistic sizes.  The Sec. 7 measurements inform the size model: "More than
35 % of all items are less than 10 KB in size, and 93 % — including most
images — are less than 100 KB", the average profile is ~10 MB, and large
items (videos, big albums) are rare.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

_item_counter = itertools.count()


@dataclass(slots=True)
class DataItem:
    """One item of user data.

    A node keeps one per post in its profile for as long as it runs, so
    the item has ``__slots__`` instead of an instance dict.
    """

    item_id: int
    kind: str  # "text" | "photo" | "video" | "message"
    size_bytes: int
    created_at: float = 0.0

    @classmethod
    def text(cls, size_bytes: int = 2_000, created_at: float = 0.0) -> "DataItem":
        return cls(next(_item_counter), "text", size_bytes, created_at)

    @classmethod
    def photo(cls, size_bytes: int = 80_000, created_at: float = 0.0) -> "DataItem":
        return cls(next(_item_counter), "photo", size_bytes, created_at)

    @classmethod
    def video(cls, size_bytes: int = 8_000_000, created_at: float = 0.0) -> "DataItem":
        return cls(next(_item_counter), "video", size_bytes, created_at)

    @classmethod
    def message(cls, size_bytes: int = 500, created_at: float = 0.0) -> "DataItem":
        return cls(next(_item_counter), "message", size_bytes, created_at)


def sample_item_size(kind: str, rng: random.Random) -> int:
    """Draw an item size following the Sec. 7 measured distribution."""
    if kind == "message":
        return rng.randint(100, 2_000)
    if kind == "text":
        return rng.randint(500, 10_000)
    if kind == "photo":
        # Most photos under 100 KB, few larger.
        if rng.random() < 0.9:
            return rng.randint(20_000, 100_000)
        return rng.randint(100_000, 1_000_000)
    if kind == "video":
        return rng.randint(2_000_000, 30_000_000)
    raise ValueError(f"unknown item kind {kind!r}")


@dataclass
class Profile:
    """A user's profile: versioned collection of data items."""

    owner_id: int
    items: Dict[int, DataItem] = field(default_factory=dict)
    version: int = 0

    def add_item(self, item: DataItem) -> None:
        self.items[item.item_id] = item
        self.version += 1

    def add_items(self, items: Iterable[DataItem]) -> None:
        for item in items:
            self.add_item(item)

    def remove_item(self, item_id: int) -> bool:
        if item_id in self.items:
            del self.items[item_id]
            self.version += 1
            return True
        return False

    def size_bytes(self) -> int:
        return sum(item.size_bytes for item in self.items.values())

    def items_of_kind(self, kind: str) -> List[DataItem]:
        return [item for item in self.items.values() if item.kind == kind]

    def __len__(self) -> int:
        return len(self.items)
