"""Tests for user profiles and item sizing."""

import random

import pytest

from repro.node.profile import DataItem, Profile, sample_item_size


def test_profile_versioning():
    profile = Profile(owner_id=1)
    assert profile.version == 0
    item = DataItem.photo()
    profile.add_item(item)
    assert profile.version == 1
    profile.remove_item(item.item_id)
    assert profile.version == 2
    assert not profile.remove_item(item.item_id)
    assert profile.version == 2


def test_profile_size_sums_items():
    profile = Profile(owner_id=1)
    profile.add_items([DataItem.text(1000), DataItem.photo(50_000)])
    assert profile.size_bytes() == 51_000
    assert len(profile) == 2


def test_items_of_kind():
    profile = Profile(owner_id=1)
    profile.add_items([DataItem.text(), DataItem.photo(), DataItem.photo()])
    assert len(profile.items_of_kind("photo")) == 2
    assert len(profile.items_of_kind("video")) == 0


def test_item_ids_unique():
    items = [DataItem.text() for _ in range(100)]
    assert len({item.item_id for item in items}) == 100


def test_items_have_slots_and_keyword_construction():
    item = DataItem(item_id=7, kind="text", size_bytes=300)
    assert not hasattr(item, "__dict__")
    assert item == DataItem(7, "text", 300, 0.0)
    assert item != DataItem(7, "text", 300, 1.0)
    assert repr(item) == "DataItem(item_id=7, kind='text', size_bytes=300, created_at=0.0)"
    item.size_bytes = 400  # mutable, so unhashable
    assert item.size_bytes == 400
    with pytest.raises(TypeError):
        hash(item)
    assert DataItem.message(created_at=2.0).kind == "message"


class TestItemSizes:
    def test_measured_shape(self):
        """Sec. 7: 35 % of items < 10 KB, 93 % < 100 KB."""
        rng = random.Random(0)
        kinds = ["text"] * 40 + ["photo"] * 57 + ["video"] * 3
        sizes = [sample_item_size(rng.choice(kinds), rng) for _ in range(5000)]
        small = sum(1 for s in sizes if s < 10_000) / len(sizes)
        medium = sum(1 for s in sizes if s < 100_000) / len(sizes)
        assert 0.25 <= small <= 0.55
        assert 0.85 <= medium <= 0.97

    def test_videos_are_large(self):
        rng = random.Random(0)
        assert sample_item_size("video", rng) >= 2_000_000

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sample_item_size("hologram", random.Random(0))
