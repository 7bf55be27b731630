"""Tests for the Fig. 15 mirror-load model."""

import random

import numpy as np
import pytest

from repro.deploy import traffic
from repro.deploy.traffic import MirrorLoadModel, build_inventory


class TestInventory:
    def test_totals_match_measurements(self):
        inventory = build_inventory(random.Random(0))
        total_items = sum(len(sizes) for sizes in inventory.values())
        total_bytes = sum(sum(sizes) for sizes in inventory.values())
        assert total_items == pytest.approx(2035, abs=3)
        assert total_bytes == pytest.approx(206e6, rel=0.02)

    def test_kinds_present(self):
        inventory = build_inventory(random.Random(0))
        assert set(inventory) == {"text", "photo", "video"}
        assert len(inventory["video"]) >= 1


class TestMirrorLoad:
    def test_low_rate_light_traffic(self):
        result = MirrorLoadModel(seed=1).run(request_rate=1.0, duration_s=120)
        assert result.mean_kb_per_s < 200
        assert result.requests_timed_out == 0

    def test_mean_below_600_kb_at_20rps(self):
        """The paper's headline: average well below 600 KB/s at 20 req/s."""
        result = MirrorLoadModel(seed=1).run(request_rate=20.0, duration_s=300)
        assert result.mean_kb_per_s < 600

    def test_bandwidth_monotone_in_rate(self):
        model = MirrorLoadModel(seed=2)
        means = [
            model.run(rate, duration_s=200).mean_kb_per_s for rate in (1.0, 10.0, 20.0)
        ]
        assert means[0] < means[1] <= means[2] * 1.05

    def test_uplink_capacity_respected(self, monkeypatch):
        monkeypatch.setattr(traffic, "MIRROR_UPLINK_BYTES_PER_S", 500_000)
        model = MirrorLoadModel(seed=3)
        result = model.run(request_rate=20.0, duration_s=120)
        assert result.peak_kb_per_s <= 500_000 / 1024 + 1

    def test_overload_causes_timeouts(self, monkeypatch):
        """'A request might time out once a mirror becomes overloaded.'"""
        monkeypatch.setattr(traffic, "MIRROR_UPLINK_BYTES_PER_S", 100_000)
        monkeypatch.setattr(traffic, "REQUEST_TIMEOUT_S", 3.0)
        model = MirrorLoadModel(seed=4)
        result = model.run(request_rate=20.0, duration_s=120)
        assert result.requests_timed_out > 0

    def test_spikes_exist_at_high_rate(self):
        """Large items cause spikes that saturate the uplink while the
        average stays well below it (the Fig. 15 shape)."""
        model = MirrorLoadModel(seed=5)
        result = model.run(request_rate=20.0, duration_s=300)
        assert result.peak_kb_per_s > 1.3 * result.mean_kb_per_s
        assert result.peak_kb_per_s == pytest.approx(
            traffic.MIRROR_UPLINK_BYTES_PER_S / 1024, rel=0.01
        )

    def test_sweep_covers_paper_rates(self):
        results = MirrorLoadModel(seed=0).sweep(duration_s=60)
        assert [r.request_rate for r in results] == [1.0, 10.0, 20.0]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            MirrorLoadModel().run(request_rate=0.0)
