"""Tests for the simulated network."""

import random

import pytest

from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork
from repro.network.transport import DeliveryFailure, LinkSpec, TrafficMeter


@pytest.fixture()
def net():
    loop = EventLoop()
    return SimNetwork(loop)


def test_delivery_to_online_node(net):
    got = []
    net.register(1, lambda s, m: got.append((s, m)))
    net.register(2, lambda s, m: got.append((s, m)))
    net.send(1, 2, "hello", 1000)
    net.loop.run_until(5.0)
    assert got == [(1, "hello")]
    assert net.messages_delivered == 1


def test_send_to_offline_node_fails(net):
    failures = []
    net.register(1, lambda s, m: None, on_failure=lambda d, m, r: failures.append((d, r)))
    net.register(2, lambda s, m: None)
    net.set_online(2, False)
    net.send(1, 2, "lost", 100)
    net.loop.run_until(5.0)
    assert net.messages_failed == 1
    assert failures == [(2, "unreachable")]


def test_send_to_unknown_node_fails(net):
    net.register(1, lambda s, m: None)
    net.send(1, 999, "void", 100)
    net.loop.run_until(5.0)
    assert net.messages_failed == 1


def test_offline_sender_drops_message(net):
    got = []
    net.register(1, lambda s, m: None)
    net.register(2, lambda s, m: got.append(m))
    net.set_online(1, False)
    net.send(1, 2, "x", 10)
    net.loop.run_until(5.0)
    assert got == []


def test_receiver_going_offline_mid_flight_loses_message(net):
    got = []
    net.register(1, lambda s, m: None, link=LinkSpec(latency_s=0.0, upstream_bytes_per_s=100))
    net.register(2, lambda s, m: got.append(m))
    net.send(1, 2, "slow", 1000)  # 10 s transfer
    net.set_online(2, False)
    net.loop.run_until(60.0)
    assert got == []


def test_transfer_time_uses_bottleneck(net):
    fast = LinkSpec(latency_s=0.01, upstream_bytes_per_s=1e6, downstream_bytes_per_s=1e6)
    slow = LinkSpec(latency_s=0.01, upstream_bytes_per_s=1e3, downstream_bytes_per_s=1e3)
    net.register(1, lambda s, m: None, link=fast)
    net.register(2, lambda s, m: None, link=slow)
    assert net.transfer_time(1, 2, 1000) == pytest.approx(0.02 + 1.0)


def test_traffic_metered_both_ends(net):
    net.register(1, lambda s, m: None)
    net.register(2, lambda s, m: None)
    net.send(1, 2, "data", 4096)
    net.loop.run_until(5.0)
    assert net.meters[1].total_sent() == 4096
    assert net.meters[2].total_received() == 4096


def test_uplink_serialization_spreads_bursts(net):
    link = LinkSpec(latency_s=0.0, upstream_bytes_per_s=1000, downstream_bytes_per_s=1e9)
    net.register(1, lambda s, m: None, link=link)
    net.register(2, lambda s, m: None)
    for _ in range(5):
        net.send(1, 2, "chunk", 1000)  # each takes 1 s of uplink
    net.loop.run_until(30.0)
    series = dict(net.meters[1].series_kb_per_s())
    # ~1 KB/s sustained over ~5 s rather than 5 KB in one second.
    peak = max(series.values())
    assert peak <= 2.0


def test_duplicate_registration_rejected(net):
    net.register(1, lambda s, m: None)
    with pytest.raises(ValueError):
        net.register(1, lambda s, m: None)


def test_negative_size_rejected(net):
    net.register(1, lambda s, m: None)
    net.register(2, lambda s, m: None)
    with pytest.raises(ValueError):
        net.send(1, 2, "x", -5)


def test_control_meter_created_on_demand(net):
    meter = net.control_meter(42)
    meter.record_sent(0.0, 100)
    assert net.control_meter(42).total_sent() == 100


class TestTrafficMeter:
    def test_series_and_stats(self):
        meter = TrafficMeter()
        meter.record_sent(0.0, 1024)
        meter.record_received(1.0, 2048)
        series = meter.series_kb_per_s(0, 3)
        assert series == [(0, 1.0), (1, 2.0), (2, 0.0)]
        assert meter.peak_kb_per_s() == 2.0
        # Mean over the meter's own (trailing-trimmed) window.
        assert meter.mean_kb_per_s() == pytest.approx(1.5)

    def test_spread_over_duration(self):
        meter = TrafficMeter()
        meter.record_sent(0.0, 10_240, duration_s=9.0)
        series = meter.series_kb_per_s(0, 10)
        total = sum(kb for _, kb in series)
        assert total == pytest.approx(10.0)
        assert max(kb for _, kb in series) < 3.0

    def test_bins_by_overlap_with_each_second(self):
        meter = TrafficMeter()
        # [0.5, 2.5): a quarter, a half and a quarter of the bytes.
        meter.record_sent(0.5, 4000, duration_s=2.0)
        assert meter._sent == {0: 1000, 1: 2000, 2: 1000}
        # Ending exactly on a boundary leaves the next second empty.
        meter.record_received(3.0, 999, duration_s=1.0)
        assert meter._received == {3: 999}

    def test_back_to_back_transfers_fill_consecutive_seconds(self):
        meter = TrafficMeter()
        for index in range(4):  # 0.6 s each, serialised on the uplink
            meter.record_sent(index * 0.6, 600, duration_s=0.6)
        assert meter._sent == {0: 1000, 1: 1000, 2: 400}

    def test_bytes_are_conserved_exactly(self):
        rng = random.Random(5)
        meter = TrafficMeter()
        total = 0
        for _ in range(500):
            size = rng.randrange(0, 50_000)
            meter.record_sent(rng.uniform(0, 100), size, rng.choice([0.0, rng.uniform(0, 7)]))
            total += size
        assert meter.total_sent() == total
        assert all(amount > 0 for amount in meter._sent.values())

    def test_empty_meter(self):
        meter = TrafficMeter()
        assert meter.peak_kb_per_s() == 0.0
        assert meter.mean_kb_per_s() == 0.0
        assert meter.series_kb_per_s() == []


def test_link_validation():
    with pytest.raises(ValueError):
        LinkSpec(latency_s=-1)
    with pytest.raises(ValueError):
        LinkSpec(upstream_bytes_per_s=0)


def test_sender_offline_reports_failure_to_sender(net):
    """A sender that went offline mid-action is told about the loss — the
    message must not vanish silently (retry machinery needs the signal)."""
    failures = []
    net.register(1, lambda s, m: None, on_failure=lambda d, m, r: failures.append((d, m, r)))
    net.register(2, lambda s, m: None)
    net.set_online(1, False)
    net.send(1, 2, "lost", 10)
    net.loop.run_until(5.0)
    assert failures == [(2, "lost", "sender-offline")]
    assert net.messages_failed == 1


def test_failures_counted_by_reason(net):
    net.register(1, lambda s, m: None, link=LinkSpec(latency_s=0.0, upstream_bytes_per_s=100))
    net.register(2, lambda s, m: None)
    net.send(1, 999, "void", 10)  # unreachable
    net.send(1, 2, "slow", 1000)  # 10 s transfer, lost in flight below
    net.set_online(2, False)
    net.send(1, 2, "down", 10)  # unreachable
    net.set_online(1, False)
    net.send(1, 2, "dark", 10)  # sender-offline
    net.loop.run_until(60.0)
    assert net.failures_by_reason == {
        "unreachable": 2,
        "lost-in-flight": 1,
        "sender-offline": 1,
    }
    assert net.messages_failed == 4


def test_unregister_clears_all_per_node_state(net):
    net.register(1, lambda s, m: None, link=LinkSpec(latency_s=0.0, upstream_bytes_per_s=100))
    net.register(2, lambda s, m: None)
    net.send(1, 2, "x", 1000)  # occupies node 1's uplink for 10 s
    net.control_meter(1).record_sent(0.0, 64)
    assert net.uplink_backlog_s(1) > 0
    net.unregister(1)
    assert 1 not in net.meters
    assert 1 not in net.control_meters
    assert net.uplink_backlog_s(1) == 0.0
    assert not net.is_online(1)
    # Re-registration starts from a clean slate (no duplicate error, no
    # leftover uplink backlog from the previous incarnation).
    net.register(1, lambda s, m: None)
    assert net.uplink_backlog_s(1) == 0.0
    assert net.meters[1].total_sent() == 0


def test_uplink_backlog_tracks_queued_sends(net):
    link = LinkSpec(latency_s=0.0, upstream_bytes_per_s=1000)
    net.register(1, lambda s, m: None, link=link)
    net.register(2, lambda s, m: None)
    assert net.uplink_backlog_s(1) == 0.0
    for _ in range(3):
        net.send(1, 2, "chunk", 1000)  # 1 s of uplink each
    assert net.uplink_backlog_s(1) == pytest.approx(3.0)
    net.loop.run_until(2.0)
    assert net.uplink_backlog_s(1) == pytest.approx(1.0)
    net.loop.run_until(10.0)
    assert net.uplink_backlog_s(1) == 0.0
