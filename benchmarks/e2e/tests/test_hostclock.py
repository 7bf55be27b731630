"""The host clock: sampled speed turns wall time into reference-host time."""

import signal
import time

import pytest

from soupbench.hostclock import INTERVAL_S, REFERENCE_BURST_S, HostClock


def _clock_with(samples):
    """A clock that has seen ``(at, took)`` samples without running a timer."""
    clock = HostClock()
    for at, took in samples:
        clock._at.append(at)
        clock._took.append(took)
    return clock


def test_unstarted_clock_reads_wall_time():
    clock = HostClock()
    assert clock.speed(1.0, 3.0) == 1.0
    assert clock.reference_seconds(1.0, 3.0) == 2.0
    assert clock.summary() == {"samples": 0}


def test_slow_host_shortens_the_interval_and_bursts_are_not_counted_as_work():
    slow = 2 * REFERENCE_BURST_S  # every burst took twice the reference
    clock = _clock_with([(1.0, slow), (2.0, slow), (11.0, REFERENCE_BURST_S)])
    assert clock.speed(0.0, 10.0) == pytest.approx(0.5)
    assert clock.reference_seconds(0.0, 10.0) == pytest.approx((10.0 - 2 * slow) * 0.5)
    # Speed is the mean of the samples inside: half the time at 1.0, half at 0.5.
    mixed = _clock_with([(1.0, REFERENCE_BURST_S), (2.0, slow)])
    assert mixed.speed(0.0, 3.0) == pytest.approx(0.75)


def test_interval_without_a_sample_takes_the_nearest_one():
    clock = _clock_with([(1.0, REFERENCE_BURST_S), (2.0, 4 * REFERENCE_BURST_S)])
    assert clock.speed(1.1, 1.2) == pytest.approx(1.0)
    assert clock.speed(1.8, 1.9) == pytest.approx(0.25)
    assert clock.speed(5.0, 6.0) == pytest.approx(0.25)
    assert clock.reference_seconds(1.8, 1.9) == pytest.approx(0.1 * 0.25)


def test_started_clock_samples_on_a_timer_and_leaves_no_timer_behind():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    clock.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 6 * INTERVAL_S:
            pass
        ended = time.perf_counter()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= clock.summary()["samples"] <= 7
    assert 0.0 < clock.reference_seconds(started, ended) < 10 * (ended - started)


def test_alarm_that_catches_a_running_burst_is_dropped():
    clock = HostClock()
    clock._busy = True
    clock._on_alarm(signal.SIGALRM, None)
    assert clock.summary() == {"samples": 0}
