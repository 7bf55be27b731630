"""Tests for the discrete-event loop."""

import pytest

from repro.network.events import EventLoop


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(2.0, lambda: order.append("b"))
    loop.schedule(1.0, lambda: order.append("a"))
    loop.schedule(3.0, lambda: order.append("c"))
    loop.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    loop = EventLoop()
    order = []
    for i in range(5):
        loop.schedule(1.0, lambda i=i: order.append(i))
    loop.run_until(2.0)
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_at_deadline():
    loop = EventLoop()
    fired = []
    loop.schedule(5.0, lambda: fired.append("late"))
    processed = loop.run_until(4.0)
    assert processed == 0
    assert fired == []
    assert loop.now == 4.0
    loop.run_until(6.0)
    assert fired == ["late"]


def test_events_can_schedule_events():
    loop = EventLoop()
    fired = []

    def chain():
        fired.append(loop.now)
        if len(fired) < 3:
            loop.schedule(1.0, chain)

    loop.schedule(1.0, chain)
    loop.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_schedule_at_absolute_time():
    loop = EventLoop()
    loop.run_until(10.0)
    fired = []
    loop.schedule_at(12.5, lambda: fired.append(loop.now))
    loop.run_until(20.0)
    assert fired == [12.5]


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(-1.0, lambda: None)


def test_max_events_guard():
    loop = EventLoop()

    def forever():
        loop.schedule(0.0, forever)

    loop.schedule(0.0, forever)
    processed = loop.run_until(1.0, max_events=100)
    assert processed == 100


def test_run_all_drains_queue():
    loop = EventLoop()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        loop.schedule(delay, lambda d=delay: fired.append(d))
    assert loop.run_all() == 3
    assert fired == [1.0, 3.0, 5.0]
    assert loop.pending() == 0


def test_time_never_goes_backwards():
    loop = EventLoop()
    loop.run_until(5.0)
    loop.schedule(0.0, lambda: None)
    loop.run_until(3.0)  # earlier deadline
    assert loop.now == 5.0


def test_cancelled_timer_does_not_run_and_reorders_nothing():
    loop = EventLoop()
    order = []
    handles = [loop.schedule(1.0, lambda i=i: order.append(i)) for i in range(5)]
    handles[1].cancel()
    handles[3].cancel()
    assert loop.pending() == 3
    assert loop.run_until(2.0) == 3  # cancelled events are not processed
    assert order == [0, 2, 4]
    assert loop.pending() == 0


def test_cancel_releases_the_callback_and_is_harmless_after_firing():
    loop = EventLoop()
    fired = []
    ran = loop.schedule(1.0, lambda: fired.append("ran"))
    dropped = loop.schedule_at(5.0, lambda: fired.append("dropped"))
    loop.run_until(2.0)
    ran.cancel()
    dropped.cancel()
    assert ran.callback is None and dropped.callback is None
    # The clock does not stop at a cancelled event's time.
    assert loop.run_all() == 0
    assert loop.now == 2.0
    assert fired == ["ran"]
