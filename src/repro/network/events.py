"""A minimal discrete-event loop.

Events are ``(time, sequence, timer)`` triples on a heap; the sequence
number makes ordering deterministic for simultaneous events.  A cancelled
timer gives up its callback at once and its heap slot when its time comes,
so cancelling never reorders anything else.  The loop is deliberately tiny —
everything interesting lives in the models scheduled on top of it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.obs.profiling import PROFILER


class Timer:
    """A scheduled event.  :meth:`cancel` keeps it from running and lets go
    of the callback (and whatever it closes over) immediately; cancelling a
    timer that already ran is harmless."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: Optional[Callable[[], None]] = callback

    def cancel(self) -> None:
        self.callback = None


class EventLoop:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[float, int, Timer]] = []

    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        timer = Timer(callback)
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), timer))
        return timer

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` at absolute time ``when``."""
        return self.schedule(when - self._now, callback)

    def pending(self) -> int:
        """Events still due to run (cancelled ones are not)."""
        return sum(1 for _, _, timer in self._queue if timer.callback is not None)

    def _pop_due(self) -> Optional[Callable[[], None]]:
        """Take the earliest event off the heap and move the clock to it;
        None if that event had been cancelled."""
        when, _, timer = heapq.heappop(self._queue)
        callback, timer.callback = timer.callback, None
        if callback is not None:
            self._now = max(self._now, when)
        return callback

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to ``end_time``; returns the number processed.

        ``max_events`` guards against runaway feedback loops in tests.
        """
        # The network-flush phase: draining scheduled deliveries is the
        # event-loop world's hot path, so it gets a timer of its own
        # (deliveries nest under it as net.flush;net.deliver).
        if PROFILER.enabled:
            with PROFILER.span("net.flush"):
                return self._run_until(end_time, max_events)
        return self._run_until(end_time, max_events)

    def _run_until(self, end_time: float, max_events: Optional[int]) -> int:
        processed = 0
        while self._queue and self._queue[0][0] <= end_time:
            if max_events is not None and processed >= max_events:
                break
            callback = self._pop_due()
            if callback is not None:
                callback()
                processed += 1
        self._now = max(self._now, end_time)
        return processed

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        processed = 0
        while self._queue and processed < max_events:
            callback = self._pop_due()
            if callback is not None:
                callback()
                processed += 1
        return processed
