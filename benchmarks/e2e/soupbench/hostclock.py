"""A clock that runs at the speed of the host.

The benchmark runs on a few cores of a shared machine whose speed wanders:
the same arithmetic loop takes anything from 1× to 2× as long from one minute
to the next, with ``steal`` flat, and a benchmark run slows down with it (see
README "Noise").  No run length a benchmark can afford averages that out, so
the end-to-end times are not read off the wall clock but off this one.

Every ``INTERVAL_S`` a timer signal interrupts whatever the process is doing
and times one *burst*: a fixed ≈ 0.8 ms of interpreter work (integer loop,
modular exponentiation, pickle round trips, sorting, small-object churn — the
things the program itself spends its time on; no I/O, nothing that can
block).  ``REFERENCE_BURST_S / burst time`` is the host's speed at that
moment: 1.0 on this box when nothing disturbs it, 0.5 when everything takes
twice as long.  ``reference_seconds(start, end)`` is the wall time between two
``perf_counter`` readings, less the bursts inside it, times the mean speed
sampled inside it — the seconds the same work would have taken on a host
running at speed 1.0 throughout.  A change to the program changes the work in
the interval, not the bursts, so it shows in full.

The burst never reads or writes the program's state, and the handler
neither nests nor lets the garbage collector run inside the timed burst.
"""

from __future__ import annotations

import bisect
import gc
import pickle
import signal
import time
from typing import List, Tuple

#: Seconds one burst takes on the reference host: this box when nothing
#: disturbs it (the lower decile of 14,000 bursts sampled inside the four
#: workloads on 2026-09-28), so that on a quiet day the numbers are seconds.
REFERENCE_BURST_S = 0.00075

#: Seconds between bursts: under 2 % of the run is spent calibrating.
INTERVAL_S = 0.05

_MODULUS = (1 << 511) + 12345678901234567891
_EXPONENT = (1 << 127) + 7
_BASE = (1 << 500) + 3
_RECORD = {"text": "x" * 2000, "ids": list(range(50)), "meta": {"k": 1.5, "z": (1, 2, 3)}}
_KEYS = [(i * 7919) % 1009 for i in range(500)]


class _Item:
    __slots__ = ("rank", "name", "refs")

    def __init__(self, rank: int, name: str, refs: list) -> None:
        self.rank, self.name, self.refs = rank, name, refs


_ITEMS = {i: _Item(i, str(i), [i]) for i in range(2000)}


def burst() -> None:
    """The fixed unit of work whose duration measures the host."""
    total = 0
    for i in range(3000):
        total += i * i
    pow(_BASE, _EXPONENT, _MODULUS)
    for _ in range(30):
        pickle.loads(pickle.dumps(_RECORD, protocol=4))
    for _ in range(8):
        sorted(_KEYS)
    items = _ITEMS
    copies = []
    for i in range(300):
        item = items[(i * 37) % 2000]
        copies.append(_Item(item.rank + 1, item.name, item.refs))
    copies.sort(key=lambda item: item.rank)


class HostClock:
    """Samples the host's speed on a timer and converts wall-clock intervals
    to reference-host seconds.  A clock that was never started (or has no
    sample yet) reads plain wall time."""

    def __init__(self) -> None:
        self._at: List[float] = []  # perf_counter at the start of each burst
        self._took: List[float] = []  # its duration
        self._busy = False
        self._previous = None

    # --- sampling ------------------------------------------------------------
    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        if self._busy:  # a burst so slow that the next alarm caught it
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            burst()
            took = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self._at.append(started)
        self._took.append(took)

    # --- reading ---------------------------------------------------------------
    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        return bisect.bisect_left(self._at, start), bisect.bisect_left(self._at, end)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed sampled in ``[start, end)``; with no sample
        inside, that of the nearest sample; 1.0 with no sample at all."""
        lo, hi = self._inside(start, end)
        if lo == hi:
            if not self._took:
                return 1.0
            near = min(max(lo - 1, 0), len(self._took) - 1)
            if lo < len(self._at) and self._at[lo] - end < start - self._at[near]:
                near = lo
            lo, hi = near, near + 1
        took = self._took[lo:hi]
        return sum(REFERENCE_BURST_S / t for t in took) / len(took)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the work done in ``[start, end)`` would have taken on the
        reference host."""
        lo, hi = self._inside(start, end)
        working = (end - start) - sum(self._took[lo:hi])
        return working * self.speed(start, end)

    def summary(self) -> dict:
        """What the clock saw, for the detail line."""
        if not self._took:
            return {"samples": 0}
        speeds = sorted(REFERENCE_BURST_S / t for t in self._took)
        n = len(speeds)
        return {
            "samples": n,
            "speed_min": round(speeds[0], 4),
            "speed_p50": round(speeds[n // 2], 4),
            "speed_max": round(speeds[-1], 4),
        }
