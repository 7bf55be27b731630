"""Profiling hooks: nestable wall/CPU phase timers over real hot paths.

Unlike tracing and metrics — which live inside the simulated world and
must stay deterministic — profiling measures how long *our code* takes on
the host machine: selection rounds, protective dropping, DHT routing,
crypto, network delivery, full epoch steps.  It is therefore strictly an
outside-the-simulation concern, off by default, and designed so the
disabled path costs one attribute read and a branch per call site (the
<5 % overhead guard in ``benchmarks/test_profiling_overhead.py`` keeps it
honest).

Spans nest: entering ``engine.dropping`` inside ``engine.selection_round``
inside ``engine.epoch`` accumulates under the folded path
``engine.epoch;engine.selection_round;engine.dropping`` — exactly the
``stack count`` format flamegraph tooling consumes (see
:mod:`repro.obs.perf` for the exporters).  Each finished span adds its
wall *and* CPU (``time.process_time``) elapsed to its path, and — when an
epoch is set via :meth:`Profiler.set_epoch` — to that epoch's bucket, so
the per-epoch phase breakdown of ``soup perf --by-epoch`` comes for free.

Usage::

    from repro.obs.profiling import PROFILER

    with PROFILER.span("engine.selection_round"):
        ...                      # cheap no-op when PROFILER.enabled is False

    if PROFILER.enabled:         # hottest paths: skip even the no-op span
        with PROFILER.span("dht.route"):
            return self._route(...)
    return self._route(...)

``soup perf`` turns the timers on for a simulation and ``soup deploy
--profile`` for a middleware run; nothing else does.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: Cap on retained per-span events (Chrome trace export); beyond this the
#: accumulators keep counting but individual events are dropped.
MAX_SPAN_EVENTS = 250_000


class _NullSpan:
    """Shared do-nothing span for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_profiler", "_name", "_start", "_cpu_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0
        self._cpu_start = 0.0

    def __enter__(self) -> "_Span":
        self._profiler._push(self._name)
        self._cpu_start = time.process_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._start
        cpu = time.process_time() - self._cpu_start
        self._profiler._pop(wall, cpu, self._start)


class Profiler:
    """Nestable wall/CPU accumulators per named phase.

    All state is keyed by *folded path* (``a;b;c`` — the span stack at the
    time the span ran); :meth:`totals` / :meth:`counts` aggregate by leaf
    name for the flat per-phase view the CLI report renders.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: When True, individual span events are retained (bounded by
        #: :data:`MAX_SPAN_EVENTS`) for Chrome trace export.
        self.record_events = False
        self._wall: Dict[str, float] = {}
        self._cpu: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._stack: List[str] = []
        self._epoch: Optional[int] = None
        self._by_epoch: Dict[int, Dict[str, float]] = {}
        #: (path, start_offset_s, wall_s, cpu_s) tuples when recording.
        self._events: List[Tuple[str, float, float, float]] = []
        self._origin = time.perf_counter()

    # --- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._wall.clear()
        self._cpu.clear()
        self._counts.clear()
        self._stack.clear()
        self._epoch = None
        self._by_epoch.clear()
        self._events.clear()
        self._origin = time.perf_counter()

    # --- span machinery --------------------------------------------------
    def span(self, name: str):
        """A context manager timing the block (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def _push(self, name: str) -> None:
        stack = self._stack
        path = stack[-1] + ";" + name if stack else name
        stack.append(path)

    def _pop(self, wall: float, cpu: float, start: float) -> None:
        path = self._stack.pop()
        self._wall[path] = self._wall.get(path, 0.0) + wall
        self._cpu[path] = self._cpu.get(path, 0.0) + cpu
        self._counts[path] = self._counts.get(path, 0) + 1
        epoch = self._epoch
        if epoch is not None:
            bucket = self._by_epoch.get(epoch)
            if bucket is None:
                bucket = self._by_epoch[epoch] = {}
            bucket[path] = bucket.get(path, 0.0) + wall
        if self.record_events and len(self._events) < MAX_SPAN_EVENTS:
            self._events.append((path, start - self._origin, wall, cpu))

    # --- epoch bucketing -------------------------------------------------
    def set_epoch(self, epoch: Optional[int]) -> None:
        """Bucket subsequently finished spans under ``epoch`` (None stops
        bucketing).  The engine calls this once per epoch when enabled."""
        self._epoch = epoch

    def epoch_phases(self, epoch: int) -> Dict[str, float]:
        """Leaf-aggregated wall seconds for one epoch's bucket."""
        merged: Dict[str, float] = {}
        for path, wall in self._by_epoch.get(epoch, {}).items():
            leaf = path.rsplit(";", 1)[-1]
            merged[leaf] = merged.get(leaf, 0.0) + wall
        return merged

    def epochs(self) -> List[int]:
        return sorted(self._by_epoch)

    # --- views -----------------------------------------------------------
    def folded(self) -> Dict[str, float]:
        """Wall seconds keyed by folded path (``a;b;c``)."""
        return dict(self._wall)

    def events(self) -> List[Tuple[str, float, float, float]]:
        """Recorded (path, start_offset_s, wall_s, cpu_s) span events."""
        return list(self._events)

    def _aggregate(self, source: Dict[str, float]) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for path, value in source.items():
            leaf = path.rsplit(";", 1)[-1]
            merged[leaf] = merged.get(leaf, 0.0) + value
        return merged

    def totals(self) -> Dict[str, float]:
        """Wall seconds aggregated by leaf phase name."""
        return self._aggregate(self._wall)

    def cpu_totals(self) -> Dict[str, float]:
        """CPU seconds aggregated by leaf phase name."""
        return self._aggregate(self._cpu)

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for path, value in self._counts.items():
            leaf = path.rsplit(";", 1)[-1]
            merged[leaf] = merged.get(leaf, 0) + value
        return merged

    def self_times(self) -> Dict[str, float]:
        """Exclusive wall seconds per folded path: each path's total minus
        the time spent in its direct children.  Sums to the total measured
        time, which is what makes per-phase *shares* well defined."""
        child_sums: Dict[str, float] = {}
        for path, wall in self._wall.items():
            if ";" in path:
                parent = path.rsplit(";", 1)[0]
                child_sums[parent] = child_sums.get(parent, 0.0) + wall
        return {
            path: max(0.0, wall - child_sums.get(path, 0.0))
            for path, wall in self._wall.items()
        }

    # --- reporting -------------------------------------------------------
    def report_lines(self, top_level: Optional[str] = None) -> List[str]:
        """Per-phase breakdown table, widest share first.

        ``top_level`` names the phase whose total defines 100 % (e.g. the
        full epoch step); without it, shares are relative to the largest
        phase total.
        """
        totals = self.totals()
        if not totals:
            return ["profile: no spans recorded"]
        cpu_totals = self.cpu_totals()
        counts = self.counts()
        denominator = (
            totals.get(top_level, 0.0)
            if top_level is not None
            else max(totals.values())
        )
        denominator = denominator or max(totals.values())
        lines = [
            f"{'phase':<28} {'calls':>8} {'total s':>10} {'cpu s':>10} "
            f"{'mean ms':>10} {'share':>7}"
        ]
        for name in sorted(totals, key=totals.get, reverse=True):
            total = totals[name]
            count = counts[name]
            mean_ms = 1000.0 * total / count if count else 0.0
            share = 100.0 * total / denominator if denominator else 0.0
            lines.append(
                f"{name:<28} {count:>8} {total:>10.3f} "
                f"{cpu_totals.get(name, 0.0):>10.3f} "
                f"{mean_ms:>10.3f} {share:>6.1f}%"
            )
        return lines


#: The process-wide profiler; ``soup perf`` and ``soup deploy --profile``
#: enable it.
PROFILER = Profiler()
