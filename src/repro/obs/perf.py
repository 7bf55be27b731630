"""The performance observability plane: phase capture and profile export.

Built on the nestable phase timers in :mod:`repro.obs.profiling`, this
module turns accumulated spans into the three consumable shapes the
tooling around ``soup perf`` expects:

* **folded stacks** (:func:`folded_lines`) — ``a;b;c <count>`` lines,
  the input format of standard flamegraph tooling (``flamegraph.pl``,
  speedscope, inferno).  Counts are integer microseconds of wall time.
* **Chrome trace events** (:func:`chrome_trace`) — a ``traceEvents``
  document of complete (``"ph": "X"``) events from individually recorded
  spans, loadable in ``chrome://tracing`` / Perfetto.
* **phase breakdowns** (:func:`phase_breakdown`) — exclusive (self-time)
  wall seconds per short phase name (``dropping``, ``selection``,
  ``scoring``, ``sync``, …), the ``phases`` block of ``soup perf --json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.profiling import PROFILER, Profiler


def folded_lines(profiler: Optional[Profiler] = None) -> List[str]:
    """Folded-stack lines (``path count``), count = µs of wall time.

    Exclusive time per stack: flamegraph tooling sums children itself, so
    each line carries only the self-time of its exact stack.
    """
    profiler = profiler or PROFILER
    lines = []
    for path, self_wall in sorted(profiler.self_times().items()):
        micros = int(round(self_wall * 1e6))
        if micros > 0:
            lines.append(f"{path} {micros}")
    return lines


def chrome_trace(profiler: Optional[Profiler] = None) -> Dict[str, Any]:
    """A Chrome trace-event document from recorded spans.

    Requires the profiler to have run with ``record_events = True``
    (``soup perf --chrome`` sets it); without events the document is valid
    but empty.  Timestamps/durations are microseconds per the trace-event
    format; every span lands on one thread track since the engine is
    single-threaded.
    """
    profiler = profiler or PROFILER
    events = []
    for path, start_s, wall_s, cpu_s in profiler.events():
        events.append({
            "name": path.rsplit(";", 1)[-1],
            "cat": "phase",
            "ph": "X",
            "ts": round(start_s * 1e6, 3),
            "dur": round(wall_s * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"stack": path, "cpu_ms": round(cpu_s * 1e3, 6)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _short(leaf: str) -> str:
    """``engine.selection_round`` -> ``selection_round`` — breakdown keys
    drop the subsystem prefix so attribution reads as the paper's phase
    names (selection, scoring, dropping, sync, …)."""
    return leaf.rsplit(".", 1)[-1]


def phase_breakdown(profiler: Optional[Profiler] = None) -> Dict[str, float]:
    """Exclusive wall seconds per short phase name.

    Self-times (not inclusive totals) keyed by the leaf phase with its
    subsystem prefix stripped: the values are disjoint and sum to the
    total measured time, so per-phase *shares* are well defined.
    """
    profiler = profiler or PROFILER
    merged: Dict[str, float] = {}
    for path, self_wall in profiler.self_times().items():
        name = _short(path.rsplit(";", 1)[-1])
        merged[name] = merged.get(name, 0.0) + self_wall
    return merged
