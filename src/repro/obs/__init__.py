"""Structured observability for the SOUP reproduction.

Three pillars, all deterministic inside the simulated world and
near-zero-cost when disabled:

* :mod:`repro.obs.trace` — typed, schema-versioned event tracing to JSONL
  (``Tracer``).  Events are stamped with sim epochs / sim seconds supplied
  by the emitting subsystem, never with wallclock, so two runs with the
  same seed produce byte-identical traces.
* :mod:`repro.obs.registry` — named counters, gauges and histograms
  (``MetricsRegistry``) that subsystems register into; the simulator
  snapshots the registry per epoch into its result.
* :mod:`repro.obs.profiling` — nestable ``span()`` wall/CPU phase timers
  over real hot paths, off unless ``soup perf`` or ``soup deploy
  --profile`` turns them on.  Wall-clock never leaks into the simulated
  world: profiling only measures how long *our code* takes to run it.
* :mod:`repro.obs.perf` — the performance observability plane on top of
  the phase timers: folded-stack, Chrome trace and per-phase breakdown
  export (``soup perf``).

Naming conventions and the event schema are documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.analysis import (
    AnomalyConfig,
    Finding,
    TraceAnalysis,
    TraceMergeError,
    TraceReadReport,
    analyze_events,
    analyze_trace,
    detect_churn_storms,
    detect_mirror_flapping,
    detect_repair_loops,
    iter_trace,
    merge_trace_files,
    open_trace,
    owner_timeline,
)
from repro.obs.flight import (
    HARNESS_NODE_ID,
    LATENCY_BUCKETS,
    FlightRecorder,
    LamportClock,
    LiveObservability,
    RouterTracer,
)
from repro.obs.perf import (
    chrome_trace,
    folded_lines,
    phase_breakdown,
)
from repro.obs.profiling import PROFILER, Profiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    pop_registry,
    push_registry,
    use_registry,
)
from repro.obs.trace import (
    EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    get_tracer,
    open_trace_sink,
    set_tracer,
    tracing,
    validate_event,
    validate_trace_file,
)

__all__ = [
    "AnomalyConfig",
    "Finding",
    "FlightRecorder",
    "HARNESS_NODE_ID",
    "LATENCY_BUCKETS",
    "LamportClock",
    "LiveObservability",
    "PROFILER",
    "Profiler",
    "chrome_trace",
    "folded_lines",
    "phase_breakdown",
    "RouterTracer",
    "TraceAnalysis",
    "TraceMergeError",
    "TraceReadReport",
    "analyze_events",
    "analyze_trace",
    "merge_trace_files",
    "detect_churn_storms",
    "detect_mirror_flapping",
    "detect_repair_loops",
    "iter_trace",
    "open_trace",
    "owner_timeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "push_registry",
    "pop_registry",
    "use_registry",
    "EVENT_SCHEMAS",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "get_tracer",
    "open_trace_sink",
    "set_tracer",
    "tracing",
    "validate_event",
    "validate_trace_file",
]
