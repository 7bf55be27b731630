"""repro.bench — the standing perf-regression harness behind ``soup bench``.

The suite (:mod:`repro.bench.suite`) measures the simulator's hot paths —
epoch-loop throughput, SimNetwork message rate, sweep-orchestrator
overhead, crypto-mode sign/verify rates — and serializes each run as a
schema-versioned ``BENCH_*.json`` artifact (:mod:`repro.bench.artifacts`,
schema ``soup-bench/v2``).  ``soup bench --check
--baseline PATH`` diffs a fresh run against a committed baseline and fails
on regressions beyond a configurable threshold; artifacts carry git
provenance and per-phase breakdowns, so a failed check names the commits
compared and attributes the regression to the phase(s) whose share of the
run grew (:func:`repro.bench.artifacts.attribute_phases`).

The perf *trajectory* lives in ``benchmarks/baselines/HISTORY.jsonl``
(:mod:`repro.bench.history`): one appended line per recorded run, rendered
by ``soup bench history`` / ``soup bench trend`` and gated in CI by
``soup bench trend --check-history``.

See ``docs/BENCHMARKS.md``.
"""

from repro.bench.artifacts import (
    BENCH_SCHEMA,
    DEFAULT_THRESHOLD,
    PHASE_ATTRIBUTION_POINTS,
    BenchResult,
    Comparison,
    ComparisonRow,
    attribute_phases,
    build_artifact,
    compare,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.bench.history import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA,
    append_history,
    check_history,
    history_entry,
    load_history,
    render_history_lines,
    render_trend_lines,
)
from repro.bench.provenance import git_provenance, short_sha
from repro.bench.suite import (
    PROFILES,
    BenchProfile,
    benchmark_names,
    register,
    resolve_profile,
    run_suite,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_THRESHOLD",
    "HISTORY_SCHEMA",
    "PHASE_ATTRIBUTION_POINTS",
    "BenchProfile",
    "BenchResult",
    "Comparison",
    "ComparisonRow",
    "PROFILES",
    "append_history",
    "attribute_phases",
    "benchmark_names",
    "build_artifact",
    "check_history",
    "compare",
    "git_provenance",
    "history_entry",
    "load_artifact",
    "load_history",
    "register",
    "render_history_lines",
    "render_trend_lines",
    "resolve_profile",
    "run_suite",
    "short_sha",
    "validate_artifact",
    "write_artifact",
]
