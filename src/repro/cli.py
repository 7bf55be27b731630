"""Command-line interface: run any reproduction experiment directly.

Examples::

    python -m repro fig5 --base dataset=epinions --base n_days=10
    python -m repro fig10 --base slander_fraction=0.3 --base use_tie_strength=true
    python -m repro table1
    python -m repro compare configs/compare/table4.toml --archs soup,peerson,safebook -o t4
    python -m repro deploy --duration 1200
    python -m repro fig15 --rate 20

A scenario command (``sim``, ``metrics``, ``fig5``-``fig11``, ``perf``)
runs its preset ScenarioConfig (``SCENARIO_PRESETS``) under repeatable
``--base KEY=VALUE`` overrides, the grammar ``sweep --base`` and the
tokens of a repro line share.  Each subcommand prints the corresponding
table/series; the benchmark suite
(`pytest benchmarks/ --benchmark-only`) runs the same experiments with the
paper's shape assertions attached.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _series(values, fmt="{:.3f}") -> str:
    return " ".join(fmt.format(float(v)) for v in values)


def _result_json(result, **extra) -> str:
    """Serialize a simulation result for external plotting: the full
    round-trippable ``SimulationResult.to_json_dict()`` payload plus the
    derived daily/steady series, plus any experiment tags in ``extra``."""
    payload = result.to_json_dict(include_derived=True)
    if result.reliability is not None:
        payload["reliability_summary"] = result.reliability.summary()
    payload.update(extra)
    return json.dumps(payload, indent=2)


def _obs_flags(p) -> None:
    """Observability flags shared by every experiment subcommand."""
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write structured trace events as JSONL to PATH")
    p.add_argument("--trace-filter", default=None, metavar="EVENT,...",
                   help="only emit the named trace event types "
                        "(comma-separated; see docs/OBSERVABILITY.md)")
    p.add_argument("--log-level", default=None, metavar="LEVEL",
                   choices=("debug", "info", "warning", "error"),
                   help="attach a stderr handler to the repro.* loggers")


def _setup_observability(args):
    """Install tracer/logging (and ``deploy --profile``'s phase timers)
    from the CLI flags; returns the tracer (or None) for teardown."""
    level = getattr(args, "log_level", None)
    if level:
        import logging

        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        repro_logger = logging.getLogger("repro")
        repro_logger.addHandler(handler)
        repro_logger.setLevel(getattr(logging, level.upper()))
    tracer = None
    if getattr(args, "trace", None):
        from repro.obs import Tracer, set_tracer

        raw = getattr(args, "trace_filter", None)
        event_filter = (
            [name.strip() for name in raw.split(",") if name.strip()]
            if raw
            else None
        )
        tracer = Tracer.to_path(args.trace, event_filter)
        set_tracer(tracer)
    if getattr(args, "profile", False):
        from repro.obs.profiling import PROFILER

        PROFILER.reset()
        PROFILER.enable()
    return tracer


def _teardown_observability(args, tracer) -> None:
    if tracer is not None:
        from repro.obs import set_tracer

        set_tracer(None)
        tracer.close()
    if getattr(args, "profile", False):
        from repro.obs.profiling import PROFILER

        PROFILER.disable()
        print("", file=sys.stderr)
        for line in PROFILER.report_lines():
            print(line, file=sys.stderr)


#: Each scenario command's preset: ScenarioConfig overrides under the
#: command's own ``--base KEY=VALUE`` flags (value grammar: docs/SWEEPS.md).
SCENARIO_PRESETS = {
    "sim": {"scale": 0.01, "n_days": 20, "seed": 5},
    "metrics": {"scale": 0.01, "n_days": 20, "seed": 5},
    "fig5": {"scale": 0.01, "n_days": 20, "seed": 5},
    "fig6": {"scale": 0.01, "n_days": 30, "seed": 5},
    "fig7": {"scale": 0.01, "n_days": 18, "seed": 5},
    "fig8": {"altruist_fraction": 0.05, "scale": 0.01, "n_days": 26, "seed": 5},
    "fig9": {"departure_fraction": 0.05, "scale": 0.01, "n_days": 26, "seed": 5},
    "fig10": {"slander_fraction": 0.5, "scale": 0.01, "n_days": 26, "seed": 5},
    "fig11": {"sybil_fraction": 0.5, "scale": 0.01, "n_days": 26, "seed": 5},
    "perf": {"scale": 0.02, "n_days": 4, "seed": 42},
}

#: Figs. 8-11: the experiment each one runs and the field its fraction is.
_ATTACKS = {
    "fig8": ("altruism", "altruist_fraction"),
    "fig9": ("departure", "departure_fraction"),
    "fig10": ("slander", "slander_fraction"),
    "fig11": ("flooding", "sybil_fraction"),
}


def scenario_config(command: str, base_flags=()):
    """The ScenarioConfig a scenario command runs: its preset, then its
    ``--base KEY=VALUE`` flags in order."""
    from repro.runtime import build_config, parse_base_flag

    overrides = dict(SCENARIO_PRESETS[command])
    overrides.update(parse_base_flag(flag) for flag in base_flags or ())
    if overrides.get("faults"):
        # A fault-injected run without the checker would corrupt silently.
        overrides.setdefault("check_invariants", True)
    config = build_config(overrides)
    if command == "fig6" and "cdf_snapshot_days" not in overrides:
        # The stored-profile CDF on day 1, day 14 and the last day.
        days = config.n_days
        config = dataclasses.replace(
            config, cdf_snapshot_days=tuple(d for d in (1, 14, days) if d <= days)
        )
    return config


def _cmd_availability(args) -> int:
    """Availability and replica overhead per day: fig5/sim and, under
    their experiment's name, the attack figures 8-11."""
    from repro.sim.engine import run_scenario
    from repro.sim.reporting import sparkline

    config = args.config
    result = run_scenario(config)
    attack = _ATTACKS.get(args.command)
    if attack:
        kind, field = attack
        tags = {"experiment": kind, "fraction": getattr(config, field)}
    else:
        tags = {"dataset": config.dataset, "scale": config.scale}
    if args.json:
        print(_result_json(result, **tags))
        return 0
    availability = result.daily_availability()
    replicas = result.daily_replica_overhead()
    if attack:
        print(f"{kind} fraction={tags['fraction']}")
        print("availability/day:", _series(availability))
        print("replicas/day:    ", _series(replicas, "{:.2f}"))
        if kind == "flooding":
            print(f"blacklist entries: {result.blacklisted_owner_count}")
        return 0
    print(f"dataset={config.dataset} scale={config.scale} days={config.n_days}")
    print("availability/day:", _series(availability),
          f"  {sparkline(availability, 0.5, 1.0)}")
    print("replicas/day:    ", _series(replicas, "{:.2f}"),
          f"  {sparkline(replicas)}")
    print(f"availability@day1={result.availability_at_day(1):.3f} "
          f"steady={result.steady_state_availability():.3f} "
          f"replicas={result.steady_state_replicas():.2f}")
    for component, numbers in sorted((result.arch or {}).items()):
        rendered = " ".join(
            f"{key}={value:g}" for key, value in sorted(numbers.items())
        )
        print(f"arch.{component}: {rendered}")
    return 0


def _cmd_fig6(args) -> int:
    from repro.sim.engine import run_scenario
    from repro.sim.metrics import percentile_of

    result = run_scenario(args.config)
    if args.json:
        print(_result_json(result))
        return 0
    for day, counts in sorted(result.stored_profiles_snapshots.items()):
        print(f"day {day:>3}: mean={np.mean(counts):.2f} "
              f"median={percentile_of(counts, 0.5):.0f} "
              f"p90={percentile_of(counts, 0.9):.0f} max={max(counts)}")
    print(f"top-half replica share: {result.top_half_replica_share:.2%}")
    print("drop rate/round:", _series(result.drop_rate_by_round, "{:.4f}"))
    return 0


def _cmd_fig7(args) -> int:
    from repro.sim.engine import run_scenario

    result = run_scenario(args.config)
    if args.json:
        print(_result_json(result))
        return 0
    for cohort, series in sorted(result.cohort_availability.items()):
        days = len(series) // result.epochs_per_day
        daily = series[: days * result.epochs_per_day].reshape(days, -1).mean(axis=1)
        print(f"{cohort:<15}", _series(daily))
    return 0


def _cmd_table1(args) -> int:
    from repro.baselines.features import FEATURES, table1_rows

    header = ("system",) + FEATURES
    widths = [max(len(h), 10) for h in header]
    print("  ".join(h[:w].ljust(w) for h, w in zip(header, widths)))
    for row in table1_rows():
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


def _cmd_table3(args) -> int:
    from repro.graphs.datasets import table3_rows

    for name, nodes, edges, degree in table3_rows(scale=args.scale, seed=args.seed):
        print(f"{name:<10} nodes={nodes:<8} edges={edges:<9} avg_degree={degree}")
    return 0


def _cmd_deploy(args) -> int:
    from repro.deploy.emulation import Deployment

    deployment = Deployment(
        n_desktop=args.desktop,
        n_mobile=args.mobile,
        seed=args.seed,
        architecture=args.architecture,
    )
    report = deployment.run(duration_s=args.duration, selection_rounds=args.rounds)
    print(f"users={report.n_users} mobile={report.n_mobile} "
          f"friendships={report.friendships} photos={report.photos_shared} "
          f"messages={report.messages_sent}")
    if report.arch_metrics:
        for component, numbers in sorted(report.arch_metrics.items()):
            rendered = " ".join(
                f"{key}={value:g}" for key, value in sorted(numbers.items())
            )
            print(f"arch.{component}: {rendered}")
    print(f"availability={report.availability:.4f} "
          f"({report.profile_failures}/{report.profile_requests} failed requests)")
    gateway = [kb for _, kb in report.gateway_series]
    print(f"gateway DHT peak={max(gateway):.1f} KB/s")
    print("mirror variance/round:", _series(report.mirror_variance_by_round, "{:.2f}"))
    rel = report.reliability
    if rel is not None:
        print(f"reliability: retries={rel.transfer_retries} "
              f"giveups={rel.transfer_giveups} deaths={rel.deaths_declared} "
              f"revivals={rel.revivals} "
              f"circuit_transitions={int(sum(rel.circuit_transitions.values()))}")
        if rel.circuit_transitions:
            print("circuit:", " ".join(
                f"{key}={count}"
                for key, count in sorted(rel.circuit_transitions.items())
            ))
    return 0


def _cmd_metrics(args) -> int:
    """Run a scenario and render the metrics-registry view."""
    from repro.sim.engine import run_scenario
    from repro.sim.reporting import metrics_table

    result = run_scenario(args.config)
    if args.json:
        payload = {"metrics": result.metrics or {}, "summary": result.summary()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for line in metrics_table(result):
        print(line)
    if result.reliability is not None:
        print()
        print("reliability summary:")
        for key, value in sorted(result.reliability.summary().items()):
            print(f"  {key}: {value:g}")
    return 0


def _cmd_trace_validate(args) -> int:
    """Validate a JSONL trace file against the event schemas.

    Streams the file (gzip-aware, bounded memory); a truncated final line
    — the signature of a killed writer — is reported as an error here,
    unlike the tolerant analysis commands.
    """
    from repro.obs import TRACE_SCHEMA_VERSION
    from repro.obs.analysis import TraceReadReport, iter_trace

    report = TraceReadReport()
    for _ in iter_trace(args.path, validate=True, report=report,
                        tolerate_truncation=False):
        pass
    if report.errors:
        shown = report.errors[:50]
        for error in shown:
            print(error, file=sys.stderr)
        if len(report.errors) > len(shown):
            print(f"... and {len(report.errors) - len(shown)} more",
                  file=sys.stderr)
        print(f"{args.path}: {len(report.errors)} invalid line(s)",
              file=sys.stderr)
        return 1
    print(f"{args.path}: {report.events} events, all valid "
          f"(schema v{TRACE_SCHEMA_VERSION})")
    return 0


def _warn_truncated(path: str, report) -> None:
    if report.truncated:
        print(f"{path}: trace ends mid-record (killed writer?); "
              f"analysis covers the complete prefix", file=sys.stderr)


def _cmd_trace_analyze(args) -> int:
    """Full streaming analysis: lifecycles, attribution, hot spots, anomalies."""
    from repro.obs.analysis import AnomalyConfig, analyze_trace, render_analysis

    analysis = analyze_trace(
        args.path, config=AnomalyConfig(), lookback=args.lookback
    )
    if args.json:
        print(json.dumps(analysis.to_json_dict(), indent=2, sort_keys=True))
    else:
        for line in render_analysis(analysis, top=args.top):
            print(line)
    _warn_truncated(args.path, analysis.report)
    return 0


def _cmd_trace_anomalies(args) -> int:
    """Run only the anomaly detectors over a trace."""
    from repro.obs.analysis import AnomalyConfig, analyze_trace, render_findings

    config = AnomalyConfig(
        repair_loop_count=args.repair_loop_count,
        repair_loop_window=args.repair_loop_window,
        churn_storm_drops=args.churn_storm_drops,
        churn_storm_window=args.churn_storm_window,
        flap_toggles=args.flap_toggles,
    )
    analysis = analyze_trace(args.path, config=config)
    if args.json:
        print(json.dumps(
            [finding.to_json_dict() for finding in analysis.findings],
            indent=2, sort_keys=True,
        ))
    else:
        for line in render_findings(analysis.findings):
            print(line)
    _warn_truncated(args.path, analysis.report)
    return 0


def _cmd_trace_timeline(args) -> int:
    """Causal timeline of every event concerning one owner."""
    from repro.obs.analysis import (
        TraceReadReport,
        owner_timeline,
        render_timeline,
    )

    report = TraceReadReport()
    entries = owner_timeline(args.path, args.owner, report=report)
    if args.json:
        print(json.dumps(
            [
                {"seq": e.seq, "epoch": e.epoch, "event": e.event,
                 "summary": e.summary}
                for e in entries
            ],
            indent=2, sort_keys=True,
        ))
    else:
        for line in render_timeline(args.owner, entries):
            print(line)
    _warn_truncated(args.path, report)
    return 0


def _cmd_trace(args) -> int:
    subcommand = args.trace_command
    if subcommand == "validate":
        return _cmd_trace_validate(args)
    if subcommand == "analyze":
        return _cmd_trace_analyze(args)
    if subcommand == "anomalies":
        return _cmd_trace_anomalies(args)
    if subcommand == "timeline":
        return _cmd_trace_timeline(args)
    raise AssertionError(f"unhandled trace subcommand {subcommand}")


def _build_sweep_spec(args, archs=None):
    """Assemble the SweepSpec from a spec file and/or grid flags; with
    ``archs`` (``compare``), cross every row with each architecture."""
    from repro.runtime import (
        SweepSpec,
        parse_base_flag,
        parse_seeds,
        parse_set_flag,
    )

    spec = SweepSpec.from_file(args.spec) if args.spec else SweepSpec()
    for flag in args.base or ():
        key, value = parse_base_flag(flag)
        spec.base[key] = value
    for flag in args.set or ():
        key, values = parse_set_flag(flag)
        spec.grid[key] = values
    if args.seeds:
        spec.seeds = parse_seeds(args.seeds)
    if args.name:
        spec.name = args.name
    elif archs is not None and spec.name == "sweep":
        spec.name = "compare"
    if archs is not None:
        # The architecture axis is the whole point: cross every row of
        # the underlying scenario with each architecture, DHT probe on
        # so every row reports hops/control/storage numbers.
        rows = spec.configs or [{}]
        spec.configs = [
            {**row, "architecture": arch, "measure_dht": True}
            for arch in archs
            for row in rows
        ]
    return spec


def _format_eta(seconds) -> str:
    if seconds is None:
        return "eta ?"
    seconds = max(0.0, float(seconds))
    if seconds >= 3600:
        return f"eta {seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"eta {seconds / 60:.1f}m"
    return f"eta {seconds:.0f}s"


def _sweep_status_line(store, manifest) -> "tuple[str, int, int, list]":
    """One status line plus (done, total, failed-entries) for a run dir."""
    completed = store.completed_keys()
    tasks = manifest["tasks"]
    done = sum(1 for entry in tasks if entry["key"] in completed)
    failed = [entry for entry in tasks if entry.get("status") == "failed"]
    line = f"sweep {manifest['name']}: {done}/{len(tasks)} tasks complete"
    heartbeat = store.read_heartbeat()
    if heartbeat is not None and done < len(tasks):
        running = heartbeat.get("running") or 0
        parts = [f"{running} running", _format_eta(heartbeat.get("eta_seconds"))]
        if heartbeat.get("failed"):
            parts.append(f"{heartbeat['failed']} failed")
        line += f" ({', '.join(parts)})"
    return line, done, len(tasks), failed


def _cmd_sweep_status(args) -> int:
    """Report a run directory's completion state (exit 3 if incomplete).

    With ``--watch``, poll the manifest/artifacts/heartbeat every
    ``--interval`` seconds, printing a live progress line with ETA until
    the sweep completes (exit 0) or finishes with failures (exit 1).
    """
    import time as _time

    from repro.runtime import RunStore

    store = RunStore(args.out)
    watch = getattr(args, "watch", False)
    interval = getattr(args, "interval", 2.0)
    while True:
        manifest = store.load_manifest()
        if manifest is None:
            if watch:
                print(f"{args.out}: waiting for sweep manifest...",
                      file=sys.stderr)
                _time.sleep(interval)
                continue
            print(f"{args.out}: no sweep manifest", file=sys.stderr)
            return 3
        line, done, total, failed = _sweep_status_line(store, manifest)
        print(line)
        if done == total:
            return 0
        if failed:
            # finalize() ran: the sweep ended and these tasks failed.
            for entry in failed:
                print(f"  failed {entry['id']}: {entry.get('error', '?')}")
            return 1 if watch else 3
        if not watch:
            return 3
        _time.sleep(interval)


def _compare_archs(args) -> List[str]:
    """The architectures ``compare`` runs: ``--archs`` or every one."""
    from repro.arch import architecture_names

    known = architecture_names()
    if not args.archs:
        return list(known)
    archs = [name.strip() for name in args.archs.split(",") if name.strip()]
    unknown = sorted(set(archs) - set(known))
    if unknown:
        raise ValueError(f"unknown architecture(s) {unknown}; registered: {known}")
    return archs


def _cmd_sweep(args) -> int:
    """``sweep``, and ``compare``: a sweep with an injected architecture
    axis, reduced to one comparison table (docs/ARCHITECTURES.md)."""
    from repro.runtime import aggregate_json, aggregate_run, run_sweep
    from repro.sim.reporting import sweep_table

    if args.status:
        return _cmd_sweep_status(args)

    command = args.command
    try:
        archs = _compare_archs(args) if command == "compare" else None
        if not args.aggregate_only:
            spec = _build_sweep_spec(args, archs)
            tasks = spec.expand()
    except ValueError as exc:
        print(f"{command}: invalid spec: {exc}", file=sys.stderr)
        return 2
    if not args.aggregate_only:
        print(
            f"{command} {spec.name}: {len(tasks)} tasks -> {args.out} "
            f"(jobs={args.jobs or 'auto'})",
            file=sys.stderr,
        )

        def progress(event, task, detail):
            if event == "ok":
                print(
                    f"  [{task.task_id}] ok ({detail:.1f}s)  {task.label()}",
                    file=sys.stderr,
                )
            elif event == "fail":
                print(
                    f"  [{task.task_id}] FAILED: {detail}  {task.label()}",
                    file=sys.stderr,
                )
            elif event == "skip" and args.verbose:
                print(f"  [{task.task_id}] cached  {task.label()}", file=sys.stderr)

        outcome = run_sweep(
            spec, args.out, jobs=args.jobs, limit=args.limit, progress=progress,
        )
        print(
            f"{command} {spec.name}: {len(outcome.executed)} run, "
            f"{len(outcome.skipped)} cached, {len(outcome.failed)} failed",
            file=sys.stderr,
        )
        if outcome.interrupted:
            print(
                f"{command} {spec.name}: interrupted; checkpoint saved, "
                f"rerun the same command to continue",
                file=sys.stderr,
            )
    cells = aggregate_run(args.out)
    if archs is not None:
        _write_comparison(args, archs, cells)
    elif args.json:
        print(aggregate_json(cells))
    else:
        for line in sweep_table(cells):
            print(line)
    if not args.aggregate_only:
        if outcome.interrupted:
            return 130
        if outcome.failed:
            return 1
    return 0


def _write_comparison(args, archs, cells) -> None:
    """Write DIR/compare.json and print the comparison table (or JSON)."""
    from repro.sim.reporting import COMPARE_TABLE_METRICS, compare_table

    payload = {
        "schema": "soup-compare/v1",
        "architectures": archs,
        "metrics": [metric for metric, _ in COMPARE_TABLE_METRICS],
        "cells": [
            {
                "architecture": cell.overrides.get("architecture", "soup"),
                "overrides": cell.overrides,
                "seeds": cell.seeds,
                "stats": cell.stats(),
            }
            for cell in cells
        ],
    }
    artifact_path = Path(args.out) / "compare.json"
    artifact_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in compare_table(cells):
            print(line)
        print(f"compare: artifact written to {artifact_path}", file=sys.stderr)


def _cmd_fig15(args) -> int:
    from repro.deploy.traffic import MirrorLoadModel

    model = MirrorLoadModel(seed=args.seed)
    result = model.run(request_rate=args.rate, duration_s=args.duration)
    print(f"rate={args.rate}/s mean={result.mean_kb_per_s:.0f} KB/s "
          f"peak={result.peak_kb_per_s:.0f} KB/s served={result.requests_served} "
          f"timeouts={result.requests_timed_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SOUP (Middleware 2014) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario(name, help_text, json_help="emit the result series as JSON"):
        """A scenario command: a preset plus repeatable --base overrides."""
        preset = " ".join(
            f"{key}={json.dumps(value)}"
            for key, value in SCENARIO_PRESETS[name].items()
        )
        p = sub.add_parser(name, help=help_text, description=f"preset: {preset}")
        p.add_argument("--base", action="append", metavar="KEY=VALUE",
                       help="ScenarioConfig override on top of the preset "
                            "(repeatable): a JSON value, a bare word being a "
                            "string, e.g. --base dataset=epinions --base "
                            "repair=true --base soup.epsilon=0.02; faults "
                            "imply check_invariants=true; the tokens of a "
                            "repro line are such flags (docs/SWEEPS.md)")
        p.add_argument("--json", action="store_true", help=json_help)
        return p

    for name, help_text in (
        ("sim", "run the replication simulator (generic entry point)"),
        ("metrics", "run a scenario and print the metrics-registry view"),
        ("fig5", "availability & replica overhead"),
        ("fig6", "stored-profile CDF snapshots"),
        ("fig7", "cohort robustness"),
        ("fig8", "altruistic nodes"),
        ("fig9", "mass departure"),
        ("fig10", "slander attack"),
        ("fig11", "sybil flooding"),
    ):
        _obs_flags(scenario(name, help_text))

    sub.add_parser("table1", help="DOSN feature matrix")
    p3 = sub.add_parser("table3", help="dataset summary")
    p3.add_argument("--scale", type=float, default=1.0)
    p3.add_argument("--seed", type=int, default=0)

    pd = sub.add_parser("deploy", help="31-node deployment emulation")
    pd.add_argument("--architecture", default="soup", metavar="NAME",
                    help="pluggable architecture, soup by default "
                         "(the registered names: docs/ARCHITECTURES.md)")
    pd.add_argument("--desktop", type=int, default=27)
    pd.add_argument("--mobile", type=int, default=4)
    pd.add_argument("--duration", type=float, default=1800.0)
    pd.add_argument("--rounds", type=int, default=15)
    pd.add_argument("--seed", type=int, default=7)
    pd.add_argument("--profile", action="store_true",
                    help="time the middleware's hot paths and print a "
                         "per-phase breakdown at exit (a simulation: "
                         "soup perf)")
    _obs_flags(pd)

    def grid(name, help_text):
        """The options ``sweep`` and ``compare`` share."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", nargs="?", default=None,
                       help="sweep spec file (TOML or JSON); optional when "
                            "the scenario is given via flags")
        p.add_argument("--out", "-o", required=True, metavar="DIR",
                       help="run directory (created if missing; re-running "
                            "resumes: completed tasks are skipped by content "
                            "key)")
        p.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes (default: all cores; 1 = "
                            "serial in-process, byte-identical artifacts)")
        p.add_argument("--base", action="append", metavar="KEY=VALUE",
                       help="override applied to every task (repeatable), "
                            "e.g. --base scale=0.01; dotted keys reach nested "
                            "config (--base soup.epsilon=0.02)")
        p.add_argument("--seeds", default=None, metavar="LIST|LO:HI",
                       help="seeds per cell: '0,1,5' or half-open range '0:4'")
        p.add_argument("--name", default=None,
                       help="sweep name for the manifest")
        p.add_argument("--limit", type=int, default=None, metavar="N",
                       help="execute at most N pending tasks, then stop "
                            "(the rest stays pending for a later resume)")
        p.add_argument("--aggregate-only", action="store_true",
                       help="skip execution; re-aggregate existing artifacts")
        p.add_argument("--json", action="store_true",
                       help="emit the aggregated cells (compare: the "
                            "comparison artifact) as JSON")
        p.add_argument("--verbose", action="store_true",
                       help="also log cached (skipped) tasks")
        return p

    ps = grid(
        "sweep",
        "run a declarative scenario sweep over a process pool "
        "with checkpoint/resume (see docs/SWEEPS.md)",
    )
    ps.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                    help="add a grid axis (repeatable), e.g. "
                         "--set altruist_fraction=0.0,0.02,0.05")
    ps.add_argument("--status", action="store_true",
                    help="only report the run directory's completion state "
                         "(exit 3 if tasks are missing)")
    ps.add_argument("--watch", action="store_true",
                    help="with --status: poll the run directory and its "
                         "telemetry heartbeat, printing live progress with "
                         "ETA until the sweep completes (exit 0) or ends "
                         "with failures (exit 1)")
    ps.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                    help="poll interval for --watch (default: 2)")

    pc = grid(
        "compare",
        "head-to-head architecture comparison: a sweep with an injected "
        "architecture axis, printed as one table; the artifact lands at "
        "DIR/compare.json (see docs/ARCHITECTURES.md)",
    )
    pc.add_argument("--archs", default=None, metavar="A,B,...",
                    help="comma-separated architectures to compare "
                         "(default: every registered one)")
    pc.set_defaults(set=None, status=False)

    pf = sub.add_parser("fig15", help="mirror under high request rates")
    pf.add_argument("--rate", type=float, default=20.0)
    pf.add_argument("--duration", type=int, default=300)
    pf.add_argument("--seed", type=int, default=7)

    pp = scenario(
        "perf",
        "profile one epoch-loop run and export the per-phase "
        "breakdown: table, folded stacks (flamegraph input), "
        "Chrome trace-event JSON (see docs/OBSERVABILITY.md)",
        json_help="print the phase breakdown as one JSON document "
                  "on stdout (the tables go to stderr)",
    )
    pp.add_argument("--folded", default=None, metavar="PATH",
                    help="write folded-stack lines ('path micros') for "
                         "flamegraph.pl / speedscope")
    pp.add_argument("--chrome", default=None, metavar="PATH",
                    help="write Chrome trace-event JSON "
                         "(chrome://tracing, Perfetto)")
    pp.add_argument("--by-epoch", action="store_true",
                    help="also print the per-epoch phase breakdown")

    prs = sub.add_parser(
        "resilience",
        help="run a chaos scenario on a live-socket (or simulated) cluster "
             "and evaluate declarative gates (see docs/RESILIENCE.md)",
    )
    prs.add_argument("--nodes", type=int, default=25,
                     help="cluster size (default 25)")
    prs.add_argument("--seed", type=int, default=7)
    prs.add_argument("--backend", default="live", choices=("sim", "live"),
                     help="transport backend: real TCP loopback sockets "
                          "('live') or the deterministic simulator ('sim')")
    prs.add_argument("--chaos", default="",
                     help="fault-plan spec, e.g. "
                          "'kill:epoch=3:count=7;partition:epoch=5:heal=8'")
    prs.add_argument("--epochs", type=int, default=12)
    prs.add_argument("--epoch-s", type=float, default=0.5, metavar="SECONDS",
                     help="epoch length (wall seconds on live, simulated "
                          "seconds on sim)")
    prs.add_argument("--rps", type=float, default=40.0,
                     help="open-loop request rate (fig15-style mix)")
    prs.add_argument("--gates", default=None, metavar="TOML",
                     help="gate file to enforce "
                          "(e.g. configs/gates/smoke.toml)")
    prs.add_argument("--report", default=None, metavar="PATH",
                     help="write the soup-resilience/v1 report JSON here")
    prs.add_argument("--json", action="store_true",
                     help="print the full report JSON to stdout")
    prs.add_argument("--obs-dir", default=None, metavar="DIR",
                     help="enable the live observability plane: per-node "
                          "flight recorders, merged trace analysis, and a "
                          "heartbeat.json for `soup live top`")
    prs.add_argument("--bundle", default=None, metavar="DIR",
                     help="after the run (and gate evaluation), assemble a "
                          "content-keyed post-mortem bundle under DIR "
                          "(requires --obs-dir); analyze it with "
                          "`soup postmortem`")

    ppm = sub.add_parser(
        "postmortem",
        help="analyze a post-mortem bundle: verify hashes, merge the flight "
             "recorders into one causal trace, and reconstruct "
             "kill -> consequence chains (see docs/OBSERVABILITY.md)",
    )
    ppm.add_argument("bundle", help="bundle directory (bundle-<key>)")
    ppm.add_argument("--json", action="store_true",
                     help="emit the full post-mortem as JSON")
    ppm.add_argument("--max-links", type=int, default=8, metavar="N",
                     help="evidence links shown per causal chain (default: 8)")
    ppm.add_argument("--require-chain", action="store_true",
                     help="exit 3 unless at least one cross-node causal chain "
                          "was reconstructed (CI guard)")

    pl = sub.add_parser(
        "live", help="watch a live resilience run's streaming telemetry"
    )
    lsub = pl.add_subparsers(dest="live_command", required=True)
    plt = lsub.add_parser(
        "top",
        help="poll a run's heartbeat.json: epoch progress, per-node Lamport "
             "clocks, merged live metrics",
    )
    plt.add_argument("--dir", required=True, metavar="DIR",
                     help="the run's --obs-dir")
    plt.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="poll interval (default: 2.0)")
    plt.add_argument("--once", action="store_true",
                     help="print one snapshot and exit "
                          "(exit 3 if the run has not finished)")

    pr = sub.add_parser("replay", help="replay a soup-repro/v2 violation line")
    pr.add_argument("line", help="one-line repro string from an InvariantViolation")

    pt = sub.add_parser(
        "trace",
        help="analyze JSONL trace files: replica lifecycles, unavailability "
             "attribution, anomalies (see docs/OBSERVABILITY.md)",
    )
    tsub = pt.add_subparsers(dest="trace_command", required=True)

    pta = tsub.add_parser(
        "analyze",
        help="stream a trace into lifecycle, attribution, hot-spot and "
             "anomaly views",
    )
    pta.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")
    pta.add_argument("--json", action="store_true",
                     help="emit the full analysis as JSON")
    pta.add_argument("--top", type=int, default=20, metavar="N",
                     help="rows per ranking table (default: 20)")
    pta.add_argument("--lookback", type=int, default=24, metavar="EPOCHS",
                     help="how far before an unavailability window a causal "
                          "event may lie and still be blamed (default: 24)")

    ptn = tsub.add_parser(
        "anomalies", help="run only the rule-based anomaly detectors"
    )
    ptn.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")
    ptn.add_argument("--json", action="store_true",
                     help="emit findings as JSON")
    ptn.add_argument("--repair-loop-count", type=int, default=3, metavar="K",
                     help="repair rounds per owner within the window that "
                          "count as a loop (default: 3)")
    ptn.add_argument("--repair-loop-window", type=int, default=12,
                     metavar="EPOCHS",
                     help="sliding window for repair loops (default: 12)")
    ptn.add_argument("--churn-storm-drops", type=int, default=20, metavar="N",
                     help="replica drops within the window that count as a "
                          "storm (default: 20)")
    ptn.add_argument("--churn-storm-window", type=int, default=2,
                     metavar="EPOCHS",
                     help="sliding window for churn storms (default: 2)")
    ptn.add_argument("--flap-toggles", type=int, default=4, metavar="N",
                     help="times a (owner, mirror) pair may enter/leave the "
                          "mirror set before it is flapping (default: 4)")

    ptt = tsub.add_parser(
        "timeline", help="causal timeline of every event concerning one owner"
    )
    ptt.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")
    ptt.add_argument("owner", type=int, help="owner node id")
    ptt.add_argument("--json", action="store_true",
                     help="emit timeline entries as JSON")

    ptv = tsub.add_parser(
        "validate",
        help="validate a trace against the event schemas (exit 1 on any "
             "schema error; gzip-aware)",
    )
    ptv.add_argument("path", help="trace file (.jsonl or .jsonl.gz)")

    return parser


def _cmd_perf(args) -> int:
    from repro.obs.perf import chrome_trace, folded_lines
    from repro.obs.profiling import PROFILER
    from repro.sim.engine import run_scenario

    config = args.config
    PROFILER.reset()
    PROFILER.enable()
    PROFILER.record_events = bool(args.chrome)
    try:
        result = run_scenario(config)
    finally:
        PROFILER.disable()
        PROFILER.record_events = False

    print(f"dataset={config.dataset} scale={config.scale} days={config.n_days} "
          f"seed={config.seed} steady={result.steady_state_availability():.3f}",
          file=sys.stderr)
    # Under --json stdout is exactly one JSON document; the tables move.
    table = sys.stderr if args.json else sys.stdout
    for line in PROFILER.report_lines(top_level="engine.epoch"):
        print(line, file=table)
    if args.by_epoch:
        print("\nper-epoch phase wall seconds:", file=table)
        for epoch in PROFILER.epochs():
            phases = PROFILER.epoch_phases(epoch)
            rendered = " ".join(
                f"{name.rsplit('.', 1)[-1]}={wall:.4f}"
                for name, wall in sorted(phases.items())
            )
            print(f"epoch {epoch:>4}: {rendered}", file=table)
    if args.folded:
        lines = folded_lines(PROFILER)
        with open(args.folded, "w", encoding="utf-8") as sink:
            sink.write("\n".join(lines) + "\n")
        print(f"folded stacks: {args.folded} ({len(lines)} frames)",
              file=sys.stderr)
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as sink:
            json.dump(chrome_trace(PROFILER), sink)
            sink.write("\n")
        print(f"chrome trace: {args.chrome}", file=sys.stderr)
    if args.json:
        from repro.obs.perf import phase_breakdown

        print(json.dumps(
            {
                "phases": phase_breakdown(PROFILER),
                "totals": PROFILER.totals(),
                "cpu_totals": PROFILER.cpu_totals(),
                "counts": PROFILER.counts(),
            },
            indent=2,
            sort_keys=True,
        ))
    return 0


def _cmd_resilience(args) -> int:
    from repro.deploy.gates import evaluate_gates, load_gates
    from repro.deploy.live import ResilienceConfig, ResilienceHarness

    if args.bundle and not args.obs_dir:
        print("resilience: --bundle requires --obs-dir", file=sys.stderr)
        return 2
    try:
        gates = load_gates(args.gates) if args.gates else []
    except (OSError, ValueError) as exc:
        print(f"resilience: cannot load --gates {args.gates}: {exc}", file=sys.stderr)
        return 2
    config = ResilienceConfig(
        n_nodes=args.nodes,
        seed=args.seed,
        backend=args.backend,
        chaos=args.chaos,
        epochs=args.epochs,
        epoch_s=args.epoch_s,
        load_rps=args.rps,
        obs_dir=args.obs_dir or "",
    )
    print(
        f"resilience: backend={config.backend} nodes={config.n_nodes} "
        f"seed={config.seed} epochs={config.epochs} chaos={config.chaos!r}",
        file=sys.stderr,
    )
    report = ResilienceHarness(config).run()
    outcome = evaluate_gates(gates, report)
    report["gates"] = outcome

    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"report: {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        availability = report["availability"]
        print(
            f"availability mean={availability['mean']:.4f} "
            f"min={availability['min']:.4f} "
            f"during-chaos-min={availability['during_chaos_min']:.4f}"
        )
        read = report["latency"]["read"]
        print(
            f"read latency p50={read['p50_s'] * 1000:.2f}ms "
            f"p99={read['p99_s'] * 1000:.2f}ms ({read['count']} reads)"
        )
        durability = report["durability"]
        print(
            f"durability acked={durability['acked_updates']} "
            f"lost={durability['lost_acked_updates']}"
        )
        recovery = report["recovery"]
        if recovery["applicable"]:
            seconds = recovery["seconds"]
            print(
                "recovery after heal: "
                + (f"{seconds:.2f}s" if recovery["recovered"] else "NOT RECOVERED")
            )
    for result in outcome["results"]:
        status = "PASS" if result["passed"] else "FAIL"
        print(
            f"gate {status} {result['name']}: {result['metric']} "
            f"{result['op']} {result['value']} (actual {result['actual']})"
        )
    obs = report.get("obs")
    if obs:
        print(
            f"obs: {obs['trace_events']} trace events across "
            f"{obs['flight_files']} flight recorder(s), "
            f"{obs['chaos_actions']} chaos action(s), "
            f"{obs['anomalies']['total']} anomaly finding(s) -> {obs['dir']}",
            file=sys.stderr,
        )
    if args.bundle:
        # Assembled after gate evaluation so the bundle records the verdict.
        from repro.deploy.postmortem import assemble_bundle

        bundle_dir = assemble_bundle(args.obs_dir, args.bundle, report=report)
        print(f"bundle: {bundle_dir}", file=sys.stderr)
    if gates and not outcome["passed"]:
        names = ", ".join(outcome["violated"])
        print(f"resilience gates violated: {names}", file=sys.stderr)
        return 5
    return 0


def _cmd_postmortem(args) -> int:
    from repro.deploy.postmortem import (
        BundleError,
        correlate,
        load_bundle,
        render_postmortem,
    )

    try:
        bundle = load_bundle(args.bundle)
    except BundleError as exc:
        print(f"postmortem: {exc}", file=sys.stderr)
        return 2
    result = correlate(bundle)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        for line in render_postmortem(result, max_links=args.max_links):
            print(line)
    if args.require_chain and not result.cross_node_chains:
        print(
            "postmortem: no cross-node causal chain reconstructed",
            file=sys.stderr,
        )
        return 3
    return 0


def _render_live_top(heartbeat) -> List[str]:
    """One `soup live top` frame from a heartbeat document."""
    epoch = heartbeat.get("epoch", 0)
    total = heartbeat.get("epochs", 0)
    state = "done" if heartbeat.get("done") else "running"
    lines = [f"live run: epoch {epoch}/{total} [{state}]"]
    nodes = heartbeat.get("nodes") or {}
    if nodes:
        lamports = [int(n.get("lamport", 0)) for n in nodes.values()]
        events = sum(int(n.get("events", 0)) for n in nodes.values())
        lines.append(
            f"  nodes: {len(nodes)}  events: {events}  "
            f"lamport frontier: {max(lamports)} (min {min(lamports)})"
        )
    metrics = heartbeat.get("metrics") or {}
    sent = metrics.get("live.msgs.sent")
    recv = metrics.get("live.msgs.recv")
    if sent is not None or recv is not None:
        sent_bytes = metrics.get("live.bytes.sent", 0)
        lines.append(
            f"  messages: sent={int(sent or 0)} recv={int(recv or 0)} "
            f"bytes={int(sent_bytes)}"
        )
    latency = metrics.get("live.msg.latency_s")
    if isinstance(latency, dict) and latency.get("count"):
        lines.append(
            f"  latency: mean={latency['mean'] * 1000:.1f}ms "
            f"p50={latency['p50'] * 1000:.1f}ms "
            f"p90={latency['p90'] * 1000:.1f}ms "
            f"({int(latency['count'])} msgs)"
        )
    return lines


def _cmd_live_top(args) -> int:
    """Poll an obs dir's heartbeat until the run completes (PR 5's sweep
    ``--watch`` loop, pointed at the resilience harness's heartbeat)."""
    import os
    import time as _time

    path = os.path.join(args.dir, "heartbeat.json")
    while True:
        heartbeat = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                heartbeat = json.load(handle)
        except (OSError, json.JSONDecodeError):
            pass
        if heartbeat is None or heartbeat.get("schema") != "soup-live-heartbeat/v1":
            if args.once:
                print(f"{args.dir}: no live heartbeat", file=sys.stderr)
                return 3
            print(f"{args.dir}: waiting for live heartbeat...", file=sys.stderr)
            _time.sleep(args.interval)
            continue
        for line in _render_live_top(heartbeat):
            print(line)
        if heartbeat.get("done"):
            return 0
        if args.once:
            return 3
        _time.sleep(args.interval)


def _cmd_live(args) -> int:
    if args.live_command == "top":
        return _cmd_live_top(args)
    raise AssertionError(f"unhandled live command {args.live_command}")


def _cmd_replay(args) -> int:
    from repro.sim.invariants import parse_repro, run_repro

    try:
        parse_repro(args.line)
    except (TypeError, ValueError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    violation = run_repro(args.line)
    if violation is None:
        print("no violation: scenario completed with invariant checks green")
        return 1
    print(violation.to_json())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in SCENARIO_PRESETS:
        try:
            args.config = scenario_config(args.command, args.base)
        except ValueError as exc:
            parser.error(f"{args.command}: {exc}")
    tracer = _setup_observability(args)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - surface repro line, keep traceback opt-in
        from repro.sim.invariants import InvariantViolation

        if not isinstance(exc, InvariantViolation):
            raise
        print(f"invariant violation: {str(exc).splitlines()[0]}", file=sys.stderr)
        print(f"repro: {exc.repro}", file=sys.stderr)
        return 2
    finally:
        _teardown_observability(args, tracer)


_COMMANDS = {
    "sim": _cmd_availability,
    "metrics": _cmd_metrics,
    "fig5": _cmd_availability,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_availability,
    "fig9": _cmd_availability,
    "fig10": _cmd_availability,
    "fig11": _cmd_availability,
    "table1": _cmd_table1,
    "table3": _cmd_table3,
    "deploy": _cmd_deploy,
    "sweep": _cmd_sweep,
    "compare": _cmd_sweep,
    "fig15": _cmd_fig15,
    "perf": _cmd_perf,
    "resilience": _cmd_resilience,
    "postmortem": _cmd_postmortem,
    "live": _cmd_live,
    "replay": _cmd_replay,
    "trace": _cmd_trace,
}


if __name__ == "__main__":
    raise SystemExit(main())
