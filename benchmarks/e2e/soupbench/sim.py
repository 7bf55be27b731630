"""The ``sim_*`` workloads: whole runs of the epoch simulator.

A simulation cannot be cut short, so a run of the benchmark repeats
*generate graph, build ``SoupSimulation``, ``run()``* until about
``seconds`` of ``run()`` time have been measured (never fewer than one
simulation).  Every iteration rebuilds its inputs from the seed, which both
gives ``setup_s`` several samples and lets the result digests of the
iterations be compared: a speed-only change must leave them identical.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import Dict, List

from repro.graphs import generate_dataset
from repro.sim import ScenarioConfig, SoupSimulation

from soupbench.hostclock import HostClock
from soupbench.layers import LayerTrace, Tracer
from soupbench.spec import PER_LAYER, SimSpec


class _Iteration:
    """One generate → init → run() pass and what it measured."""

    def __init__(self, spec: SimSpec, seed: int, traced: bool, clock: HostClock) -> None:
        config = ScenarioConfig(**spec.scenario_kwargs(seed))
        # Every iteration starts from the same heap: without this the
        # previous simulation's garbage is collected inside the next set-up.
        gc.collect()
        t0 = time.perf_counter()
        graph = generate_dataset(config.dataset, scale=config.scale, seed=seed)
        t1 = time.perf_counter()
        simulation = SoupSimulation(graph, config)
        t2 = time.perf_counter()
        # Times are reference-host seconds (see hostclock); the *_wall_s
        # twins are what the wall clock read.
        self.generate_s = clock.reference_seconds(t0, t1)
        self.init_s = clock.reference_seconds(t1, t2)
        self.setup_wall_s = t2 - t0
        self.error = ""
        self.result = None
        tracer = Tracer(enabled=traced)
        t3 = time.perf_counter()
        try:
            with tracer:
                self.result = simulation.run()
        except Exception as exc:  # noqa: BLE001 — a raising run is a failed run, reported
            self.error = f"{type(exc).__name__}: {exc}"
        t4 = time.perf_counter()
        self.run_s = clock.reference_seconds(t3, t4)
        self.run_wall_s = t4 - t3
        self.trace: LayerTrace = tracer.trace
        self.epochs = config.n_epochs
        self.digest = ""
        self.served_share = self.replicas = 0.0
        if self.result is not None:
            day = config.epochs_per_day
            self.digest = hashlib.sha256(self.result.to_json().encode()).hexdigest()
            self.served_share = float(self.result.availability[-day:].mean())
            self.replicas = float(self.result.replica_overhead[-day:].mean())

    @property
    def node_epochs(self) -> int:
        return self.result.n_nodes * self.epochs if self.result is not None else 0

    def check(self, spec: SimSpec, reference_digest: str) -> str:
        """Why this iteration's output is wrong ("" if it is right)."""
        if self.error:
            return self.error
        if self.digest != reference_digest:
            return f"result digest {self.digest[:12]} != {reference_digest[:12]}"
        if self.served_share < spec.min_served_share:
            return f"served_share {self.served_share:.4f} < {spec.min_served_share}"
        if self.replicas >= spec.max_replicas:
            return f"replicas_per_owner {self.replicas:.3f} >= {spec.max_replicas}"
        return ""


def run(
    spec: SimSpec, seed: int, seconds: float, trace: bool, clock: HostClock
) -> Dict[str, object]:
    """Run the workload; returns the worker's result dict."""
    iterations: List[_Iteration] = []
    if trace:
        # Identical inputs, tracing off then on: the pair gives the overhead.
        iterations = [
            _Iteration(spec, seed, False, clock),
            _Iteration(spec, seed, True, clock),
        ]
    else:
        measured = 0.0
        while True:
            iteration = _Iteration(spec, seed, False, clock)
            iterations.append(iteration)
            measured += iteration.run_wall_s
            # Stop at the whole number of simulations nearest to `seconds`.
            if measured + iteration.run_wall_s / 2 > seconds:
                break

    reference = iterations[0].digest
    verdicts = [it.check(spec, reference) for it in iterations]
    problems = [verdict for verdict in verdicts if verdict]
    attempted = sum(it.epochs for it in iterations)
    failed = sum(it.epochs for it, verdict in zip(iterations, verdicts) if verdict)
    good = [it for it in iterations if it.result is not None] or iterations

    detail: Dict[str, object] = {
        "sim.result_digest": reference,
        "iterations": len(iterations),
        "run_s": [round(it.run_s, 4) for it in iterations],
        "nodes": good[0].node_epochs // good[0].epochs,
        "epochs": good[0].epochs,
        "problems": problems,
    }
    exact = {
        "sim.result_digest": reference,
        "served_share": good[0].served_share,
        "replicas_per_owner": good[0].replicas,
    }

    if not trace:
        # The fastest simulation of the run: what the host clock leaves
        # unexplained only ever slows one down (see README "Noise").
        best = min(good, key=lambda it: it.run_s)
        metrics = {
            "setup_s": statistics.median(it.generate_s + it.init_s for it in iterations),
            "throughput_per_s": best.node_epochs / best.run_s,
            "latency_p50_ms": best.run_s * 1e3,
            "served_share": good[0].served_share,
            "replicas_per_owner": good[0].replicas,
        }
        detail["wall_clock"] = {
            "run_s": [round(it.run_wall_s, 4) for it in iterations],
            "setup_s": [round(it.setup_wall_s, 4) for it in iterations],
        }
    else:
        plain, traced = iterations
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(traced.trace.metrics())
        result = traced.result
        if result is not None:
            reliability = result.reliability
            metrics.update(
                {
                    "sim.drop_rate_mean": _mean(result.drop_rate_by_round),
                    "sim.mirror_churn_mean": _mean(result.mirror_churn_by_round),
                    "sim.repairs_triggered": (
                        reliability.repairs_triggered if reliability else 0
                    ),
                    "sim.transfer_retries": (
                        reliability.transfer_retries if reliability else 0
                    ),
                }
            )
        metrics.update(
            {
                "graphs.generate_s": statistics.median(
                    it.generate_s for it in iterations
                ),
                "sim.engine.init_s": statistics.median(it.init_s for it in iterations),
                "failed_op_share": failed / attempted,
                "trace.units": traced.node_epochs,
                "trace.wall_s": traced.run_s,
                "trace.overhead_ratio": traced.run_s / plain.run_s,
            }
        )
        detail["ext.builtins.top"] = traced.trace.top_builtins()

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "exact": exact,
    }


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0
