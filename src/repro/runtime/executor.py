"""The sweep executor: fan tasks out over processes, checkpoint each one.

``run_sweep`` expands a :class:`~repro.runtime.spec.SweepSpec`, skips every
task whose artifact already exists in the run directory (checkpoint/resume
by content-hashed task key), and executes the rest — either in-process
(``jobs=1``, the byte-identical serial reference path) or on a spawned
``ProcessPoolExecutor``.

Determinism contract: a task's artifact depends only on its resolved
config.  Workers run nothing but :func:`repro.sim.engine.run_task` under a
disabled tracer and a fresh metrics registry, the spawn start method keeps
them free of inherited interpreter state, and artifacts are serialized with
sorted keys — so ``--jobs 1`` and ``--jobs N`` produce byte-identical
artifacts, and re-running a finished sweep re-runs nothing.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.obs import MetricsRegistry, set_tracer
from repro.runtime.spec import SweepSpec, SweepTask, build_config
from repro.runtime.store import ARTIFACT_SCHEMA, RunStore

logger = logging.getLogger("repro.runtime.executor")

#: ``progress(event, task, detail)`` callback; events are "skip", "ok",
#: "fail" with detail = seconds (ok), error string (fail), or None.
ProgressFn = Callable[[str, SweepTask, Any], None]

#: Seconds between heartbeat refreshes while waiting on long tasks.
HEARTBEAT_INTERVAL_S = 5.0


class SweepTelemetry:
    """Live progress for one ``run_sweep`` invocation.

    Appends ``sweep_task_started`` / ``sweep_task_finished`` trace events
    to ``<run_dir>/telemetry/events.jsonl`` and keeps
    ``telemetry/heartbeat.json`` fresh with done/total counts, the mean
    task duration and an ETA — what ``soup sweep --status --watch``
    renders.  All wallclock: telemetry describes the orchestrator, not
    the simulated world, so the artifact determinism contract is
    untouched.
    """

    def __init__(self, store: RunStore, name: str, total: int,
                 cached: int, workers: int) -> None:
        self.store = store
        self.name = name
        self.total = total
        self.done = cached  # cached tasks count as done from the start
        self.failed = 0
        self.running = 0
        self.workers = max(1, workers)
        self.durations: List[float] = []
        self.interrupted = False

    def _eta_seconds(self) -> Optional[float]:
        if not self.durations:
            return None
        pending = self.total - self.done
        mean = sum(self.durations) / len(self.durations)
        return pending * mean / self.workers

    def heartbeat(self) -> None:
        self.store.write_heartbeat({
            "name": self.name,
            "updated_at": time.time(),
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "running": self.running,
            "mean_task_seconds": (
                sum(self.durations) / len(self.durations)
                if self.durations else None
            ),
            "eta_seconds": self._eta_seconds(),
            "interrupted": self.interrupted,
        })

    def sweep_interrupted(self, reason: str) -> None:
        """Record the early stop: one final trace event + a last valid
        heartbeat (``interrupted: true``) so ``--status`` and a re-run
        see a cleanly checkpointed, not silently dead, run."""
        self.interrupted = True
        self.store.append_telemetry_event(
            "sweep_interrupted", done=self.done, total=self.total,
            running=self.running, reason=reason,
        )
        self.heartbeat()

    def task_started(self, task: SweepTask) -> None:
        self.running += 1
        self.store.append_telemetry_event(
            "sweep_task_started", task=task.task_id, key=task.key,
            pending=self.total - self.done, total=self.total,
        )
        self.heartbeat()

    def task_finished(self, task: SweepTask, status: str,
                      seconds: Optional[float] = None,
                      error: Optional[str] = None) -> None:
        self.running = max(0, self.running - 1)
        self.done += 1
        if status == "failed":
            self.failed += 1
        if seconds is not None:
            self.durations.append(seconds)
        fields: Dict[str, Any] = dict(
            task=task.task_id, key=task.key, status=status,
            done=self.done, total=self.total,
        )
        if seconds is not None:
            fields["seconds"] = round(seconds, 6)
        if error is not None:
            fields["error"] = error
        self.store.append_telemetry_event("sweep_task_finished", **fields)
        self.heartbeat()


def execute_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task and build its artifact document (worker entry point).

    Takes/returns plain JSON-safe dicts so it crosses process boundaries
    under the spawn start method.  The tracer is forced off for the run:
    per-task trace files are not part of the sweep contract, and a tracer
    inherited by the in-process serial path would otherwise make ``--jobs
    1`` behave differently from workers.
    """
    from repro.sim.engine import run_task  # deferred: keep spawn imports lean

    config = build_config(payload["overrides"])
    previous_tracer = set_tracer(None)
    try:
        result, metrics_state = run_task(config)
    finally:
        set_tracer(previous_tracer)
    return {
        "schema": ARTIFACT_SCHEMA,
        "task": {
            "id": payload["id"],
            "key": payload["key"],
            "overrides": payload["overrides"],
        },
        "summary": result.summary(),
        "result": result.to_json_dict(),
        "metrics_state": metrics_state,
    }


def _task_payload(task: SweepTask) -> Dict[str, Any]:
    return {"id": task.task_id, "key": task.key, "overrides": task.overrides}


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` invocation did."""

    run_dir: Path
    tasks: List[SweepTask]
    executed: List[str] = field(default_factory=list)  # task keys run now
    skipped: List[str] = field(default_factory=list)  # already checkpointed
    failed: Dict[str, str] = field(default_factory=dict)  # key -> error
    #: Merged engine metrics across every task executed in this invocation.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: True when SIGTERM/KeyboardInterrupt stopped the sweep early; the
    #: run directory is still a valid resume checkpoint.
    interrupted: bool = False

    @property
    def complete(self) -> bool:
        return not self.failed and (
            len(self.executed) + len(self.skipped) == len(self.tasks)
        )


def run_sweep(
    spec: SweepSpec,
    run_dir: "str | Path",
    jobs: Optional[int] = None,
    limit: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: bool = True,
) -> SweepOutcome:
    """Execute (or resume) a sweep into ``run_dir``.

    ``jobs=1`` runs tasks serially in-process; ``jobs=N`` fans out over a
    spawned process pool; ``jobs=None`` uses ``os.cpu_count()``.  ``limit``
    caps how many pending tasks this invocation executes — the remainder
    stays pending for a later resume (and doubles as a deterministic
    stand-in for a killed sweep in tests/CI).

    ``telemetry=True`` (the default) streams live progress into
    ``<run_dir>/telemetry/``: ``sweep_task_started``/``sweep_task_finished``
    trace events and an atomically-refreshed ``heartbeat.json`` with an
    ETA — what ``soup sweep --status --watch`` renders.  Telemetry is
    wallclock-stamped observability output only; it never feeds resume
    and is excluded from the artifact determinism contract.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")

    tasks = spec.expand()
    store = RunStore(run_dir)
    store.initialize(spec, tasks)
    completed = store.completed_keys()

    outcome = SweepOutcome(run_dir=Path(run_dir), tasks=tasks)
    statuses: Dict[str, Dict[str, Any]] = {}
    pending: List[SweepTask] = []
    for task in tasks:
        if task.key in completed:
            outcome.skipped.append(task.key)
            statuses[task.key] = {"status": "cached"}
            if progress is not None:
                progress("skip", task, None)
        else:
            pending.append(task)
    if limit is not None:
        for task in pending[limit:]:
            statuses[task.key] = {"status": "pending"}
        pending = pending[:limit]

    logger.info(
        "sweep %s: %d tasks (%d cached, %d to run), jobs=%d",
        spec.name, len(tasks), len(outcome.skipped), len(pending), jobs,
    )

    workers = min(jobs, max(1, len(pending)))
    live: Optional[SweepTelemetry] = None
    if telemetry:
        live = SweepTelemetry(
            store, spec.name, total=len(tasks),
            cached=len(outcome.skipped), workers=workers,
        )
        live.heartbeat()

    def record_success(task: SweepTask, artifact: Dict[str, Any], seconds: float) -> None:
        store.write_artifact(task, artifact)
        outcome.executed.append(task.key)
        statuses[task.key] = {"status": "ok"}
        outcome.metrics.merge_state(artifact.get("metrics_state", {}))
        if live is not None:
            live.task_finished(task, "ok", seconds=seconds)
        if progress is not None:
            progress("ok", task, seconds)

    def record_failure(task: SweepTask, error: BaseException, seconds: float) -> None:
        message = f"{type(error).__name__}: {error}"
        outcome.failed[task.key] = message
        statuses[task.key] = {"status": "failed", "error": message}
        logger.error("task %s failed: %s", task.task_id, message)
        if live is not None:
            live.task_finished(task, "failed", seconds=seconds, error=message)
        if progress is not None:
            progress("fail", task, message)

    # SIGTERM → KeyboardInterrupt, so one code path handles Ctrl-C and a
    # polite kill (what CI runners and process supervisors send) the same
    # way: stop cleanly, flush telemetry, leave a resumable checkpoint.
    previous_sigterm = None
    if threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum, frame):  # noqa: ARG001
            raise KeyboardInterrupt("SIGTERM")

        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)

    def mark_interrupted(reason: str) -> None:
        outcome.interrupted = True
        logger.warning("sweep %s interrupted (%s); checkpoint is resumable",
                       spec.name, reason)
        if live is not None:
            live.sweep_interrupted(reason)

    try:
        if jobs == 1 or len(pending) <= 1:
            for task in pending:
                if live is not None:
                    live.task_started(task)
                start = time.perf_counter()
                try:
                    artifact = execute_task(_task_payload(task))
                except KeyboardInterrupt:
                    statuses[task.key] = {"status": "interrupted"}
                    mark_interrupted("signal")
                    break
                except Exception as exc:  # noqa: BLE001 - record, keep sweeping
                    record_failure(task, exc, time.perf_counter() - start)
                    continue
                record_success(task, artifact, time.perf_counter() - start)
        else:
            # Spawn (not fork): workers must not inherit tracers, registries,
            # or any other interpreter state that could diverge from --jobs 1.
            context = multiprocessing.get_context("spawn")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            # Lazy submission: keep exactly ``workers`` futures in flight so
            # a sweep_task_started event means the task really has a worker
            # slot, not just a queue position.
            queue = list(pending)
            in_flight: Dict[Any, "tuple[SweepTask, float]"] = {}

            def submit_next() -> None:
                task = queue.pop(0)
                if live is not None:
                    live.task_started(task)
                future = pool.submit(execute_task, _task_payload(task))
                in_flight[future] = (task, time.perf_counter())

            try:
                while queue and len(in_flight) < workers:
                    submit_next()
                while in_flight:
                    done, _ = wait(
                        set(in_flight),
                        timeout=HEARTBEAT_INTERVAL_S,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # Long tasks: keep the heartbeat fresh so --watch can
                        # tell "still running" from "died".
                        if live is not None:
                            live.heartbeat()
                        continue
                    for future in done:
                        task, start = in_flight.pop(future)
                        elapsed = time.perf_counter() - start
                        try:
                            artifact = future.result()
                        except Exception as exc:  # noqa: BLE001
                            record_failure(task, exc, elapsed)
                        else:
                            record_success(task, artifact, elapsed)
                        if queue:
                            submit_next()
            except KeyboardInterrupt:
                for task, _ in in_flight.values():
                    statuses[task.key] = {"status": "interrupted"}
                mark_interrupted("signal")
                # Drop queued work and stop the workers without blocking on
                # them; a spawn worker mid-task is killed, its artifact is
                # simply absent and --resume re-runs it.
                pool.shutdown(wait=False, cancel_futures=True)
                for process in (getattr(pool, "_processes", None) or {}).values():
                    process.terminate()
            else:
                pool.shutdown(wait=True)
    except KeyboardInterrupt:
        # Interrupt landed outside the task loops (e.g. during telemetry):
        # still leave a coherent checkpoint behind.
        mark_interrupted("signal")
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    store.finalize(statuses)
    return outcome
