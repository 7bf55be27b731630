"""Graceful-shutdown contract of the sweep executor.

A sweep stopped by Ctrl-C or SIGTERM must not leave a corrupt run
directory behind: telemetry is flushed (one final ``sweep_interrupted``
event plus a last valid heartbeat with ``interrupted: true``), the
manifest is finalized, and re-running ``soup sweep`` on the same directory
executes exactly the missing tasks with byte-identical artifacts.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.obs.trace import validate_trace_file
from repro.runtime import RunStore, SweepSpec, run_sweep
from repro.runtime import executor as executor_module


def tiny_spec(name="interrupt-test", n_seeds=2) -> SweepSpec:
    return SweepSpec(
        name=name,
        base={"scale": 0.004, "n_days": 2},
        grid={"altruist_fraction": [0.0, 0.02]},
        seeds=list(range(3, 3 + n_seeds)),
    )


def artifact_hashes(run_dir) -> dict:
    store = RunStore(run_dir)
    return {
        key: hashlib.sha256(store.artifact_path(key).read_bytes()).hexdigest()
        for key in store.completed_keys()
    }


def read_events(run_dir):
    store = RunStore(run_dir)
    with open(store.telemetry_events_path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def assert_clean_checkpoint(run_dir, *, expect_done: int) -> None:
    """The invariants every interrupted run directory must satisfy."""
    store = RunStore(run_dir)
    heartbeat = store.read_heartbeat()
    assert heartbeat is not None, "final heartbeat must be valid JSON"
    assert heartbeat["interrupted"] is True
    assert heartbeat["done"] == expect_done
    # The event stream is still a schema-valid v1 trace and records the stop.
    assert validate_trace_file(str(store.telemetry_events_path)) == []
    events = read_events(run_dir)
    stops = [e for e in events if e["event"] == "sweep_interrupted"]
    assert len(stops) == 1
    assert stops[0]["reason"] == "signal"
    assert stops[0]["total"] == 4


def test_keyboard_interrupt_serial_is_resumable(tmp_path, monkeypatch):
    real = executor_module.execute_task
    calls = {"n": 0}

    def interrupting(payload):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return real(payload)

    monkeypatch.setattr(executor_module, "execute_task", interrupting)
    run_dir = tmp_path / "run"
    outcome = run_sweep(tiny_spec(), run_dir, jobs=1)
    assert outcome.interrupted
    assert not outcome.complete
    assert len(outcome.executed) == 2 and not outcome.failed
    assert_clean_checkpoint(run_dir, expect_done=2)

    # Resume executes exactly the two missing tasks, byte-identical to a
    # never-interrupted reference run.
    monkeypatch.setattr(executor_module, "execute_task", real)
    second = run_sweep(tiny_spec(), run_dir, jobs=1)
    assert second.complete and not second.interrupted
    assert len(second.executed) == 2 and len(second.skipped) == 2
    reference = run_sweep(tiny_spec(), tmp_path / "reference", jobs=1)
    assert reference.complete
    assert artifact_hashes(run_dir) == artifact_hashes(tmp_path / "reference")


def test_keyboard_interrupt_pool_shuts_down_workers(tmp_path, monkeypatch):
    # Inject the interrupt into the scheduler loop itself: the pool path
    # must cancel queued futures, terminate workers, and still checkpoint.
    real_wait = executor_module.wait
    calls = {"n": 0}

    def interrupting_wait(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise KeyboardInterrupt
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(executor_module, "wait", interrupting_wait)
    run_dir = tmp_path / "run"
    outcome = run_sweep(tiny_spec(), run_dir, jobs=2)
    assert outcome.interrupted
    assert not outcome.complete
    assert_clean_checkpoint(run_dir, expect_done=0)
    # In-flight tasks are recorded as interrupted, not failed.
    manifest = json.loads(RunStore(run_dir).manifest_path.read_text())
    statuses = {t["status"] for t in manifest["tasks"]}
    assert "interrupted" in statuses and "failed" not in statuses

    monkeypatch.setattr(executor_module, "wait", real_wait)
    second = run_sweep(tiny_spec(), run_dir, jobs=2)
    assert second.complete
    assert len(second.executed) == 4


SIGTERM_DRIVER = textwrap.dedent(
    """
    import sys
    from repro.runtime import SweepSpec, run_sweep

    spec = SweepSpec(
        name="sigterm-test",
        base={"scale": 0.004, "n_days": 2},
        grid={"altruist_fraction": [0.0, 0.02]},
        seeds=[3, 4, 5, 6],
    )

    def progress(event, task, detail):
        print(event, task.task_id, flush=True)

    outcome = run_sweep(spec, sys.argv[1], jobs=1, progress=progress)
    sys.exit(130 if outcome.interrupted else 0)
    """
)


def test_sigterm_kills_worker_but_leaves_valid_checkpoint(tmp_path):
    """Send a real SIGTERM to a sweeping process mid-run; the directory it
    leaves behind must resume cleanly."""
    run_dir = tmp_path / "run"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(executor_module.__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-c", SIGTERM_DRIVER, str(run_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    # Wait until at least one task has finished so the interrupt lands
    # mid-sweep, then terminate politely (what CI runners send).
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if line.startswith("ok"):
            break
    else:  # pragma: no cover - diagnostic path
        proc.kill()
        raise AssertionError("sweep produced no finished task within 60s")
    proc.send_signal(signal.SIGTERM)
    returncode = proc.wait(timeout=60)
    proc.stdout.close()

    if returncode == 0:  # pragma: no cover - all 8 tasks beat the signal
        return
    assert returncode == 130

    store = RunStore(run_dir)
    heartbeat = store.read_heartbeat()
    assert heartbeat is not None and heartbeat["interrupted"] is True
    assert validate_trace_file(str(store.telemetry_events_path)) == []
    done_before = len(store.completed_keys())
    assert done_before >= 1

    # The checkpoint resumes: only the missing tasks run.
    spec = SweepSpec(
        name="sigterm-test",
        base={"scale": 0.004, "n_days": 2},
        grid={"altruist_fraction": [0.0, 0.02]},
        seeds=[3, 4, 5, 6],
    )
    outcome = run_sweep(spec, run_dir, jobs=1)
    assert outcome.complete and not outcome.interrupted
    assert len(outcome.skipped) == done_before
    assert len(outcome.executed) == 8 - done_before
