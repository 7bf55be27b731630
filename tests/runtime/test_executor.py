"""Determinism and resume contracts of the sweep executor.

These are the acceptance tests the orchestrator exists to pass:

* ``jobs=N`` produces byte-identical artifacts to the in-process
  ``jobs=1`` reference path;
* a partially-complete run directory resumes by executing exactly the
  missing tasks, reproducing their artifacts byte-for-byte.
"""

import hashlib

import pytest

from repro.obs import get_tracer
from repro.runtime import RunStore, SweepSpec, run_sweep


def tiny_spec() -> SweepSpec:
    # 4 tasks, each well under a second: 2 altruist fractions x 2 seeds.
    return SweepSpec(
        name="exec-test",
        base={"scale": 0.004, "n_days": 2},
        grid={"altruist_fraction": [0.0, 0.02]},
        seeds=[3, 4],
    )


def artifact_hashes(run_dir) -> dict:
    store = RunStore(run_dir)
    return {
        key: hashlib.sha256(store.artifact_path(key).read_bytes()).hexdigest()
        for key in store.completed_keys()
    }


def test_serial_sweep_completes(tmp_path):
    spec = tiny_spec()
    outcome = run_sweep(spec, tmp_path / "run", jobs=1)
    assert outcome.complete
    assert not outcome.failed
    assert len(outcome.executed) == 4
    assert outcome.skipped == []
    # Artifacts carry real results and merged metrics made it back.
    store = RunStore(tmp_path / "run")
    payload = store.read_artifact(outcome.executed[0])
    assert 0.0 < payload["summary"]["availability_steady"] <= 1.0
    assert outcome.metrics.state_dict()["counters"]


def test_parallel_artifacts_byte_identical_to_serial(tmp_path):
    spec = tiny_spec()
    serial = run_sweep(spec, tmp_path / "serial", jobs=1)
    parallel = run_sweep(spec, tmp_path / "parallel", jobs=4)
    assert serial.complete and parallel.complete
    serial_hashes = artifact_hashes(tmp_path / "serial")
    parallel_hashes = artifact_hashes(tmp_path / "parallel")
    assert set(serial_hashes) == set(parallel_hashes)
    assert serial_hashes == parallel_hashes, (
        "--jobs 4 artifacts diverge from the --jobs 1 reference"
    )


def test_resume_runs_exactly_the_missing_tasks(tmp_path):
    spec = tiny_spec()
    run_dir = tmp_path / "run"
    first = run_sweep(spec, run_dir, jobs=1)
    assert first.complete
    original_hashes = artifact_hashes(run_dir)

    # Simulate a killed sweep: delete half the checkpointed artifacts.
    store = RunStore(run_dir)
    all_keys = sorted(original_hashes)
    deleted, kept = all_keys[: len(all_keys) // 2], all_keys[len(all_keys) // 2 :]
    for key in deleted:
        store.artifact_path(key).unlink()

    second = run_sweep(spec, run_dir, jobs=1)
    assert second.complete
    assert sorted(second.executed) == deleted
    assert sorted(second.skipped) == kept
    # The re-executed artifacts are byte-identical to the originals.
    assert artifact_hashes(run_dir) == original_hashes

    # A third invocation finds nothing to do.
    third = run_sweep(spec, run_dir, jobs=1)
    assert third.executed == [] and len(third.skipped) == 4


def test_limit_leaves_remainder_pending(tmp_path):
    spec = tiny_spec()
    run_dir = tmp_path / "run"
    partial = run_sweep(spec, run_dir, jobs=1, limit=1)
    assert not partial.complete
    assert len(partial.executed) == 1
    by_key = {e["key"]: e["status"] for e in RunStore(run_dir).load_manifest()["tasks"]}
    assert sorted(by_key.values()) == ["ok", "pending", "pending", "pending"]

    finish = run_sweep(spec, run_dir, jobs=1)
    assert finish.complete
    assert len(finish.executed) == 3 and len(finish.skipped) == 1


def test_failure_recorded_and_sweep_continues(tmp_path, monkeypatch):
    # An executor-level failure: a task that raises inside the worker (a
    # bad value, an unknown dataset included, fails at expansion instead).
    from repro.runtime import executor as executor_module

    real = executor_module.execute_task

    def failing_on_epinions(payload):
        if payload["overrides"]["dataset"] == "epinions":
            raise RuntimeError("worker exploded on epinions")
        return real(payload)

    monkeypatch.setattr(executor_module, "execute_task", failing_on_epinions)
    spec = SweepSpec(
        name="partial-fail",
        base={"scale": 0.004, "n_days": 1},
        grid={"dataset": ["facebook", "epinions"]},
        seeds=[3],
    )
    outcome = run_sweep(spec, tmp_path / "run", jobs=1)
    assert not outcome.complete
    assert len(outcome.executed) == 1
    assert len(outcome.failed) == 1
    (message,) = outcome.failed.values()
    assert "worker exploded on epinions" in message
    statuses = {e["status"] for e in RunStore(tmp_path / "run").load_manifest()["tasks"]}
    assert statuses == {"ok", "failed"}


def test_sweep_leaves_caller_tracer_untouched(tmp_path):
    before = get_tracer()
    run_sweep(
        SweepSpec(name="tracer", base={"scale": 0.004, "n_days": 1}, seeds=[3]),
        tmp_path / "run",
        jobs=1,
    )
    assert get_tracer() is before


def test_jobs_validation(tmp_path):
    spec = tiny_spec()
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(spec, tmp_path / "run", jobs=0)
    with pytest.raises(ValueError, match="limit"):
        run_sweep(spec, tmp_path / "run", jobs=1, limit=-1)
