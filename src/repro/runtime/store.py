"""Crash-safe on-disk run directories for sweeps.

Layout of one run directory::

    <run_dir>/
      manifest.json          # spec, task list, last known statuses
      tasks/<task_key>.json  # one artifact per completed task
      telemetry/
        heartbeat.json       # live progress snapshot (done/total, ETA)
        events.jsonl         # sweep_task_started/finished trace events

Every file is written atomically: serialize to a temp file in the same
directory, ``fsync``, then ``os.replace`` over the final name.  A sweep
killed at any instant therefore leaves either a complete artifact or none —
never a truncated one — which is what makes resume lossless.

The ``telemetry/`` files are the exception to determinism, on purpose:
they carry wallclock timestamps and durations so a running sweep can be
watched live (``soup sweep --out DIR --status --watch``).  They are
append-only observability output, never read by resume.

Completion is decided from the artifacts alone (a key's artifact exists,
parses, and self-identifies with that key); the statuses recorded in the
manifest are a convenience snapshot written when a sweep run finishes, and
are never trusted by resume.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.runtime.spec import SweepSpec, SweepTask

MANIFEST_SCHEMA = "soup-sweep-run/v1"
ARTIFACT_SCHEMA = "soup-sweep-task/v1"
HEARTBEAT_SCHEMA = "soup-sweep-heartbeat/v1"


def atomic_write_json(path: Path, document: Dict[str, Any]) -> None:
    """Serialize ``document`` and atomically replace ``path`` with it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class RunStore:
    """One sweep run directory: manifest + per-task artifacts."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.telemetry_dir = self.root / "telemetry"
        #: Next telemetry seq; initialized lazily from the existing event
        #: file so resumed sweeps keep the sequence monotonic.
        self._telemetry_seq: Optional[int] = None

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def heartbeat_path(self) -> Path:
        return self.telemetry_dir / "heartbeat.json"

    @property
    def telemetry_events_path(self) -> Path:
        return self.telemetry_dir / "events.jsonl"

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def initialize(self, spec: SweepSpec, tasks: List[SweepTask]) -> None:
        """(Re-)write the manifest for this sweep's task list.

        Existing artifacts are left untouched — they are the checkpoint.
        Re-initializing with a changed spec simply records the new task
        list; overlapping tasks (same content key) still count as done.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "name": spec.name,
            "spec": spec.to_mapping(),
            "spec_hash": spec.spec_hash(),
            "tasks": [
                {
                    "id": task.task_id,
                    "key": task.key,
                    "overrides": task.overrides,
                    "status": "pending",
                }
                for task in tasks
            ],
        }
        atomic_write_json(self.manifest_path, manifest)

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        if not self.manifest_path.exists():
            return None
        with open(self.manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"{self.manifest_path}: unsupported manifest schema "
                f"{manifest.get('schema')!r}"
            )
        return manifest

    def finalize(self, statuses: Dict[str, Dict[str, Any]]) -> None:
        """Record per-task outcomes (``key -> {"status": ..., "error": ...}``)
        into the manifest.  Purely informational — resume re-derives truth
        from the artifacts."""
        manifest = self.load_manifest()
        if manifest is None:
            raise RuntimeError(f"no manifest in {self.root}; initialize first")
        for entry in manifest["tasks"]:
            outcome = statuses.get(entry["key"])
            if outcome is not None:
                entry["status"] = outcome["status"]
                error = outcome.get("error")
                if error:
                    entry["error"] = error
                else:
                    entry.pop("error", None)
        atomic_write_json(self.manifest_path, manifest)

    # ------------------------------------------------------------------
    # telemetry (live progress; wallclock on purpose, never read by resume)
    # ------------------------------------------------------------------
    def write_heartbeat(self, payload: Dict[str, Any]) -> None:
        """Atomically replace the heartbeat snapshot (schema-stamped)."""
        document = {"schema": HEARTBEAT_SCHEMA}
        document.update(payload)
        atomic_write_json(self.heartbeat_path, document)

    def read_heartbeat(self) -> Optional[Dict[str, Any]]:
        """The last heartbeat, or None if absent/corrupt (mid-replace)."""
        if not self.heartbeat_path.exists():
            return None
        try:
            with open(self.heartbeat_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != HEARTBEAT_SCHEMA:
            return None
        return payload

    def append_telemetry_event(self, event: str, **fields: Any) -> None:
        """Append one schema-valid trace event to ``telemetry/events.jsonl``.

        The file is a regular v1 trace (``soup trace validate`` passes on
        it); ``seq`` continues across resumes.  Each record is one
        ``write`` of a newline-terminated line, so concurrent appends
        from one process never interleave mid-record.
        """
        from repro.obs.trace import encode_trace_event

        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        if self._telemetry_seq is None:
            try:
                with open(
                    self.telemetry_events_path, "r", encoding="utf-8"
                ) as handle:
                    self._telemetry_seq = sum(1 for _ in handle)
            except OSError:
                self._telemetry_seq = 0
        _, line = encode_trace_event(self._telemetry_seq, event, fields)
        self._telemetry_seq += 1
        with open(self.telemetry_events_path, "a", encoding="utf-8") as handle:
            handle.write(line)

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def artifact_path(self, key: str) -> Path:
        return self.tasks_dir / f"{key}.json"

    def write_artifact(self, task: SweepTask, payload: Dict[str, Any]) -> Path:
        if payload.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact for {task.task_id} missing schema {ARTIFACT_SCHEMA!r}"
            )
        if payload.get("task", {}).get("key") != task.key:
            raise ValueError(
                f"artifact for {task.task_id} does not self-identify with "
                f"key {task.key}"
            )
        path = self.artifact_path(task.key)
        atomic_write_json(path, payload)
        return path

    def read_artifact(self, key: str) -> Optional[Dict[str, Any]]:
        """The artifact for ``key``, or None if absent or invalid (a
        corrupt artifact is treated as missing, so resume re-runs it)."""
        path = self.artifact_path(key)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != ARTIFACT_SCHEMA:
            return None
        if payload.get("task", {}).get("key") != key:
            return None
        return payload

    def completed_keys(self) -> Set[str]:
        """Keys with a valid artifact on disk (the resume checkpoint)."""
        completed: Set[str] = set()
        if not self.tasks_dir.is_dir():
            return completed
        for path in sorted(self.tasks_dir.glob("*.json")):
            key = path.stem
            if self.read_artifact(key) is not None:
                completed.add(key)
        return completed
