"""Post-mortem bundles: the black box of a resilience run.

After a chaos run, the harness's observability plane leaves per-node
flight recorders, a chaos log and gate results on disk.  This module
packs them into a **content-keyed bundle** — a directory named by the
SHA-256 of its evidence, so a bundle can be archived, shipped from CI as
an artifact, and verified bit-for-bit later — and implements the
``soup postmortem`` analysis over one:

* re-merge the flight recorders into a single causally ordered trace
  (:func:`repro.obs.analysis.merge_trace_files`) and run the *sim-side*
  analyzer and anomaly detectors over it, unchanged;
* correlate every chaos ``kill`` action with its consequences — failure
  declarations naming the victims, repair rounds replacing them,
  messages sent into the dead nodes that were never received, and the
  victims' unavailability windows — into typed causal chains whose
  evidence spans multiple nodes' recorders.

The bundle layout::

    bundle-<key12>/
      MANIFEST.json     # schema, content key, file hashes (written last)
      report.json       # the soup-resilience/v1 report incl. gate results
      chaos.json        # the chaos controller's action log
      heartbeat.json    # final streaming-metrics heartbeat (if present)
      flight/           # one JSONL flight recorder per node + harness
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.analysis import (
    AnomalyConfig,
    TraceAnalysis,
    TraceReadReport,
    analyze_events,
    merge_trace_files,
)

#: Bundle manifest schema identifier (bump on breaking layout changes).
BUNDLE_SCHEMA = "soup-postmortem/v1"

_MANIFEST = "MANIFEST.json"


class BundleError(ValueError):
    """A bundle is missing, malformed, or fails hash verification."""


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump(document: Any) -> bytes:
    return json.dumps(document, sort_keys=True, indent=1).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# assembling
# ----------------------------------------------------------------------
def assemble_bundle(
    obs_dir: str,
    out_root: str,
    report: Optional[Dict[str, Any]] = None,
) -> str:
    """Collect one run's evidence into a content-keyed bundle directory.

    ``obs_dir`` is the harness's observability directory (``flight/`` +
    ``heartbeat.json``); ``report`` is the finished ``soup-resilience/v1``
    report — passed in *after* gate evaluation so the bundle records the
    verdict, not just the run.  Returns the bundle directory path
    (``<out_root>/bundle-<key12>``); assembling the same evidence twice
    lands on the same directory.
    """
    flight_dir = os.path.join(obs_dir, "flight")
    if not os.path.isdir(flight_dir):
        raise BundleError(f"no flight recorders under {obs_dir!r}")
    flight_files = sorted(
        name for name in os.listdir(flight_dir) if name.endswith(".jsonl")
    )
    if not flight_files:
        raise BundleError(f"no flight recorder files in {flight_dir!r}")

    # name -> (source path or None, literal bytes or None, sha256)
    contents: Dict[str, Tuple[Optional[str], Optional[bytes], str]] = {}
    for name in flight_files:
        path = os.path.join(flight_dir, name)
        contents[f"flight/{name}"] = (path, None, _sha256_file(path))
    heartbeat = os.path.join(obs_dir, "heartbeat.json")
    if os.path.isfile(heartbeat):
        contents["heartbeat.json"] = (heartbeat, None, _sha256_file(heartbeat))
    if report is not None:
        report_bytes = _dump(report)
        contents["report.json"] = (None, report_bytes, _sha256_bytes(report_bytes))
        chaos_bytes = _dump(report.get("chaos", {}))
        contents["chaos.json"] = (None, chaos_bytes, _sha256_bytes(chaos_bytes))

    key = hashlib.sha256(
        "\n".join(
            f"{name} {sha}" for name, (_, _, sha) in sorted(contents.items())
        ).encode("utf-8")
    ).hexdigest()
    bundle_dir = os.path.join(out_root, f"bundle-{key[:12]}")
    os.makedirs(os.path.join(bundle_dir, "flight"), exist_ok=True)
    for name, (source, data, _) in contents.items():
        target = os.path.join(bundle_dir, name)
        if source is not None:
            shutil.copyfile(source, target)
        else:
            with open(target, "wb") as handle:
                handle.write(data)

    from repro.runtime.store import atomic_write_json

    # The manifest goes last, atomically: a bundle with a manifest is a
    # complete bundle — there is no observable half-written state.
    atomic_write_json(
        Path(bundle_dir) / _MANIFEST,
        {
            "schema": BUNDLE_SCHEMA,
            "key": key,
            "created_t": time.time(),
            "files": {
                name: {"sha256": sha} for name, (_, _, sha) in sorted(contents.items())
            },
        },
    )
    return bundle_dir


@dataclass
class Bundle:
    """A loaded, hash-verified post-mortem bundle."""

    path: str
    key: str
    manifest: Dict[str, Any]
    report: Optional[Dict[str, Any]] = None

    def flight_paths(self) -> List[str]:
        return [
            os.path.join(self.path, name)
            for name in sorted(self.manifest["files"])
            if name.startswith("flight/")
        ]


def _load_json_object(path: str, name: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise BundleError(f"{name} is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise BundleError(f"{name} is not a JSON object")
    return document


def load_bundle(path: str) -> Bundle:
    """Open a bundle, verifying every file against the manifest hashes.

    Anything the manifest gets wrong — bad JSON, a missing field, a file
    name that leaves the bundle directory — is a :class:`BundleError`.
    """
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise BundleError(f"{path!r} is not a post-mortem bundle (no {_MANIFEST})")
    manifest = _load_json_object(manifest_path, _MANIFEST)
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise BundleError(
            f"unsupported bundle schema {manifest.get('schema')!r} "
            f"(expected {BUNDLE_SCHEMA})"
        )
    key = manifest.get("key")
    if not isinstance(key, str):
        raise BundleError(f"{_MANIFEST} has no key")
    files = manifest.get("files", {})
    if not isinstance(files, dict):
        raise BundleError(f"{_MANIFEST} files is not an object")
    root = os.path.realpath(path)
    for name, meta in files.items():
        expected = meta.get("sha256") if isinstance(meta, dict) else None
        if not isinstance(expected, str):
            raise BundleError(f"{_MANIFEST} entry {name!r} has no sha256")
        file_path = os.path.join(path, name)
        if os.path.isabs(name) or os.path.commonpath(
            [root, os.path.realpath(file_path)]
        ) != root:
            raise BundleError(f"bundle file outside the bundle: {name!r}")
        if not os.path.isfile(file_path):
            raise BundleError(f"bundle file missing: {name}")
        actual = _sha256_file(file_path)
        if actual != expected:
            raise BundleError(
                f"bundle file corrupted: {name} "
                f"(sha256 {actual[:12]}… != manifest {expected[:12]}…)"
            )
    report = None
    report_path = os.path.join(path, "report.json")
    if os.path.isfile(report_path):
        report = _load_json_object(report_path, "report.json")
    return Bundle(path=path, key=key, manifest=manifest, report=report)


# ----------------------------------------------------------------------
# correlation: chaos actions -> causal chains
# ----------------------------------------------------------------------
@dataclass
class ChainLink:
    """One piece of evidence tied to a chaos action."""

    kind: str  # failure_declared | repair_round | lost_send | unavailability
    node: Optional[int]  # which node's recorder holds the evidence
    lamport: Optional[int]
    epoch: Optional[int]
    summary: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "node": self.node,
            "lamport": self.lamport,
            "epoch": self.epoch,
            "summary": self.summary,
            "data": self.data,
        }


@dataclass
class CausalChain:
    """One chaos action and every downstream consequence traced to it."""

    action: Dict[str, Any]
    victims: List[int]
    links: List[ChainLink] = field(default_factory=list)

    @property
    def nodes(self) -> List[int]:
        """Distinct nodes whose recorders contributed evidence."""
        return sorted(
            {link.node for link in self.links if isinstance(link.node, int)}
        )

    @property
    def cross_node(self) -> bool:
        """True when the chain's evidence spans >= 2 distinct recorders —
        the action's effect demonstrably propagated across the cluster."""
        return len(self.nodes) >= 2

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "action": {
                k: v for k, v in self.action.items()
                if k not in ("v", "seq")
            },
            "victims": self.victims,
            "cross_node": self.cross_node,
            "nodes": self.nodes,
            "links": [link.to_json_dict() for link in self.links],
        }


@dataclass
class Postmortem:
    """Everything ``soup postmortem`` derives from one bundle."""

    bundle: Bundle
    analysis: TraceAnalysis
    chains: List[CausalChain] = field(default_factory=list)

    @property
    def cross_node_chains(self) -> List[CausalChain]:
        return [chain for chain in self.chains if chain.cross_node]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": BUNDLE_SCHEMA,
            "bundle": self.bundle.path,
            "key": self.bundle.key,
            "trace": {
                "events": self.analysis.report.events,
                "errors": len(self.analysis.report.errors),
                "truncated": self.analysis.report.truncated,
                "events_by_type": dict(
                    sorted(self.analysis.events_by_type.items())
                ),
            },
            "chains": [chain.to_json_dict() for chain in self.chains],
            "cross_node_chains": len(self.cross_node_chains),
            "unavailability": {
                "owner_epochs": self.analysis.total_unavailable_epochs,
                "owners": len(self.analysis.unavailable_epochs_by_owner),
            },
            "findings": [f.to_json_dict() for f in self.analysis.findings],
            "gates": (self.bundle.report or {}).get("gates"),
        }


def correlate(
    bundle: Bundle, config: AnomalyConfig = AnomalyConfig()
) -> Postmortem:
    """Merge the bundle's flight recorders and trace every chaos ``kill``
    to its downstream evidence.

    A chain link qualifies when it *names* a victim (a failure
    declaration for it, a repair round replacing it, a message sent to it
    that no recorder ever received) or *is* a victim's unavailability
    window starting at or after the kill epoch.  The anomaly detectors
    run over the very same merged stream — live traces get exactly the
    sim's rules.
    """
    read_report = TraceReadReport()
    merged = merge_trace_files(
        bundle.flight_paths(), validate=True, report=read_report
    )

    kills: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    repairs: List[Dict[str, Any]] = []
    sends: Dict[str, Dict[str, Any]] = {}
    received: set = set()

    def spy(events):
        for obj in events:
            event = obj.get("event")
            if event == "chaos_action" and obj.get("kind") == "kill":
                kills.append(obj)
            elif event == "failure_declared":
                failures.append(obj)
            elif event == "repair_round":
                repairs.append(obj)
            elif event == "live_msg_send":
                msg_id = obj.get("msg_id")
                if isinstance(msg_id, str):
                    sends[msg_id] = obj
            elif event == "live_msg_recv":
                received.add(obj.get("msg_id"))
            yield obj

    analysis = analyze_events(spy(merged), config=config, report=read_report)

    chains: List[CausalChain] = []
    for kill in kills:
        victims = [v for v in kill.get("nodes") or () if isinstance(v, int)]
        victim_set = set(victims)
        kill_epoch = kill.get("epoch", 0)
        chain = CausalChain(action=kill, victims=victims)

        for obj in failures:
            if obj.get("peer") in victim_set and _at_or_after(obj, kill_epoch):
                chain.links.append(ChainLink(
                    kind="failure_declared",
                    node=obj.get("node", obj.get("by")),
                    lamport=obj.get("lamport"),
                    epoch=obj.get("epoch"),
                    summary=(
                        f"node {obj.get('by', obj.get('node'))} declared "
                        f"victim {obj['peer']} dead"
                        + (f" ({obj['reason']})" if obj.get("reason") else "")
                    ),
                    data={"peer": obj.get("peer"), "by": obj.get("by")},
                ))
        for obj in repairs:
            dead = [d for d in obj.get("dead") or () if d in victim_set]
            if dead and _at_or_after(obj, kill_epoch):
                chain.links.append(ChainLink(
                    kind="repair_round",
                    node=obj.get("node", obj.get("owner")),
                    lamport=obj.get("lamport"),
                    epoch=obj.get("epoch"),
                    summary=(
                        f"owner {obj.get('owner')} repaired, replacing dead "
                        f"victim(s) {dead} with "
                        f"{obj.get('replacements', '?')} replacement(s)"
                    ),
                    data={"owner": obj.get("owner"), "dead": dead},
                ))
        kill_lamport = kill.get("lamport")
        for msg_id, obj in sends.items():
            if obj.get("peer") not in victim_set or msg_id in received:
                continue
            lamport = obj.get("lamport")
            if (
                isinstance(kill_lamport, int)
                and isinstance(lamport, int)
                and lamport < kill_lamport
            ):
                continue  # predates the kill: in-flight loss, not causal
            chain.links.append(ChainLink(
                kind="lost_send",
                node=obj.get("node"),
                lamport=lamport,
                epoch=None,
                summary=(
                    f"node {obj.get('node')} sent "
                    f"{obj.get('kind', 'a message')} ({msg_id}) to dead "
                    f"victim {obj['peer']}; never received"
                ),
                data={"msg_id": msg_id, "peer": obj.get("peer")},
            ))
        for victim in victims:
            for window in analysis.windows_by_owner.get(victim, ()):
                if window.start_epoch >= kill_epoch:
                    chain.links.append(ChainLink(
                        kind="unavailability",
                        node=victim,
                        lamport=None,
                        epoch=window.start_epoch,
                        summary=(
                            f"victim {victim} unavailable epochs "
                            f"{window.start_epoch}-{window.end_epoch} "
                            f"({window.cause})"
                        ),
                        data={
                            "owner": victim,
                            "start_epoch": window.start_epoch,
                            "end_epoch": window.end_epoch,
                            "cause": window.cause,
                        },
                    ))
        chain.links.sort(
            key=lambda link: (
                link.lamport if link.lamport is not None else 1 << 60,
                link.epoch if link.epoch is not None else 1 << 60,
            )
        )
        chains.append(chain)

    return Postmortem(bundle=bundle, analysis=analysis, chains=chains)


def _at_or_after(obj: Dict[str, Any], epoch: int) -> bool:
    """Whether an event happened at/after ``epoch`` (events without an
    epoch — pure live events — are kept; lamport filters handle those)."""
    own = obj.get("epoch")
    return not isinstance(own, int) or own >= epoch


# ----------------------------------------------------------------------
# rendering (the `soup postmortem` text view)
# ----------------------------------------------------------------------
def render_postmortem(result: Postmortem, max_links: int = 8) -> List[str]:
    analysis = result.analysis
    lines = [
        f"post-mortem bundle {result.bundle.key[:12]} ({result.bundle.path})",
        f"  trace: {analysis.report.events} events from "
        f"{len(result.bundle.flight_paths())} flight recorder(s)"
        + (", truncated tail" if analysis.report.truncated else ""),
    ]
    gates = (result.bundle.report or {}).get("gates")
    if gates:
        verdict = "PASS" if gates.get("passed") else "FAIL"
        lines.append(
            f"  gates: {verdict}"
            + (
                f" (violated: {', '.join(gates.get('violated', []))})"
                if gates.get("violated")
                else ""
            )
        )
    lines.append("")
    if not result.chains:
        lines.append("no chaos kill actions in this trace")
    for chain in result.chains:
        marker = "cross-node" if chain.cross_node else "single-node"
        lines.append(
            f"kill @epoch {chain.action.get('epoch')} "
            f"victims={chain.victims} -> {len(chain.links)} linked "
            f"consequence(s) [{marker}, recorders: {chain.nodes}]"
        )
        for link in chain.links[:max_links]:
            clock = (
                f"lamport {link.lamport}"
                if link.lamport is not None
                else f"epoch {link.epoch}"
            )
            lines.append(f"    [{link.kind} @{clock}] {link.summary}")
        if len(chain.links) > max_links:
            lines.append(f"    ... and {len(chain.links) - max_links} more")
    lines.append("")
    lines.append(
        f"unavailability: {analysis.total_unavailable_epochs} owner-epochs "
        f"across {len(analysis.unavailable_epochs_by_owner)} owner(s)"
    )
    if analysis.findings:
        lines.append(f"anomalies: {len(analysis.findings)} finding(s)")
        for finding in analysis.findings:
            where = f" @epoch {finding.epoch}" if finding.epoch is not None else ""
            lines.append(f"  [{finding.rule}]{where} {finding.message}")
    else:
        lines.append("anomalies: none detected")
    return lines
