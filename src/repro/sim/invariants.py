"""Runtime invariant checking for the simulation core.

The north star is a production-scale system under heavy churn, which is
exactly the regime where the seed's one latent DHT bug lived: an entry on
the wrong node after a departure is invisible until an unlucky lookup.
This module turns those latent states into immediate, reproducible
failures.  Every epoch (behind ``ScenarioConfig.check_invariants``) a
:class:`InvariantChecker` validates:

* ``announced-mirrors-stored`` — every mirror a node *announces* in the
  directory actually stores its replica, unless the engine knows the owner
  has not yet learned of a legitimate drop (the paper's protective-dropping
  precondition: announced-vs-real mismatches must come from attackers, not
  from the engine's own bookkeeping).  Where a replica lives is read from
  the one record of it, the mirror's :class:`ReplicaStore`, through
  ``SoupSimulation.holds`` (a departed mirror holds nothing).
* ``replica-count-meets-target`` — an online owner retains at least as
  many live replicas as its net announced mirror set (Algorithm 1's
  accepted selection target).
* ``storage-within-capacity`` — no replica store holds more whole
  profiles than its capacity budget.
* ``membership-columns-consistent`` — the engine's packed membership
  arrays (joined / departed / benign / join epoch), which every per-epoch
  vector pass reads, agree with the per-node flags they shadow: a write
  that bypasses ``SoupSimulation.note_departed`` shows here, in the epoch
  it happens.

For DHT overlays (:class:`repro.dht.pastry.PastryOverlay`) the companion
:func:`overlay_violations` checks entry placement (every directory entry
on its responsible node — the check that would have caught the seed's
``leave()`` bug), leaf-set symmetry/liveness, routing-table liveness and
that every remembered route is still the route the ring computes.
:func:`mirror_manager_violations` gives the protocol-level node
(:class:`repro.node.mirror_manager.MirrorManager`) the same treatment.

Violations raise :class:`InvariantViolation` carrying the epoch, the node
ids involved, a minimal serialized state snapshot, and a **one-line repro
string** that replays the exact scenario (config + fault plan) with
checking enabled — see :func:`format_repro` / :func:`parse_repro` /
:func:`run_repro`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Set by ``pytest --check-invariants`` (repro.testing.plugin): forces every
#: SoupSimulation built afterwards to run with the checker on, regardless
#: of its ScenarioConfig.
FORCE_CHECKS = False


@dataclass
class Violation:
    """One invariant breach, with a minimal serializable snapshot."""

    invariant: str
    epoch: int
    node_ids: Tuple[int, ...]
    detail: str
    snapshot: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "epoch": self.epoch,
            "node_ids": list(self.node_ids),
            "detail": self.detail,
            "snapshot": self.snapshot,
        }


class InvariantViolation(Exception):
    """Raised when a runtime invariant check fails.

    Carries every violation found in the failing check plus the one-line
    repro string that replays it deterministically.
    """

    def __init__(self, violations: Sequence[Violation], repro: str = "") -> None:
        if not violations:
            raise ValueError("InvariantViolation requires at least one violation")
        self.violations = list(violations)
        self.repro = repro
        first = self.violations[0]
        self.invariant = first.invariant
        self.epoch = first.epoch
        self.node_ids = first.node_ids
        lines = [
            f"{len(self.violations)} invariant violation(s); first: "
            f"[{first.invariant}] epoch={first.epoch} nodes={list(first.node_ids)}: "
            f"{first.detail}"
        ]
        if repro:
            lines.append(f"repro: {repro}")
        super().__init__("\n".join(lines))

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "epoch": self.epoch,
            "node_ids": list(self.node_ids),
            "repro": self.repro,
            "violations": [violation.to_dict() for violation in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# engine (SoupSimulation) invariants
# ---------------------------------------------------------------------------
def _announced_mirrors_stored(sim, epoch: int) -> List[Violation]:
    violations: List[Violation] = []
    for node in sim.nodes:
        if not node.joined or node.departed:
            continue
        stale = sim.stale_announcements_of(node.node_id)
        missing = [
            mirror_id
            for mirror_id in node.announced_mirrors
            if not sim.holds(mirror_id, node.node_id)
            and mirror_id not in stale
        ]
        if missing:
            violations.append(
                Violation(
                    invariant="announced-mirrors-stored",
                    epoch=epoch,
                    node_ids=(node.node_id, *missing),
                    detail=(
                        f"node {node.node_id} announces mirrors {missing} "
                        "that do not store its replica (and no drop is pending "
                        "notification)"
                    ),
                    snapshot={
                        "owner": node.node_id,
                        "announced": list(node.announced_mirrors),
                        "actually_stored_at": [
                            mirror_id
                            for mirror_id in range(len(sim.nodes))
                            if sim.holds(mirror_id, node.node_id)
                        ],
                        "pending_drop_notice": sorted(stale),
                    },
                )
            )
    return violations


def _replica_count_meets_target(sim, epoch: int) -> List[Violation]:
    violations: List[Violation] = []
    online_now = sim.online_matrix[:, epoch]
    for node in sim.nodes:
        if (
            not node.joined
            or node.departed
            or node.is_sybil
            or not online_now[node.node_id]
        ):
            continue
        stale = sim.stale_announcements_of(node.node_id)
        target = len(set(node.announced_mirrors) - stale)
        live = sum(
            1
            for mirror_id in set(node.announced_mirrors)
            if sim.holds(mirror_id, node.node_id)
        )
        if live < target:
            violations.append(
                Violation(
                    invariant="replica-count-meets-target",
                    epoch=epoch,
                    node_ids=(node.node_id,),
                    detail=(
                        f"online owner {node.node_id} retains {live} live "
                        f"replicas, below its accepted selection target {target}"
                    ),
                    snapshot={
                        "owner": node.node_id,
                        "announced": list(node.announced_mirrors),
                        "live_replicas": live,
                        "target": target,
                    },
                )
            )
    return violations


def _storage_within_capacity(sim, epoch: int) -> List[Violation]:
    violations: List[Violation] = []
    for node in sim.nodes:
        used = node.store.replica_count()
        capacity = node.store.capacity_profiles
        if used > capacity:
            violations.append(
                Violation(
                    invariant="storage-within-capacity",
                    epoch=epoch,
                    node_ids=(node.node_id,),
                    detail=(
                        f"mirror {node.node_id} stores {used} profiles, "
                        f"over its {capacity:.3f}-profile capacity"
                    ),
                    snapshot={
                        "mirror": node.node_id,
                        "used_profiles": used,
                        "capacity_profiles": capacity,
                        "stored_owners": sorted(node.store.stored_owners()),
                    },
                )
            )
    return violations


_MEMBERSHIP_COLUMNS = ("joined", "departed", "benign", "join_epoch")


def _membership_columns_consistent(sim, epoch: int) -> List[Violation]:
    violations: List[Violation] = []
    packed_rows = zip(
        sim._col_joined.tolist(),
        sim._col_departed.tolist(),
        sim._col_benign.tolist(),
        sim._col_join_epochs.tolist(),
    )
    for node, packed in zip(sim.nodes, packed_rows):
        flags = (
            node.joined,
            node.departed,
            not (node.is_sybil or node.is_traitor),
            node.join_epoch,
        )
        if packed == flags:
            continue
        arrays = dict(zip(_MEMBERSHIP_COLUMNS, packed))
        on_node = dict(zip(_MEMBERSHIP_COLUMNS, flags))
        differing = [name for name in arrays if arrays[name] != on_node[name]]
        violations.append(
            Violation(
                invariant="membership-columns-consistent",
                epoch=epoch,
                node_ids=(node.node_id,),
                detail=(
                    f"node {node.node_id}: packed membership arrays disagree "
                    f"with the node's own flags on {differing}"
                ),
                snapshot={"node": node.node_id, "arrays": arrays, "flags": on_node},
            )
        )
    return violations


ENGINE_INVARIANTS: Dict[str, Callable] = {
    "announced-mirrors-stored": _announced_mirrors_stored,
    "replica-count-meets-target": _replica_count_meets_target,
    "storage-within-capacity": _storage_within_capacity,
    "membership-columns-consistent": _membership_columns_consistent,
}


class InvariantChecker:
    """Pluggable per-epoch invariant runner for :class:`SoupSimulation`.

    ``names`` selects a subset of :data:`ENGINE_INVARIANTS`; ``None``
    enables all of them.  Custom invariants register via :meth:`add`.
    """

    def __init__(self, names: Optional[Iterable[str]] = None) -> None:
        if names is None:
            self._checks = dict(ENGINE_INVARIANTS)
        else:
            unknown = [name for name in names if name not in ENGINE_INVARIANTS]
            if unknown:
                raise ValueError(
                    f"unknown invariant(s) {unknown}; "
                    f"available: {sorted(ENGINE_INVARIANTS)}"
                )
            self._checks = {name: ENGINE_INVARIANTS[name] for name in names}
        #: Count of completed epoch checks, for reporting.
        self.epochs_checked = 0

    @property
    def names(self) -> List[str]:
        return list(self._checks)

    def add(self, name: str, check: Callable) -> None:
        self._checks[name] = check

    def violations(self, sim, epoch: int) -> List[Violation]:
        found: List[Violation] = []
        for check in self._checks.values():
            found.extend(check(sim, epoch))
        return found

    def check_epoch(self, sim, epoch: int) -> None:
        found = self.violations(sim, epoch)
        self.epochs_checked += 1
        if found:
            raise InvariantViolation(found, repro=format_repro(sim.config))


# ---------------------------------------------------------------------------
# DHT overlay invariants
# ---------------------------------------------------------------------------
def overlay_violations(overlay, epoch: int = -1) -> List[Violation]:
    """Structural invariants of a :class:`PastryOverlay`.

    * ``dht-entry-placement`` — every directory entry lives on the node
      numerically closest to its key (the seed's ``leave()`` bug violated
      exactly this).
    * ``leaf-set-live-and-symmetric`` — leaf sets reference only live
      nodes, and converged membership is symmetric: if ``b`` is among
      ``a``'s nearest neighbours on one side, ``a`` is among ``b``'s on
      the other.
    * ``routing-table-live`` — routing tables reference only live nodes.
    * ``route-memo-current`` — every route the overlay remembers equals
      the route ``_route`` computes on the current ring (a memo that
      outlived a ring change answers with a stale owner or path).
    """
    from repro.dht.pastry import DhtError

    violations: List[Violation] = []
    nodes = overlay._nodes

    misplaced = overlay.misplaced_entries()
    if misplaced:
        placement = {}
        for key in misplaced:
            holders = [
                node_id for node_id, node in nodes.items() if key in node.entries
            ]
            placement[str(key)] = {
                "stored_at": holders,
                "responsible": overlay._responsible_node(key),
            }
        violations.append(
            Violation(
                invariant="dht-entry-placement",
                epoch=epoch,
                node_ids=tuple(
                    sorted({h for info in placement.values() for h in info["stored_at"]})
                ),
                detail=f"{len(misplaced)} entr(ies) stored away from their responsible node",
                snapshot={"misplaced": placement},
            )
        )

    for node_id, node in nodes.items():
        dead = [m for m in node.leaf_set.members() if m not in nodes]
        asymmetric = [
            m
            for m in node.leaf_set.members()
            if m in nodes and node_id not in nodes[m].leaf_set
        ]
        if dead or asymmetric:
            violations.append(
                Violation(
                    invariant="leaf-set-live-and-symmetric",
                    epoch=epoch,
                    node_ids=(node_id, *dead, *asymmetric),
                    detail=(
                        f"node {node_id:#x}: dead leaf members {dead}, "
                        f"asymmetric members {asymmetric}"
                    ),
                    snapshot={
                        "node": node_id,
                        "leaf_set": node.leaf_set.members(),
                        "dead": dead,
                        "asymmetric": asymmetric,
                    },
                )
            )
        dead_routes = [m for m in node.routing_table.known_nodes() if m not in nodes]
        if dead_routes:
            violations.append(
                Violation(
                    invariant="routing-table-live",
                    epoch=epoch,
                    node_ids=(node_id, *dead_routes),
                    detail=f"node {node_id:#x} routes via departed nodes {dead_routes}",
                    snapshot={"node": node_id, "dead_routes": dead_routes},
                )
            )

    stale = []
    for (start_id, key, avoid), (responsible, path) in overlay._route_memo.items():
        remembered = [responsible, list(path)]
        try:
            route = overlay._route(start_id, key, avoid)
            current = [route.responsible, route.path]
        except DhtError as exc:  # the start node left the ring
            current = str(exc)
        if current != remembered:
            stale.append({
                "start": start_id, "key": key, "avoid": sorted(avoid),
                "remembered": remembered, "current": current,
            })
    if stale:
        violations.append(
            Violation(
                invariant="route-memo-current",
                epoch=epoch,
                node_ids=tuple(sorted({route["start"] for route in stale})),
                detail=f"{len(stale)} remembered route(s) differ from the current ring's",
                snapshot={"stale_routes": stale},
            )
        )
    return violations


def check_overlay(overlay, epoch: int = -1, repro: str = "") -> None:
    """Raise :class:`InvariantViolation` if the overlay is inconsistent."""
    found = overlay_violations(overlay, epoch)
    if found:
        raise InvariantViolation(found, repro=repro)


# ---------------------------------------------------------------------------
# protocol-node (MirrorManager) invariants
# ---------------------------------------------------------------------------
def mirror_manager_violations(manager, epoch: int = -1) -> List[Violation]:
    """Local-state invariants of one :class:`MirrorManager`.

    * the replica store never exceeds its capacity;
    * no blacklisted owner's replica is still stored;
    * the announced mirror set is a subset of the selected one (a node
      only publishes mirrors Algorithm 1 actually chose and that accepted).
    """
    violations: List[Violation] = []
    used = manager.store.replica_count()
    capacity = manager.store.capacity_profiles
    if used > capacity:
        violations.append(
            Violation(
                invariant="storage-within-capacity",
                epoch=epoch,
                node_ids=(manager.owner_id,),
                detail=f"node {manager.owner_id} stores {used}/{capacity:.3f} profiles",
                snapshot={"used": used, "capacity": capacity},
            )
        )
    stored_blacklisted = [
        owner
        for owner in manager.store.stored_owners()
        if manager.store.is_blacklisted(owner)
    ]
    if stored_blacklisted:
        violations.append(
            Violation(
                invariant="no-blacklisted-replicas",
                epoch=epoch,
                node_ids=(manager.owner_id, *stored_blacklisted),
                detail=(
                    f"node {manager.owner_id} still stores replicas of "
                    f"blacklisted owners {stored_blacklisted}"
                ),
                snapshot={"blacklisted_stored": stored_blacklisted},
            )
        )
    extra = set(manager.announced_mirrors) - set(manager.selected_mirrors)
    if extra:
        violations.append(
            Violation(
                invariant="announced-subset-of-selected",
                epoch=epoch,
                node_ids=(manager.owner_id, *sorted(extra)),
                detail=(
                    f"node {manager.owner_id} announces mirrors {sorted(extra)} "
                    "that Algorithm 1 never selected"
                ),
                snapshot={
                    "announced": list(manager.announced_mirrors),
                    "selected": list(manager.selected_mirrors),
                },
            )
        )
    return violations


def check_mirror_manager(manager, epoch: int = -1, repro: str = "") -> None:
    found = mirror_manager_violations(manager, epoch)
    if found:
        raise InvariantViolation(found, repro=repro)


# ---------------------------------------------------------------------------
# one-line repro strings
# ---------------------------------------------------------------------------
_REPRO_PREFIX = "soup-repro/v2"
#: Written even at their default values: the scenario's identity.
_REPRO_ALWAYS = ("dataset", "scale", "seed", "n_days")


def _repro_overrides(config, defaults, prefix: str = ""):
    """``(name, value)`` for every field of ``config`` that differs from
    ``defaults``, dotted into the nested model dataclasses."""
    for item in dataclasses.fields(config):
        name = prefix + item.name
        value, default = getattr(config, item.name), getattr(defaults, item.name)
        if dataclasses.is_dataclass(value):
            yield from _repro_overrides(value, default, name + ".")
        elif name != "check_invariants" and (value != default or name in _REPRO_ALWAYS):
            yield name, value.value if isinstance(value, enum.Enum) else value


def format_repro(config) -> str:
    """Serialize a scenario to the one-line repro string.

    Each token is a ``--base`` flag of any scenario command (``soup sim``,
    ``soup sweep``, ...), ``name=value`` with a JSON value
    (``soup.*``/``activity.*`` for the nested models), one for every field
    off its default plus the scenario's identity.  The line replays with
    :func:`run_repro` (or ``python -m repro replay``) and always
    re-enables invariant checking.
    """
    from repro.sim.scenario import ScenarioConfig

    tokens = [_REPRO_PREFIX]
    for name, value in _repro_overrides(config, ScenarioConfig()):
        tokens.append(f"{name}={json.dumps(value, separators=(',', ':'))}")
    return " ".join(tokens)


def parse_repro(line: str):
    """Parse a repro line back into a ScenarioConfig (checking enabled):
    each token is read exactly as a ``--base`` flag is."""
    from repro.runtime.spec import build_config, parse_base_flag

    prefix, *tokens = line.split() or [""]
    if prefix != _REPRO_PREFIX:
        raise ValueError(f"not a {_REPRO_PREFIX} line: {line[:60]!r}")
    overrides = dict(parse_base_flag(token) for token in tokens)
    overrides["check_invariants"] = True
    return build_config(overrides)


def run_repro(line: str):
    """Replay a repro line; returns the :class:`InvariantViolation` it
    reproduces, or ``None`` if the run completes clean."""
    from repro.sim.engine import run_scenario

    config = parse_repro(line)
    try:
        run_scenario(config)
    except InvariantViolation as violation:
        return violation
    return None
