"""Deterministic fault injection for the simulation core.

The invariant checker (:mod:`repro.sim.invariants`) answers "is the
protocol state still consistent?"; this module supplies the adverse
conditions to ask that question under.  A :class:`FaultPlan` is parsed
from a compact one-line spec string so that any injected run — and any
violation it produces — reproduces from a single line (see the repro
string format in :mod:`repro.sim.invariants`).

Spec grammar (no whitespace, so it embeds in repro strings)::

    faults := fault (';' fault)*
    fault  := kind (':' key '=' value)*

Supported kinds:

* ``crash`` — mid-run node crashes: at ``epoch``, ``count`` seeded nodes
  (or an explicit ``node``) go dark abruptly, replicas and all, like the
  traitor disappearance of Sec. 4.4 but at an arbitrary time.
* ``drop_transfer`` — a replica push is acknowledged but the data never
  arrives: the owner announces the mirror, the mirror stores nothing.
  Params: ``rate`` (default 1.0), ``from_epoch``/``to_epoch`` window,
  optional exact ``owner``/``mirror``.
* ``reorder`` — message reordering: pending experience reports are
  shuffled (seeded) before ingestion.  Eq. (1) aggregation should be
  order-insensitive, so invariants must stay green under this fault.
* ``stale_reports`` — duplicated stale messages: experience reports from
  the previous exchange are re-delivered alongside fresh ones with
  probability ``rate``.
* ``slander_burst`` — composes with :class:`repro.sim.attacks.SlanderAttack`:
  at ``epoch``, ``count`` seeded benign nodes send one round of maximum-rate
  forged reports against their friends' mirrors.

Process/socket-level kinds (PR 7) — interpreted by the chaos controller
(:mod:`repro.deploy.live`) against either :class:`~repro.network.transport.Transport`
backend, so the same one-line spec replays in the simulator and the live
runtime:

* ``kill`` — hard process kill: at ``epoch``, ``count`` seeded nodes (or
  an explicit ``node``) die and never return.  In the epoch engine this
  is an alias for ``crash``; on a transport the victims drop offline.
* ``pause`` — SIGSTOP-style stall: at ``epoch``, ``count`` seeded nodes
  (or ``node``) stop consuming their event loop until ``resume`` (epoch);
  in-flight traffic to them is buffered and handed over on resume.
* ``partition`` — the network splits into ``groups`` (default 2) seeded
  random groups at ``epoch`` and heals at ``heal``; cross-group sends
  fail like unreachable hosts.
* ``delay`` — every delivery between ``from_epoch`` and ``to_epoch``
  takes ``seconds`` extra.
* ``drop`` — every message between ``from_epoch`` and ``to_epoch`` is
  lost in flight with probability ``rate`` (seeded).

Every fault draws randomness from its own :class:`random.Random` seeded by
``(base_seed, index, kind)``, so a plan replays identically regardless of
what other code consumes the simulation RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_KINDS = (
    "crash",
    "drop_transfer",
    "reorder",
    "stale_reports",
    "slander_burst",
    # Process/socket-level kinds, replayable on both transport backends.
    "kill",
    "pause",
    "partition",
    "delay",
    "drop",
)


def _parse_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


@dataclass
class FaultSpec:
    """One parsed fault clause."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )

    def get(self, key: str, default=None):
        return self.params.get(key, default)

    def in_window(self, epoch: int) -> bool:
        return self.get("from_epoch", 0) <= epoch <= self.get("to_epoch", float("inf"))

    def to_string(self) -> str:
        # Insertion order is parse order, so parse → to_string round-trips.
        parts = [self.kind] + [
            f"{key}={value}" for key, value in self.params.items()
        ]
        return ":".join(parts)

    @classmethod
    def parse(cls, clause: str) -> "FaultSpec":
        pieces = clause.split(":")
        kind = pieces[0]
        params: Dict[str, object] = {}
        for piece in pieces[1:]:
            if "=" not in piece:
                raise ValueError(f"malformed fault parameter {piece!r} in {clause!r}")
            key, raw = piece.split("=", 1)
            params[key] = _parse_value(raw)
        return cls(kind=kind, params=params)


class FaultInjector:
    """Executes a fault plan against a running :class:`SoupSimulation`.

    The simulation calls the hook methods at fixed points; every hook is a
    no-op for plans that do not include the corresponding fault kind.
    """

    def __init__(self, specs: List[FaultSpec], base_seed: int = 0) -> None:
        self.specs = specs
        self.base_seed = base_seed
        # "kill" is an alias of "crash"; seeding with the canonical kind
        # makes the two spellings sample identical victims, so a plan can
        # be rewritten between them without changing the replay.
        self._rngs = [
            random.Random(
                f"{base_seed}/{index}/"
                f"{'crash' if spec.kind == 'kill' else spec.kind}"
            )
            for index, spec in enumerate(specs)
        ]
        #: (node, friend) -> reports sent at the previous exchange, kept so
        #: ``stale_reports`` can re-deliver them.
        self._last_reports: Dict[Tuple[int, int], list] = {}
        self._crashed: List[int] = []

    # --- construction -----------------------------------------------------
    @classmethod
    def from_spec(cls, spec_string: Optional[str], base_seed: int = 0) -> Optional["FaultInjector"]:
        if not spec_string:
            return None
        specs = [
            FaultSpec.parse(clause)
            for clause in spec_string.split(";")
            if clause
        ]
        return cls(specs, base_seed=base_seed)

    def to_string(self) -> str:
        return ";".join(spec.to_string() for spec in self.specs)

    @property
    def crashed_nodes(self) -> List[int]:
        return list(self._crashed)

    # --- hooks ------------------------------------------------------------
    def on_epoch_start(self, sim, epoch: int) -> None:
        """Apply epoch-triggered faults (crashes, slander bursts)."""
        for spec, rng in zip(self.specs, self._rngs):
            # "kill" is the process-level spelling of "crash"; the epoch
            # engine treats them identically so one spec line replays in
            # both the simulator and the live runtime.
            if spec.kind in ("crash", "kill") and spec.get("epoch") == epoch:
                self._crash(sim, epoch, spec, rng)
            elif spec.kind == "slander_burst" and spec.get("epoch") == epoch:
                self._slander_burst(sim, spec, rng)

    def drop_transfer(self, owner: int, mirror: int, epoch: int) -> bool:
        """Whether this replica push silently loses its payload."""
        for spec, rng in zip(self.specs, self._rngs):
            if spec.kind != "drop_transfer" or not spec.in_window(epoch):
                continue
            if spec.get("owner") is not None and spec.get("owner") != owner:
                continue
            if spec.get("mirror") is not None and spec.get("mirror") != mirror:
                continue
            if rng.random() < spec.get("rate", 1.0):
                return True
        return False

    def shuffle_reports(self, node_id: int, reports: list, epoch: int) -> None:
        """Message reordering: permute pending reports in place."""
        for spec, rng in zip(self.specs, self._rngs):
            if spec.kind == "reorder" and spec.in_window(epoch):
                rng.shuffle(reports)

    def tamper_reports(
        self, sender: int, receiver: int, reports: list, epoch: int
    ) -> list:
        """Stale-message duplication on one experience-set exchange."""
        result = list(reports)
        for spec, rng in zip(self.specs, self._rngs):
            if spec.kind != "stale_reports" or not spec.in_window(epoch):
                continue
            previous = self._last_reports.get((sender, receiver), [])
            result.extend(
                report for report in previous if rng.random() < spec.get("rate", 0.5)
            )
        if any(spec.kind == "stale_reports" for spec in self.specs):
            self._last_reports[(sender, receiver)] = list(reports)
        return result

    # --- fault implementations -------------------------------------------
    def _crash(self, sim, epoch: int, spec: FaultSpec, rng: random.Random) -> None:
        node_param = spec.get("node")
        if node_param is not None:
            victims = [int(node_param)]
        else:
            eligible = [
                n.node_id
                for n in sim.nodes
                if n.joined and not n.departed and not n.is_sybil
            ]
            count = min(int(spec.get("count", 1)), len(eligible))
            victims = rng.sample(eligible, count) if count else []
        for victim in victims:
            node = sim.nodes[victim]
            # Funnel through the engine so the packed membership arrays
            # stay in sync with the per-node flag.
            sim.note_departed(victim)
            sim.online_matrix[victim, epoch:] = False
            for owner in node.store.stored_owners():
                sim.mark_stale_announcement(owner, victim)
            self._crashed.append(victim)

    def _slander_burst(self, sim, spec: FaultSpec, rng: random.Random) -> None:
        from repro.sim.attacks import SlanderAttack

        eligible = [
            n.node_id
            for n in sim.nodes
            if n.joined and not n.departed and n.friends and not n.is_sybil
        ]
        count = min(int(spec.get("count", 1)), len(eligible))
        attackers = rng.sample(eligible, count) if count else []
        attack = SlanderAttack(attacker_ids=set(attackers))
        for attacker in attackers:
            state = sim.nodes[attacker]
            for friend_id in state.friends:
                friend = sim.nodes[friend_id]
                if not friend.joined or friend.departed:
                    continue
                friend.pending_reports.extend(
                    attack.forge_reports(
                        attacker, friend.announced_mirrors, sim.soup.o_max
                    )
                )
