"""Safebook-style friend mirrors behind matryoshka shells.

Safebook mirrors each user's data at her direct friends, so a user with
few suitable friends cannot build a strong mirror set: an owner's mirrors
are its reachable friends, best observed uptime first (ranking order
before the first round), at most :data:`MAX_MIRRORS`.  A request reaches
a mirror through an online node of an outer shell, so a mirror serves
only while its relay is online too: with Table 4's uniform p = 0.3 a path
works with p² ≈ 0.09.  Each mirror has one fixed relay, derived from its
id with no RNG draw (:func:`shell_relays`).  ``Deployment`` runs the
friend selection but not the shells (docs/ARCHITECTURES.md).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Container, Iterable, Sequence, Tuple

import numpy as np

from repro.arch.base import (
    Architecture,
    MirrorSelectionStrategy,
    ReadPathStrategy,
    register_architecture,
    unavailability,
)
from repro.core.config import SoupConfig
from repro.core.selection import SelectionResult

#: Upper bound on mirrors per user (Safebook's shells hold 13-24).
MAX_MIRRORS = 24

#: Knuth's multiplicative-hash constant: spreads relays over the population.
_RELAY_HASH = 2654435761


def shell_relays(n: int) -> np.ndarray:
    """The relay of each node ``0..n-1``: a fixed other node, a pure
    function of the two ids."""
    ids = np.arange(n, dtype=np.int64)
    if n < 2:
        return ids
    return (ids + 1 + (ids * _RELAY_HASH) % (n - 1)) % n


class FriendMirrors(MirrorSelectionStrategy):
    """Mirrors are the owner's friends, best observed uptime first."""

    name = "safebook"

    def __init__(self) -> None:
        self._uptime = None

    def begin_round(self, view, epoch: int) -> None:
        self._uptime = view.observed_uptime(epoch)

    def select(
        self,
        owner: int,
        ranking: Sequence[Tuple[int, float]],
        friends: Iterable[int],
        config: SoupConfig,
        rng: random.Random,
        exploration_pool: Iterable[int] = (),
        exclude: Container[int] = (),
    ) -> SelectionResult:
        uptime = self._uptime
        if uptime is None:  # no round yet: ranking order
            uptime = defaultdict(float, ranking)
        candidates = sorted(
            (friend for friend in friends if friend != owner and friend not in exclude),
            key=lambda friend: (-uptime[friend], friend),
        )
        mirrors = candidates[:MAX_MIRRORS]
        return SelectionResult(
            mirrors=mirrors, estimated_error=unavailability(uptime, mirrors)
        )


class ShellRelay(ReadPathStrategy):
    """A mirror serves only while its fixed shell relay is online."""

    name = "shell_relay"

    def __init__(self) -> None:
        self._relays = np.zeros(0, dtype=np.int64)

    def serving(self, online_now: np.ndarray) -> np.ndarray:
        if len(self._relays) != len(online_now):
            self._relays = shell_relays(len(online_now))
        return online_now & online_now[self._relays]


@register_architecture("safebook")
def _make_safebook() -> Architecture:
    return Architecture(name="safebook", selection=FriendMirrors(), read_path=ShellRelay())
