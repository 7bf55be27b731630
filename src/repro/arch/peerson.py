"""PeerSoN-style mutual storage agreements between peers of similar uptime.

Agreements between unequal peers do not form, so a rarely-online user
ends up with rarely-online partners and her availability depends on her
own online time (Table 4, Sec. 2).  Each selection round orders the
population by observed uptime; an owner's partners are the
:data:`PARTNERS` nearest reachable nodes in that order, taken outward one
step at a time, lower side first.  The window is symmetric, so while both
are reachable the agreements are mutual.  Before the first round no
uptime has been observed and the owner runs Algorithm 1.
"""

from __future__ import annotations

import random
from typing import Container, Dict, Iterable, List, Sequence, Tuple

from repro.arch.base import (
    Architecture,
    MirrorSelectionStrategy,
    register_architecture,
    unavailability,
)
from repro.core.config import SoupConfig
from repro.core.selection import SelectionResult, select_mirrors

#: Partners per node (the replica count of PeerSoN's Table 4 row).
PARTNERS = 6


class MutualPartners(MirrorSelectionStrategy):
    """Partners are the owner's nearest neighbours by observed uptime."""

    name = "peerson"

    def __init__(self) -> None:
        #: Population in (uptime, id) order, and each id's index in it.
        self._order: List[int] = []
        self._position: Dict[int, int] = {}
        self._uptime = None

    def begin_round(self, view, epoch: int) -> None:
        """The engine view hands a dense array indexed by node id; the
        deployment view a dict keyed by (sparse) SOUP ids."""
        uptime = view.observed_uptime(epoch)
        population = sorted(uptime) if hasattr(uptime, "keys") else range(len(uptime))
        self._order = sorted(population, key=lambda nid: (uptime[nid], nid))
        self._position = {nid: index for index, nid in enumerate(self._order)}
        self._uptime = uptime

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
        position = self._position.get(owner)
        if position is None:  # no round yet, or joined after it
            return select_mirrors(ranking, friends, config, rng, exploration_pool, exclude)
        order, count = self._order, PARTNERS
        mirrors: List[int] = []
        for step in range(1, len(order)):
            for index in (position - step, position + step):
                if 0 <= index < len(order) and order[index] not in exclude:
                    mirrors.append(order[index])
            if len(mirrors) >= count:
                break
        del mirrors[count:]
        return SelectionResult(mirrors, unavailability(self._uptime, mirrors))


@register_architecture("peerson")
def _make_peerson() -> Architecture:
    return Architecture(name="peerson", selection=MutualPartners())
