"""Bandwidth-aware mirror selection (paper Sec. 8), run by the engine.

"SOUP can be extended in a way that a user's friend also reports the
bandwidth available at the mirrors, which is then considered during mirror
selection.  Ultimately, this could lead to a better quality of service for
users requesting data from mirrors."

:class:`QosSelection` is that extension as a
:class:`~repro.arch.base.MirrorSelectionStrategy`: every node has one uplink
(KB/s), friends report it as they observe it (exactly, so selection reads
it directly), and Algorithm 1 runs on ranks scaled by :func:`qos_ranking`,
availability staying primary.  The strategy draws its
uplinks from its own generator, never from the engine's streams, so at
``weight = 0`` a run is the paper's ``architecture="soup"`` run draw for
draw.

It is registered only for the duration of a test (:func:`register`), so
``repro`` itself knows no ``"qos"`` architecture.  Used by
``benchmarks/test_extension_ties_qos.py`` and
``tests/extensions/test_bandwidth.py``.
"""

from __future__ import annotations

import random
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.base import ARCHITECTURES, Architecture, MirrorSelectionStrategy
from repro.core.config import SoupConfig
from repro.core.selection import SelectionResult, select_mirrors

#: The architecture name :func:`register` installs.
ARCHITECTURE = "qos"
#: Weight of the bandwidth factor in a rank.
QOS_WEIGHT = 0.25
#: Uplink at and above which a mirror's bandwidth factor is 1.
REFERENCE_KB_S = 500.0


def qos_ranking(
    ranking: Sequence[Tuple[int, float]],
    uplink: Sequence[float],
    weight: float = QOS_WEIGHT,
) -> List[Tuple[int, float]]:
    """Each rank times ``(1 - weight) + weight * min(1, uplink / 500)``.

    The factor lies in ``[1 - weight, 1]``, so a clearly better available
    mirror still ranks first and bandwidth decides only near-ties.  The
    candidates keep their order: Algorithm 1 shuffles and then sorts the
    ranking itself, and an unchanged order keeps its tie-breaking draws on
    the same candidates, which makes ``weight = 0`` the identity.
    """
    return [
        (mirror, rank * ((1.0 - weight) + weight * min(1.0, uplink[mirror] / REFERENCE_KB_S)))
        for mirror, rank in ranking
    ]


class QosSelection(MirrorSelectionStrategy):
    """Algorithm 1 over bandwidth-scaled ranks."""

    name = "qos"

    def __init__(self, weight: float = QOS_WEIGHT) -> None:
        if not 0.0 <= weight < 1.0:
            raise ValueError(f"weight must be in [0, 1), got {weight}")
        self.weight = weight
        #: Uplink per node (KB/s); ``None`` until the first selection round,
        #: before which no friend has reported a mirror's bandwidth.
        self.uplink: Optional[np.ndarray] = None
        #: Each owner's last accepted mirror set.
        self.accepted: Dict[int, List[int]] = {}

    def begin_round(self, view, epoch: int) -> None:
        if self.uplink is None:
            # The uplink model of heterogeneous home connections: lognormal,
            # uncorrelated with online time.
            rng = np.random.default_rng(view.config.seed)
            self.uplink = np.clip(rng.lognormal(5.5, 0.8, size=view.n_total), 20.0, 3000.0)

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
        if self.uplink is not None:
            ranking = qos_ranking(ranking, self.uplink, self.weight)
        return select_mirrors(
            ranking=ranking,
            friends=friends,
            config=config,
            rng=rng,
            exploration_pool=exploration_pool,
            exclude=exclude,
        )

    def on_commit(self, owner: int, accepted: List[int], epoch: int) -> None:
        self.accepted[owner] = accepted

    def metrics(self) -> Dict[str, float]:
        """``mean_mirror_bandwidth_kb_s``: over owners with mirrors, the mean
        uplink of the set that last accepted them."""
        if self.uplink is None:
            return {}
        means = [float(self.uplink[m].mean()) for m in self.accepted.values() if m]
        return {"mean_mirror_bandwidth_kb_s": float(np.mean(means))}


def register(monkeypatch, weight: float = QOS_WEIGHT) -> str:
    """Register :class:`QosSelection` under :data:`ARCHITECTURE` until the
    test ends; returns the name for ``ScenarioConfig.architecture``."""
    monkeypatch.setitem(
        ARCHITECTURES,
        ARCHITECTURE,
        lambda: Architecture(name=ARCHITECTURE, selection=QosSelection(weight)),
    )
    return ARCHITECTURE
