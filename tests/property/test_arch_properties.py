"""Property tests for the pluggable architecture subsystem (repro.arch).

Every registered :class:`~repro.arch.MirrorSelectionStrategy` must honour
the K-replication contract Algorithm 1 guarantees, whatever it does to
the candidate ranking: never more than ``MAX_MIRRORS`` mirrors (plus the
one exploration node), no duplicates, and never a node from ``exclude``
— which is how the engine passes blacklisted, rejecting, and offline
nodes into selection.
"""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import (
    SoupSelectionStrategy,
    architecture_names,
    create_architecture,
)
from repro.core.config import SoupConfig
from repro.core.selection import MAX_MIRRORS, Exclusion

node_ids = st.integers(1, 2_000)
ranks = st.floats(0.0, 1.0, allow_nan=False)
rankings = st.lists(
    st.tuples(node_ids, ranks), min_size=0, max_size=50, unique_by=lambda p: p[0]
)

#: Population size for the synthetic engine view — larger than any drawn
#: node id so strategies can index uptime/capacity arrays by node id.
_N = 2_048


class _EngineView:
    """The duck-typed slice of the engine a strategy's begin_round sees."""

    def __init__(self, uptime: np.ndarray, capacities: np.ndarray) -> None:
        self._uptime = uptime
        self.capacities = capacities

    def observed_uptime(self, epoch: int) -> np.ndarray:
        return self._uptime

    def is_electable(self, node_id: int) -> bool:
        return True


#: Index picks into the candidate ids (ranking ids, then exploration-pool
#: ids): the owner's own exclusions, the shared unreachable set, and the
#: mirrors already holding the replica, which stay selectable unreachable.
exclusion_picks = st.tuples(
    st.sets(st.integers(0, 54), max_size=10),
    st.sets(st.integers(0, 54), max_size=20),
    st.sets(st.integers(0, 54), max_size=10),
)


@given(
    ranking=rankings,
    owner=node_ids,
    picks=exclusion_picks,
    pool=st.sets(st.integers(3_000, 3_500), max_size=5),
    seed=st.integers(0, 20),
    view_seed=st.integers(0, 10_000),
)
def test_every_selection_strategy_preserves_replication_invariant(
    ranking, owner, picks, pool, seed, view_seed
):
    """K-cap, no duplicates, no node the :class:`Exclusion` holds
    (blacklisting/rejecting, or unreachable and not already holding the
    replica) — for every architecture's selection strategy, after a real
    election round over a randomized engine view.  The engine relies on
    this: it skips a selected mirror that is offline, with no retry."""
    config = SoupConfig()
    view_rng = np.random.default_rng(view_seed)
    view = _EngineView(
        uptime=view_rng.random(_N),
        capacities=view_rng.uniform(1.0, 100.0, _N),
    )
    candidates = [node for node, _ in ranking] + sorted(pool)
    own, unreachable, holding = (
        {candidates[i] for i in drawn if i < len(candidates)} for drawn in picks
    )
    exclude = Exclusion(own=own | {owner}, unreachable=unreachable, holding=holding)

    for name in architecture_names():
        strategy = create_architecture(name).selection or SoupSelectionStrategy()
        strategy.begin_round(view, 0)
        result = strategy.select(
            owner,
            ranking,
            (),
            config,
            random.Random(seed),
            exploration_pool=sorted(pool),
            exclude=exclude,
        )
        mirrors = result.mirrors
        assert len(mirrors) <= MAX_MIRRORS + 1, name
        assert len(set(mirrors)) == len(mirrors), name
        assert [m for m in mirrors if m in exclude] == [], name
        assert owner not in mirrors, name


@given(ranking=rankings, seed=st.integers(0, 20))
def test_soup_strategy_is_algorithm_one_verbatim(ranking, seed):
    """The identity strategy returns exactly what select_mirrors returns
    for the same inputs and RNG stream."""
    from repro.core.selection import select_mirrors

    config = SoupConfig()
    expected = select_mirrors(
        ranking=ranking,
        friends=(),
        config=config,
        rng=random.Random(seed),
        exploration_pool=(),
        exclude=(),
    )
    actual = SoupSelectionStrategy().select(
        0, ranking, (), config, random.Random(seed)
    )
    assert actual.mirrors == expected.mirrors
    assert actual.estimated_error == expected.estimated_error
