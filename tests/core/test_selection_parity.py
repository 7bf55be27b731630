"""The epoch engine and ``MirrorManager`` run the same selection round.

The same replication state — knowledge base, bootstrap recommendations,
pending reports, rejecting / dead / unreachable / holding mirrors and an
RNG seed — is loaded into a :class:`MirrorManager` and into node 0 of a
tiny :class:`SoupSimulation`.  Each side then ingests its reports and runs
Algorithm 1: the mirror manager through ``ingest_pending_reports`` and
``run_selection``, the engine through ``_ingest_reports`` and
``_select_and_place``.  Mirrors, the ε estimate, ``rejected_by``, the RNG
state and the knowledge base after committing the same accepted set must
agree.

Two more parity tests pin what both sides do outside a plain round: a
strategy that breaks the exclusion contract, and the dropping-score
exchange with a friend nobody has reports for.  Where the two
implementations still differ (``docs/PROTOCOL.md`` §11, "Where the engine
and SoupNode still differ"), a test below pins the difference instead of
hiding it.
"""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import create_architecture
from repro.core import knowledge
from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport
from repro.core.ranking import Recommendation
from repro.core.selection import MirrorSelectionStrategy, SelectionResult
from repro.node.mirror_manager import MirrorManager
from repro.sim.engine import SoupSimulation
from repro.sim.scenario import ScenarioConfig
from tests.core.kb_oracles import rows

#: Population of the tiny simulation; node 0 is the owner under test.
N = 24
OWNER = 0
others = st.integers(1, N - 1)
anyone = st.integers(0, N - 1)
other_sets = st.sets(others, max_size=8)

#: A knowledge-base history: learn a node, set an experience value, or
#: close a selection round over a mirror set (TTL refresh and decay).
kb_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), others, st.booleans()),
        st.tuples(
            st.just("exp"), others, st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.5, 0.9, 1.0])
        ),
        st.tuples(st.just("round"), st.lists(others, max_size=4)),
    ),
    max_size=30,
)
recommendations = st.lists(
    st.tuples(anyone, st.sampled_from([None, 0.0, 0.3, 0.8, 1.0])), max_size=10
)
reports = st.lists(
    st.builds(
        ExperienceReport,
        reporter=others,
        mirror=anyone,
        observations=st.integers(1, 5),
        availability=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    ),
    max_size=12,
)
normalizations = st.sampled_from(["aged_counts", "by_cap"])


def _simulation(soup: SoupConfig, architecture: str = "soup") -> SoupSimulation:
    config = ScenarioConfig(seed=1, n_days=1, soup=soup, architecture=architecture)
    sim = SoupSimulation(nx.empty_graph(N), config)
    # Everyone joined and present; the epoch columns are set per test.
    sim._col_joined[:] = True
    sim._col_departed[:] = False
    for node in sim.nodes:
        node.joined = True
    return sim


def _manager(soup: SoupConfig, seed: int, architecture: str = "soup") -> MirrorManager:
    manager = MirrorManager(OWNER, soup, 10.0, random.Random(seed))
    strategy = create_architecture(architecture).selection
    if strategy is not None:
        manager.selection_strategy = strategy
    return manager


def _load(knowledge, bootstrap, steps, recommended):
    for step in steps:
        if step[0] == "add":
            knowledge.add_node(step[1], is_friend=step[2])
        elif step[0] == "exp":
            knowledge.set_experience(step[1], step[2])
        else:
            knowledge.end_selection_round(step[1])
    bootstrap.add_recommendations(
        Recommendation(recommender=N + 1, mirror=mirror, quality=quality)
        for mirror, quality in recommended
    )


@pytest.mark.parametrize("architecture", ["soup", "superpeer"])
@given(
    steps=kb_steps,
    recommended=recommendations,
    pending=reports,
    rejected_by=other_sets,
    dead=other_sets,
    unreachable=other_sets,
    holding=other_sets,
    experienced=st.booleans(),
    normalization=normalizations,
    seed=st.integers(0, 2**16),
)
def test_engine_and_mirror_manager_make_the_same_selection(
    architecture, steps, recommended, pending, rejected_by, dead,
    unreachable, holding, experienced, normalization, seed,
):
    # Strangers expire after 3 rounds, so the loaded steps prune some.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knowledge, "STRANGER_TTL", 3)
        _same_selection(
            architecture, steps, recommended, pending, rejected_by, dead,
            unreachable, holding, experienced, normalization, seed,
        )


def _same_selection(
    architecture, steps, recommended, pending, rejected_by, dead,
    unreachable, holding, experienced, normalization, seed,
):
    soup = SoupConfig(experience_normalization=normalization)
    sim = _simulation(soup, architecture)
    node = sim.nodes[OWNER]
    manager = _manager(soup, seed, architecture)
    sim.rng.seed(seed)

    held = sorted(holding)
    for state in (node, manager):
        _load(state.knowledge, state.bootstrap, steps, recommended)
        state.pending_reports.extend(pending)
        state.rejected_by.update(rejected_by)
        state.dead_mirrors.update(dead)
        state.has_experience = experienced
        state.selected_mirrors = list(held)
        state.announced_mirrors = list(held)
    node.friends = [n for n in node.knowledge if node.knowledge.is_friend(n)]
    # The engine's holding mirrors really store the replica; every other
    # node is online at epoch 0 unless drawn unreachable.
    for mirror_id in held:
        assert sim.nodes[mirror_id].store.request_store(OWNER).accepted
    sim.online_matrix[:, 0] = [i not in unreachable for i in range(N)]
    sim.online_matrix[OWNER, 0] = True

    sim._ingest_reports(node, 0)
    sim._select_and_place(node, 0)
    manager.ingest_pending_reports()
    # SoupNode leaves the mirrors holding its replica out of the set it
    # passes as unreachable.
    result = manager.run_selection(exclude=unreachable - holding)

    assert node.selected_mirrors == result.mirrors == manager.selected_mirrors
    assert node.last_estimated_error == manager.last_estimated_error
    assert node.has_experience == manager.has_experience
    assert node.pending_reports == manager.pending_reports == []
    assert sim.rng.getstate() == manager.rng.getstate()
    # Every selected mirror is online or already holds the replica and has
    # room, so the engine's placement took them all and nothing rejected.
    assert node.announced_mirrors == result.mirrors
    assert node.rejected_by == manager.rejected_by == set()

    manager.commit(list(node.announced_mirrors), 0)
    assert manager.announced_mirrors == node.announced_mirrors
    assert rows(node.knowledge) == rows(manager.knowledge)


class _PickOffline(MirrorSelectionStrategy):
    """Breaks the exclusion contract: always returns one excluded mirror."""

    name = "pick-offline"

    def __init__(self, mirror: int) -> None:
        self.mirror = mirror

    def select(self, owner, ranking, friends, config, rng,
               exploration_pool=(), exclude=()):
        assert self.mirror in exclude
        return SelectionResult(mirrors=[self.mirror], estimated_error=1.0)


def test_both_skip_an_offline_mirror_that_holds_nothing(cluster):
    sim = _simulation(SoupConfig())
    node = sim.nodes[OWNER]
    node.selection_strategy = _PickOffline(3)
    sim.online_matrix[:, 0] = True
    sim.online_matrix[3, 0] = False
    sim._select_and_place(node, 0)
    assert node.selected_mirrors == [3]
    assert node.announced_mirrors == []
    assert not sim.nodes[3].store.stores_for(OWNER)

    owner = cluster.add("owner", seed=1)
    mirror = cluster.add("mirror", seed=2)
    cluster.join_all()
    owner.contact(mirror.node_id)
    mirror.go_offline()
    owner.mirror_manager.selection_strategy = _PickOffline(mirror.node_id)
    assert owner.run_selection_round() == []
    assert owner.mirror_manager.selected_mirrors == [mirror.node_id]
    assert owner.mirror_manager.announced_mirrors == []
    assert not mirror.mirror_manager.store.stores_for(owner.node_id)


def test_both_exchange_dropping_scores_with_a_friend_without_reports(cluster):
    """Sec. 4.6: the exchange with a friend updates the dropping scores even
    when there are no experience reports to send it."""
    sim = _simulation(SoupConfig())
    node, friend = sim.nodes[OWNER], sim.nodes[1]
    node.friends = [1]
    # Node 0 stores its friend's replica and a stranger's; the friend
    # stores the same stranger's.
    assert node.store.request_store(1, is_friend=True).accepted
    assert node.store.request_store(5).accepted
    assert friend.store.request_store(5).accepted
    sim._exchange_experience(node, 0)
    engine_scores = [node.store.dropping_score(1), node.store.dropping_score(5)]

    owner = cluster.add("owner", seed=1)
    buddy = cluster.add("buddy", seed=2)
    stranger = cluster.add("stranger", seed=3)
    cluster.join_all()
    assert owner.befriend(buddy.node_id)
    store = owner.mirror_manager.store
    assert store.request_store(buddy.node_id, is_friend=True).accepted
    assert store.request_store(stranger.node_id).accepted
    assert buddy.mirror_manager.store.request_store(stranger.node_id).accepted
    assert owner.exchange_experience_sets() == 0  # no reports to send
    node_scores = [
        store.dropping_score(buddy.node_id),
        store.dropping_score(stranger.node_id),
    ]

    # The friend's replica gets the -1/β protection; the stranger's, stored
    # at the friend too, scores +1.
    assert engine_scores == node_scores == [-1.0 / SoupConfig().beta, 1.0]


# ---------------------------------------------------------------------------
# divergences, pinned (docs/PROTOCOL.md §11)
# ---------------------------------------------------------------------------
def test_divergence_only_mirror_manager_leaves_the_requester_out_of_recommendations():
    manager = _manager(SoupConfig(), 0)
    manager.announced_mirrors = [5, 6]
    assert [r.mirror for r in manager.recommendations_for(requester=5)] == [6]

    sim = _simulation(SoupConfig())
    sim.nodes[OWNER].announced_mirrors = [5, 6]
    sim._collect_recommendations(sim.nodes[5], sim.nodes[OWNER])
    assert sorted(m for m, _ in sim.nodes[5].bootstrap.ranking()) == [5, 6]


def test_divergence_soup_node_commits_every_round_as_epoch_zero(cluster):
    epochs = []

    def record(strategy):
        commit = strategy.on_commit

        def on_commit(owner, accepted, epoch):
            epochs.append(epoch)
            commit(owner, accepted, epoch)

        strategy.on_commit = on_commit

    owner = cluster.add("owner", seed=1)
    owner.mirror_manager.selection_strategy = create_architecture("superpeer").selection
    record(owner.mirror_manager.selection_strategy)
    cluster.join_all()
    owner.run_selection_round()
    assert epochs == [0]

    epochs.clear()
    sim = _simulation(SoupConfig(), "superpeer")
    record(sim.arch.selection)
    sim.online_matrix[:, 5] = True
    sim.nodes[OWNER].knowledge.add_node(4)
    sim._select_and_place(sim.nodes[OWNER], 5)
    assert epochs == [5]
