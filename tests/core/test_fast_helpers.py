"""Each fast helper of the selection round equals the definition it replaced.

The epoch loop reads a knowledge base once per selection
(``selection_view``, assembled into Algorithm 1's inputs by
``candidate_ranking``), closes the round in one pass
(``end_selection_round``), writes a round's experience values in bulk
(``set_experiences``), records a whole fetch in one call
(``observe_fetch``) and tests candidates against a materialised slice of
the exclusion (``Exclusion.among``).  The slow definitions of the
knowledge-base passes live in ``kb_oracles``; these properties pin the
fast forms to them, order included.  A knowledge base is compared whole
as its ``kb_oracles.rows``.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import knowledge
from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport, ExperienceSet
from repro.core.knowledge import KnowledgeBase
from repro.core.ranking import BootstrapRanker, Recommendation, candidate_ranking
from repro.core.selection import Exclusion, select_mirrors
from tests.core.kb_oracles import (
    decay_ttls,
    friends,
    mark_mirrors,
    ranked_candidates,
    rows,
    unranked_nodes,
)

ids =st.integers(min_value=0, max_value=40)
id_sets = st.sets(ids, max_size=20)


@pytest.fixture(autouse=True, scope="module")
def short_stranger_ttl():
    """Strangers here expire after 3 rounds, so a few steps prune some."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knowledge, "STRANGER_TTL", 3)
        yield


@given(own=id_sets, unreachable=id_sets, holding=id_sets, asked=st.lists(ids, max_size=30))
def test_among_is_the_membership_test_restricted_to_the_ids(
    own, unreachable, holding, asked
):
    exclusion = Exclusion(own=own, unreachable=unreachable, holding=holding)
    unreachable_before = set(unreachable)
    assert exclusion.among(asked) == {i for i in asked if i in exclusion}
    assert unreachable == unreachable_before  # the shared set is never written


#: A KB history: learn a node or a friend list, set an experience value
#: (0.0 included), or close a round over a mirror set (empty: age only).
kb_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 40), st.booleans()),
        st.tuples(st.just("friends"), st.lists(st.integers(1, 40), max_size=4)),
        st.tuples(
            st.just("exp"),
            st.integers(1, 40),
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0]),
        ),
        st.tuples(st.just("round"), st.lists(st.integers(1, 40), max_size=4)),
    ),
    max_size=40,
)


def _replay(steps):
    kb = KnowledgeBase(owner=0)
    for step in steps:
        if step[0] == "add":
            kb.add_node(step[1], is_friend=step[2])
        elif step[0] == "friends":
            kb.add_friends(step[1])
        elif step[0] == "exp":
            kb.set_experience(step[1], step[2])
        else:
            kb.end_selection_round(step[1])
    return kb


@given(steps=kb_steps)
def test_selection_view_equals_the_four_separate_passes(steps):
    kb = _replay(steps)
    assert kb.selection_view() == (
        [pair for pair in ranked_candidates(kb) if pair[1] > 0.0],
        friends(kb),
        unranked_nodes(kb),
        list(kb),
    )


@given(
    steps=kb_steps,
    recommended=st.lists(
        st.tuples(st.integers(0, 45), st.sampled_from([None, 0.0, 0.3, 0.3, 0.8])),
        max_size=10,
    ),
)
def test_candidate_ranking_is_the_trust_order_assembly(steps, recommended):
    """Experience first, then recommendations, then every other contact at
    the prior — as the engine and the mirror manager each used to spell it."""
    kb = _replay(steps)
    bootstrap = BootstrapRanker()
    bootstrap.add_recommendations(
        Recommendation(recommender=99, mirror=mirror, quality=quality)
        for mirror, quality in recommended
    )
    expected = [pair for pair in ranked_candidates(kb) if pair[1] > 0.0]
    known = {candidate for candidate, _ in expected}
    for candidate, rank in bootstrap.ranking():
        if candidate not in known:
            expected.append((candidate, rank))
            known.add(candidate)
    expected += [(node_id, 0.4) for node_id in kb if node_id not in known]
    assert candidate_ranking(kb, bootstrap, 0.4) == (
        expected,
        friends(kb),
        unranked_nodes(kb),
    )


@given(steps=kb_steps, mirrors=st.lists(st.integers(1, 45), max_size=5))
def test_end_selection_round_equals_mark_then_decay(steps, mirrors):
    fused = _replay(steps)
    pruned, kept = decay_ttls(mark_mirrors(rows(fused), mirrors, knowledge.STRANGER_TTL))
    assert fused.end_selection_round(mirrors) == pruned
    assert rows(fused) == kept  # same nodes, order, TTLs, mirror flags


@given(
    values=st.lists(
        st.tuples(st.integers(1, 40), st.floats(-0.5, 1.5, allow_nan=False)),
        max_size=20,
    ),
    steps=kb_steps,
)
def test_bulk_setter_equals_one_set_experience_per_pair(values, steps):
    bulk = _replay(steps)
    single = copy.deepcopy(bulk)
    bulk.set_experiences(values)
    for node_id, value in values:
        single.set_experience(node_id, value)
    assert rows(bulk) == rows(single)


fetches = st.lists(
    st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=6), max_size=10
)


@given(fetches=fetches)
def test_whole_fetch_recording_equals_per_mirror_observe(fetches):
    whole, single = ExperienceSet(7), ExperienceSet(7)
    for fetch in fetches:
        whole.observe_fetch([m for m, _ in fetch], [ok for _, ok in fetch])
        for mirror, ok in fetch:
            single.observe(mirror, ok)
    assert whole.observed_mirrors() == single.observed_mirrors()
    for mirror in single.observed_mirrors():
        assert whole.record_for(mirror) == single.record_for(mirror)
    whole_batch, single_batch = whole.hand_over(1), single.hand_over(1)
    assert (whole_batch is None) == (single_batch is None)
    if single_batch is not None:
        assert whole_batch.reports(o_max=3) == single_batch.reports(o_max=3)  # order included
    assert len(whole) == 0


@given(
    ranking=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.9])),
        max_size=25,
        unique_by=lambda pair: pair[0],
    ),
    friends=st.sets(st.integers(0, 30), max_size=8),
    pool=st.lists(st.integers(0, 35), max_size=8, unique=True),
    own=id_sets,
    unreachable=id_sets,
    holding=id_sets,
    seed=st.integers(0, 2**16),
)
def test_select_mirrors_treats_an_exclusion_like_its_materialised_set(
    ranking, friends, pool, own, unreachable, holding, seed
):
    exclusion = Exclusion(own=own, unreachable=unreachable, holding=holding)
    materialised = {i for i in range(41) if i in exclusion}
    config = SoupConfig()
    rng_fast, rng_plain = random.Random(seed), random.Random(seed)
    fast = select_mirrors(ranking, friends, config, rng_fast, pool, exclude=exclusion)
    plain = select_mirrors(ranking, friends, config, rng_plain, pool, exclude=materialised)
    assert fast == plain
    assert rng_fast.getstate() == rng_plain.getstate()


def test_experience_report_is_a_keyword_built_immutable_picklable_tuple():
    report = ExperienceReport(reporter=2, mirror=5, observations=3, availability=0.5)
    assert report.weight == 1.0
    assert report == ExperienceReport(2, 5, 3, 0.5, 1.0)
    reporter, mirror, observations, availability, weight = report
    assert (reporter, mirror, observations, availability) == (2, 5, 3, 0.5)
    with pytest.raises(AttributeError):
        report.weight = 2.0
    heavier = ExperienceReport(2, 5, 3, 0.5, weight=0.25)
    assert pickle.loads(pickle.dumps(heavier)) == heavier
    assert type(pickle.loads(pickle.dumps(heavier))) is ExperienceReport
