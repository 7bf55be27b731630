"""Tests for attack models."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.attacks import FloodingAttack, SlanderAttack, sample_others


@st.composite
def exclusions(draw):
    """``(members, position, count, seed)``, members on both sides of the
    21-element size where ``random.sample`` switches from a pool to a
    set of drawn indices (further out for counts above 5)."""
    members = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=100))
    position = draw(st.integers(0, len(members)))
    count = draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return members, position, count, seed


@given(exclusions())
def test_sample_others_is_sample_of_the_explicit_list(case):
    """Index-mapped sampling picks and draws what ``rng.sample`` does over
    the list with ``members[position]`` left out."""
    members, position, count, seed = case
    others = members[:position] + members[position + 1 :]
    expected_rng, rng = random.Random(seed), random.Random(seed)
    expected = expected_rng.sample(others, min(count, len(others)))
    assert sample_others(members, position, count, rng) == expected
    assert rng.getstate() == expected_rng.getstate()


@given(
    st.sets(st.integers(0, 500), max_size=60),
    st.integers(0, 500),
    st.integers(0, 2**32 - 1),
)
def test_attack_picks_are_the_list_built_picks(ids, caller, seed):
    """Both attacks pick, and draw, what sampling a freshly built list of
    every other member did."""
    expected_rng, rng = random.Random(seed), random.Random(seed)
    # The same set object: a copy of a set may iterate in another order.
    slander = SlanderAttack(attacker_ids=ids)
    others = [member for member in slander.attacker_ids if member != caller]
    pool = others if others else list(range(40))
    expected = expected_rng.sample(pool, min(5, len(pool)))
    recommendations = slander.forge_recommendations(caller, range(40), rng)
    assert [r.mirror for r in recommendations] == expected
    assert rng.getstate() == expected_rng.getstate()

    flooding = FloodingAttack(sybil_ids=ids | {caller})
    others = [member for member in flooding.sybil_ids if member != caller]
    expected = expected_rng.sample(others, min(3, len(others)))
    assert flooding.accomplices(caller, rng) == expected
    assert rng.getstate() == expected_rng.getstate()


class TestSlander:
    def test_forged_reports_maximal_and_false(self):
        attack = SlanderAttack(attacker_ids={1, 2})
        reports = attack.forge_reports(1, victim_mirrors=[10, 11], o_max=3)
        assert len(reports) == 2
        assert all(r.observations == 3 for r in reports)
        assert all(r.availability == 0.0 for r in reports)
        assert all(r.reporter == 1 for r in reports)

    def test_forged_recommendations_praise_accomplices(self):
        attack = SlanderAttack(attacker_ids={1, 2, 3})
        recs = attack.forge_recommendations(1, population=range(100), rng=random.Random(0))
        assert all(r.quality == 1.0 for r in recs)
        assert all(r.mirror in {2, 3} for r in recs)

    def test_lone_attacker_recommends_from_population(self):
        attack = SlanderAttack(attacker_ids={1})
        recs = attack.forge_recommendations(
            1, population=list(range(10)), rng=random.Random(0), count=3
        )
        assert len(recs) == 3

    def test_is_attacker(self):
        attack = SlanderAttack(attacker_ids={5})
        assert attack.is_attacker(5)
        assert not attack.is_attacker(6)


class TestFlooding:
    def test_flood_targets_exclude_sybils(self):
        attack = FloodingAttack(sybil_ids={90, 91}, flood_requests=5)
        candidates = attack.benign_population(range(95))
        assert candidates == list(range(90)) + [92, 93, 94]
        targets = attack.flood_targets(90, candidates, rng=random.Random(0))
        assert len(targets) == 5
        assert all(t not in attack.sybil_ids for t in targets)

    def test_flood_targets_capped_by_population(self):
        attack = FloodingAttack(sybil_ids={9}, flood_requests=100)
        candidates = attack.benign_population(range(10))
        targets = attack.flood_targets(9, candidates, rng=random.Random(0))
        assert len(targets) == 9

    def test_announced_set_undersized(self):
        attack = FloodingAttack(sybil_ids={1}, announced_mirrors=3)
        accepted = list(range(20))
        announced = attack.announced_set(accepted, random.Random(0))
        assert len(announced) == 3
        assert set(announced) <= set(accepted)

    def test_announced_set_small_acceptance_unchanged(self):
        attack = FloodingAttack(sybil_ids={1}, announced_mirrors=5)
        assert attack.announced_set([1, 2], random.Random(0)) == [1, 2]
