"""Property-based tests for the SOUP core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.dropping import ReplicaStore
from repro.core.experience import ExperienceReport, update_experience
from repro.core.selection import MAX_MIRRORS, select_mirrors

CONFIG = SoupConfig()


reports_strategy = st.lists(
    st.builds(
        ExperienceReport,
        reporter=st.integers(0, 50),
        mirror=st.integers(0, 20),
        observations=st.integers(0, 100),
        availability=st.floats(0.0, 1.0),
    ),
    max_size=40,
)


class TestExperienceProperties:
    @given(reports=reports_strategy, alpha=st.floats(0.0, 1.0))
    def test_updated_values_stay_in_unit_interval(self, reports, alpha):
        updated = update_experience({}, reports, alpha=alpha, o_max=5)
        assert all(0.0 <= v <= 1.0 for v in updated.values())

    @given(reports=reports_strategy)
    def test_old_values_bound_update_range(self, reports):
        old = {mirror: 0.5 for mirror in range(21)}
        updated = update_experience(old, reports, alpha=0.75, o_max=5)
        # With alpha=0.75, the new value is within 0.75 of the old one.
        for mirror, value in updated.items():
            assert abs(value - old[mirror]) <= 0.75 + 1e-9

    @given(
        o=st.integers(1, 100),
        av=st.floats(0.0, 1.0),
        o_max=st.integers(1, 10),
    )
    def test_single_report_capped_influence(self, o, av, o_max):
        report = ExperienceReport(reporter=1, mirror=1, observations=o, availability=av)
        updated = update_experience({}, [report], alpha=1.0, o_max=o_max)
        # One reporter: its capped share of the availability, all of it
        # once it reports at least o_max observations.
        assert abs(updated[1] - min(o, o_max) * av / o_max) < 1e-9
        if o >= o_max:
            assert abs(updated[1] - av) < 1e-9


ranking_strategy = st.lists(
    st.tuples(st.integers(0, 100), st.floats(0.0, 1.0)),
    max_size=60,
    unique_by=lambda pair: pair[0],
)


class TestSelectionProperties:
    @given(ranking=ranking_strategy, seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_no_duplicates_and_exclusions_respected(self, ranking, seed):
        excluded = {n for n, _ in ranking[:3]}
        result = select_mirrors(
            ranking,
            friends=[],
            config=CONFIG,
            rng=random.Random(seed),
            exploration_pool=[n for n, _ in ranking],
            exclude=excluded,
        )
        assert len(result.mirrors) == len(set(result.mirrors))
        assert not set(result.mirrors) & excluded

    @given(ranking=ranking_strategy, seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_mirror_count_bounded(self, ranking, seed):
        result = select_mirrors(ranking, [], CONFIG, random.Random(seed))
        assert len(result.mirrors) <= MAX_MIRRORS + 1  # + exploration

    @given(ranking=ranking_strategy, seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_estimated_error_is_product_of_selected(self, ranking, seed):
        result = select_mirrors(ranking, [], CONFIG, random.Random(seed))
        ranks = {n: max(0.0, min(1.0, r)) for n, r in ranking}
        product = 1.0
        greedy = result.mirrors[:-1] if result.exploration_node is not None else result.mirrors
        for mirror in greedy:
            if not any(old == mirror for old, _ in result.replacements):
                product *= 1.0 - ranks.get(mirror, 0.0)
        # Replacements alter the product; only check the no-replacement case.
        if not result.replacements:
            assert abs(product - result.estimated_error) < 1e-9

    @given(
        ranking=ranking_strategy,
        friends=st.sets(st.integers(0, 100), max_size=10),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60)
    def test_friends_parameter_never_breaks_selection(self, ranking, friends, seed):
        result = select_mirrors(
            ranking, friends=friends, config=CONFIG, rng=random.Random(seed)
        )
        assert len(result.mirrors) == len(set(result.mirrors))


class TestDroppingProperties:
    @given(
        requests=st.lists(
            st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=120
        ),
        capacity=st.floats(1.0, 20.0),
    )
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, requests, capacity):
        store = ReplicaStore(owner=999, capacity_profiles=capacity, config=CONFIG)
        for owner, is_friend in requests:
            store.request_store(owner, is_friend=is_friend)
        assert store.replica_count() <= capacity

    @given(
        requests=st.lists(st.integers(1, 30), min_size=1, max_size=60),
        exchanges=st.lists(st.lists(st.integers(1, 30), max_size=10), max_size=20),
    )
    @settings(max_examples=40)
    def test_scores_and_blacklist_consistent(self, requests, exchanges):
        store = ReplicaStore(owner=999, capacity_profiles=10.0, config=CONFIG)
        for owner in requests:
            store.request_store(owner)
        for stored_at_friend in exchanges:
            store.learn_friend_storage(stored_at_friend)
        for owner in store.blacklisted_owners():
            assert not store.stores_for(owner)
            assert store.dropping_score(owner) >= CONFIG.theta
