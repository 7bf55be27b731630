"""Tests for bootstrap and regular ranking modes."""

import pytest

from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport
from repro.core.knowledge import KnowledgeBase
from repro.core.ranking import (
    BOOTSTRAP_PRIOR,
    BootstrapRanker,
    Recommendation,
    RegularRanker,
    candidate_ranking,
)


@pytest.fixture()
def config():
    return SoupConfig()


class TestBootstrapRanker:
    def test_recommendations_ranked_by_quality(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=10, quality=0.9))
        ranker.add_recommendation(Recommendation(1, mirror=11, quality=0.2))
        ranking = ranker.ranking()
        assert [m for m, _ in ranking] == [10, 11]

    def test_quality_discounted(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=10, quality=1.0))
        ((_, rank),) = ranker.ranking()
        assert rank == pytest.approx(BootstrapRanker.TRUST_DISCOUNT)

    def test_unknown_quality_gets_prior(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=10, quality=None))
        ((_, rank),) = ranker.ranking()
        assert rank == pytest.approx(BootstrapRanker.TRUST_DISCOUNT * BOOTSTRAP_PRIOR)

    def test_multiple_recommendations_averaged(self):
        ranker = BootstrapRanker()
        ranker.add_recommendations(
            [
                Recommendation(1, mirror=10, quality=1.0),
                Recommendation(2, mirror=10, quality=0.5),
            ]
        )
        ((_, rank),) = ranker.ranking()
        assert rank == pytest.approx(BootstrapRanker.TRUST_DISCOUNT * 0.75)
        assert ranker.recommendation_count == 2

    def test_quality_clamped(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=10, quality=7.0))
        ((_, rank),) = ranker.ranking()
        assert rank <= 1.0


    def test_nan_quality_is_dropped_not_clamped_to_one(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=10, quality=0.9))
        ranker.add_recommendation(Recommendation(2, mirror=11, quality=float("nan")))
        ranker.add_recommendation(Recommendation(3, mirror=12, quality=float("inf")))
        assert [m for m, _ in ranker.ranking()] == [10]
        assert ranker.recommendation_count == 1
        assert ranker.rejected_recommendations == 2

    def test_ranking_is_kept_until_the_next_recommendation(self):
        ranker = BootstrapRanker()
        ranker.add_recommendation(Recommendation(1, mirror=11, quality=0.2))
        first = ranker.ranking()
        assert isinstance(first, tuple)
        assert ranker.ranking() is first  # no re-sort between recommendations
        ranker.add_recommendation(Recommendation(2, mirror=10, quality=0.9))
        assert [m for m, _ in ranker.ranking()] == [10, 11]
        fresh = BootstrapRanker()
        fresh.add_recommendation(Recommendation(1, mirror=11, quality=0.2))
        fresh.add_recommendation(Recommendation(2, mirror=10, quality=0.9))
        assert ranker.ranking() == fresh.ranking()


class TestRegularRankerAgedCounts:
    def test_experience_tracks_reported_availability(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        for _ in range(12):
            ranker.ingest_reports(
                [
                    ExperienceReport(reporter=j, mirror=5, observations=3, availability=0.9)
                    for j in range(3)
                ]
            )
        # With many saturated reports, exp converges near 0.9 despite the
        # prior shrinkage.
        assert kb.experience_of(5) == pytest.approx(0.9, abs=0.07)

    def test_single_lucky_observation_does_not_dominate(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        ranker.ingest_reports(
            [ExperienceReport(reporter=1, mirror=5, observations=1, availability=1.0)]
        )
        # Prior shrinkage keeps one success well below certainty.
        assert kb.experience_of(5) < 0.6

    def test_failure_reports_sink_experience(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        for _ in range(10):
            ranker.ingest_reports(
                [ExperienceReport(reporter=1, mirror=5, observations=3, availability=1.0)]
            )
        high = kb.experience_of(5)
        for _ in range(10):
            ranker.ingest_reports(
                [ExperienceReport(reporter=1, mirror=5, observations=3, availability=0.0)]
            )
        assert kb.experience_of(5) < high / 2

    def test_reporter_influence_capped(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        # One slanderer claiming many failed observations vs three honest
        # friends: the slanderer's weight is capped at o_max.
        ranker.ingest_reports(
            [ExperienceReport(reporter=666, mirror=5, observations=500, availability=0.0)]
            + [
                ExperienceReport(reporter=j, mirror=5, observations=3, availability=1.0)
                for j in range(3)
            ]
        )
        # Honest weight 9 vs capped malicious weight o_max=3.
        assert kb.experience_of(5) > 0.5

    def test_reports_about_owner_ignored(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        ranker.ingest_reports(
            [ExperienceReport(reporter=1, mirror=0, observations=3, availability=1.0)]
        )
        assert 0 not in kb


    def test_one_nan_report_does_not_pin_experience(self, config):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        assert ranker.ingest_reports([ExperienceReport(5, 9, 3, float("nan"))]) == {}
        for _ in range(10):
            updated = ranker.ingest_reports([ExperienceReport(5, 9, 3, 0.0)])
        assert updated[9] < 0.2
        assert kb.experience_of(9) == updated[9]
        assert ranker.rejected_reports == 1

    @pytest.mark.parametrize(
        "observations, availability, weight",
        [
            (float("nan"), 1.0, 1.0),
            (float("inf"), 1.0, 1.0),
            (-1, 1.0, 1.0),
            (3, float("nan"), 1.0),
            (3, -0.5, 1.0),
            (3, 1.5, 1.0),
            (3, 1.0, float("nan")),
            (3, 1.0, float("inf")),
            (3, 1.0, float("-inf")),
        ],
    )
    @pytest.mark.parametrize("normalization", ["aged_counts", "by_cap"])
    def test_malformed_reports_are_skipped_and_counted(
        self, observations, availability, weight, normalization
    ):
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, SoupConfig(experience_normalization=normalization))
        honest = ExperienceReport(1, 7, 3, 1.0)
        hostile = ExperienceReport(2, 7, observations, availability, weight)
        assert ranker.ingest_reports([hostile, honest]) == RegularRanker(
            KnowledgeBase(owner=0), SoupConfig(experience_normalization=normalization)
        ).ingest_reports([honest])
        assert ranker.rejected_reports == 1


class TestRegularRankerEq1Modes:
    @pytest.mark.parametrize("normalization", ["by_cap"])
    def test_eq1_modes_work_through_ranker(self, normalization):
        config = SoupConfig(experience_normalization=normalization)
        kb = KnowledgeBase(owner=0)
        ranker = RegularRanker(kb, config)
        ranker.ingest_reports(
            [
                ExperienceReport(
                    reporter=1, mirror=5, observations=config.o_max, availability=0.8
                )
            ]
        )
        assert kb.experience_of(5) == pytest.approx(0.75 * 0.8)


def test_ranking_delegates_to_kb():
    kb = KnowledgeBase(owner=0)
    kb.set_experience(1, 0.5)
    kb.set_experience(2, 0.9)
    ranking, _, _ = candidate_ranking(kb, BootstrapRanker(), 0.4)
    assert [n for n, _ in ranking] == [2, 1]
