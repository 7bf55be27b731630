"""Pin the two per-report paths of an exchange round to plain definitions.

``ExperienceSet.drain`` builds one :class:`ExperienceReport` per observed
mirror and ``RegularRanker._ingest_aged_counts`` folds every received
report into the aged counters; both run once per report.  The references
below are the straightforward ``min``/``max`` formulations; the real paths
must give the same values and the same types for every well-formed input
(integer and float observations, observations above ``o_max``, weights at
or below zero).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport, ExperienceSet
from repro.core.knowledge import KnowledgeBase
from repro.core.ranking import RegularRanker

OWNER = 0


@given(
    outcomes=st.dictionaries(
        st.integers(1, 40), st.lists(st.booleans(), min_size=1, max_size=12), max_size=8
    ),
    o_max=st.integers(1, 6),
    reporter=st.integers(0, 99),
)
def test_drain_builds_the_reports_of_the_plain_definition(outcomes, o_max, reporter):
    es = ExperienceSet(observed_friend=7)
    for mirror, results in outcomes.items():
        for success in results:
            es.observe(mirror, success)
    reports = es.drain(reporter, o_max)

    expected = [
        (reporter, mirror, min(len(results), o_max), sum(results) / len(results), 1.0, None)
        for mirror, results in outcomes.items()
    ]
    assert [tuple(report) for report in reports] == expected
    for report in reports:
        assert type(report) is ExperienceReport
        assert type(report.observations) is int
        assert type(report.availability) is float
        assert report.weight == 1.0 and type(report.weight) is float
        assert report.bandwidth_kb_s is None
    assert len(es) == 0


def reference_aged_counts(counters, knowledge, config, reports):
    """``_ingest_aged_counts`` as first written, with ``min`` and ``max``."""
    for counter in counters.values():
        counter[0] *= config.count_retention
        counter[1] *= config.count_retention
    updated = {}
    for _reporter, mirror, observations, availability, weight, _bw in reports:
        if mirror == knowledge.owner:
            continue
        weight = min(observations, config.o_max) * max(0.0, weight)
        if weight <= 0:
            continue
        counter = counters.get(mirror)
        if counter is None:
            counter = counters[mirror] = [0.0, 0.0]
        counter[0] += weight
        counter[1] += weight * availability
    prior = config.bootstrap_prior
    prior_weight = config.count_prior_weight
    for mirror, (requests, successes) in counters.items():
        if requests <= 0.0:
            continue
        value = (successes + prior_weight * prior) / (requests + prior_weight)
        updated[mirror] = max(0.0, min(1.0, value))
    knowledge.set_experiences(updated.items())
    return updated


well_formed_reports = st.builds(
    ExperienceReport,
    reporter=st.integers(1, 9),
    mirror=st.integers(0, 6),
    observations=st.one_of(
        st.integers(0, 12),
        st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
    availability=st.one_of(
        st.sampled_from([0.0, 1.0, 0, 1, 0.5]),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    weight=st.one_of(
        st.sampled_from([1.0, 0.0, -0.0, -1.0, 1, 0, 2]),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    ),
)


@given(rounds=st.lists(st.lists(well_formed_reports, max_size=10), min_size=1, max_size=5))
def test_aged_counts_match_the_min_max_reference(rounds):
    config = SoupConfig()
    knowledge = KnowledgeBase(owner=OWNER)
    ranker = RegularRanker(knowledge, config)
    reference_knowledge = KnowledgeBase(owner=OWNER)
    reference_counters = {}
    for reports in rounds:
        updated = ranker.ingest_reports(reports)
        expected = reference_aged_counts(
            reference_counters, reference_knowledge, config, reports
        )
        assert list(updated.items()) == list(expected.items())
        assert [type(value) for value in updated.values()] == [
            type(value) for value in expected.values()
        ]
        assert ranker._counters == reference_counters
        assert list(knowledge.experience_values().items()) == list(
            reference_knowledge.experience_values().items()
        )
