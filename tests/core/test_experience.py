"""Tests for experience sets and the Eq. (1) update."""

import pytest

from repro.core.experience import (
    HIT,
    MISS,
    ExperienceBatch,
    ExperienceReport,
    ExperienceSet,
    ObservationRecord,
    update_experience,
)


class TestObservationRecord:
    def test_availability_empty(self):
        assert ObservationRecord().availability == 0.0

    def test_availability_ratio(self):
        record = ObservationRecord()
        record.observe(True)
        record.observe(True)
        record.observe(False)
        assert record.requests == 3
        assert record.successes == 2
        assert record.availability == pytest.approx(2 / 3)

    def test_copy_is_independent(self):
        record = ObservationRecord(5, 3)
        clone = record.copy()
        clone.observe(True)
        assert record.requests == 5


class TestExperienceSet:
    def test_observe_and_drain(self):
        es = ExperienceSet(observed_friend=7)
        es.observe(1, True)
        es.observe(1, False)
        es.observe(2, True)
        reports = es.hand_over(reporter=9).reports(o_max=10)
        by_mirror = {r.mirror: r for r in reports}
        assert by_mirror[1].observations == 2
        assert by_mirror[1].availability == pytest.approx(0.5)
        assert by_mirror[2].availability == 1.0
        assert all(r.reporter == 9 for r in reports)

    def test_drain_resets(self):
        es = ExperienceSet(observed_friend=7)
        es.observe(1, True)
        es.hand_over(reporter=9)
        assert len(es) == 0
        assert es.hand_over(reporter=9) is None

    def test_drain_caps_at_o_max(self):
        es = ExperienceSet(observed_friend=7)
        for _ in range(50):
            es.observe(1, True)
        (report,) = es.hand_over(reporter=9).reports(o_max=3)
        assert report.observations == 3
        assert report.availability == 1.0

    def test_record_for_unknown_mirror_empty(self):
        es = ExperienceSet(observed_friend=7)
        assert es.record_for(99).requests == 0

    def test_hand_over_gives_the_counts_away(self):
        es = ExperienceSet(observed_friend=7)
        es.observe(1, True)
        es.observe(2, False)
        counts = es._counts
        batch = es.hand_over(reporter=9, weight=0.5)
        assert type(batch) is ExperienceBatch
        assert batch == (9, 0.5, counts) and batch.counts is counts
        assert len(es) == 0 and es.hand_over(reporter=9) is None
        es.observe(1, True)
        assert batch.counts == {1: HIT, 2: MISS}, "a handed-over batch changed"
        assert batch.reports(o_max=3) == [
            ExperienceReport(9, 1, 1, 1.0, 0.5),
            ExperienceReport(9, 2, 1, 0.0, 0.5),
        ]

    def test_packed_counts_hold_up_to_the_success_bound(self):
        """Successes fill the low 32 bits: 2**32 - 1 of them per mirror
        between two exchanges read back exactly (requests are unbounded);
        one more carries into the requests, which is the stated bound."""
        es = ExperienceSet(observed_friend=7)
        es._counts[1] = (2**32 - 1) * HIT
        es.observe(1, False)
        record = es.record_for(1)
        assert (record.requests, record.successes) == (2**32, 2**32 - 1)
        (report,) = es.hand_over(reporter=9).reports(o_max=3)
        assert report.observations == 3
        assert report.availability == (2**32 - 1) / 2**32
        es._counts[1] = (2**32 - 1) * HIT
        es.observe(1, True)
        record = es.record_for(1)
        assert (record.requests, record.successes) == (2**32 + 1, 0)


class TestUpdateExperienceByCap:
    """The formula exactly as printed in the paper."""

    def test_full_saturation_tracks_availability(self):
        reports = [
            ExperienceReport(reporter=j, mirror=1, observations=5, availability=0.8)
            for j in range(4)
        ]
        updated = update_experience({}, reports, alpha=1.0, o_max=5)
        assert updated[1] == pytest.approx(0.8)

    def test_sparse_observations_are_diluted(self):
        reports = [
            ExperienceReport(reporter=1, mirror=1, observations=1, availability=1.0)
        ]
        updated = update_experience({}, reports, alpha=1.0, o_max=5)
        assert updated[1] == pytest.approx(0.2)

    def test_aging_blends_old_value(self):
        reports = [
            ExperienceReport(reporter=1, mirror=1, observations=5, availability=1.0)
        ]
        updated = update_experience({1: 0.4}, reports, alpha=0.75, o_max=5)
        assert updated[1] == pytest.approx(0.25 * 0.4 + 0.75 * 1.0)

    def test_cap_bounds_single_reporter(self):
        # One reporter claiming 1000 observations is capped at o_max.
        reports = [
            ExperienceReport(reporter=1, mirror=1, observations=1000, availability=0.0),
            ExperienceReport(reporter=2, mirror=1, observations=5, availability=1.0),
        ]
        updated = update_experience({}, reports, alpha=1.0, o_max=5)
        assert updated[1] == pytest.approx(0.5)

    def test_multiple_mirrors_updated_independently(self):
        reports = [
            ExperienceReport(reporter=1, mirror=1, observations=2, availability=1.0),
            ExperienceReport(reporter=1, mirror=2, observations=2, availability=0.0),
        ]
        updated = update_experience({}, reports, alpha=1.0, o_max=5)
        assert updated[1] == pytest.approx(0.4)
        assert updated[2] == 0.0


def test_unreported_mirrors_untouched():
    updated = update_experience(
        {5: 0.9},
        [ExperienceReport(reporter=1, mirror=1, observations=1, availability=1.0)],
        alpha=0.75,
        o_max=5,
    )
    assert 5 not in updated


def test_invalid_alpha_rejected():
    with pytest.raises(ValueError):
        update_experience({}, [], alpha=1.5, o_max=5)


def test_malformed_report_rejected():
    bad = ExperienceReport(reporter=1, mirror=1, observations=1, availability=2.0)
    with pytest.raises(ValueError):
        update_experience({}, [bad], alpha=0.5, o_max=5)
