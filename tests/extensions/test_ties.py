"""Tests for the tie-strength extension."""

import numpy as np
import pytest

from repro.core.experience import ExperienceReport
from repro.extensions.ties import (
    INFILTRATION_MAX,
    TieStrengthModel,
    tie_adjusted_beta,
    weigh_reports_by_tie,
)


@pytest.fixture()
def model():
    model = TieStrengthModel()
    rng = np.random.default_rng(0)
    edges = [(0, 1), (0, 2), (1, 2), (3, 0)]
    model.assign(edges, rng, attacker_ids={3})
    return model


def test_strength_symmetric(model):
    assert model.strength(0, 1) == model.strength(1, 0)


def test_non_friends_have_zero_strength(model):
    assert model.strength(0, 99) == 0.0


def test_infiltration_ties_are_weak(model):
    assert model.strength(3, 0) <= INFILTRATION_MAX


def test_honest_ties_heavy_tailed():
    model = TieStrengthModel()
    rng = np.random.default_rng(1)
    edges = [(i, i + 1000) for i in range(2000)]
    model.assign(edges, rng)
    strengths = [model.strength(a, b) for a, b in edges]
    # Most ties weak, some strong (Gilbert-Karahalios shape).
    assert np.median(strengths) < 0.4
    assert max(strengths) > 0.8
    assert model.mean_strength() < 0.45


def test_set_strength_validated(model):
    model.set_strength(5, 6, 0.9)
    assert model.strength(5, 6) == 0.9
    with pytest.raises(ValueError):
        model.set_strength(5, 6, 1.5)


def test_weigh_reports_scales_by_tie(model):
    model.set_strength(10, 11, 0.8)
    model.set_strength(10, 12, 0.1)
    reports = [
        ExperienceReport(reporter=11, mirror=1, observations=3, availability=1.0),
        ExperienceReport(reporter=12, mirror=1, observations=3, availability=0.0),
    ]
    weighted = weigh_reports_by_tie(reports, receiver=10, ties=model)
    assert weighted[0].weight == pytest.approx(0.8)
    assert weighted[1].weight == pytest.approx(0.1)
    # Other fields untouched.
    assert weighted[0].availability == 1.0
    assert weighted[1].observations == 3


def test_weigh_reports_floor_keeps_acquaintances_audible(model):
    reports = [
        ExperienceReport(reporter=999, mirror=1, observations=3, availability=1.0)
    ]
    weighted = weigh_reports_by_tie(reports, receiver=10, ties=model, floor=0.1)
    assert weighted[0].weight == pytest.approx(0.1)


def test_tie_adjusted_beta():
    assert tie_adjusted_beta(1.25, 0.5) == pytest.approx(1.25)
    assert tie_adjusted_beta(1.25, 1.0) == pytest.approx(1.5)
    assert tie_adjusted_beta(1.25, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tie_adjusted_beta(0.9, 0.5)
    with pytest.raises(ValueError):
        tie_adjusted_beta(1.25, 1.5)


def test_weighted_reports_dampen_slander_in_ranker():
    """A weak-tied slanderer loses against a strong-tied honest friend."""
    from repro.core.config import SoupConfig
    from repro.core.knowledge import KnowledgeBase
    from repro.core.ranking import RegularRanker

    config = SoupConfig()
    kb = KnowledgeBase(owner=0)
    ranker = RegularRanker(kb, config)
    honest = ExperienceReport(
        reporter=1, mirror=5, observations=3, availability=1.0, weight=0.8
    )
    slander = ExperienceReport(
        reporter=666, mirror=5, observations=3, availability=0.0, weight=0.1
    )
    for _ in range(8):
        ranker.ingest_reports([honest, slander])
    assert kb.experience_of(5) > 0.7
