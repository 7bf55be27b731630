"""Tests for the online-time model."""

import numpy as np
import pytest

from repro.behavior import online
from repro.behavior.online import (
    DIURNAL_PROFILE,
    TIMEZONE_OFFSETS,
    TIMEZONE_PROBABILITIES,
    OnlineModel,
    sample_online_probabilities,
    sample_timezones,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


class TestOnlineProbabilities:
    def test_paper_low_fraction(self, rng):
        """~60 % of nodes available less than 20 % of the time (Sec. 5.1)."""
        p = sample_online_probabilities(20_000, rng)
        assert np.mean(p < 0.2) == pytest.approx(0.6, abs=0.03)

    def test_few_highly_available_nodes(self, rng):
        p = sample_online_probabilities(20_000, rng)
        assert np.mean(p > 0.9) < 0.05

    def test_bounds(self, rng):
        p = sample_online_probabilities(5_000, rng)
        assert p.min() >= 0.02
        assert p.max() <= 1.0

    def test_invalid_n(self, rng):
        with pytest.raises(ValueError):
            sample_online_probabilities(0, rng)


class TestTimezones:
    def test_mix_matches_paper(self, rng):
        tz = sample_timezones(30_000, rng)
        for offset, expected in zip(TIMEZONE_OFFSETS, TIMEZONE_PROBABILITIES):
            assert np.mean(tz == offset) == pytest.approx(expected, abs=0.02)


class TestDiurnalProfile:
    def test_mean_is_one(self):
        assert DIURNAL_PROFILE.mean() == pytest.approx(1.0)

    def test_evening_peak_and_night_trough(self):
        assert DIURNAL_PROFILE[19] > DIURNAL_PROFILE[3]


class TestOnlineModel:
    def test_matrix_shape(self, rng):
        model = OnlineModel(np.array([0.5, 0.1]), np.array([0, 8]))
        matrix = model.generate_matrix(48, rng)
        assert matrix.shape == (2, 48)
        assert matrix.dtype == bool

    def test_marginal_tracks_base_probability(self, rng):
        p = np.full(400, 0.3)
        model = OnlineModel(p, np.zeros(400, dtype=int))
        matrix = model.generate_matrix(24 * 14, rng)
        assert matrix.mean() == pytest.approx(0.3, abs=0.05)

    def test_always_online_nodes_never_offline(self, rng):
        model = OnlineModel(np.array([1.0, 0.2]), np.array([0, 0]))
        matrix = model.generate_matrix(24 * 7, rng)
        assert matrix[0].all()

    def test_low_p_nodes_follow_diurnal_rhythm(self, rng):
        p = np.full(2000, 0.15)
        model = OnlineModel(p, np.zeros(2000, dtype=int))
        matrix = model.generate_matrix(24 * 7, rng)
        by_hour = matrix.reshape(2000, 7, 24).mean(axis=(0, 1))
        assert by_hour[19] > 2 * by_hour[3]

    def test_high_p_nodes_barely_modulated(self, rng):
        p = np.full(500, 0.9)
        model = OnlineModel(p, np.zeros(500, dtype=int))
        matrix = model.generate_matrix(24 * 7, rng)
        by_hour = matrix.reshape(500, 7, 24).mean(axis=(0, 1))
        assert by_hour.min() > 0.6 * by_hour.max()

    def test_sessions_are_bursty(self, rng, monkeypatch):
        """Mean session length tracks the configured burstiness."""
        monkeypatch.setattr(online, "MEAN_SESSION_EPOCHS", 3.0)
        model = OnlineModel(np.full(300, 0.3), np.zeros(300, dtype=int))
        matrix = model.generate_matrix(24 * 14, rng)
        # Count on-runs.
        lengths = []
        for row in matrix[:50]:
            run = 0
            for value in row:
                if value:
                    run += 1
                elif run:
                    lengths.append(run)
                    run = 0
            if run:
                lengths.append(run)
        assert 1.5 < np.mean(lengths) < 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineModel(np.array([0.5]), np.array([0, 1]))
        with pytest.raises(ValueError):
            OnlineModel(np.array([1.5]), np.array([0]))

    def test_invalid_epoch_count(self, rng):
        model = OnlineModel(np.array([0.5]), np.array([0]))
        with pytest.raises(ValueError):
            model.generate_matrix(0, rng)
