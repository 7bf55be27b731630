"""Tests for SoupConfig validation and paper defaults."""

import pytest

from repro.core.config import SoupConfig


def test_paper_defaults():
    config = SoupConfig()
    assert config.alpha == 0.75
    assert config.beta == 1.25
    assert config.epsilon == 0.01
    assert config.theta == 300.0
    assert config.mismatch_penalty == 100.0
    assert config.storage_median_profiles == 50


def test_three_strike_principle():
    # theta=300, c=100: blacklisted after three mismatched mirror sets.
    assert SoupConfig().strikes_to_blacklist == 3


def test_alpha_bounds():
    SoupConfig(alpha=0.0)
    SoupConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SoupConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SoupConfig(alpha=1.1)


def test_beta_must_boost():
    with pytest.raises(ValueError):
        SoupConfig(beta=0.9)


def test_epsilon_open_interval():
    with pytest.raises(ValueError):
        SoupConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SoupConfig(epsilon=1.0)


def test_o_max_positive():
    with pytest.raises(ValueError):
        SoupConfig(o_max=0)


def test_theta_and_penalty_positive():
    with pytest.raises(ValueError):
        SoupConfig(theta=0)
    with pytest.raises(ValueError):
        SoupConfig(mismatch_penalty=-1)


def test_normalization_validated():
    SoupConfig(experience_normalization="by_cap")
    SoupConfig(experience_normalization="aged_counts")
    with pytest.raises(ValueError):
        SoupConfig(experience_normalization="bogus")


def test_retention_open_interval():
    with pytest.raises(ValueError):
        SoupConfig(count_retention=0.0)
    with pytest.raises(ValueError):
        SoupConfig(count_retention=1.0)

