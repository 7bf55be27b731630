"""Tests for scenario configuration."""

import numpy as np
import pytest

from repro.sim.scenario import (
    PEERSON_BUCKETS,
    OnlineDistribution,
    ScenarioConfig,
    sample_distribution,
)


def test_defaults_reproduce_base_experiment():
    config = ScenarioConfig()
    assert config.dataset == "facebook"
    assert config.online_distribution is OnlineDistribution.POWER_LAW
    assert config.n_epochs == config.n_days * config.epochs_per_day


def test_round_period_epochs():
    config = ScenarioConfig(round_period_days=0.5, epochs_per_day=24)
    assert config.round_period_epochs == 12


def test_with_overrides_copies():
    base = ScenarioConfig()
    swept = base.with_overrides(slander_fraction=0.5)
    assert swept.slander_fraction == 0.5
    assert base.slander_fraction == 0.0
    assert swept.dataset == base.dataset


@pytest.mark.parametrize(
    "field,value",
    [
        ("scale", 0.0),
        ("scale", -0.5),
        ("n_days", 0),
        ("n_days", -3),
        ("epochs_per_day", 0),
        ("altruist_fraction", 1.0),
        ("departure_fraction", -0.1),
        ("slander_fraction", 0.95),
        ("sybil_fraction", 1.5),
        ("round_period_days", 0.0),
        ("round_period_days", -1.0),
        ("mirror_request_capacity", 0),
        ("mirror_request_capacity", -3),
        ("sybil_flood_requests", -5),
        ("altruist_join_day", -1.0),
        ("departure_day", -1.0),
        ("betrayal_day", -1.0),
    ],
)
def test_validation(field, value):
    with pytest.raises(ValueError):
        ScenarioConfig(**{field: value})


def test_validation_messages_name_field_and_value():
    with pytest.raises(ValueError, match="scale must be positive, got 0"):
        ScenarioConfig(scale=0)
    with pytest.raises(ValueError, match="n_days must be positive, got -1"):
        ScenarioConfig(n_days=-1)
    with pytest.raises(ValueError, match="epochs_per_day must be positive"):
        ScenarioConfig(epochs_per_day=-24)
    with pytest.raises(ValueError, match="got 1.5"):
        ScenarioConfig(sybil_fraction=1.5)


def test_validate_callable_after_mutation():
    config = ScenarioConfig()
    config.validate()  # explicit re-check of a valid config is a no-op
    config.scale = -1.0
    with pytest.raises(ValueError, match="scale"):
        config.validate()


def test_architecture_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(architecture="no_such_arch").validate()
    for name in ("soup", "superpeer", "social_dht", "cache", "peerson", "safebook"):
        ScenarioConfig(architecture=name).validate()
    # The engine has one path and does no crypto: neither knob exists.
    with pytest.raises(TypeError):
        ScenarioConfig(engine_mode="reference")
    with pytest.raises(TypeError):
        ScenarioConfig(crypto_mode="full")


class TestDistributions:
    def test_power_law(self):
        rng = np.random.default_rng(0)
        p = sample_distribution(OnlineDistribution.POWER_LAW, 10_000, rng)
        assert np.mean(p < 0.2) == pytest.approx(0.6, abs=0.05)

    def test_uniform_03(self):
        rng = np.random.default_rng(0)
        p = sample_distribution(OnlineDistribution.UNIFORM_03, 100, rng)
        assert np.all(p == 0.3)

    def test_peerson_buckets(self):
        rng = np.random.default_rng(0)
        p = sample_distribution(OnlineDistribution.PEERSON, 50_000, rng)
        for fraction, value in PEERSON_BUCKETS:
            assert np.mean(np.isclose(p, value)) == pytest.approx(fraction, abs=0.02)

    def test_peerson_buckets_cover_population(self):
        assert sum(f for f, _ in PEERSON_BUCKETS) == pytest.approx(1.0)
