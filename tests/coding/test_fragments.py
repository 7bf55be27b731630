"""Tests for the availability maths of erasure-coded replication."""

import pytest

from benchmarks.coding.fragments import (
    availability_probability,
    equivalent_full_replication,
)


class TestAvailabilityProbability:
    def test_k_one_matches_any_online(self):
        p = [0.3, 0.5]
        expected = 1 - 0.7 * 0.5
        assert availability_probability(p, 1) == pytest.approx(expected)

    def test_all_required(self):
        p = [0.5, 0.5, 0.5]
        assert availability_probability(p, 3) == pytest.approx(0.125)

    def test_monotone_in_k(self):
        p = [0.4] * 10
        values = [availability_probability(p, k) for k in range(1, 11)]
        assert values == sorted(values, reverse=True)

    def test_insufficient_holders(self):
        assert availability_probability([0.9], 2) == 0.0

    def test_k_zero_always_available(self):
        assert availability_probability([], 0) == 1.0

    def test_holders_surely_up_or_down_give_the_k_of_n_threshold(self):
        online = [1.0] * 4 + [0.0] * 6
        assert availability_probability(online, 4) == 1.0
        assert availability_probability(online, 5) == 0.0


def test_coding_beats_replication_on_storage():
    """The paper's motivation: at comparable availability, fragments cost
    far less storage than full replicas for large profiles."""
    holder_p = [0.6] * 12
    # Full replication: replicas to push perr below 1 %.
    replicas = equivalent_full_replication(holder_p, epsilon=0.01)
    full_storage = replicas * 1.0  # profiles
    # Coding: (12, 5) needs storage 12/5 = 2.4 profiles and still keeps
    # P(>=5 of 12 online at p=0.6) above 90 %.
    coded_av = availability_probability(holder_p, 5)
    coded_storage = 12 / 5
    assert coded_av > 0.9
    assert coded_storage < full_storage
