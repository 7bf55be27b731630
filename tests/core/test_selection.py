"""Tests for Algorithm 1 (mirror selection)."""

import random

import pytest

from repro.core import selection
from repro.core.config import SoupConfig
from repro.core.selection import boosted_rank, select_mirrors


@pytest.fixture()
def config():
    return SoupConfig()


def rng():
    return random.Random(42)


def test_greedy_stops_at_epsilon(config):
    # Two mirrors at 0.9 reach perr = 0.01 = ε, which ends the paper's
    # "while perr > ε" loop.
    ranking = [(i, 0.9) for i in range(10)]
    result = select_mirrors(ranking, friends=[], config=config, rng=rng())
    assert len(result.mirrors) == 2
    assert result.estimated_error <= config.epsilon


def test_higher_ranks_need_fewer_mirrors(config):
    few = select_mirrors([(i, 0.99) for i in range(10)], [], config, rng())
    many = select_mirrors([(i, 0.5) for i in range(10)], [], config, rng())
    assert len(few.mirrors) < len(many.mirrors)


def test_top_ranked_selected_first(config):
    ranking = [(1, 0.95), (2, 0.2), (3, 0.99), (4, 0.1)]
    result = select_mirrors(ranking, friends=[], config=config, rng=rng())
    assert 3 in result.mirrors
    assert 1 in result.mirrors


def test_zero_rank_candidates_not_selected(config):
    ranking = [(1, 0.9), (2, 0.0), (3, 0.0)]
    result = select_mirrors(ranking, friends=[], config=config, rng=rng())
    assert 2 not in result.mirrors
    assert 3 not in result.mirrors or result.exploration_node == 3


def test_max_mirrors_cap(monkeypatch):
    monkeypatch.setattr(selection, "MAX_MIRRORS", 5)
    ranking = [(i, 0.1) for i in range(100)]
    result = select_mirrors(ranking, friends=[], config=SoupConfig(), rng=rng())
    assert len(result.mirrors) <= 5


def test_social_filter_replaces_stranger(config):
    # Stranger at 0.5 loses to an unselected friend at 0.45 (0.45·1.25 > 0.5).
    ranking = [(1, 0.9), (2, 0.9), (3, 0.9), (4, 0.5), (5, 0.45)]
    result = select_mirrors(ranking, friends=[5], config=config, rng=rng())
    if 4 in [old for old, _ in result.replacements]:
        assert 5 in result.mirrors
        assert 4 not in result.mirrors


def test_social_filter_does_not_promote_weak_friend(config):
    # Friend at 0.3: 0.3·1.25 = 0.375 < 0.9, no stranger is replaced.
    ranking = [(1, 0.9), (2, 0.9), (3, 0.9), (9, 0.3)]
    result = select_mirrors(ranking, friends=[9], config=config, rng=rng())
    assert result.replacements == []


def test_exploration_node_added(config):
    ranking = [(i, 0.9) for i in range(5)]
    result = select_mirrors(
        ranking, friends=[], config=config, rng=rng(), exploration_pool=[100, 101]
    )
    assert result.exploration_node in (100, 101)
    assert result.exploration_node in result.mirrors


def test_exploration_skips_already_selected(config):
    ranking = [(1, 0.99), (2, 0.99), (3, 0.99), (4, 0.99)]
    result = select_mirrors(
        ranking, friends=[], config=config, rng=rng(), exploration_pool=[1, 2]
    )
    # 1 and 2 are already mirrors; no duplicate exploration pick.
    assert len(result.mirrors) == len(set(result.mirrors))


def test_excluded_nodes_never_selected(config):
    ranking = [(1, 0.99), (2, 0.99), (3, 0.99), (4, 0.99)]
    result = select_mirrors(
        ranking,
        friends=[],
        config=config,
        rng=rng(),
        exploration_pool=[1, 5],
        exclude=[1, 5],
    )
    assert 1 not in result.mirrors
    assert 5 not in result.mirrors


def test_empty_ranking_selects_nothing(config):
    result = select_mirrors([], friends=[], config=config, rng=rng())
    assert result.mirrors == []
    assert result.estimated_error == 1.0


def test_rank_tie_break_is_randomized(config):
    ranking = [(i, 0.3) for i in range(50)]
    first = select_mirrors(ranking, [], config, random.Random(1)).mirrors
    second = select_mirrors(ranking, [], config, random.Random(2)).mirrors
    assert first != second  # different seeds explore different ties


def test_ranks_clamped_to_unit_interval(config):
    result = select_mirrors([(1, 5.0), (2, -3.0)], [], config, rng())
    assert 1 in result.mirrors
    assert result.estimated_error == 0.0  # rank clamped to 1.0


def test_boosted_rank():
    assert boosted_rank(0.5, False, 1.25) == 0.5
    assert boosted_rank(0.5, True, 1.25) == pytest.approx(0.625)
    assert boosted_rank(0.9, True, 1.25) == 1.0  # capped


def test_selection_result_container(config):
    result = select_mirrors([(1, 0.99), (2, 0.99), (3, 0.99)], [], config, rng())
    assert 1 in result
    assert len(result) == len(result.mirrors)
