"""Property-based tests for Algorithm 1 (mirror selection, Sec. 4.5)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.selection import MAX_MIRRORS, boosted_rank, select_mirrors

node_ids = st.integers(1, 10_000)
ranks = st.floats(0.0, 1.0, allow_nan=False)
rankings = st.lists(
    st.tuples(node_ids, ranks), min_size=0, max_size=60, unique_by=lambda p: p[0]
)


def run(ranking, friends=(), pool=(), exclude=(), seed=0, config=None):
    return select_mirrors(
        ranking=ranking,
        friends=friends,
        config=config or SoupConfig(),
        rng=random.Random(seed),
        exploration_pool=pool,
        exclude=exclude,
    )


@given(ranking=rankings, seed=st.integers(0, 50))
def test_greedy_terminates_at_epsilon_or_exhaustion(ranking, seed):
    """perr = Π(1−r) after stage 1 is below ε unless candidates ran out."""
    config = SoupConfig()
    result = run(ranking, seed=seed, config=config)
    positive = [r for _, r in ranking if r > 0.0]
    exhausted = len(result.mirrors) >= min(len(positive), MAX_MIRRORS)
    assert result.estimated_error <= config.epsilon or exhausted
    # perr matches the product over the greedy-selected ranks exactly.
    ranks_by_node = {node: min(1.0, max(0.0, r)) for node, r in ranking}
    greedy = [m for m in result.mirrors if m != result.exploration_node]
    perr = 1.0
    for mirror in greedy:
        perr *= 1.0 - ranks_by_node[mirror]
    assert abs(perr - result.estimated_error) < 1e-9


@given(ranking=rankings, seed=st.integers(0, 50))
def test_no_superfluous_mirrors(ranking, seed):
    """Dropping the last greedy pick must push perr back above ε."""
    config = SoupConfig()
    result = run(ranking, seed=seed, config=config)
    greedy = [m for m in result.mirrors if m != result.exploration_node]
    if len(greedy) < 2 or len(greedy) >= MAX_MIRRORS:
        return
    ranks_by_node = {node: min(1.0, max(0.0, r)) for node, r in ranking}
    perr_without_last = 1.0
    for mirror in greedy[:-1]:
        perr_without_last *= 1.0 - ranks_by_node[mirror]
    assert perr_without_last > config.epsilon


@given(
    ranking=rankings,
    pool=st.sets(st.integers(20_000, 30_000), min_size=1, max_size=10),
    seed=st.integers(0, 50),
)
def test_exploration_node_always_included(ranking, pool, seed):
    """Stage 3 always adds one unranked node while under the mirror cap."""
    config = SoupConfig()
    result = run(ranking, pool=sorted(pool), seed=seed, config=config)
    if len(result.mirrors) <= MAX_MIRRORS and result.exploration_node is None:
        # Only legal if the greedy stage alone already filled the cap.
        assert len(result.mirrors) >= MAX_MIRRORS
    if result.exploration_node is not None:
        assert result.exploration_node in pool
        assert result.exploration_node in result.mirrors
        ranked = {node for node, _ in ranking}
        assert result.exploration_node not in ranked


@given(
    ranking=rankings,
    friend_picks=st.sets(st.integers(0, 59), min_size=0, max_size=20),
    seed=st.integers(0, 50),
)
def test_social_filter_bound(ranking, friend_picks, seed):
    """Every friend promoted by Eq. (3) beats the replaced stranger's rank
    after the β boost; no friend worse than best-stranger/β ever swaps in."""
    config = SoupConfig()
    friends = [ranking[i][0] for i in friend_picks if i < len(ranking)]
    result = run(ranking, friends=friends, seed=seed, config=config)
    ranks_by_node = {node: min(1.0, max(0.0, r)) for node, r in ranking}
    for stranger, friend in result.replacements:
        assert friend in friends and stranger not in friends
        assert (
            boosted_rank(ranks_by_node[friend], True, config.beta)
            > ranks_by_node[stranger]
        )
        assert stranger not in result.mirrors
        assert friend in result.mirrors


@given(
    ranking=rankings,
    pool=st.sets(st.integers(20_000, 30_000), max_size=5),
    exclude_picks=st.sets(st.integers(0, 59), max_size=10),
    seed=st.integers(0, 50),
)
def test_selection_sanity(ranking, pool, exclude_picks, seed):
    """No duplicates, no excluded nodes, never above the mirror cap + 1."""
    config = SoupConfig()
    exclude = {ranking[i][0] for i in exclude_picks if i < len(ranking)}
    result = run(ranking, pool=sorted(pool), exclude=exclude, seed=seed, config=config)
    assert len(result.mirrors) == len(set(result.mirrors))
    assert not exclude & set(result.mirrors)
    assert len(result.mirrors) <= MAX_MIRRORS + 1
