"""Tests for the (n, k) Reed-Solomon code."""

import random

import pytest

from benchmarks.coding.reed_solomon import Fragment, ReedSolomonCode, ReedSolomonError


@pytest.fixture(scope="module")
def data():
    rng = random.Random(7)
    return bytes(rng.randrange(256) for _ in range(4097))  # not k-aligned


@pytest.mark.parametrize("n,k", [(12, 8), (5, 3), (6, 6), (10, 1), (40, 13)])
def test_any_k_fragments_reconstruct(n, k, data):
    code = ReedSolomonCode(n, k)
    fragments = code.encode(data)
    assert len(fragments) == n
    rng = random.Random(n * 100 + k)
    for _ in range(5):
        subset = rng.sample(fragments, k)
        assert code.decode(subset, len(data)) == data


def test_systematic_prefix(data):
    """The first k fragments are the raw data pieces (systematic code)."""
    code = ReedSolomonCode(10, 4)
    fragments = code.encode(data)
    recombined = b"".join(f.data for f in fragments[:4])
    assert recombined[: len(data)] == data


def test_fewer_than_k_fragments_fail(data):
    code = ReedSolomonCode(8, 5)
    fragments = code.encode(data)
    with pytest.raises(ReedSolomonError):
        code.decode(fragments[:4], len(data))


def test_duplicate_fragments_do_not_count_twice(data):
    code = ReedSolomonCode(8, 3)
    fragments = code.encode(data)
    duplicated = [fragments[0]] * 5 + [fragments[1]]
    with pytest.raises(ReedSolomonError):
        code.decode(duplicated, len(data))


def test_parity_only_reconstruction(data):
    """Reconstruction from parity fragments alone (no systematic pieces)."""
    code = ReedSolomonCode(10, 4)
    fragments = code.encode(data)
    assert code.decode(fragments[4:8], len(data)) == data


def test_fragment_sizes_equal(data):
    code = ReedSolomonCode(9, 4)
    fragments = code.encode(data)
    sizes = {len(f.data) for f in fragments}
    assert len(sizes) == 1
    assert sizes.pop() == (len(data) + 3) // 4


def test_storage_overhead(data):
    assert ReedSolomonCode(12, 8).storage_overhead == pytest.approx(1.5)


def test_empty_data_roundtrip():
    code = ReedSolomonCode(6, 3)
    fragments = code.encode(b"")
    assert code.decode(fragments[:3], 0) == b""


def test_invalid_parameters():
    with pytest.raises(ReedSolomonError):
        ReedSolomonCode(2, 3)
    with pytest.raises(ReedSolomonError):
        ReedSolomonCode(0, 0)
    with pytest.raises(ReedSolomonError):
        ReedSolomonCode(300, 10)


def test_out_of_range_fragment_rejected(data):
    code = ReedSolomonCode(6, 3)
    fragments = code.encode(data)
    bad = Fragment(index=99, data=fragments[0].data)
    with pytest.raises(ReedSolomonError):
        code.decode([bad] + fragments[:2], len(data))


def test_inconsistent_lengths_rejected(data):
    code = ReedSolomonCode(6, 3)
    fragments = code.encode(data)
    truncated = Fragment(index=fragments[0].index, data=fragments[0].data[:-1])
    with pytest.raises(ReedSolomonError):
        code.decode([truncated, fragments[1], fragments[2]], len(data))
