"""Property-based tests for the erasure-coding substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.coding.gf256 import GF256
from benchmarks.coding.reed_solomon import ReedSolomonCode


@given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
def test_gf256_field_axioms(a, b, c):
    # Commutativity and associativity of both operations.
    assert GF256.add(a, b) == GF256.add(b, a)
    assert GF256.multiply(a, b) == GF256.multiply(b, a)
    assert GF256.add(GF256.add(a, b), c) == GF256.add(a, GF256.add(b, c))
    assert GF256.multiply(GF256.multiply(a, b), c) == GF256.multiply(
        a, GF256.multiply(b, c)
    )
    # Distributivity.
    assert GF256.multiply(a, GF256.add(b, c)) == GF256.add(
        GF256.multiply(a, b), GF256.multiply(a, c)
    )


@given(a=st.integers(1, 255), b=st.integers(1, 255))
def test_gf256_division_inverts_multiplication(a, b):
    assert GF256.divide(GF256.multiply(a, b), b) == a


@given(
    params=st.tuples(st.integers(1, 24), st.integers(0, 23)).map(
        lambda t: (t[0] + t[1], t[0])  # n >= k
    ),
    data=st.binary(min_size=0, max_size=600),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_reed_solomon_any_k_of_n(params, data, seed):
    """Any k distinct fragments of an (n, k) encoding reconstruct the data."""
    n, k = params
    code = ReedSolomonCode(n, k)
    fragments = code.encode(data)
    rng = random.Random(seed)
    subset = rng.sample(fragments, k)
    assert code.decode(subset, len(data)) == data


@given(
    data=st.binary(min_size=1, max_size=400),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_reed_solomon_systematic_property(data, seed):
    """The first k fragments concatenate to the (padded) original data."""
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    n = k + rng.randint(0, 8)
    code = ReedSolomonCode(n, k)
    fragments = code.encode(data)
    systematic = b"".join(f.data for f in fragments[:k])
    assert systematic[: len(data)] == data
    assert set(systematic[len(data):]) <= {0}  # zero padding only
