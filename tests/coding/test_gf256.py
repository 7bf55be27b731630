"""Tests for GF(2^8) arithmetic."""

import pytest

from benchmarks.coding.gf256 import GF256, gf_matrix_invert, gf_matrix_multiply


def test_addition_is_xor():
    assert GF256.add(0b1010, 0b0110) == 0b1100
    assert GF256.add(7, 7) == 0  # characteristic 2
    assert GF256.sub(5, 3) == GF256.add(5, 3)


def test_multiplicative_identity_and_zero():
    for a in (1, 17, 255):
        assert GF256.multiply(a, 1) == a
        assert GF256.multiply(a, 0) == 0


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        assert GF256.multiply(a, GF256.inverse(a)) == 1


def test_division_consistent_with_multiplication():
    for a in (3, 100, 250):
        for b in (7, 19, 255):
            assert GF256.multiply(GF256.divide(a, b), b) == a


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF256.divide(5, 0)
    with pytest.raises(ZeroDivisionError):
        GF256.inverse(0)


def test_multiplication_commutative_and_associative():
    triples = [(3, 7, 11), (100, 200, 50), (255, 2, 128)]
    for a, b, c in triples:
        assert GF256.multiply(a, b) == GF256.multiply(b, a)
        assert GF256.multiply(GF256.multiply(a, b), c) == GF256.multiply(
            a, GF256.multiply(b, c)
        )


def test_distributivity():
    for a, b, c in [(3, 7, 11), (100, 200, 50)]:
        left = GF256.multiply(a, GF256.add(b, c))
        right = GF256.add(GF256.multiply(a, b), GF256.multiply(a, c))
        assert left == right


def test_power():
    assert GF256.power(2, 0) == 1
    assert GF256.power(2, 1) == 2
    assert GF256.power(2, 2) == 4
    assert GF256.power(0, 5) == 0
    assert GF256.power(0, 0) == 1


def test_generator_walks_whole_group():
    seen = {GF256.element(i) for i in range(255)}
    assert len(seen) == 255
    assert 0 not in seen


def test_matrix_multiply_identity():
    identity = [[1, 0], [0, 1]]
    matrix = [[3, 7], [11, 200]]
    assert gf_matrix_multiply(identity, matrix) == matrix


def test_matrix_invert_roundtrip():
    matrix = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    inverse = gf_matrix_invert(matrix)
    product = gf_matrix_multiply(matrix, inverse)
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert product == identity


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        gf_matrix_invert([[1, 2], [1, 2]])  # identical rows: XOR-dependent


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        gf_matrix_multiply([[1, 2, 3]], [[1], [2]])
