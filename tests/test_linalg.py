"""Exact rational linear algebra underpinning the verifiers."""

from fractions import Fraction

from conftest import in_span, rand_invertible_matrix, rand_symmetric_matrix, solve
from nambu.linalg import (congruent_diagonalize, det, identity, inverse, mat,
                          mat_mul, mat_vec, nullspace, rank, signature,
                          transpose)


def test_det_and_inverse(rng):
    for _ in range(15):
        a = rand_invertible_matrix(rng, 4)
        assert mat_mul(a, inverse(a)) == identity(4)
        assert det(mat_mul(a, a)) == det(a) ** 2


def test_rank_and_nullspace(rng):
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    basis = nullspace(a)
    assert len(basis) == 1
    assert mat_vec(a, basis[0]) == [0, 0, 0]


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [1, -1]])
    assert solve(a, [Fraction(3), Fraction(1)]) == [2, 1]
    singular = mat([[1, 1], [2, 2]])
    assert solve(singular, [Fraction(1), Fraction(3)]) is None


def test_in_span():
    basis = [[Fraction(1), Fraction(0), Fraction(1)],
             [Fraction(0), Fraction(1), Fraction(1)]]
    assert in_span(basis, [Fraction(1), Fraction(1), Fraction(2)])
    assert not in_span(basis, [Fraction(0), Fraction(0), Fraction(1)])


def test_congruent_diagonalize(rng):
    for _ in range(20):
        a = rand_symmetric_matrix(rng, 4)
        d, c = congruent_diagonalize(a)
        assert det(c) != 0
        assert mat_mul(transpose(c), mat_mul(a, c)) == d
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert d[i][j] == 0


def test_signature_invariance(rng):
    for _ in range(10):
        a = rand_symmetric_matrix(rng, 4)
        base = signature(a)
        c = rand_invertible_matrix(rng, 4)
        transformed = mat_mul(transpose(c), mat_mul(a, c))
        assert signature(transformed) == base
