"""Exact rational linear algebra underpinning the verifiers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (casimir_oracle, congruent_diagonalize, identity, in_span, labels,
                      nullspace_oracle, rand_decomposable_tensor, rand_invertible_matrix,
                      rand_symmetric_matrix, rref_oracle, signature_oracle, solve)
from nambu.bianchi import derivation_algebra, generating_form, synthesize
from nambu.linalg import (det, inverse, mat, mat_mul, mat_vec, nullspace, rank, rref,
                          signature, sparse, transpose)
from nambu.npoisson import casimir_polynomials


def test_det_and_inverse(rng):
    for _ in range(15):
        a = rand_invertible_matrix(rng, 4)
        assert mat_mul(a, inverse(a)) == identity(4)
        assert det(mat_mul(a, a)) == det(a) ** 2


def test_rank_and_nullspace(rng):
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    basis = nullspace(sparse(a), 3)
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


# -- the sparse fraction-free kernel against the dense Fraction oracle ----------

# small integers, small fractions, and fractions with large denominators
ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=6),
                    st.fractions(-10**6, 10**6, max_denominator=10**12))
# small and large integers only
INTS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))


@st.composite
def matrices(draw, square=False, tall=False, entries=ENTRIES):
    """Dense rational matrices, sparse to full, possibly empty, with zero rows
    and columns and with rows that combine earlier ones (rank deficiency).
    ``tall`` ones are sparse, with more rows than columns, and repeat rows
    as they are or as scalar multiples, as the Casimir systems do.  Entries
    and multipliers are drawn from ``entries``."""
    if tall:
        cols = draw(st.integers(1, 6))
        rows = draw(st.integers(cols + 1, 2 * cols + 2))
        density = draw(st.sampled_from([10, 25, 40]))
    else:
        rows = draw(st.integers(0, 7))
        cols = rows if square else draw(st.integers(0, 7))
        density = draw(st.sampled_from([10, 30, 60, 100]))
    a = [[draw(entries) if draw(st.integers(0, 99)) < density else 0
          for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:  # row i := x·row j + y·row k, j, k < i
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            x, y = draw(entries), draw(entries)
            a[i] = [x * u + y * v for u, v in zip(a[j], a[k])]
        elif tall and draw(st.booleans()):  # row i := row j or a multiple of it
            j, x = draw(st.integers(0, i - 1)), draw(st.one_of(st.just(1), entries))
            a[i] = [x * u for u in a[j]]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in a:
            if j < cols:
                row[j] = 0
    return a


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of size 0–7, sparse to full, half of them
    with an all-zero diagonal, so that a pivot must come from S_ij."""
    n = draw(st.integers(0, 7))
    density = draw(st.sampled_from([10, 30, 60, 100]))
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            if draw(st.integers(0, 99)) < density:
                a[i][j] = a[j][i] = draw(ENTRIES)
    return a


@settings(max_examples=300, deadline=None)
@given(a=symmetric_matrices())
@example(a=[])
@example(a=[[0, 1, 0], [1, 0, 0], [0, 0, 0]])
def test_signature_matches_oracle(a):
    assert signature(a) == signature_oracle(a)


def check_rref_rank_nullspace(a):
    """``rref``, ``rank`` and ``nullspace`` of ``a`` agree with the dense oracle.

    ``rref`` rows are coprime ``int``s leading with a positive entry at their
    pivot; divided by that entry, they are the oracle's rows exactly."""
    cols = len(a[0]) if a else 0
    red, pivots = rref(sparse(a))
    want, want_pivots = rref_oracle(a)
    assert pivots == want_pivots
    for row, c in zip(red, pivots):
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == c and row[c] > 0
    assert [[Fraction(row.get(j, 0), row[c]) for j in range(cols)]
            for row, c in zip(red, pivots)] == want[:len(pivots)]
    assert not any(any(row) for row in want[len(pivots):])
    assert rank(a) == len(want_pivots)
    assert nullspace(sparse(a), cols) == nullspace_oracle(a, cols)


def check_inverse(a):
    """``inverse`` of the square ``a`` is the right half of the oracle's
    reduced [a | 1], or a refusal when ``a`` is singular."""
    n = len(a)
    red, pivots = rref_oracle([row + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    assert inverse(a) == [row[n:] for row in red]


@settings(max_examples=300, deadline=None)
@given(a=matrices())
def test_rref_rank_nullspace_match_oracle(a):
    check_rref_rank_nullspace(a)


@settings(max_examples=300, deadline=None)
@given(a=matrices(tall=True))
def test_rref_rank_nullspace_match_oracle_on_tall_systems(a):
    check_rref_rank_nullspace(a)


@settings(max_examples=200, deadline=None)
@given(a=matrices(square=True))
def test_inverse_matches_oracle(a):
    check_inverse(a)


def with_integral_fractions(a, mask):
    """``a`` with the entries that the bits of ``mask`` pick made integral
    ``Fraction``s, such as ``Fraction(4, 2)``: alone or beside ``int``s in a
    row."""
    return [[Fraction(2 * x, 2) if mask >> (7 * i + j) & 1 else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]


@settings(max_examples=200, deadline=None)
@given(a=matrices(entries=INTS), mask=st.integers(0, 2**49 - 1))
@example(a=[[4, 2, 0], [2, 6, 0]], mask=1 | 1 << 7 | 1 << 8)
def test_int_rows_match_oracle(a, mask):
    """All-``int`` rows skip the lcm pass of the integer scaling; with
    integral ``Fraction`` entries they give the same ``int`` rows."""
    check_rref_rank_nullspace(a)
    b = with_integral_fractions(a, mask)
    check_rref_rank_nullspace(b)
    assert rref(sparse(b)) == rref(sparse(a))


@settings(max_examples=100, deadline=None)
@given(a=matrices(square=True, entries=INTS), mask=st.integers(0, 2**49 - 1))
def test_inverse_of_int_matrix_matches_oracle(a, mask):
    check_inverse(a)
    check_inverse(with_integral_fractions(a, mask))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 5), degree=st.integers(2, 3), coef_degree=st.integers(0, 2),
       max_degree=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_casimirs_match_dense_system(m, degree, coef_degree, max_degree, seed):
    tensor = rand_decomposable_tensor(random.Random(seed), m, min(degree, m), coef_degree)
    got = casimir_polynomials(tensor, max_degree, decomposable=True)
    want = casimir_oracle(tensor, max_degree)
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]


def derivation_oracle_basis(p):
    """Derivations as the dense (n+1)²-unknown system AᵀG + GA = tr(A)·G,
    solved by ``nullspace_oracle``; each basis element is Aᵀ."""
    g, n = generating_form(p), p.dim
    rows = []
    for u in range(n):
        for v in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + u] += g[k][v]
                row[k * n + v] += g[u][k]
                row[k * n + k] -= g[u][v]
            rows.append(row)
    return [transpose([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in nullspace_oracle(rows, n * n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), arity=st.integers(2, 4), seed=st.integers(0, 2**32))
def test_derivations_match_dense_system(data, arity, seed):
    label = data.draw(labels(arity + 1))
    c = rand_invertible_matrix(random.Random(seed), arity + 1)
    p = synthesize(label, arity).change_basis(c)
    assert derivation_algebra(p) == derivation_oracle_basis(p)
