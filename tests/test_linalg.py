"""Exact rational linear algebra underpinning the verifiers."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (in_span, labels, nullspace_oracle, rand_decomposable_tensor,
                      rand_invertible_matrix, rand_symmetric_matrix, rref_oracle, solve)
from nambu.bianchi import derivation_algebra, generating_form, synthesize
from nambu.linalg import (congruent_diagonalize, det, identity, inverse, mat,
                          mat_mul, mat_vec, nullspace, rank, rref, signature,
                          sparse, transpose)
from nambu.npoisson import casimir_polynomials, poly_basis_exponents
from nambu.poly import Poly


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


@st.composite
def matrices(draw, square=False):
    """Dense rational matrices, sparse to full, possibly empty, with zero rows
    and columns and with rows that combine earlier ones (rank deficiency)."""
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    density = draw(st.sampled_from([10, 30, 60, 100]))
    a = [[draw(ENTRIES) if draw(st.integers(0, 99)) < density else 0
          for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:  # row i := x·row j + y·row k, j, k < i
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            x, y = draw(ENTRIES), draw(ENTRIES)
            a[i] = [x * u + y * v for u, v in zip(a[j], a[k])]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in a:
            if j < cols:
                row[j] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(a=matrices())
def test_rref_rank_nullspace_match_oracle(a):
    cols = len(a[0]) if a else 0
    red, pivots = rref(sparse(a))
    want, want_pivots = rref_oracle(a)
    assert pivots == want_pivots
    assert [[row.get(j, 0) for j in range(cols)] for row in red] == want[:len(pivots)]
    assert not any(any(row) for row in want[len(pivots):])
    assert all(type(x) is Fraction and x for row in red for x in row.values())
    assert rank(a) == len(want_pivots)
    assert nullspace(sparse(a), cols) == nullspace_oracle(a, cols)


@settings(max_examples=200, deadline=None)
@given(a=matrices(square=True))
def test_inverse_matches_oracle(a):
    n = len(a)
    red, pivots = rref_oracle([row + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    assert inverse(a) == [row[n:] for row in red]


def casimir_oracle(tensor, max_degree):
    """The Casimir search as a dense system: one row per (coordinate
    Hamiltonian field, result monomial), solved by ``nullspace_oracle``."""
    m = tensor.num_vars
    basis = [Poly.monomial(m, e) for e in poly_basis_exponents(m, max_degree)]
    xs = Poly.variables(m)
    rows = []
    for idx in itertools.combinations(range(m), tensor.degree - 1):
        images = [tensor.hamiltonian_field([xs[i] for i in idx]).apply_field(g)
                  for g in basis]
        for e in sorted({e for p in images for e in p.terms}):
            rows.append([Fraction(p.terms.get(e, 0)) for p in images])
    return [sum((c * g for c, g in zip(vec, basis) if c), Poly.zero(m))
            for vec in nullspace_oracle(rows, len(basis))]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 5), degree=st.integers(2, 3), coef_degree=st.integers(0, 2),
       max_degree=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_casimirs_match_dense_system(m, degree, coef_degree, max_degree, seed):
    tensor = rand_decomposable_tensor(random.Random(seed), m, min(degree, m), coef_degree)
    got = casimir_polynomials(tensor, max_degree)
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
