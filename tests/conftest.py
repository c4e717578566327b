"""Shared generators for randomized exact-arithmetic tests.

Everything is driven by seeded ``random.Random`` instances so failures are
reproducible; all generated coefficients are Fractions.
"""

import itertools
import random
from fractions import Fraction

import pytest

from nambu.linalg import det, identity, mat
from nambu.multivector import MultiVector
from nambu.nlie import NLieStructure
from nambu.npoisson import fi_defect, slot_monomials
from nambu.poly import Poly


def fi_search_oracle(tensor):
    """The fundamental identity by exhaustive search: the test reference.

    Walks every unordered tuple of distinct monomials of degree 1 and 2 and
    returns (False, first tuple with a nonzero defect), else (True, None).
    It takes no shortcut for zero, top-degree or non-decomposable tensors.
    """
    for fs in itertools.combinations(slot_monomials(tensor.num_vars),
                                     tensor.degree - 1):
        if not fi_defect(tensor, list(fs)).is_zero():
            return False, fs
    return True, None


@pytest.fixture
def rng():
    return random.Random(20240817)


def rand_fraction(rng, lo=-3, hi=3, max_den=2):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_poly(rng, num_vars, max_degree=2, n_terms=3):
    """A random sparse polynomial with small rational coefficients."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rand_fraction(rng)
    return Poly(num_vars, terms)


def rand_multivector(rng, num_vars, degree, max_degree=1, density=0.5):
    """A random multivector with polynomial coefficients."""
    comps = {}
    for idx in itertools.combinations(range(num_vars), degree):
        if rng.random() < density:
            comps[idx] = rand_poly(rng, num_vars, max_degree)
    return MultiVector(num_vars, degree, comps)


def rand_field_wedge(rng, num_vars, degree, density=0.6):
    """A nonzero wedge of vector fields whose components are single affine
    terms: decomposable, with a distribution that may or may not be
    integrable."""
    def field():
        return MultiVector.vector(
            [rand_poly(rng, num_vars, max_degree=1, n_terms=1)
             if rng.random() < density else Poly.zero(num_vars)
             for _ in range(num_vars)])
    while True:
        v = field()
        for _ in range(degree - 1):
            v = v.wedge(field())
        if not v.is_zero():
            return v


def rand_constant_vector_field(rng, num_vars):
    return MultiVector.vector(
        [Poly.const(num_vars, Fraction(rng.randint(-2, 2)))
         for _ in range(num_vars)])


def rand_decomposable_tensor(rng, num_vars, degree=3, coef_degree=3):
    """f · (v₁ ∧ … ∧ v_degree) with constant rational vᵢ and polynomial f."""
    while True:
        blade = rand_constant_vector_field(rng, num_vars)
        for _ in range(degree - 1):
            blade = blade.wedge(rand_constant_vector_field(rng, num_vars))
        if not blade.is_zero():
            break
    f = rand_poly(rng, num_vars, coef_degree, n_terms=4)
    return blade * f


def rand_invertible_matrix(rng, dim, lo=-2, hi=2):
    while True:
        c = mat([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])
        if det(c) != 0:
            return c


def rand_unimodular_matrix(rng, dim, shears=6):
    """A random product of integer shears: determinant exactly 1."""
    c = identity(dim)
    for _ in range(shears):
        i, j = rng.sample(range(dim), 2)
        factor = Fraction(rng.randint(-2, 2))
        for row in range(dim):
            c[row][j] += factor * c[row][i]
    return c


def rand_symmetric_matrix(rng, dim, lo=-3, hi=3):
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            a[i][j] = a[j][i] = Fraction(rng.randint(lo, hi))
    return a


def rand_vectors(rng, count, dim, lo=-2, hi=2):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(dim)]
            for _ in range(count)]


def rand_4dim_3lie(rng):
    """A random valid 4-dimensional 3-Lie algebra: built from a random
    symmetric generating form, hidden behind a random basis change."""
    from nambu.bianchi import algebra_from_form
    while True:
        form = rand_symmetric_matrix(rng, 4)
        if any(any(x for x in row) for row in form):
            break
    p = algebra_from_form(form, 3).change_basis(rand_invertible_matrix(rng, 4))
    ok, _ = p.check_n_jacobi()
    assert ok
    return p


def rand_jacobi_pair(rng, num_vars, arity):
    """An arbitrary operator pair (no Jacobi property implied)."""
    from nambu.njacobi import JacobiOp
    nabla = rand_multivector(rng, num_vars, min(arity, num_vars))
    box = rand_multivector(rng, num_vars, arity - 1)
    return JacobiOp(nabla, box, arity=arity)
