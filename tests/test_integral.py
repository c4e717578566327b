"""Deciders on integer multiples: every scale-invariant checker gives the same
verdict and witness on an input with ``Fraction`` coefficients and on any
positive integer multiple of it, the defect functions stay unscaled, and a
huge lcm of the denominators never makes the integer path the slow one."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (comp_condition_oracle, compat_defect_oracle, compat_oracle,
                      derivation_oracle, fi_search_oracle, fraction_jacobi_walk,
                      jacobi_defects_oracle, jacobi_oracle, lie_derivative_oracle,
                      primes_between, rand_4dim_3lie, rand_decomposable_tensor, rand_field_wedge,
                      rand_invertible_matrix, rand_symmetric_matrix, rand_vectors)
from nambu.bianchi import algebra_from_form, derivation_algebra
from nambu.multivector import MultiVector, integral, is_decomposable
from nambu.njacobi import JacobiOp, is_n_jacobi, jacobi_defects
from nambu import nlie
from nambu.nlie import NLieStructure
from nambu.npoisson import (_mixed_wedge_vanishes, casimir_polynomials,
                            fi_defect, is_n_poisson)
from nambu.poly import SCALE_BITS, Poly, integer_scaling

SCALES = st.integers(1, 10**9)


def frac(rng):
    """A small rational with a denominator up to 7."""
    return Fraction(rng.randint(-4, 4), rng.randint(1, 7))


def frac_poly(rng, m, max_degree=2, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * m
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(m)] += 1
        terms[tuple(exps)] = frac(rng)
    return Poly(m, terms)


def frac_multivector(rng, m, degree, density=0.6, max_degree=1):
    return MultiVector(m, degree, {idx: frac_poly(rng, m, max_degree)
                                   for idx in itertools.combinations(range(m), degree)
                                   if rng.random() < density})


def tensors(rng):
    """Tensors of every verdict: arbitrary, decomposable with a constant
    (integrable) distribution, and decomposable wedges of affine fields."""
    m = rng.randint(3, 4)
    n = rng.randint(2, m - 1)
    kind = rng.randrange(3)
    if kind == 0:
        return frac_multivector(rng, m, n)
    if kind == 1:
        return rand_decomposable_tensor(rng, m, n, coef_degree=2) * frac(rng)
    return rand_field_wedge(rng, m, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7))


def contact_pair(a, s=1):
    """The Jacobi structure of the contact form dz − a·y dx on R³: the pair
    ((∂_x + a·y∂_z)∧∂_y / a, s·∂_z), n-Jacobi only for s = 1.  Its parts have
    different denominators, so scaling them apart changes the verdict."""
    x = MultiVector.vector([Poly.const(3, 1), Poly.zero(3), Poly.var(3, 1) * a])
    return JacobiOp(x.wedge(MultiVector.basis(3, (1,))) * (1 / a),
                    MultiVector.basis(3, (2,), s))


def operators(rng):
    """Arbitrary pairs, gradient extensions (∇, ∇_h) of decomposable ∇, and
    contact structures, each times a rational."""
    m = rng.randint(3, 4)
    n = rng.randint(2, m)
    kind = rng.randrange(3)
    if kind == 0:
        return JacobiOp(frac_multivector(rng, m, n), frac_multivector(rng, m, n - 1))
    if kind == 1:
        nabla = MultiVector.basis(m, tuple(rng.sample(range(m), n)), frac_poly(rng, m))
        return JacobiOp(nabla, nabla.contract(frac_poly(rng, m)))
    r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    op = contact_pair(frac(rng) or Fraction(1, 2), rng.choice((1, 1, 2)))
    return JacobiOp(op.nabla * r, op.box * r)


def scaled_op(op, c):
    return JacobiOp(op.nabla * c, op.box * c, arity=op.arity)


def frac_structure(rng, dim, arity, density=0.6):
    return NLieStructure(dim, arity, {
        idx: [frac(rng) for _ in range(dim)]
        for idx in itertools.combinations(range(dim), arity) if rng.random() < density})


def structures(rng):
    """(n+1)-dimensional n-Lie algebras for n = 3, 4 (the closed form) and
    structures of other dimensions (the tuple search), valid or not, with
    Fraction constants.  For n = 4 the order-2 compatibility condition sums
    two pairs of hereditary structures with different denominators."""
    kind = rng.randrange(4)
    r = Fraction(rng.randint(1, 5), rng.randint(2, 7))
    if kind == 0:
        return rand_4dim_3lie(rng) * r
    if kind == 1:
        return algebra_from_form(rand_symmetric_matrix(rng, 5), 4).change_basis(
            rand_invertible_matrix(rng, 5)) * r
    if kind == 2:
        return frac_structure(rng, 4, 2)
    return frac_structure(rng, 5, 3, density=0.3)


class TestIntegral:
    def test_integer_coefficients_equal_the_scaled_input(self, rng):
        for _ in range(20):
            a, b = frac_multivector(rng, 4, 2), frac_multivector(rng, 4, 3)
            c = math.lcm(*(x.denominator for v in (a, b)
                           for p in v.components.values() for x in p.terms.values()))
            ia, ib = integral(a, b)
            assert (ia, ib) == (a * c, b * c)
            assert all(type(x) is int for v in (ia, ib)
                       for p in v.components.values() for x in p.terms.values())

    def test_integral_input_is_returned_as_it_is(self):
        v = MultiVector.basis(4, (0, 1), Poly.parse("3 x1 - 2 x2^2", 4))
        assert integral(v)[0] is v

    def test_a_huge_lcm_keeps_the_fractions(self):
        """Distinct primes push the lcm past SCALE_BITS bits: the input
        comes back as it is."""
        primes = [p for p in range(10**4, 2 * 10**4) if all(p % d for d in range(2, 142))]
        m = 4
        exps = [e for e in itertools.product(range(6), repeat=m) if sum(e) <= 5]
        f = Poly(m, {e: Fraction(1, p) for e, p in zip(exps, primes)})
        assert math.lcm(*primes[:len(exps)]).bit_length() > SCALE_BITS
        v = MultiVector.basis(m, (0, 1), f)
        assert integral(v)[0] is v

    def test_one_huge_denominator_keeps_the_fractions(self):
        """The bound is on c itself: one denominator above SCALE_BITS bits
        among integers keeps every coefficient as it is."""
        big = Fraction(1, 2**SCALE_BITS + 1)
        assert integer_scaling([1, 2, Fraction(1, 3), big, 5]) is None
        assert integer_scaling([2, Fraction(1, 2**(SCALE_BITS - 1) + 1)]) is not None

    def test_scaling_stops_at_the_bound(self):
        """The lcm is built one denominator at a time and given up as soon as
        it passes SCALE_BITS bits: nothing after that is read."""
        def coefs():
            for p in primes_between(10**5, 10**6):
                yield Fraction(1, p)
            pytest.fail("read past the bound")
        assert integer_scaling(coefs()) is None

    def test_integers_need_no_scaling(self):
        assert integer_scaling([3, -2, 0]) is None
        assert integer_scaling([]) is None
        assert integer_scaling([3, Fraction(4)])(Fraction(4)) == 4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), c=SCALES)
def test_poisson_deciders_ignore_the_scale(seed, c):
    """Same verdict and witness on V and cV, and the verdict of the Fraction
    search with a witness that fails on V itself."""
    rng = random.Random(seed)
    v = tensors(rng)
    cv = v * c
    ok, witness = is_n_poisson(v)
    assert is_n_poisson(cv) == (ok, witness)
    assert ok == fi_search_oracle(v)[0]
    assert ok or not fi_defect(v, witness).is_zero()
    assert is_decomposable(cv) == is_decomposable(v)
    if v.num_vars <= 4:
        assert casimir_polynomials(cv, 2) == casimir_polynomials(v, 2)
    w = tensors(rng)
    if w.num_vars == v.num_vars:
        assert _mixed_wedge_vanishes(v * c, w * c) == _mixed_wedge_vanishes(v, w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), c=SCALES)
def test_n_jacobi_ignores_the_scale_of_the_pair(seed, c):
    op = operators(random.Random(seed))
    assert is_n_jacobi(scaled_op(op, c)) == is_n_jacobi(op) == fraction_jacobi_walk(op)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), c=SCALES)
def test_nlie_deciders_ignore_the_scale(seed, c):
    rng = random.Random(seed)
    p, q = structures(rng), None
    while q is None or (q.dim, q.arity) != (p.dim, p.arity):
        q = structures(rng)
    cp, cq = p * c, q * c
    assert cp.check_n_jacobi() == p.check_n_jacobi() == jacobi_oracle(p)
    assert cp.compat(cq) == p.compat(q) == compat_oracle(p, q)
    d = rand_vectors(rng, p.dim, p.dim) if rng.random() < 0.5 else \
        p.inner_derivation([[frac(rng) for _ in range(p.dim)] for _ in range(p.arity - 1)])
    assert cp.is_derivation([[c * x for x in row] for row in d]) == p.is_derivation(d) \
        == derivation_oracle(p, d)
    k = rng.randint(1, p.arity - 1)
    vs, ws = ([[frac(rng) for _ in range(p.dim)] for _ in range(k)] for _ in range(2))
    assert cp.comp_condition_k(vs, ws) == p.comp_condition_k(vs, ws) \
        == comp_condition_oracle(p, vs, ws)
    if p.dim == p.arity + 1:
        assert derivation_algebra(cp) == derivation_algebra(p)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), c=SCALES)
def test_defects_are_unscaled(seed, c):
    """The defect functions return the defect of their own input: the
    reference on Fraction input, and c² times it on the multiple."""
    rng = random.Random(seed)
    v = tensors(rng)
    fs = [frac_poly(rng, v.num_vars) for _ in range(v.degree - 1)]
    d = fi_defect(v, fs)
    assert d == lie_derivative_oracle(v.hamiltonian_field(fs), v)
    assert fi_defect(v * c, fs) == d * c**2
    op = operators(rng)
    fs = [frac_poly(rng, op.num_vars) for _ in range(op.arity - 1)]
    d1, d0 = jacobi_defects(op, fs)
    assert (d1, d0) == jacobi_defects_oracle(op, fs)
    assert jacobi_defects(scaled_op(op, c), fs) == (d1 * c**2, d0 * c**2)
    p, q = rand_4dim_3lie(rng), structures(rng)
    if q.dim == 4 and q.arity == 3:
        us, ws = rand_vectors(rng, 2, 4), rand_vectors(rng, 3, 4)
        d = p.compat_defect(q, us, ws)
        assert d == compat_defect_oracle(p, q, us, ws)
        assert (p * c).compat_defect(q * c, us, ws) == [x * c**2 for x in d]


# -- hostile denominators ------------------------------------------------------------

def prime_poly(rng, m, terms, max_degree, primes):
    """A polynomial whose coefficients have distinct prime denominators."""
    exps = [e for e in itertools.product(range(max_degree + 1), repeat=m)
            if sum(e) <= max_degree]
    return Poly(m, {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(primes))
                    for e in rng.sample(exps, terms)})


def fraction_walk_poisson(v):
    """The coordinate defects of ``is_n_poisson`` for a decomposable tensor,
    on the Fraction input itself."""
    xs = Poly.variables(v.num_vars)
    for idx in itertools.combinations(range(v.num_vars), v.degree - 1):
        fs = tuple(xs[i] for i in idx)
        if not fi_defect(v, fs).is_zero():
            return False, fs
    return True, None


def race(decider, fraction_walk, runs=5):
    """Results and best wall times of the decider and of the Fraction walk,
    run in turn so that a load on the host weighs on both alike."""
    best = [math.inf, math.inf]
    for _ in range(runs):
        for i, fn in enumerate((decider, fraction_walk)):
            start = time.perf_counter()
            result = fn()
            best[i] = min(best[i], time.perf_counter() - start)
            if i == 0:
                got = result
    return got, result, best[0], best[1]


class TestHostileDenominators:
    """Distinct primes below 10⁶ as denominators, or one huge one: while the
    lcm has at most SCALE_BITS bits the integer path runs, beyond it the
    Fraction path does.  Each case asserts which path ran, the verdict and
    witness of the Fraction path, and that the decider is never much slower
    than the Fraction walk it replaces."""

    @pytest.mark.parametrize("n, f_terms, h_terms, scaled",
                             [(2, 10, 8, True), (3, 10, 8, True), (2, 35, 1, False)])
    def test_jacobi_pair_with_distinct_prime_denominators(self, n, f_terms, h_terms, scaled):
        """Gradient extensions (f·∂₁∧…∧∂_n, its contraction with dh) and the
        same with a constant □ term off the distribution added."""
        rng = random.Random(n * f_terms)
        primes = iter(rng.sample(primes_between(10**5, 10**6), 60))
        m = 4
        nabla = MultiVector.basis(m, tuple(range(n)), prime_poly(rng, m, f_terms, 3, primes))
        op = JacobiOp(nabla, nabla.contract(prime_poly(rng, m, h_terms, 3, primes)))
        assert (integral(op.nabla, op.box)[0] is not op.nabla) == scaled
        outside = MultiVector.basis(m, (3,) + tuple(range(n - 2)),
                                    Poly.const(m, Fraction(1, next(primes))))
        for case in (op, JacobiOp(nabla, op.box + outside)):
            got, want, t_int, t_frac = race(lambda: is_n_jacobi(case),
                                            lambda: fraction_jacobi_walk(case))
            assert got == want
            assert t_int <= 1.5 * t_frac + 0.01

    @pytest.mark.parametrize("terms, scaled", [(20, True), (120, False)])
    def test_poisson_tensor_with_distinct_prime_denominators(self, terms, scaled):
        rng = random.Random(terms)
        primes = iter(rng.sample(primes_between(10**5, 10**6), 200))
        m = 4
        f = prime_poly(rng, m, terms, 6, primes)
        for n in (2, 3):
            v = MultiVector.basis(m, tuple(range(n)), f)
            assert (integral(v)[0] is not v) == scaled
            got, want, t_int, t_frac = race(lambda: is_n_poisson(v),
                                            lambda: fraction_walk_poisson(v))
            assert got == want == (True, None)
            assert t_int <= 1.5 * t_frac + 0.01
        v = frac_multivector(rng, m, 2, density=1) + MultiVector.basis(
            m, (0, 1), prime_poly(rng, m, terms // 2, 4, primes))
        ok, witness = is_n_poisson(v)
        assert not ok and not fi_defect(v, witness).is_zero()

    @pytest.mark.parametrize("digits, scaled", [(150, True), (3001, False)])
    def test_one_huge_denominator_among_small_ones(self, digits, scaled):
        """One denominator of 150 digits (c has about 500 bits: the integer
        path) or 3,001 digits (the Fraction path) among 60 terms with
        denominators 1 to 3, which alone would leave every product of the
        Fraction walk small."""
        rng = random.Random(digits)
        big = 10**(digits - 1) + 3
        m = 4
        exps = [e for e in itertools.product(range(5), repeat=m) if sum(e) <= 4]
        terms = {e: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for e in rng.sample(exps, 60)}
        terms[next(iter(terms))] = Fraction(1, big)
        f = Poly(m, terms)
        for n in (2, 3):
            v = MultiVector.basis(m, tuple(range(n)), f)
            assert (integral(v)[0] is not v) == scaled
            got, want, t_int, t_frac = race(lambda: is_n_poisson(v),
                                            lambda: fraction_walk_poisson(v))
            assert got == want == (True, None)
            assert t_int <= 1.5 * t_frac + 0.01
        nabla = MultiVector.basis(m, (0, 1, 2), Poly(m, dict(list(terms.items())[:12])))
        op = JacobiOp(nabla, nabla.contract(Poly.parse("x1 + 1/2 x2 x4 - 3", m)))
        assert (integral(op.nabla, op.box)[0] is not op.nabla) == scaled
        got, want, t_int, t_frac = race(lambda: is_n_jacobi(op),
                                        lambda: fraction_jacobi_walk(op))
        assert got == want
        assert t_int <= 1.5 * t_frac + 0.01

    @pytest.mark.parametrize("density", [0.3, 1])
    def test_structure_with_distinct_prime_denominators(self, density):
        """About 15 distinct primes (the integer path) and 50 (the Fraction
        path) in the constants of a 5-dimensional 3-ary structure."""
        rng = random.Random(3)
        primes = iter(rng.sample(primes_between(10**5, 10**6), 100))
        p = NLieStructure(5, 3, {idx: [Fraction(rng.randint(-3, 3), next(primes))
                                       for _ in range(5)]
                                 for idx in itertools.combinations(range(5), 3)
                                 if rng.random() < density})
        d = [[Fraction(rng.randint(-3, 3), next(primes)) for _ in range(5)] for _ in range(5)]
        assert (nlie.integral(p)[0] is not p) == (density < 1)
        assert p.check_n_jacobi() == jacobi_oracle(p)
        assert p.is_derivation(d) == derivation_oracle(p, d)
        assert p.compat(p * 3) == compat_oracle(p, p * 3)

    @pytest.mark.parametrize("dim, scaled", [(4, True), (8, False)])
    def test_algebra_with_distinct_prime_denominators(self, dim, scaled):
        """An (n+1)-dimensional n-Lie algebra whose symmetric generating form
        has distinct prime denominators, decided by α∧dα, and the same with
        a skew entry added."""
        rng = random.Random(dim)
        primes = iter(rng.sample(primes_between(10**5, 10**6), 50))
        form = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                form[i][j] = form[j][i] = Fraction(rng.choice((-1, 1)), next(primes))
        p = algebra_from_form(form, dim - 1)
        assert (nlie.integral(p)[0] is not p) == scaled
        assert p.check_n_jacobi() == (True, None)
        basis = derivation_algebra(p)
        assert basis and all(p.is_derivation(d) for d in basis)
        if dim == 4:
            assert all(derivation_oracle(p, d) for d in basis)
        form[0][1] += Fraction(1, next(primes))
        q = algebra_from_form(form, dim - 1)
        assert q.check_n_jacobi() == jacobi_oracle(q)
