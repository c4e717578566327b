"""Multivector calculus: wedge, contraction, Lie derivative, Schouten
bracket, derived vectors, decomposability, and linear one-forms."""

import copy
import itertools
import json
from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_oracle, derived_oracle, derived_pairing_vanishes,
                      lie_derivative_oracle, merge_sign, oneform_from_matrix,
                      oneform_linear_matrix, rand_decomposable_tensor,
                      rand_multivector, rand_poly, rref_oracle, schouten_oracle,
                      wedge_d_self_is_zero)
from nambu.multivector import (MultiVector, OneForm, _drops, _partials, derived_rank,
                               is_decomposable, merge_indices,
                               multivector_from_json, multivector_to_json,
                               sort_indices)
from nambu.njacobi import JacobiOp, jacobi_defects
from nambu.npoisson import fi_defect
from nambu.poly import Poly


def blades_sum(m=6):
    return MultiVector.basis(m, (0, 1, 2)) + MultiVector.basis(m, (3, 4, 5))


class TestIndexHelpers:
    def test_sort_indices(self):
        assert sort_indices((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_indices((1, 0)) == ((0, 1), -1)
        assert sort_indices((1, 1)) is None

    def test_merge_sign(self):
        assert merge_sign((0,), (1, 2)) == 1
        assert merge_sign((1,), (0, 2)) == -1

    def test_merge_indices_matches_sort_indices(self, rng):
        """The bisect merge of two increasing tuples against the insertion
        sort of their concatenation, shared indices included."""
        for _ in range(500):
            m = rng.randint(0, 8)
            left = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
            right = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
            assert merge_indices(left, right) == sort_indices(left + right)
        assert merge_indices((0, 2), (1, 2)) is None
        assert merge_indices((1, 3), (0, 2)) == ((0, 1, 2, 3), -1)
        assert merge_indices((), (0, 2)) == ((0, 2), 1)


class TestWedge:
    def test_basis_case(self):
        w = MultiVector.vector([Poly.const(2, 1), Poly.zero(2)]).wedge(
            MultiVector.vector([Poly.zero(2), Poly.const(2, 1)]))
        assert w == MultiVector.basis(2, (0, 1))

    def test_self_wedge_of_vector_is_zero(self, rng):
        for _ in range(5):
            x = rand_multivector(rng, 4, 1)
            assert x.wedge(x).is_zero()

    def test_expansion(self):
        m = 4
        x1, x3 = Poly.var(m, 0), Poly.var(m, 2)
        a = MultiVector.basis(m, (0, 1), x1) + MultiVector.basis(m, (1, 2), x3)
        d4 = MultiVector.basis(m, (3,))
        expected = MultiVector.basis(m, (0, 1, 3), x1) \
            + MultiVector.basis(m, (1, 2, 3), x3)
        assert a.wedge(d4) == expected

    def test_graded_commutativity(self, rng):
        for _ in range(8):
            ka, kb = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3)])
            a = rand_multivector(rng, 4, ka)
            b = rand_multivector(rng, 4, kb)
            assert a.wedge(b) == b.wedge(a) * ((-1) ** (ka * kb))

    def test_associativity(self, rng):
        for _ in range(8):
            a = rand_multivector(rng, 5, 1)
            b = rand_multivector(rng, 5, 2)
            c = rand_multivector(rng, 5, 1)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_degree_overflow_is_zero(self, rng):
        a = rand_multivector(rng, 3, 2)
        b = rand_multivector(rng, 3, 2)
        assert a.wedge(b).is_zero()


class TestContract:
    def test_quadric_contraction(self):
        x1, x2, x3 = Poly.variables(3)
        f = x1 * x3 - x2**2
        got = MultiVector.basis(3, (0, 1, 2)).contract(f)
        expected = MultiVector.basis(3, (0, 1), x1) \
            + MultiVector.basis(3, (0, 2), 2 * x2) \
            + MultiVector.basis(3, (1, 2), x3)
        assert got == expected

    def test_constant_contracts_to_zero(self, rng):
        v = rand_multivector(rng, 4, 3)
        assert v.contract(Poly.const(4, 7)).is_zero()

    def test_transverse_coordinate(self):
        x4 = Poly.var(4, 3)
        v = MultiVector.basis(4, (0, 1, 2), x4)
        assert v.contract(x4).is_zero()

    def test_product_rule(self, rng):
        for _ in range(8):
            v = rand_multivector(rng, 4, 2)
            f = rand_poly(rng, 4)
            g = rand_poly(rng, 4)
            assert v.contract(f * g) == \
                v.contract(g) * f + v.contract(f) * g

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            MultiVector.zero(3, 0).contract(Poly.var(3, 0))

    def test_contraction_against_apply(self, rng):
        """df_j⌋…⌋df₁⌋V applied to the remaining slots is V(f₁,…,f_k) at
        every j, against the determinant apply; the slots come from a pool
        of sums, differences and products of coordinates and V's
        coefficients from ±1 and coordinates, so many products cancel in
        the accumulator, which must keep no zero coefficient."""
        for _ in range(40):
            m = rng.randint(1, 5)
            k = rng.randint(1, m)
            xs = Poly.variables(m)
            pool = xs + [a + b for a in xs for b in xs] + [a - b for a in xs for b in xs] \
                + [a * b for a in xs for b in xs] + [Poly.const(m, 2)]
            coefs = [Poly.const(m, 1), Poly.const(m, -1), *xs, *(-x for x in xs)]
            v = MultiVector(m, k, {idx: rng.choice(coefs)
                                   for idx in itertools.combinations(range(m), k)
                                   if rng.random() < 0.7})
            fs = [rng.choice(pool) for _ in range(k)]
            expected = apply_oracle(v, fs)
            folded = v
            for j, f in enumerate(fs):
                folded = folded.contract(f)
                assert all(p.terms for p in folded.components.values())
                assert folded.apply(fs[j + 1:]) == expected
        x1, x2, x3 = Poly.variables(3)
        v = MultiVector.basis(3, (0, 1), x2) - MultiVector.basis(3, (0, 2), x3)
        assert v.contract(x2 * x3).is_zero()

    def test_iterated_contraction_matches_apply(self, rng):
        for _ in range(5):
            v = rand_multivector(rng, 4, 3)
            fs = [rand_poly(rng, 4) for _ in range(3)]
            folded = v
            for f in fs:
                folded = folded.contract(f)
            assert folded.degree == 0
            assert folded.coefficient(()) == v.apply(fs)


class TestHamiltonianField:
    def test_canonical_contraction(self):
        xs = Poly.variables(3)
        field = MultiVector.basis(3, (0, 1, 2)).hamiltonian_field(xs[:2])
        assert field == MultiVector.basis(3, (2,))

    def test_constant_slot_gives_zero(self):
        v = MultiVector.basis(3, (0, 1, 2))
        f = v.hamiltonian_field([Poly.const(3, 2), Poly.var(3, 0)])
        assert f.is_zero()

    def test_inner_generator(self):
        x2, x3, x4 = Poly.var(4, 1), Poly.var(4, 2), Poly.var(4, 3)
        v = MultiVector.basis(4, (0, 1, 2), x4)
        assert v.hamiltonian_field([x2, x3]) == MultiVector.basis(4, (0,), x4)

    def test_skew_in_arguments(self, rng):
        v = rand_multivector(rng, 4, 3)
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        assert v.hamiltonian_field([f, g]) == -v.hamiltonian_field([g, f])

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_coordinate_and_constant_slots(self, m, data, seed):
        """Coordinates in any order, repeated ones among them, constants, and
        then one other slot mixed in: the field is the fold of single
        ``contract`` calls and of contractions with the gradients."""
        rng = random.Random(seed)
        k = data.draw(st.integers(1, m))
        v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
        fs = [Poly.var(m, a) if a >= 0 else Poly.const(m, rng.choice([0, 1, -2, Fraction(1, 3)]))
              for a in data.draw(st.lists(st.integers(-1, m - 1), min_size=k - 1,
                                          max_size=k - 1))]
        cases = [fs]
        if fs:
            mixed = list(fs)
            mixed[data.draw(st.integers(0, k - 2))] = rand_poly(rng, m)
            cases.append(mixed)
        for gs in cases:
            by_contract, by_gradient = v, v
            for g in gs:
                by_contract = by_contract.contract(g)
                by_gradient = by_gradient.contract_form(g.gradient())
            field = v.hamiltonian_field(gs)
            assert field.degree == 1
            assert field == by_contract == by_gradient


class TestLieDerivative:
    def test_constant_fields_commute(self):
        d1 = MultiVector.basis(3, (0,))
        assert d1.lie_derivative_of(MultiVector.basis(3, (1, 2))).is_zero()

    def test_euler_field_on_coordinate_field(self):
        x1 = Poly.var(2, 0)
        euler = MultiVector.basis(2, (0,), x1)
        d1 = MultiVector.basis(2, (0,))
        assert euler.lie_derivative_of(d1) == -d1

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_scaling_law(self, m, data, seed):
        """L_{fX}V = f·L_X V − X∧(df⌋V), on which the one-field n-Jacobi
        defects and the coordinate defects of the fundamental identity rest."""
        rng = random.Random(seed)
        k = data.draw(st.integers(1, m))
        x = rand_multivector(rng, m, 1, max_degree=2, density=0.7)
        v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
        f = rand_poly(rng, m)
        assert (x * f).lie_derivative_of(v) == \
            x.lie_derivative_of(v) * f - x.wedge(v.contract(f))

    def test_leibniz_over_wedge(self, rng):
        for _ in range(8):
            x = rand_multivector(rng, 4, 1)
            a = rand_multivector(rng, 4, 1)
            b = rand_multivector(rng, 4, 2)
            assert x.lie_derivative_of(a.wedge(b)) == \
                x.lie_derivative_of(a).wedge(b) + a.wedge(x.lie_derivative_of(b))

    def test_matches_bracket_of_evaluations(self, rng):
        # L_X V evaluated on functions equals X(V(fs)) − Σ V(…, X(f_i), …)
        for _ in range(5):
            x = rand_multivector(rng, 3, 1)
            v = rand_multivector(rng, 3, 2)
            fs = [rand_poly(rng, 3) for _ in range(2)]
            lhs = x.lie_derivative_of(v).apply(fs)
            rhs = x.apply([v.apply(fs)])
            for i in range(2):
                args = list(fs)
                args[i] = x.apply([fs[i]])
                rhs = rhs - v.apply(args)
            assert lhs == rhs


class TestSchouten:
    def test_degree_one_is_lie_bracket(self, rng):
        for _ in range(5):
            x = rand_multivector(rng, 4, 1)
            y = rand_multivector(rng, 4, 1)
            assert x.schouten(y) == x.lie_derivative_of(y)

    def test_quadric_bivector_self_bracket_zero(self):
        x1, x2, x3 = Poly.variables(3)
        p = MultiVector.basis(3, (0, 1, 2)).contract(x1 * x3 - x2**2)
        assert p.schouten(p).is_zero()

    def test_frozen_small_case(self):
        a = MultiVector.basis(3, (0, 1))
        b = MultiVector.basis(3, (2,), Poly.var(3, 0))
        assert a.schouten(b) == -MultiVector.basis(3, (1, 2))

    def test_graded_skew_symmetry(self, rng):
        for _ in range(12):
            k, l = rng.choice([(1, 2), (2, 2), (2, 3), (1, 3),
                               (0, 1), (0, 2), (0, 4), (1, 0), (3, 0), (4, 0)])
            a = rand_multivector(rng, 4, k)
            b = rand_multivector(rng, 4, l)
            assert a.schouten(b) == b.schouten(a) * (-((-1) ** ((k - 1) * (l - 1))))

    def test_degree_zero_argument(self):
        """⌈f, B⌉ = −df⌋B = ⌈B, f⌉ for a function f and a bivector B; two
        functions have no bracket."""
        x1, x2, _ = Poly.variables(3)
        f = MultiVector(3, 0, {(): x1 * x2})
        b = MultiVector.basis(3, (0, 1))
        expected = MultiVector.basis(3, (0,), x1) - MultiVector.basis(3, (1,), x2)
        assert f.schouten(b) == b.schouten(f) == expected
        with pytest.raises(ValueError, match="degree -1 out of range"):
            f.schouten(f)

    def test_above_the_top_degree_is_zero(self, rng):
        """When k + l − 1 exceeds m the bracket vanishes identically and is
        the zero multivector of degree m, as ``wedge`` reports it."""
        for m in range(1, 5):
            for k in range(1, m + 1):
                for l in range(m + 2 - k, m + 1):
                    a = rand_multivector(rng, m, k, density=0.7)
                    b = rand_multivector(rng, m, l, density=0.7)
                    assert a.schouten(b) == MultiVector.zero(m, m), (m, k, l)

    def test_graded_jacobi_identity(self, rng):
        for _ in range(4):
            degs = [rng.choice([1, 2]) for _ in range(3)]
            a, b, c = (rand_multivector(rng, 4, d) for d in degs)
            k, l, m = degs
            total = a.schouten(b.schouten(c)) * ((-1) ** ((k - 1) * (m - 1))) \
                + b.schouten(c.schouten(a)) * ((-1) ** ((l - 1) * (k - 1))) \
                + c.schouten(a.schouten(b)) * ((-1) ** ((m - 1) * (l - 1)))
            assert total.is_zero()


def rand_slots(rng, m, k):
    """k slot functions, each a coordinate or a random quadratic polynomial."""
    xs = Poly.variables(m)
    return [rng.choice(xs) if rng.random() < 0.5 else rand_poly(rng, m)
            for _ in range(k)]


class TestAgainstOracles:
    """The wedge-minor ``apply``, the index-contraction ``derived``, the
    once-differentiated Lie derivative and the Schouten bracket against the
    determinant and per-component references of conftest, on seeded random
    multivectors of degree 1–6 on up to 6 variables."""

    CASES = [(m, k) for m in range(1, 7) for k in range(1, m + 1)]

    def test_apply(self, rng):
        for m, k in self.CASES:
            for _ in range(4):
                v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
                fs = rand_slots(rng, m, k)
                assert v.apply(fs) == apply_oracle(v, fs)

    def test_derived(self, rng):
        for m, k in self.CASES:
            v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
            for j in range(k + 1):
                covs = [rng.randrange(m) for _ in range(j)]  # any order, repeats
                assert v.derived(covs) == derived_oracle(v, covs)
        with pytest.raises(ValueError, match="cannot contract 2 covectors with a "
                                             "degree-1 multivector"):
            MultiVector.basis(3, (0,)).derived((0, 1))
        with pytest.raises(ValueError, match="cannot contract 1 covectors with a "
                                             "degree-0 multivector"):
            MultiVector.zero(3, 0).derived((2,))

    def test_lie_derivative(self, rng):
        for m, k in self.CASES:
            for _ in range(2):
                x = rand_multivector(rng, m, 1, max_degree=2, density=0.7)
                v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
                assert x.lie_derivative_of(v) == lie_derivative_oracle(x, v)
        # sums that cancel: the accumulator must drop them, not keep zeros
        x1, x2, x3 = Poly.variables(3)
        cases = [
            # ∂₁ kills every component free of x₁
            (MultiVector.basis(3, (0,)),
             MultiVector.basis(3, (0, 1), x2 * x3) + MultiVector.basis(3, (1, 2), x1 * x3)),
            (MultiVector.basis(3, (1,)), MultiVector.basis(3, (0, 2), x1 - x3 ** 2)),
            # [x₁∂₁, x₁∂₁] = 0: X(p) cancels the Jacobian term
            (MultiVector.basis(3, (0,), x1), MultiVector.basis(3, (0,), x1)),
            # x₂∂₁ turns ∂₁∧∂₂ into ∂₁∧∂₁, dropped before its product
            (MultiVector.basis(3, (0,), x2),
             MultiVector.basis(3, (0, 1)) + MultiVector.basis(3, (1, 2), x3)),
        ]
        for x, v in cases:
            result = x.lie_derivative_of(v)
            assert result == lie_derivative_oracle(x, v)
            assert all(p.terms for p in result.components.values())
        assert cases[0][0].lie_derivative_of(cases[0][1]) == \
            MultiVector.basis(3, (1, 2), x3)
        assert cases[2][0].lie_derivative_of(cases[2][1]).is_zero()
        assert cases[3][0].lie_derivative_of(cases[3][1]) == \
            MultiVector.basis(3, (0, 2), -x3)

    def test_schouten(self, rng):
        for m, k in self.CASES:
            l = rng.randint(1, m + 1 - k)
            a = rand_multivector(rng, m, k, density=0.7)
            b = rand_multivector(rng, m, l, density=0.7)
            assert a.schouten(b) == schouten_oracle(a, b)

    def test_schouten_every_degree_pair(self, rng):
        """Every (k, l) with 0 ≤ k + l − 1 ≤ m ≤ 5, top degree and degree-0
        arguments included, on ``Fraction`` coefficients of degree ≤ 2."""
        for m in range(1, 6):
            for k in range(m + 1):
                for l in range(max(1 - k, 0), min(m, m + 1 - k) + 1):
                    a = rand_multivector(rng, m, k, max_degree=2, density=0.7)
                    b = rand_multivector(rng, m, l, max_degree=2, density=0.7)
                    assert a.schouten(b) == schouten_oracle(a, b), (m, k, l)


class TestCoordinateSlots:
    """``contract`` and ``apply`` read a slot x_a as an index drop and a
    constant slot as zero.  x_a + 1 has the same differential and takes the
    gradient path, so it is the reference, beside the determinant apply."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_contract(self, m, data, seed):
        rng = random.Random(seed)
        v = rand_multivector(rng, m, data.draw(st.integers(1, m)), max_degree=2, density=0.7)
        x = Poly.var(m, data.draw(st.integers(0, m - 1)))
        assert v.contract(x) == v.contract(x + 1)
        const = Poly.const(m, data.draw(st.sampled_from([0, 1, -2, Fraction(1, 3)])))
        assert v.contract(const) == v.contract_form([Poly.zero(m)] * m) \
            == MultiVector.zero(m, v.degree - 1)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_apply(self, m, data, seed):
        """Every degree, repeated and unsorted indices, and a constant among
        coordinates and quadratic slots."""
        rng = random.Random(seed)
        k = data.draw(st.integers(0, m))
        v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
        xs = [Poly.var(m, a) for a in
              data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))]
        assert v.apply(xs) == v.apply([x + 1 for x in xs]) == apply_oracle(v, xs)
        if k:
            fs = [rand_poly(rng, m) if rng.random() < 0.5 else x for x in xs]
            fs[data.draw(st.integers(0, k - 1))] = \
                Poly.const(m, data.draw(st.sampled_from([0, 1, -2])))
            assert v.apply(fs).is_zero() and apply_oracle(v, fs).is_zero()


class TestTrustedResults:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_results_validate(self, m, data, seed):
        """Every result built by ``MultiVector._make`` passes the validating
        constructor unchanged and holds no zero coefficient, on inputs made
        to cancel: V − W with W sharing half of V's components, a zero
        factor, and forms and fields drawn from few values."""
        rng = random.Random(seed)
        k = data.draw(st.integers(1, m))
        v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
        w = MultiVector(m, k, {i: p for i, p in v.components.items() if rng.random() < 0.5})
        w = w + rand_multivector(rng, m, k, max_degree=1, density=0.3)
        x = rand_multivector(rng, m, 1, max_degree=1, density=0.7)
        alpha = [rng.choice([Poly.zero(m), Poly.const(m, 1), Poly.var(m, 0)])
                 for _ in range(m)]
        f = rand_poly(rng, m)
        terms = [(tuple(rng.randrange(m) for _ in range(k)),
                  rng.choice([Poly.const(m, 1), Poly.const(m, -1), Poly.zero(m)]))
                 for _ in range(6)]
        results = [
            MultiVector.from_terms(m, k, terms),
            v.contract_form(alpha),
            v.contract(f),
            v.derived([rng.randrange(m) for _ in range(rng.randint(0, k))]),
            v + w, v - w, v - v, -v,
            v * f, v * 0, v * Fraction(1, 2), v * Poly.zero(m),
            x.lie_derivative_of(v), x.lie_derivative_of(w), x.lie_derivative_of(x),
        ]
        for r in results:
            assert r == MultiVector(r.num_vars, r.degree, r.components)
            assert all(p.terms for p in r.components.values())


def uncached(v):
    """A copy of ``v`` rebuilt from its terms, sharing no table with it."""
    return MultiVector(v.num_vars, v.degree, {
        idx: Poly(p.num_vars, dict(p.terms)) for idx, p in v.components.items()})


class TestKernelTables:
    """The partials and the drop table a multivector keeps for the kernel."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_cached_tables_give_the_uncached_results(self, m, data, seed):
        """Lie derivatives of one tensor along many fields, and brackets and
        contractions with it, equal those on copies rebuilt each time."""
        rng = random.Random(seed)
        k = data.draw(st.integers(0, m))
        t = rand_multivector(rng, m, k, max_degree=2, density=0.7)
        fields = [rand_multivector(rng, m, 1, max_degree=2, density=0.6) for _ in range(4)]
        if k >= 2:
            fields += [t.hamiltonian_field([Poly.var(m, i) for i in idx])
                       for idx in itertools.combinations(range(m), k - 1)]
        for x in fields:
            assert x.lie_derivative_of(t) == uncached(x).lie_derivative_of(uncached(t))
            assert t.schouten(x) == uncached(t).schouten(uncached(x))
        l = data.draw(st.integers(max(0, 1 - k), min(m, m + 1 - k)))
        w = rand_multivector(rng, m, l, max_degree=1, density=0.7)
        assert t.schouten(w) == uncached(t).schouten(uncached(w))
        assert w.schouten(t) == uncached(w).schouten(uncached(t))
        if k:
            alpha = [rand_poly(rng, m) for _ in range(m)]
            assert t.contract_form(alpha) == uncached(t).contract_form(alpha)
        assert _partials(t) is _partials(t) and _drops(t) is _drops(t)

    def test_equality_and_hash_ignore_the_tables(self, rng):
        t = rand_multivector(rng, 4, 2, max_degree=2, density=0.8)
        u = uncached(t)
        rand_multivector(rng, 4, 1, density=0.8).lie_derivative_of(t)
        assert _partials(t) and _drops(t)
        for slot in ("_grad", "_drop_table"):
            assert hasattr(t, slot) and not hasattr(u, slot)
        assert t == u and u == t and hash(t) == hash(u) and len({t, u}) == 1

    def test_walks_leave_the_tables_unchanged(self, rng):
        """A walk of defects reads the tables of its fixed tensors and
        changes no part of them, the term maps included."""
        m = 5
        t = rand_decomposable_tensor(rng, m, 3, coef_degree=2)
        box = rand_multivector(rng, m, 2, max_degree=2, density=0.6)
        op = JacobiOp(t, box)
        tables = [(_partials(v), _drops(v)) for v in (t, box)]
        before = copy.deepcopy(tables)
        xs = Poly.variables(m)
        slots = xs + [Poly.const(m, 1), xs[0] * xs[1] + xs[2]]
        for fs in itertools.combinations(slots, 2):
            fi_defect(t, fs)
            jacobi_defects(op, fs)
        after = [(_partials(v), _drops(v)) for v in (t, box)]
        assert all(a is b for pair, same in zip(after, tables) for a, b in zip(pair, same))
        assert after == before

    def test_zero_factor_and_summand_make_no_products(self, rng, monkeypatch):
        v = rand_multivector(rng, 4, 2, max_degree=2, density=0.8)
        zero = MultiVector.zero(4, 2)

        def no_arithmetic(*args):
            raise AssertionError("a polynomial product or sum was formed")

        monkeypatch.setattr(Poly, "__mul__", no_arithmetic)
        monkeypatch.setattr(Poly, "__add__", no_arithmetic)
        assert (v * 0).is_zero() and (v * Fraction(0)).is_zero()
        assert (v * Poly.zero(4)).is_zero()
        assert v + zero is v and zero + v is v and v - zero is v
        assert zero - v == -v

    def test_factor_with_another_variable_count_is_rejected(self, rng):
        """A zero factor returns early, but not before its variable count is
        checked, as a nonzero factor's is."""
        v = rand_multivector(rng, 4, 2, max_degree=2, density=0.8)
        for factor in (Poly.zero(3), Poly.zero(5), Poly.const(3, 2), Poly.var(5, 4)):
            with pytest.raises(ValueError, match="variable count mismatch"):
                v * factor


class TestDerivedVectors:
    def test_rank_of_constant_blade(self):
        v = MultiVector.basis(3, (0, 1, 2))
        assert derived_rank(v, [0, 0, 0]) == 3

    def test_rank_of_blade_sum(self):
        assert derived_rank(blades_sum(), [0] * 6) == 6

    def test_rank_at_vanishing_point(self):
        v = MultiVector.basis(4, (0, 1, 2), Poly.var(4, 3))
        assert derived_rank(v, [0, 0, 0, 0]) == 0
        assert derived_rank(v, [0, 0, 0, 1]) == 3

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_rank_matches_derived_oracle(self, m, data, seed):
        """The rank from components evaluated once equals the rank of the
        derived fields V_{a…} of the contraction oracle, evaluated at the
        point, on every tuple a₁ < … < a_{k−1}."""
        rng = random.Random(seed)
        k = data.draw(st.integers(1, m))
        density = data.draw(st.sampled_from([0.3, 1.0]))
        v = rand_multivector(rng, m, k, max_degree=2, density=density)
        point = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)]
        rows = []
        for covs in itertools.combinations(range(m), k - 1):
            field = derived_oracle(v, covs)
            rows.append([field.coefficient((i,)).evaluate(point) for i in range(m)])
        assert derived_rank(v, point) == len(rref_oracle(rows)[1])

    def test_decomposable_examples(self):
        assert is_decomposable(MultiVector.basis(4, (0, 1, 2), Poly.var(4, 3)))
        split = MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3))
        assert not is_decomposable(split)
        assert split.wedge(split) == MultiVector.basis(4, (0, 1, 2, 3), 2)
        # a 4-vector on 6 coordinates, dual to the rank-4 form e₁₂ + e₅₆
        assert not is_decomposable(MultiVector.basis(6, (0, 1, 2, 3))
                                   + MultiVector.basis(6, (2, 3, 4, 5)))

    def test_top_degree_always_decomposable(self, rng):
        v = MultiVector.basis(4, (0, 1, 2, 3), rand_poly(rng, 4))
        assert is_decomposable(v)

    def test_decomposable_implies_rank_zero_or_degree(self, rng):
        for _ in range(3):
            v = rand_decomposable_tensor(rng, 4)
            assert is_decomposable(v)
            for _ in range(20):
                point = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
                assert derived_rank(v, point) in (0, 3)

    def test_pairing_condition(self, rng):
        # the pairing is merely sufficient: vanishing implies decomposable
        assert derived_pairing_vanishes(rand_decomposable_tensor(rng, 5))
        assert not derived_pairing_vanishes(blades_sum())
        assert derived_pairing_vanishes(MultiVector.zero(6, 3))
        vanished = 0
        for _ in range(12):
            m, k = rng.choice([(5, 3), (6, 3), (6, 4)])
            v = rng.choice([rand_decomposable_tensor(rng, m, k, coef_degree=1),
                            rand_multivector(rng, m, k, density=0.3),
                            MultiVector.basis(m, tuple(range(k)), rand_poly(rng, m))
                            + MultiVector.basis(m, tuple(range(m - k, m)))])
            if derived_pairing_vanishes(v):
                vanished += 1
                assert is_decomposable(v)
        assert vanished

    def test_pairing_needs_degree_above_two(self):
        with pytest.raises(ValueError):
            derived_pairing_vanishes(MultiVector.basis(4, (0, 1)))


class TestOneForm:
    def test_exact_form_is_closed(self, rng):
        f = rand_poly(rng, 4, max_degree=3)
        assert OneForm(f.gradient()).is_closed()

    def test_rotation_form(self):
        x1, x2 = Poly.var(4, 0), Poly.var(4, 1)
        alpha = OneForm([x2 * Fraction(-1, 2), x1 * Fraction(1, 2),
                         Poly.zero(4), Poly.zero(4)])
        d = alpha.exterior_derivative()
        assert d[0][1] == Poly.const(4, 1)
        assert not alpha.is_closed()
        assert wedge_d_self_is_zero(alpha)

    def test_contact_form(self):
        alpha = OneForm([Poly.var(3, 2), Poly.const(3, 1), Poly.zero(3)])
        assert not alpha.is_closed()
        assert not wedge_d_self_is_zero(alpha)

    def test_linear_matrix_round_trip(self, rng):
        from conftest import rand_symmetric_matrix
        a = rand_symmetric_matrix(rng, 3)
        assert oneform_linear_matrix(oneform_from_matrix(a)) == a


class TestSerialization:
    def test_multivector_round_trip(self, rng):
        for _ in range(5):
            v = rand_multivector(rng, 4, 2, max_degree=2)
            assert multivector_from_json(multivector_to_json(v)) == v

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 4), data=st.data())
    def test_json_round_trip_keeps_stored_form(self, m, data):
        """Components, their order and every coefficient's stored type come
        back: no zero, and no ``Fraction`` with denominator 1."""
        degree = data.draw(st.integers(0, m))
        coefs = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30),
                          st.fractions(-3, 3, max_denominator=6),
                          st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)))
        comps = {idx: Poly(m, data.draw(st.dictionaries(
                     st.tuples(*[st.integers(0, 2)] * m), coefs, max_size=3)))
                 for idx in data.draw(st.lists(st.sampled_from(
                     list(itertools.combinations(range(m), degree))), max_size=4, unique=True))}
        v = MultiVector(m, degree, comps)
        w = multivector_from_json(json.loads(json.dumps(multivector_to_json(v))))
        assert w == v and list(w.components) == sorted(v.components)
        for idx, p in w.components.items():
            assert p.terms == v.components[idx].terms
            assert all(c and (type(c) is int or c.denominator != 1) for c in p.terms.values())

    def test_wire_indices_are_one_based(self):
        data = multivector_to_json(MultiVector.basis(3, (0, 2)))
        assert data["components"][0]["indices"] == [1, 3]
