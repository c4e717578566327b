"""First-order skew n-differential operators stored as (∇, □) pairs:
evaluation, the degree-raising s map, defect-based Jacobi verification and
the coordinate normal form."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fi_search_oracle, jacobi_defects_oracle, rand_fraction,
                      rand_jacobi_pair, rand_multivector, rand_poly,
                      raw_jacobi_oracle)
from nambu import njacobi
from nambu.multivector import MultiVector, OneForm, is_decomposable
from nambu.njacobi import (JacobiOp, canonical_bracket, from_poisson_and_form,
                           insert_unity, is_n_jacobi, jacobi_defects,
                           jacobiop_from_json, jacobiop_to_json, s_op)
from nambu.npoisson import is_n_poisson
from nambu.poly import MAX_WALK, Poly


def canonical_pair(m=4, n=3):
    return JacobiOp(MultiVector.basis(m, tuple(range(n))),
                    MultiVector.basis(m, tuple(range(n - 1))))


class TestApply:
    def test_zero_box_reduces_to_bracket(self, rng):
        nabla = rand_multivector(rng, 4, 3)
        op = JacobiOp(nabla, MultiVector.zero(4, 2))
        fs = [rand_poly(rng, 4) for _ in range(3)]
        assert op.apply(fs) == nabla.apply(fs)

    def test_canonical_value(self):
        xs = Poly.variables(4)
        assert canonical_pair().apply(xs[:3]) == Poly.const(4, 1) + xs[2]

    def test_unity_in_first_slot_recovers_box(self, rng):
        op = rand_jacobi_pair(rng, 4, 3)
        fs = [rand_poly(rng, 4) for _ in range(2)]
        assert op.apply([Poly.const(4, 1)] + fs) == op.box.apply(fs)

    def test_skew_in_arguments(self, rng):
        op = rand_jacobi_pair(rng, 4, 3)
        f, g, h = (rand_poly(rng, 4) for _ in range(3))
        assert op.apply([f, g, h]) == -op.apply([g, f, h])

    def test_arity_mismatch(self, rng):
        with pytest.raises(ValueError):
            canonical_pair().apply([Poly.var(4, 0)])


class TestSOperator:
    def test_definition(self, rng):
        nabla = rand_multivector(rng, 4, 2)
        op = JacobiOp(nabla, MultiVector.zero(4, 1))
        image = s_op(op)
        assert image.nabla.is_zero()
        assert image.box == nabla

    def test_s_squared_is_zero(self, rng):
        for _ in range(20):
            arity = rng.choice([2, 3])
            op = rand_jacobi_pair(rng, 4, arity)
            assert s_op(s_op(op)).is_zero()

    def test_homotopy_identity(self, rng):
        # inserting unity is a homotopy for s: (i₁∘s + s∘i₁) = identity,
        # expressed on the pair representation
        for _ in range(20):
            arity = rng.choice([2, 3])
            op = rand_jacobi_pair(rng, 4, arity)
            rebuilt = JacobiOp(insert_unity(s_op(op)),
                               insert_unity(op), arity=arity)
            assert rebuilt == op

    def test_commutes_with_constant_lie_transport(self, rng):
        x = MultiVector.vector([Poly.const(4, Fraction(rng.randint(-2, 2)))
                                for _ in range(4)])
        op = rand_jacobi_pair(rng, 4, 3)
        transported = JacobiOp(x.lie_derivative_of(op.nabla),
                               x.lie_derivative_of(op.box))
        lhs = s_op(transported)
        rhs = s_op(op)
        assert lhs.box == x.lie_derivative_of(rhs.box)
        assert lhs.nabla.is_zero() and rhs.nabla.is_zero()

    def test_multiplication_bracket_identity(self, rng):
        # L_f(□) = (1−k)f□ − s(□_f) where L_f(□)(g…) = f□(g…) − Σ□(…,fgᵢ,…)
        k = 3
        box = rand_multivector(rng, 4, k)
        f = rand_poly(rng, 4)
        pair = JacobiOp(box * Fraction(1 - k) * f, -box.contract(f))
        for _ in range(5):
            gs = [rand_poly(rng, 4) for _ in range(k)]
            lhs = f * box.apply(gs)
            for i in range(k):
                args = list(gs)
                args[i] = f * gs[i]
                lhs = lhs - box.apply(args)
            assert lhs == pair.apply(gs)


class TestDefects:
    def test_zero_box_poisson_nabla(self, rng):
        op = JacobiOp(MultiVector.basis(4, (0, 1, 2), Poly.var(4, 3)),
                      MultiVector.zero(4, 2))
        for _ in range(5):
            fs = [rand_poly(rng, 4) for _ in range(2)]
            d1, d0 = jacobi_defects(op, fs)
            assert d1.is_zero() and d0.is_zero()

    def test_gradient_construction_has_zero_defects(self, rng):
        nabla = MultiVector.basis(4, (0, 1, 2))
        op = JacobiOp(nabla, nabla.contract(Poly.var(4, 3)))
        for _ in range(5):
            fs = [rand_poly(rng, 4) for _ in range(2)]
            d1, d0 = jacobi_defects(op, fs)
            assert d1.is_zero() and d0.is_zero()

    def test_non_poisson_box_leaves_residue(self):
        # a bivector with nonzero self-bracket cannot be the sub-part of a
        # Jacobi operator
        box = MultiVector.basis(4, (0, 1)) \
            + MultiVector.basis(4, (2, 3), Poly.var(4, 0))
        assert not box.schouten(box).is_zero()
        op = JacobiOp(MultiVector.zero(4, 3), box)
        ok, witness = is_n_jacobi(op)
        assert not ok
        d1, d0 = jacobi_defects(op, list(witness))
        assert not (d1.is_zero() and d0.is_zero())

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32))
    def test_matches_term_by_term_oracle(self, m, data, seed):
        """The one-field defects equal the 2n-Lie-derivative expansion on
        arbitrary pairs and slots: polynomials of degree ≤ 2 with Fraction
        coefficients, constants among them."""
        rng = random.Random(seed)
        n = data.draw(st.integers(2, m))
        density = data.draw(st.sampled_from([0.3, 0.7]))
        op = JacobiOp(rand_multivector(rng, m, n, max_degree=2, density=density),
                      rand_multivector(rng, m, n - 1, max_degree=2, density=density))
        fs = [Poly.const(m, rand_fraction(rng)) if rng.random() < 0.25
              else rand_poly(rng, m) for _ in range(n - 1)]
        assert jacobi_defects(op, fs) == jacobi_defects_oracle(op, fs)


class TestIsNJacobi:
    def test_canonical_pair(self):
        ok, witness = is_n_jacobi(canonical_pair())
        assert ok and witness is None

    def test_cross_checked_against_raw_identity(self):
        nabla = MultiVector.basis(4, (0, 1, 2), Poly.var(4, 3))
        op = JacobiOp(nabla, MultiVector.basis(4, (0, 1)))
        verdict, _ = is_n_jacobi(op)
        raw, _ = raw_jacobi_oracle(op)
        assert verdict == raw

    def test_box_outside_nabla_distribution_fails(self):
        op = JacobiOp(MultiVector.basis(6, (0, 1, 2)),
                      MultiVector.basis(6, (3, 4)))
        ok, witness = is_n_jacobi(op)
        assert not ok and witness is not None

    def test_consequences_for_verified_operators(self):
        nabla = MultiVector.basis(4, (0, 1, 2))
        h = Poly.var(4, 3) + Poly.var(4, 0) ** 2
        op = JacobiOp(nabla, nabla.contract(h))
        assert is_n_jacobi(op)[0]
        # sub-part is (n−1)-Poisson, top part decomposable Poisson
        assert fi_search_oracle(op.box)[0]
        assert is_decomposable(op.nabla)
        assert is_n_poisson(op.nabla)[0]
        # derived vectors of the sub-part stay inside the top distribution
        for idx in range(4):
            assert op.box.derived((idx,)).wedge(op.nabla).is_zero()

    def test_transport_identity(self):
        # ∇_{f…}(□) = ∇_h with h = ±□(f₁,…,f_{n−1}) for verified operators
        nabla = MultiVector.basis(4, (0, 1, 2))
        op = JacobiOp(nabla, nabla.contract(Poly.var(4, 3)))
        slots = [Poly.const(4, 1)] + Poly.variables(4)
        for fs in itertools.combinations(slots, 2):
            h = op.box.apply(list(fs))
            field = op.nabla.hamiltonian_field(list(fs))
            assert field.lie_derivative_of(op.box) == op.nabla.contract(h)


class TestConstruction:
    def test_gradient_form(self):
        nabla = MultiVector.basis(4, (0, 1, 2))
        h = Poly.var(4, 3)
        op = from_poisson_and_form(nabla, OneForm.differential(h))
        assert op.box == nabla.contract(h)
        assert is_n_jacobi(op)[0]

    def test_zero_form(self):
        nabla = MultiVector.basis(4, (0, 1, 2))
        op = from_poisson_and_form(nabla, OneForm([Poly.zero(4)] * 4))
        assert op.box.is_zero()

    def test_constant_form_on_top_tensor(self):
        nabla = MultiVector.basis(4, (0, 1, 2, 3))
        omega = OneForm([Poly.const(4, 2), Poly.const(4, -3),
                         Poly.zero(4), Poly.zero(4)])
        op = from_poisson_and_form(nabla, omega)
        assert is_n_jacobi(op)[0]

    def test_refuses_non_closed_form(self):
        nabla = MultiVector.basis(3, (0, 1, 2))
        alpha = OneForm([Poly.var(3, 2), Poly.const(3, 1), Poly.zero(3)])
        with pytest.raises(ValueError):
            from_poisson_and_form(nabla, alpha)

    def test_refuses_non_poisson_tensor(self):
        bad = MultiVector.basis(6, (0, 1, 2)) + MultiVector.basis(6, (3, 4, 5))
        with pytest.raises(ValueError):
            from_poisson_and_form(bad, OneForm([Poly.zero(6)] * 6))


class TestCanonicalBracket:
    def test_binary_case(self):
        y1, y2, _ = Poly.variables(3)
        assert canonical_bracket(3, 2, [y1, y2]) == Poly.const(3, 1) - y2

    def test_repeated_entry_vanishes(self, rng):
        f = rand_poly(rng, 4)
        g = rand_poly(rng, 4)
        assert canonical_bracket(4, 3, [f, g, f]).is_zero()

    def test_matches_pair_representation(self, rng):
        op = canonical_pair()
        for _ in range(50):
            fs = [rand_poly(rng, 4) for _ in range(3)]
            assert canonical_bracket(4, 3, fs) == op.apply(fs)

    def test_arity_exceeding_chart_rejected(self):
        with pytest.raises(ValueError):
            canonical_bracket(2, 3, Poly.variables(2)[:2] + [Poly.var(2, 0)])


class TestSerialization:
    def test_round_trip(self, rng):
        op = rand_jacobi_pair(rng, 4, 3)
        assert jacobiop_from_json(jacobiop_to_json(op)) == op

    def test_zero_operator_with_capped_degree(self):
        op = JacobiOp.zero(3, 4)
        assert op.is_zero()
        assert s_op(op).is_zero()


class TestWorkBudget:
    def test_slot_tuples_refused_before_any_defect(self, monkeypatch):
        """The pair (constant 12-blade in 24 variables, 0) has C(25, 11) =
        4,457,400 slot tuples: refused before the slot functions and the
        first defect are built."""
        op = JacobiOp(MultiVector.basis(24, tuple(range(12))), MultiVector.zero(24, 11))
        monkeypatch.setattr(njacobi, "jacobi_defects",
                            lambda *a: pytest.fail("jacobi_defects called"))
        monkeypatch.setattr(Poly, "variables",
                            staticmethod(lambda m: pytest.fail("slot functions built")))
        with pytest.raises(ValueError, match=r"n-Jacobi slot tuples: "
                                             r"C\(25, 11\) = 4457400 tuples"):
            is_n_jacobi(op)

    def test_largest_walks_stay_under_the_limit(self):
        """The largest slot-tuple walk of the tests and the benchmark: 20
        tuples of arity 4 in 5 variables with 16 terms in the pair, each
        step weighted by the arity."""
        assert comb(6, 3) * 4 * 4 * 5 * (1 + 16) == 27200 < MAX_WALK
