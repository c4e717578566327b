"""Fundamental-identity verification, dual tensors of n-Lie algebras,
function scaling, wedge-product compatibility, and polynomial Casimirs."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (fi_search_oracle, rand_4dim_3lie,
                      rand_decomposable_tensor, rand_field_wedge,
                      rand_multivector, rand_poly, rand_vectors)
from nambu import npoisson
from nambu.bianchi import algebra_from_form
from nambu.linalg import mat
from nambu.multivector import MultiVector, is_decomposable, step_cost
from nambu.nlie import NLieStructure, vector_product_algebra
from nambu.npoisson import (casimir_polynomials, dual_nvector, fi_defect,
                            is_n_poisson, scale, slot_monomials,
                            wedge_compat_check)
from nambu.poly import MAX_WALK, Poly


def blades_sum(m=6):
    return MultiVector.basis(m, (0, 1, 2)) + MultiVector.basis(m, (3, 4, 5))


def atomic_tensor():
    return MultiVector.basis(4, (0, 1, 2), Poly.var(4, 3))


class TestDefect:
    def test_constant_blade_has_no_defect(self, rng):
        v = MultiVector.basis(3, (0, 1, 2))
        for _ in range(5):
            fs = [rand_poly(rng, 3) for _ in range(2)]
            assert fi_defect(v, fs).is_zero()

    def test_atomic_tensor_defect_vanishes(self):
        xs = Poly.variables(4)
        assert fi_defect(atomic_tensor(), [xs[0], xs[1]]).is_zero()

    def test_blade_sum_has_nonzero_defect(self):
        xs = Poly.variables(6)
        assert not fi_defect(blades_sum(), [xs[0] * xs[3], xs[1]]).is_zero()


class TestIsNPoisson:
    def test_commuting_fields_tensor(self):
        for m, n in [(4, 3), (5, 4)]:
            v = MultiVector.basis(m, tuple(range(n)))
            ok, witness = fi_search_oracle(v)
            assert ok and witness is None

    def test_blade_sum_fails_with_monomial_witness(self):
        ok, witness = is_n_poisson(blades_sum())
        assert not ok
        assert witness == (Poly.var(6, 0), Poly.var(6, 1) * Poly.var(6, 3))
        assert not fi_defect(blades_sum(), list(witness)).is_zero()

    def test_top_degree_always_passes(self, rng):
        v = MultiVector.basis(3, (0, 1, 2), rand_poly(rng, 3, max_degree=3))
        assert is_n_poisson(v)[0]
        assert fi_search_oracle(v)[0]  # oracle agrees with the decision

    def test_fast_and_slow_paths_agree(self, rng):
        samples = [rand_decomposable_tensor(rng, 4, coef_degree=2),
                   MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3)),
                   atomic_tensor(),
                   MultiVector.basis(6, (0, 1, 2, 3))
                   + MultiVector.basis(6, (2, 3, 4, 5))]
        for v in samples:
            assert is_n_poisson(v)[0] == fi_search_oracle(v)[0]

    def test_decomposable_non_integrable_fails_on_coordinates(self):
        # ∂₁∧∂₂∧∂₃ + x₁·∂₁∧∂₂∧∂₄ is decomposable, but its distribution is
        # not integrable: the first coordinate tuple is the witness
        xs = Poly.variables(4)
        v = MultiVector.basis(4, (0, 1, 2)) + MultiVector.basis(4, (0, 1, 3), xs[0])
        assert is_decomposable(v)
        assert is_n_poisson(v) == (False, (xs[0], xs[1]))
        assert not fi_search_oracle(v)[0]

    def test_zero_and_top_degree_need_no_defect(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("fi_defect called")
        monkeypatch.setattr(npoisson, "fi_defect", refuse)
        top = MultiVector.basis(3, (0, 1, 2), rand_poly(rng, 3, max_degree=3))
        assert is_n_poisson(MultiVector.zero(4, 3)) == (True, None)
        assert is_n_poisson(top) == (True, None)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_n_poisson(MultiVector.basis(3, (0,)))

    def test_verified_tensors_are_decomposable(self, rng):
        # every verified tensor with n > 2 is decomposable
        for _ in range(5):
            v = rand_decomposable_tensor(rng, 4)
            ok, _ = fi_search_oracle(v)
            assert ok
            assert v.is_zero() or is_decomposable(v)
        assert not is_decomposable(blades_sum())

    def test_decomposable_given_reruns_only_when_needed(self, monkeypatch):
        symplectic = MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3))
        assert is_n_poisson(symplectic)[0]
        assert not npoisson.decomposable_given(symplectic, True)
        assert not npoisson.decomposable_given(blades_sum(), False)
        monkeypatch.setattr(npoisson, "is_decomposable",
                            lambda v: pytest.fail("implied test rerun"))
        assert npoisson.decomposable_given(atomic_tensor(), True)

    def test_derived_wedge_identity(self, rng):
        # Λ_{f,φ} ∧ Λ_g + Λ_{g,φ} ∧ Λ_f = 0 for verified ternary Λ
        v = rand_decomposable_tensor(rng, 4, coef_degree=2)
        for _ in range(5):
            f, g, phi = (rand_poly(rng, 4) for _ in range(3))
            lhs = v.hamiltonian_field([f, phi]).wedge(v.contract(g)) \
                + v.hamiltonian_field([g, phi]).wedge(v.contract(f))
            assert lhs.is_zero()


class TestOracleAgreement:
    """The decision against the exhaustive search on seeded random tensors:
    sparse sums (mostly not Poisson), f·(constant blade) (Poisson) and
    wedges of affine vector fields (decomposable, integrable or not)."""

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)])
    def test_decision_matches_oracle(self, m, n):
        rng = random.Random(f"fi-agreement-{m}-{n}")
        samples = [rand_multivector(rng, m, n), rand_multivector(rng, m, n),
                   rand_decomposable_tensor(rng, m, degree=n, coef_degree=1),
                   rand_field_wedge(rng, m, n), rand_field_wedge(rng, m, n)]
        verdicts = set()
        for v in samples:
            ok, witness = is_n_poisson(v)
            assert ok == fi_search_oracle(v)[0]
            if not ok:
                assert not fi_defect(v, list(witness)).is_zero()
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestDualTensor:
    def test_atomic_algebra_dual(self):
        form = mat([[0] * 4, [0] * 4, [0] * 4, [0, 0, 0, 1]])
        p = algebra_from_form(form, 3)
        assert dual_nvector(p) == atomic_tensor()

    def test_zero_algebra(self):
        assert dual_nvector(NLieStructure.zero(4, 3)).is_zero()

    def test_duals_of_small_algebras_pass(self, rng):
        for _ in range(5):
            ok, _ = is_n_poisson(dual_nvector(rand_4dim_3lie(rng)))
            assert ok

    def test_dual_of_direct_product_fails(self):
        vp = vector_product_algebra(3)
        ok, witness = is_n_poisson(dual_nvector(vp.direct_product(vp)))
        assert not ok and witness is not None


class TestScale:
    def test_scale_by_one_is_identity(self):
        v = atomic_tensor()
        assert scale(Poly.const(4, 1), v) == v

    def test_scaled_blade_still_poisson(self):
        v = scale(Poly.var(4, 3), MultiVector.basis(4, (0, 1, 2)))
        assert v == atomic_tensor()
        assert fi_search_oracle(v)[0]

    def test_scaled_pair_mutually_compatible(self, rng):
        # the mixed Lie-derivative defect of fΛ and gΛ vanishes
        blade = MultiVector.basis(4, (0, 1, 2))
        f = rand_poly(rng, 4, max_degree=2)
        g = rand_poly(rng, 4, max_degree=2)
        vf, vg = scale(f, blade), scale(g, blade)
        for us in itertools.combinations(slot_monomials(4), 2):
            defect = vf.hamiltonian_field(list(us)).lie_derivative_of(vg) \
                + vg.hamiltonian_field(list(us)).lie_derivative_of(vf)
            assert defect.is_zero()

    def test_refuses_invalid_tensor(self):
        with pytest.raises(ValueError):
            scale(Poly.var(6, 0), blades_sum())


class TestWedgeCompat:
    def test_constant_transversal_case(self):
        delta = MultiVector.basis(6, (0, 1, 2))
        nabla = MultiVector.basis(6, (3, 4, 5))
        assert wedge_compat_check(delta, nabla) == (True, True, True)
        assert fi_search_oracle(delta.wedge(nabla))[0]

    def test_failing_conditions_predict_failing_wedge(self):
        # k + l < m, both factors decomposable Poisson of full rank, yet the
        # joint distribution is non-integrable: all three verdicts must not
        # hold and the wedge must fail the direct check.
        m = 7
        delta = MultiVector.basis(m, (0, 1, 2))
        nabla = MultiVector.basis(m, (3, 4, 5)) \
            + MultiVector.basis(m, (3, 4, 6), Poly.var(m, 0))
        assert is_n_poisson(nabla)[0] and is_decomposable(nabla)
        verdicts = wedge_compat_check(delta, nabla)
        assert verdicts == (False, True, True)
        ok, witness = is_n_poisson(delta.wedge(nabla))
        assert not ok and witness is not None
        assert all(verdicts) == ok

    def test_top_degree_wedge_diverges_from_conditions(self):
        # Both factors vanish somewhere (rank < multiplicity on those loci)
        # and the wedge has top degree, where every tensor is Poisson: the
        # three conditions are strictly stronger than the direct verdict.
        m = 6
        delta = MultiVector.basis(m, (0, 1, 2), Poly.var(m, 5))
        nabla = MultiVector.basis(m, (3, 4, 5), Poly.var(m, 0))
        verdicts = wedge_compat_check(delta, nabla)
        assert verdicts == (False, True, True)
        assert fi_search_oracle(delta.wedge(nabla))[0]

    def test_equal_factors_wedge_to_zero(self):
        delta = MultiVector.basis(6, (0, 1, 2))
        assert delta.wedge(delta).is_zero()
        assert wedge_compat_check(delta, delta) == (True, True, True)

    def test_precheck_rejects_non_poisson_input(self):
        with pytest.raises(ValueError):
            wedge_compat_check(blades_sum(), MultiVector.basis(6, (0, 1, 2)))


class TestCasimirs:
    def test_transverse_coordinate(self):
        cs = casimir_polynomials(MultiVector.basis(3, (0, 1)), 1)
        assert [str(c) for c in cs] == ["1", "x3"]

    def test_rotation_algebra_quadratic_casimir(self):
        so3 = dual_nvector(vector_product_algebra(2))
        cs = casimir_polynomials(so3, 2)
        xs = Poly.variables(3)
        assert xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2 in cs

    def test_atomic_tensor_casimirs(self):
        cs = casimir_polynomials(atomic_tensor(), 1)
        assert [str(c) for c in cs] == ["1", "x4"]

    def test_hamiltonian_fields_annihilate_casimirs(self, rng):
        so3 = dual_nvector(vector_product_algebra(2))
        for c in casimir_polynomials(so3, 2):
            for _ in range(10):
                f = rand_poly(rng, 3, max_degree=2)
                assert so3.hamiltonian_field([f]).apply_field(c).is_zero()


class TestWorkBudget:
    """Every slot-tuple walk is counted, and refused above ``MAX_WALK``, when
    it is created: before its candidate pool and before its first defect."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        for owner, name in ((npoisson, "fi_defect"), (npoisson, "slot_monomials"),
                            (MultiVector, "wedge"), (MultiVector, "hamiltonian_field")):
            monkeypatch.setattr(owner, name,
                                lambda *a, name=name: pytest.fail(f"{name} called"))

    def test_blade_refused_before_any_defect(self, no_work):
        """A constant 12-blade in 24 variables, alone or beside the
        complementary one: C(24, 11) = 2,496,144 decomposability wedges."""
        blade = MultiVector.basis(24, tuple(range(12)))
        for v in (blade, blade + MultiVector.basis(24, tuple(range(12, 24)))):
            with pytest.raises(ValueError, match=r"decomposability wedges: "
                                                 r"C\(24, 11\) = 2496144 tuples"):
                is_n_poisson(v)

    def test_witness_search_refused_before_its_pool(self, no_work):
        v = MultiVector.basis(24, tuple(range(12))) + MultiVector.basis(24, tuple(range(12, 24)))
        with pytest.raises(ValueError, match=rf"slot monomial tuples: "
                                             rf"C\(324, 11\) = {comb(324, 11)} tuples"):
            npoisson._find_fi_witness(v)

    def test_coordinate_defects_refused(self, no_work):
        """A bivector has no decomposability walk; in 1,000 variables its
        1,000 coordinate defects of work 2 × 1,000 × (1 + 1) are refused."""
        v = MultiVector.basis(1000, (0, 1))
        with pytest.raises(ValueError, match=r"coordinate defects: C\(1000, 1\) = 1000 tuples "
                                             r"of work 4000, 4000000 in all"):
            is_n_poisson(v)

    def test_mixed_wedge_refused_before_any_field(self, no_work):
        """Library only: C(30, 14) coordinate tuples of a 15-blade in 30
        variables, refused before the first Hamiltonian field."""
        blade = MultiVector.basis(30, tuple(range(15)))
        with pytest.raises(ValueError, match=rf"mixed wedge tuples: "
                                             rf"C\(30, 14\) = {comb(30, 14)} tuples"):
            npoisson._mixed_wedge_vanishes(blade, blade)

    def test_largest_walks_stay_under_the_limit(self, rng):
        """The largest walks of the tests and the benchmark: 2,925 slot
        monomial tuples of two 4-blades in 6 variables
        (``test_fast_and_slow_paths_agree``), and 946 of the poisson
        benchmark's dual products, a trivector in 8 variables with at most
        2 × 4 components of 4 linear terms."""
        two_blades = MultiVector.basis(6, (0, 1, 2, 3)) + MultiVector.basis(6, (2, 3, 4, 5))
        assert comb(27, 3) * step_cost(two_blades) == 210600 < MAX_WALK
        product = dual_nvector(rand_4dim_3lie(rng).direct_product(rand_4dim_3lie(rng)))
        largest = comb(44, 2) * 3 * 8 * (1 + 32)
        assert comb(44, 2) * step_cost(product) <= largest == 749232 < MAX_WALK
