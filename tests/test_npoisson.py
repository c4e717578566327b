"""Fundamental-identity verification, dual tensors of n-Lie algebras,
function scaling, wedge-product compatibility, and polynomial Casimirs."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (casimir_oracle, fi_search_oracle, rand_4dim_3lie,
                      rand_decomposable_tensor, rand_field_wedge,
                      rand_multivector, rand_poly, rand_vectors)
from nambu import cli, npoisson
from nambu.bianchi import algebra_from_form
from nambu.linalg import mat
from nambu.multivector import MultiVector, is_decomposable, multivector_to_json, step_cost
from nambu.njacobi import JacobiOp, is_n_jacobi, jacobi_defects
from nambu.nlie import NLieStructure, vector_product_algebra
from nambu.npoisson import (casimir_polynomials, dual_nvector, fi_defect,
                            is_n_poisson, slot_monomials,
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

    def test_verdict_carries_decomposability(self, monkeypatch):
        """Bivectors too: ∂₁∧∂₂ + ∂₃∧∂₄ is Poisson but not decomposable, ∂₁∧∂₂
        is both; zero and top-degree tensors are decomposable untested."""
        planes = MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3))
        verdicts = [is_n_poisson(v) for v in (planes, MultiVector.basis(4, (0, 1)))]
        assert [(v, v.decomposable) for v in verdicts] == [((True, None), False),
                                                           ((True, None), True)]
        monkeypatch.setattr(npoisson, "is_decomposable", lambda v: pytest.fail("tested"))
        for v in (MultiVector.zero(4, 2), MultiVector.zero(6, 3),
                  MultiVector.basis(2, (0, 1), Poly.var(2, 0)),
                  MultiVector.basis(4, (0, 1, 2, 3), Poly.var(4, 1))):
            verdict = is_n_poisson(v)
            assert verdict == (True, None) and verdict.decomposable is True

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 3))
    def test_every_verdict_carries_is_decomposable(self, seed, n):
        """``is_n_poisson`` on a tensor and ``is_n_jacobi`` on a pair with it
        on top, the tensor arbitrary, decomposable or a wedge of fields."""
        rng = random.Random(seed)
        m = rng.randint(n + 1, 5)
        top = rng.choice([lambda: rand_multivector(rng, m, n, density=0.4),
                          lambda: rand_decomposable_tensor(rng, m, n, coef_degree=1),
                          lambda: rand_field_wedge(rng, m, n)])()
        op = JacobiOp(top, rand_multivector(rng, m, n - 1, density=0.3))
        assert is_n_poisson(top).decomposable == is_decomposable(top) \
            == is_n_jacobi(op).decomposable

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
        assert dual_nvector(NLieStructure(4, 3)).is_zero()

    def test_duals_of_small_algebras_pass(self, rng):
        for _ in range(5):
            ok, _ = is_n_poisson(dual_nvector(rand_4dim_3lie(rng)))
            assert ok

    def test_dual_of_direct_product_fails(self):
        vp = vector_product_algebra(3)
        ok, witness = is_n_poisson(dual_nvector(vp.direct_product(vp)))
        assert not ok and witness is not None


class TestScale:
    """fΛ for a decomposable n-Poisson Λ is again n-Poisson."""

    def test_scale_by_one_is_identity(self):
        v = atomic_tensor()
        assert v * Poly.const(4, 1) == v

    def test_scaled_blade_still_poisson(self, rng):
        blade = MultiVector.basis(4, (0, 1, 2))
        assert blade * Poly.var(4, 3) == atomic_tensor()
        for f in [Poly.var(4, 3)] + [rand_poly(rng, 4, max_degree=2) for _ in range(3)]:
            verdict = is_n_poisson(blade * f)
            assert verdict == fi_search_oracle(blade * f) == (True, None)
            assert verdict.decomposable

    def test_scaled_pair_mutually_compatible(self, rng):
        # the mixed Lie-derivative defect of fΛ and gΛ vanishes
        blade = MultiVector.basis(4, (0, 1, 2))
        f = rand_poly(rng, 4, max_degree=2)
        g = rand_poly(rng, 4, max_degree=2)
        vf, vg = blade * f, blade * g
        for us in itertools.combinations(slot_monomials(4), 2):
            defect = vf.hamiltonian_field(list(us)).lie_derivative_of(vg) \
                + vg.hamiltonian_field(list(us)).lie_derivative_of(vf)
            assert defect.is_zero()


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
                assert so3.hamiltonian_field([f]).apply([c]).is_zero()


def casimir_blade(rng):
    """f·(v₁∧…∧v_n) with constant vᵢ: f·∂₁∧…∧∂_n behind a linear change of
    coordinates, f a polynomial."""
    m = rng.randint(3, 5)
    return rand_decomposable_tensor(rng, m, rng.randint(2, min(3, m - 1)), rng.randint(0, 2))


def casimir_vanishing(rng):
    """The same times a linear form that vanishes at (1, …, m)."""
    t = casimir_blade(rng)
    j = rng.randrange(t.num_vars)
    return t * (Poly.var(t.num_vars, j) - (j + 1))


def casimir_rank_two(rng):
    """X∧Y of two affine vector fields."""
    return rand_field_wedge(rng, rng.randint(3, 5), 2)


def casimir_split(rng):
    """f·∂₁∧∂₂ + g·∂₃∧∂₄, f free of x₃, x₄ and g of x₁, x₂: Poisson, of rank 4
    where fg ≠ 0."""
    m = rng.randint(4, 5)

    def free_of(a, b):
        while True:
            p = Poly(m, {e: c for e, c in rand_poly(rng, m).terms.items()
                         if not (e[a] or e[b])})
            if not p.is_zero():
                return p
    return MultiVector.basis(m, (0, 1), free_of(2, 3)) + MultiVector.basis(m, (2, 3), free_of(0, 1))


def casimir_degenerate(rng):
    """A vector field, a top-degree tensor or a zero tensor."""
    m = rng.randint(2, 5)
    kind = rng.randrange(3)
    if kind == 2:
        return MultiVector.zero(m, rng.randint(1, m))
    return rand_multivector(rng, m, 1 if kind == 0 else m, density=0.8)


def known_decomposable(tensor):
    """What ``check-poisson`` hands ``casimir_polynomials``: whether the
    tensor is decomposable, as its ``is_n_poisson`` verdict carries it."""
    return tensor.degree >= 2 and is_decomposable(tensor)


class TestCasimirFields:
    """``casimir_polynomials`` builds a decomposable tensor's rows from n of
    its coordinate Hamiltonian fields: the bases must equal the all-fields
    ``casimir_oracle``, and each kind of tensor must take its path."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """(n, nonzero coordinate fields, fields kept) of every call."""
        calls = []

        def spied(tensor, decomposable, _fields=npoisson.casimir_fields):
            out = _fields(tensor, decomposable)
            xs = Poly.variables(tensor.num_vars)
            nonzero = sum(not tensor.hamiltonian_field([xs[i] for i in idx]).is_zero()
                          for idx in itertools.combinations(range(tensor.num_vars),
                                                            tensor.degree - 1))
            calls.append((tensor.degree, nonzero, len(out)))
            return out
        monkeypatch.setattr(npoisson, "casimir_fields", spied)
        return calls

    @pytest.mark.parametrize("make, selects", [
        (casimir_blade, True), (casimir_vanishing, False), (casimir_rank_two, True),
        (casimir_split, False), (casimir_degenerate, False)])
    def test_matches_all_fields_oracle(self, paths, make, selects):
        rng = random.Random(make.__name__)
        for _ in range(40):
            tensor = make(rng)
            d = rng.randint(1, 3)
            got = casimir_polynomials(tensor, d, known_decomposable(tensor))
            want = casimir_oracle(tensor, d)
            assert got == want and [str(c) for c in got] == [str(c) for c in want]
        selected = [n < nonzero and kept == n for n, nonzero, kept in paths]
        assert any(selected) if selects else not any(selected)
        assert all(kept in (n, nonzero) for n, nonzero, kept in paths)
        if make in (casimir_vanishing, casimir_split):
            # more than n fields, all kept: the fallback, or the tensor's
            # decomposability, ruled the selection out
            assert any(nonzero > n for n, nonzero, _ in paths)

    def test_split_bivector_is_not_decomposable(self):
        """The non-decomposable case is what ``casimir_split`` draws: a
        selection that did not read ``decomposable`` would keep 2 of its 4
        independent fields."""
        rng = random.Random("split")
        assert not any(is_decomposable(casimir_split(rng)) for _ in range(10))

    def test_walk_above_the_limit_keeps_every_field(self, paths):
        """f·(v₁∧v₂∧v₃) in 8 variables, f with 120 cubic terms: C(8, 2) = 28
        decomposability wedges of work 161,304 each, above ``MAX_WALK``,
        while the Casimir work of degree ≤ 1 is 9 × 28 = 252.  The Casimir
        search walks no wedge, so it refuses nothing the all-fields rows
        accept: unknown to be decomposable it keeps all 28 fields, known to
        be it keeps 3, and both give the oracle's basis.  ``check-poisson``
        refuses this tensor in ``is_n_poisson``, before any Casimir work."""
        m = 8
        f = Poly(m, {e: 1 for e in itertools.islice(
            (e for e in itertools.product(range(4), repeat=m) if sum(e) == 3), 120)})
        vs = [MultiVector.vector([Poly.const(m, (i + 1) ** k) for i in range(m)])
              for k in range(3)]
        tensor = vs[0].wedge(vs[1]).wedge(vs[2]) * f
        assert step_cost(tensor) * comb(m, 2) > MAX_WALK
        for decide in (is_decomposable, is_n_poisson):
            with pytest.raises(ValueError, match="decomposability wedges"):
                decide(tensor)
        want = casimir_oracle(tensor, 1)
        assert len(want) == 6
        assert casimir_polynomials(tensor, 1) == want
        assert casimir_polynomials(tensor, 1, decomposable=True) == want
        assert paths == [(3, 28, 28), (3, 28, 3)]

    def test_check_poisson_selects_on_its_verdict(self, paths, monkeypatch, tmp_path, capsys):
        """``check-poisson --max-degree`` hands the decomposability of its
        verdict to the Casimir search, which walks no wedge of its own: one
        ``is_decomposable`` call, and 3 of the 10 fields of a 5-variable
        trivector."""
        walks = []
        monkeypatch.setattr(npoisson, "is_decomposable",
                            lambda v, _walk=is_decomposable: walks.append(v) or _walk(v))
        m = 5
        vs = [MultiVector.vector([Poly.const(m, (i + 1) ** k) for i in range(m)])
              for k in range(3)]
        tensor = vs[0].wedge(vs[1]).wedge(vs[2]) * (Poly.var(m, 0) + 2)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(multivector_to_json(tensor)))
        assert cli.main(["--json", "check-poisson", str(path), "--max-degree", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["decomposable"] is True
        assert out["casimirs"] == [str(c) for c in casimir_oracle(tensor, 2)]
        assert len(walks) == 1 and paths == [(3, 10, 3)]


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

    def test_witness_search_refused_before_its_pool(self, no_work, monkeypatch):
        """The shared witness walk of ``structure_verdict`` on a tensor taken
        as not decomposable (its own wedge walk would be refused first):
        C(24 + 300, 11) tuples of the variables and quadratic monomials."""
        v = MultiVector.basis(24, tuple(range(12))) + MultiVector.basis(24, tuple(range(12, 24)))
        monkeypatch.setattr(npoisson, "is_decomposable", lambda v: False)
        with pytest.raises(ValueError, match=rf"slot monomial tuples: "
                                             rf"C\(324, 11\) = {comb(324, 11)} tuples"):
            npoisson.structure_verdict(v, (), Poly.variables(24), step_cost(v),
                                       lambda fs: (fi_defect(v, fs),))

    def test_coordinate_defects_refused(self, no_work):
        """A bivector walks its decomposability wedges after its coordinate
        defects, at the same cost; in 1,000 variables its 1,000 coordinate
        defects of work 2 × 1,000 × (1 + 1) are refused first."""
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


class TestWitnessWalkCompleteness:
    """The shared witness walk of ``structure_verdict``, over the monomials of
    degree ≤ 2 (1 too for pairs), finds a failure whenever the walk over
    degree ≤ 3 does.  In 3–4 variables every top part of degree 3 is
    decomposable, so the walk is reached with the decomposability test
    taken as false; then a first tuple of degree ≤ 2 is the witness, and when
    there is none, no tuple of degree ≤ 3 fails either."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(["tensor", "pair"]))
    def test_degree_three_finds_no_more(self, seed, kind):
        rng = random.Random(seed)
        m = 4 if kind == "tensor" else rng.randint(3, 4)
        top = rng.choice([lambda: MultiVector.basis(m, (0, 1, 2), rand_poly(rng, m)),
                          lambda: rand_field_wedge(rng, m, 3),
                          lambda: rand_multivector(rng, m, 3, max_degree=2)])()
        assume(not top.is_zero())
        op = JacobiOp(top, top.contract(rand_poly(rng, m)) if rng.random() < 0.7
                      else rand_multivector(rng, m, 2, density=0.3))

        def defects(fs):
            return (fi_defect(top, fs),) if kind == "tensor" else jacobi_defects(op, fs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(npoisson, "is_decomposable", lambda v: False)
            ok, witness = is_n_poisson(top) if kind == "tensor" else is_n_jacobi(op)
        assert not ok
        if witness is None:
            slots = ([] if kind == "tensor" else [Poly.const(m, 1)]) + slot_monomials(m, 3)
            assert all(all(d.is_zero() for d in defects(fs))
                       for fs in itertools.combinations(slots, 2))
        else:
            assert not all(d.is_zero() for d in defects(witness))
