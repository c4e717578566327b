"""n-Lie algebras from structure constants: bracket evaluation, the n-ary
Jacobi identity, hereditary structures, derivations and compatibility."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ad_oracle, commutator_oracle, comp_condition_oracle,
                      compat_defect_oracle, compat_oracle, derivation_oracle,
                      det_bracket, hereditary_oracle, jacobi_oracle,
                      identity, rand_4dim_3lie, rand_invertible_matrix,
                      rand_symmetric_matrix, rand_vectors)
from nambu import linalg, nlie
from nambu.bianchi import (algebra_from_form, derivation_algebra, psi_label,
                           synthesize, unimodular_label)
from nambu.linalg import mat, zeros
from nambu.nlie import (MAX_WORK, NLieStructure, _defect, _first_defect,
                        frobenius_defect, nlie_from_json, nlie_to_json,
                        vector_product_algebra)


def atomic4():
    """The 4-dimensional 3-Lie algebra with the single relation
    [e₁,e₂,e₃] = e₄ (generating quadratic ½x₄²)."""
    form = mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    return algebra_from_form(form, 3)


def e(dim, i):
    return NLieStructure.basis_vector(dim, i)


class TestBracket:
    def test_repeated_argument_is_zero(self):
        vp = vector_product_algebra(3)
        assert vp.bracket([e(4, 0), e(4, 1), e(4, 0)]) == [0, 0, 0, 0]

    def test_basis_tuple_returns_constants(self, rng):
        p = rand_4dim_3lie(rng)
        assert p.bracket([e(4, 0), e(4, 1), e(4, 2)]) == p.constants.get((0, 1, 2), [0] * 4)

    def test_vector_product_table(self):
        vp = vector_product_algebra(3)
        assert vp.bracket([e(4, 0), e(4, 1), e(4, 2)]) == [0, 0, 0, 1]
        assert vp.bracket([e(4, 0), e(4, 1), e(4, 3)]) == [0, 0, -1, 0]
        assert vp.bracket([e(4, 0), e(4, 2), e(4, 3)]) == [0, 1, 0, 0]
        assert vp.bracket([e(4, 1), e(4, 2), e(4, 3)]) == [-1, 0, 0, 0]

    def test_multilinearity(self, rng):
        p = rand_4dim_3lie(rng)
        u, v, w, z = rand_vectors(rng, 4, 4)
        left = p.bracket([[a + 2 * b for a, b in zip(u, z)], v, w])
        right = [a + 2 * b for a, b in
                 zip(p.bracket([u, v, w]), p.bracket([z, v, w]))]
        assert left == right


class TestJacobiIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_vector_products_pass(self, n):
        ok, witness = vector_product_algebra(n).check_n_jacobi()
        assert ok and witness is None

    def test_zero_structure_passes(self):
        ok, _ = NLieStructure(4, 3).check_n_jacobi()
        assert ok

    def test_perturbed_constants_fail_with_witness(self):
        vp = vector_product_algebra(3)
        constants = dict(vp.constants)
        constants[(0, 1, 3)] = [x + (Fraction(1) if i == 3 else 0)
                                for i, x in enumerate(constants[(0, 1, 3)])]
        broken = NLieStructure(4, 3, constants)
        ok, witness = broken.check_n_jacobi()
        assert not ok
        us = [e(4, i) for i in witness[0]]
        vs = [e(4, i) for i in witness[1]]
        # the witness really violates the identity
        lhs = broken.bracket(us + [broken.bracket(vs)])
        rhs = [Fraction(0)] * 4
        for i in range(3):
            args = list(vs)
            args[i] = broken.bracket(us + [vs[i]])
            rhs = [a + b for a, b in zip(rhs, broken.bracket(args))]
        assert lhs != rhs


class TestHereditary:
    def test_freezing_top_vector_of_vector_product(self):
        vp = vector_product_algebra(3)
        h = vp.hereditary([e(4, 3)])
        ok, _ = h.check_n_jacobi()
        assert ok
        # e₄ becomes a trivial direction; the complement carries the
        # orientation-reversed cross product
        assert all(3 not in idx for idx in h.constants)
        assert h.bracket([e(4, 0), e(4, 1)]) == [0, 0, -1, 0]
        assert h.bracket([e(4, 0), e(4, 2)]) == [0, 1, 0, 0]
        assert h.bracket([e(4, 1), e(4, 2)]) == [-1, 0, 0, 0]

    def test_repeated_vectors_give_zero_structure(self, rng):
        p = rand_4dim_3lie(rng)
        u = rand_vectors(rng, 1, 4)[0]
        assert not p.hereditary([u, u]).constants

    def test_full_freeze_equals_inner_derivation(self, rng):
        p = rand_4dim_3lie(rng)
        us = rand_vectors(rng, 2, 4)
        h = p.hereditary(us)
        assert h.arity == 1
        d = p.inner_derivation(us)
        for j in range(4):
            col = [d[i][j] for i in range(4)]
            assert h.bracket([e(4, j)]) == col

    def test_composition(self, rng):
        p = rand_4dim_3lie(rng)
        u, v = rand_vectors(rng, 2, 4)
        assert p.hereditary([u]).hereditary([v]) == p.hereditary([u, v])


class TestDerivations:
    def test_rotation_generator(self):
        vp = vector_product_algebra(2)
        d = vp.inner_derivation([e(3, 2)])
        assert d == mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])

    def test_repeated_arguments_zero_operator(self):
        vp = vector_product_algebra(3)
        assert vp.inner_derivation([e(4, 1), e(4, 1)]) == zeros(4, 4)

    def test_atomic_inner_derivation(self):
        d = atomic4().inner_derivation([e(4, 1), e(4, 2)])
        expected = zeros(4, 4)
        expected[3][0] = Fraction(1)  # e₁ ↦ e₄
        assert d == expected

    def test_inner_derivations_are_derivations(self, rng):
        for _ in range(5):
            p = rand_4dim_3lie(rng)
            us = rand_vectors(rng, 2, 4)
            assert p.is_derivation(p.inner_derivation(us))

    def test_identity_is_not_a_derivation(self):
        assert not vector_product_algebra(3).is_derivation(identity(4))

    def test_outer_scaling_derivation_of_atomic(self):
        # e₁ ↦ e₁, e₄ ↦ e₄ preserves the single relation [e₁,e₂,e₃]=e₄
        d = zeros(4, 4)
        d[0][0] = d[3][3] = Fraction(1)
        assert atomic4().is_derivation(d)


class TestCommutation:
    """The commutator identity [ad_{v…}, ad_{u…}] = Σᵢ ad_{u₁,…,[v…,uᵢ],…} is
    the Filippov identity at (v…; u…, w) on every w, so on basis tuples it
    holds exactly when ``check_n_jacobi`` is true; ``commutator_oracle``
    checks it as matrices."""

    def test_cross_product_commutator(self):
        vp = vector_product_algebra(2)
        assert vp.check_n_jacobi() == (True, None)
        assert commutator_oracle(vp, [e(3, 0)], [e(3, 1)])

    def test_equal_tuples_commute(self):
        vp = vector_product_algebra(3)
        us = [e(4, 0), e(4, 1)]
        assert vp.check_n_jacobi() == (True, None)
        assert commutator_oracle(vp, us, us)

    def test_random_tuples(self, rng):
        for _ in range(5):
            p = rand_4dim_3lie(rng)
            assert p.check_n_jacobi() == (True, None)
            us, vs = rand_vectors(rng, 2, 4), rand_vectors(rng, 2, 4)
            assert commutator_oracle(p, us, vs)

    def test_matches_matrix_oracle(self, rng):
        """Arbitrary constants, most of them not n-Lie: ``check_n_jacobi`` is
        true exactly when the matrix identity holds on every pair of basis
        (n−1)-tuples."""
        verdicts = []
        for _ in range(60):
            n = rng.randint(2, 4)
            dim = n + rng.randint(1, 2)
            p = NLieStructure(dim, n, {
                idx: [rng.choice([0, 0, 1, -1, 2]) for _ in range(dim)]
                for idx in itertools.combinations(range(dim), n) if rng.random() < 0.4})
            tuples = [[e(dim, i) for i in idx]
                      for idx in itertools.combinations(range(dim), n - 1)]
            verdicts.append(p.check_n_jacobi()[0])
            assert verdicts[-1] == all(commutator_oracle(p, us, vs)
                                       for us in tuples for vs in tuples)
        assert 0 < verdicts.count(False) < len(verdicts)

    def test_mixed_replacement_sums_cancel(self, rng):
        # Σᵢ ad_{u₁,…,[v…,uᵢ],…} + Σᵢ ad_{v₁,…,[u…,vᵢ],…} = 0 as operators
        for _ in range(5):
            p = rand_4dim_3lie(rng)
            us, vs = rand_vectors(rng, 2, 4), rand_vectors(rng, 2, 4)
            total = zeros(4, 4)
            for tup, other in ((us, vs), (vs, us)):
                for i in range(2):
                    args = list(tup)
                    args[i] = p.bracket(list(other) + [tup[i]])
                    contrib = p.inner_derivation(args)
                    total = [[x + y for x, y in zip(r1, r2)]
                             for r1, r2 in zip(total, contrib)]
            assert total == zeros(4, 4)


class TestCompatibility:
    def test_self_compatibility(self, rng):
        p = rand_4dim_3lie(rng)
        ok, _ = p.compat(p)
        assert ok

    def test_hereditary_pair_compatible(self, rng):
        vp = vector_product_algebra(3)
        for _ in range(5):
            u, v = rand_vectors(rng, 2, 4)
            ok, _ = vp.hereditary([u]).compat(vp.hereditary([v]))
            assert ok

    def test_polarization_equivalence(self, rng):
        # compat(P,Q) ⟺ both P+Q and P−Q satisfy the Jacobi identity.
        # Pairs built from symmetric generating forms are always compatible;
        # mixing in skew-form algebras produces genuinely incompatible pairs.
        from nambu.bianchi import psi_label, synthesize
        seen = {True: 0, False: 0}
        for i in range(30):
            p = rand_4dim_3lie(rng)
            if i % 2:
                q = synthesize(psi_label("psi_zero"), 3).change_basis(
                    rand_invertible_matrix(rng, 4))
            else:
                q = rand_4dim_3lie(rng)
            compatible, _ = p.compat(q)
            both = (p + q).check_n_jacobi()[0] and (p - q).check_n_jacobi()[0]
            assert compatible == both
            seen[compatible] += 1
        assert seen[True] and seen[False]

    def test_comp_condition_low_orders(self, rng):
        vp = vector_product_algebra(3)
        for _ in range(3):
            assert vp.comp_condition_k(rand_vectors(rng, 1, 4),
                                       rand_vectors(rng, 1, 4))
            assert vp.comp_condition_k(rand_vectors(rng, 2, 4),
                                       rand_vectors(rng, 2, 4))

    def test_comp_condition_third_order_on_r6(self, rng):
        vp = vector_product_algebra(5)
        assert vp.comp_condition_k(rand_vectors(rng, 3, 6),
                                   rand_vectors(rng, 3, 6))


class TestDirectProduct:
    def test_padding_with_zero(self):
        vp = vector_product_algebra(3)
        padded = vp.direct_product(NLieStructure(2, 3))
        assert padded.dim == 6
        assert padded.bracket([e(6, 0), e(6, 1), e(6, 2)]) == [0, 0, 0, 1, 0, 0]
        ok, _ = padded.check_n_jacobi()
        assert ok

    def test_two_vector_products(self):
        vp = vector_product_algebra(3)
        prod = vp.direct_product(vp)
        assert prod.dim == 8 and prod.arity == 3
        ok, _ = prod.check_n_jacobi()
        assert ok
        assert prod.bracket([e(8, 4), e(8, 5), e(8, 6)]) == [0] * 7 + [1]
        assert prod.bracket([e(8, 0), e(8, 1), e(8, 4)]) == [0] * 8

    def test_hereditary_acts_blockwise(self):
        vp = vector_product_algebra(3)
        prod = vp.direct_product(vp)
        h = prod.hereditary([e(8, 3)])
        assert h.bracket([e(8, 0), e(8, 1)]) == \
            vp.hereditary([e(4, 3)]).bracket([e(4, 0), e(4, 1)]) + [Fraction(0)] * 4
        assert h.bracket([e(8, 4), e(8, 5)]) == [0] * 8


class TestBasisChange:
    def test_jacobi_survives_basis_change(self, rng):
        vp = vector_product_algebra(3)
        for _ in range(5):
            ok, _ = vp.change_basis(rand_invertible_matrix(rng, 4)).check_n_jacobi()
            assert ok

    def test_identity_change_is_identity(self):
        vp = vector_product_algebra(3)
        assert vp.change_basis(identity(4)) == vp


class TestInputBounds:
    def test_dimension_must_be_positive(self):
        for dim in (-1, 0):
            with pytest.raises(ValueError, match="dimension must be at least 1"):
                NLieStructure(dim, 2)

    def test_tuple_pair_limit(self):
        """Checks whose work estimate, (u, w) pairs × arity × (arity + nonzero
        constants), exceeds MAX_WORK refuse before any work; the largest
        estimate in these tests is the third-order compatibility condition
        on R⁶: C(6,1)·C(6,2) = 90 pairs of arity 2 over 378 constants."""
        big = NLieStructure(30, 15)
        for check in (big.check_n_jacobi, lambda: big.compat(big),
                      lambda: big.comp_condition_k([e(30, 0)], [e(30, 1)])):
            with pytest.raises(ValueError, match="above the limit"):
                check()
        assert comb(6, 1) * comb(6, 2) * 2 * (2 + 378) < MAX_WORK

    def test_work_limit_counts_constants(self):
        """A 30-ary structure on 31 dimensions from a form whose skew part has
        rank 4, behind a shear, fails α∧dα = 0; the witness search needs only
        14,415 tuple pairs, but its 31 constants hold 93 nonzero entries:
        refused.  The hidden 30-ary vector product is decided by the criterion
        and needs no search."""
        c = [[1 if i == j else 0 for j in range(31)] for i in range(31)]
        c[0] = [1] * 31
        form = identity(31)
        for i, j in ((0, 1), (2, 3)):
            form[i][j], form[j][i] = Fraction(-1, 2), Fraction(1, 2)
        broken = algebra_from_form(form, 30).change_basis(c)
        assert frobenius_defect(broken) is not None
        assert sum(len(v) for v in broken._sparse.values()) == 93
        assert comb(31, 29) * comb(31, 30) == 14415
        with pytest.raises(ValueError, match="14415 .*above the limit"):
            broken.check_n_jacobi()
        assert vector_product_algebra(30).change_basis(c).check_n_jacobi() == (True, None)

    def test_derivation_check_limit(self, monkeypatch):
        """Library only: checking a derivation of a 15-ary structure on 30
        dimensions visits C(30,15) basis tuples, refused before the first."""
        monkeypatch.setattr(nlie, "_defect", lambda *a: pytest.fail("_defect called"))
        with pytest.raises(ValueError, match=rf"C\(30, 15\) = {comb(30, 15)} tuples"
                                             rf".*above the limit {MAX_WORK}"):
            NLieStructure(30, 15).is_derivation(zeros(30, 30))

    def test_hereditary_bracket_limit(self):
        """Freezing one vector of a 15-ary structure on 30 dimensions needs
        C(30,14) brackets: refused before the first; C(8,2) = 28 is fine."""
        big = NLieStructure(30, 15)
        with pytest.raises(ValueError, match=rf"brackets .*C\(30, 14\) = {comb(30, 14)} tuples"
                                             rf".*above the limit"):
            big.hereditary([e(30, 0)])
        assert not NLieStructure(8, 3).hereditary([e(8, 0)]).constants


class TestSerialization:
    def test_round_trip(self, rng):
        p = rand_4dim_3lie(rng)
        assert nlie_from_json(nlie_to_json(p)) == p

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 5), data=st.data())
    def test_json_round_trip_keeps_fractions(self, dim, data):
        """The structure comes back with every constant a ``Fraction``, as
        ``classify`` halves sums of them."""
        arity = data.draw(st.integers(1, dim))
        values = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30),
                           st.fractions(-3, 3, max_denominator=6))
        consts = {idx: data.draw(st.lists(values, min_size=dim, max_size=dim))
                  for idx in data.draw(st.lists(st.sampled_from(
                      list(itertools.combinations(range(dim), arity))), max_size=4, unique=True))}
        p = NLieStructure(dim, arity, consts)
        q = nlie_from_json(json.loads(json.dumps(nlie_to_json(p))))
        assert q == p and q._sparse == p._sparse
        assert all(type(x) is Fraction for vec in q.constants.values() for x in vec)

    def test_wire_indices_one_based(self):
        data = nlie_to_json(atomic4())
        assert data["constants"][0]["indices"] == [1, 2, 3]


# -- agreement with the determinant-bracket oracles ---------------------------

def rand_label(rng, n):
    kind = rng.choice(["unimodular", "psi_plus", "psi_minus", "psi_one", "psi_zero"])
    if kind == "unimodular":
        r = rng.randint(1, n + 1)
        return unimodular_label(r, rng.randint((r + 1) // 2, r))
    if kind in ("psi_plus", "psi_minus"):
        return psi_label(kind, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    return psi_label(kind)


def hidden(rng, n):
    """A valid (n+1)-dimensional n-Lie algebra behind a random basis."""
    return synthesize(rand_label(rng, n), n).change_basis(rand_invertible_matrix(rng, n + 1))


def skew_rank_four(rng, n):
    """From a form whose skew part has rank 4: never an n-Lie algebra."""
    a = rand_symmetric_matrix(rng, n + 1)
    for i, j in ((0, 1), (2, 3)):
        a[i][j] -= Fraction(1, 2)
        a[j][i] += Fraction(1, 2)
    return algebra_from_form(a, n).change_basis(rand_invertible_matrix(rng, n + 1))


def perturbed(rng, n):
    """A hidden algebra with one constant moved by a random vector."""
    p = hidden(rng, n)
    consts = dict(p.constants)
    key = rng.choice(sorted(consts) or [tuple(range(n))])
    consts[key] = [x + y for x, y in zip(consts.get(key, [0] * (n + 1)),
                                         rand_vectors(rng, 1, n + 1)[0])]
    return NLieStructure(n + 1, n, consts)


def random_structure(rng, dim, arity, density=0.6):
    consts = {idx: rand_vectors(rng, 1, dim)[0]
              for idx in itertools.combinations(range(dim), arity)
              if rng.random() < density}
    return NLieStructure(dim, arity, consts)


FAMILIES = {
    "hidden-3": lambda rng: hidden(rng, 3),
    "hidden-4": lambda rng: hidden(rng, 4),
    "hidden-5": lambda rng: hidden(rng, 5),
    "skew-rank-4-3": lambda rng: skew_rank_four(rng, 3),
    "skew-rank-4-4": lambda rng: skew_rank_four(rng, 4),
    "perturbed-3": lambda rng: perturbed(rng, 3),
    "perturbed-4": lambda rng: perturbed(rng, 4),
    # dim > n + 1: block-diagonal, with and without a valid second factor
    "product-2": lambda rng: hidden(rng, 2).direct_product(hidden(rng, 2)),
    "product-3": lambda rng: hidden(rng, 3).direct_product(random_structure(rng, 3, 3)),
    "product-pad": lambda rng: perturbed(rng, 3).direct_product(NLieStructure(2, 3)),
    # the first failing tuple avoids the zero block, so it is not the first tuple
    "pad-product": lambda rng: NLieStructure(2, 3).direct_product(perturbed(rng, 3)),
    "arity-1": lambda rng: random_structure(rng, 4, 1),
    "arity-2": lambda rng: random_structure(rng, 3, 2),
    "arity-2-lie": lambda rng: hidden(rng, 2),
}


def sample(family, seed):
    rng = random.Random(f"{family}-{seed}")
    return rng, FAMILIES[family](rng)


def sparse_vector(rng, dim, nonzero):
    v = [Fraction(0)] * dim
    for i in rng.sample(range(dim), nonzero):
        v[i] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
    return v


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestOracleAgreement:
    def test_bracket(self, family):
        for seed in range(3):
            rng, p = sample(family, seed)
            n, dim = p.arity, p.dim
            cases = [rand_vectors(rng, n, dim),
                     [sparse_vector(rng, dim, rng.randint(1, 2)) for _ in range(n)],
                     [e(dim, i) for i in rng.sample(range(dim), n)],
                     [e(dim, rng.randrange(dim)) for _ in range(n)]]
            if n >= 2:
                repeated = rand_vectors(rng, n, dim)
                repeated[-1] = list(repeated[0])
                dependent = rand_vectors(rng, n, dim)
                dependent[-1] = [a - 2 * b for a, b in zip(dependent[0], dependent[-2])]
                zero = rand_vectors(rng, n, dim)
                zero[rng.randrange(n)] = [0] * dim
                cases += [repeated, dependent, zero]
            for vs in cases:
                assert p.bracket(vs) == det_bracket(p, vs), vs

    def test_check_n_jacobi(self, family):
        for seed in range(3):
            _, p = sample(family, seed)
            assert p.check_n_jacobi() == jacobi_oracle(p)

    def test_compat(self, family):
        for seed in range(2):
            rng, p = sample(family, seed)
            for q in (p, FAMILIES[family](rng)):
                assert p.compat(q) == compat_oracle(p, q)
            us, ws = rand_vectors(rng, p.arity - 1, p.dim), rand_vectors(rng, p.arity, p.dim)
            assert p.compat_defect(q, us, ws) == compat_defect_oracle(p, q, us, ws)

    def test_is_derivation(self, family):
        rng, p = sample(family, 0)
        us = rand_vectors(rng, p.arity - 1, p.dim)
        inner = p.inner_derivation(us)
        assert inner == ad_oracle(p, us)
        mats = [inner, rand_vectors(rng, p.dim, p.dim), zeros(p.dim, p.dim)]
        if p.dim == p.arity + 1:
            mats += derivation_algebra(p)
        for d in mats:
            assert p.is_derivation(d) == derivation_oracle(p, d)

    def test_hereditary_and_compatibility_conditions(self, family):
        rng, p = sample(family, 0)
        for k in range(1, p.arity):
            us = rand_vectors(rng, k, p.dim)
            assert p.hereditary(us) == hereditary_oracle(p, us)
        if p.arity >= 2 and p.dim <= 5:
            vs, ws = rand_vectors(rng, 1, p.dim), rand_vectors(rng, 1, p.dim)
            assert p.comp_condition_k(vs, ws) == comp_condition_oracle(p, vs, ws)


def test_families_cover_both_verdicts():
    """The oracle families include true and false Jacobi and compat verdicts."""
    jacobi = {sample(f, s)[1].check_n_jacobi()[0] for f in FAMILIES for s in range(3)}
    compat = set()
    for f in FAMILIES:
        rng, p = sample(f, 0)
        compat.add(p.compat(FAMILIES[f](rng))[0])
    assert jacobi == {True, False} and compat == {True, False}


def test_no_determinant_on_the_checker_paths(monkeypatch):
    def refuse(_):
        raise AssertionError("linalg.det called")
    monkeypatch.setattr(linalg, "det", refuse)
    vp = vector_product_algebra(5)
    us = [e(6, 0), e(6, 2), e(6, 3), e(6, 5)]
    assert vp.check_n_jacobi() == (True, None)
    assert vp.compat(vp) == (True, None)
    assert vp.is_derivation(vp.inner_derivation(us))


# -- the closed form α∧dα = 0 against the tuple search -------------------------

def random_form(rng, n):
    """From a random integer form: mostly not n-Lie."""
    return algebra_from_form(rand_vectors(rng, n + 1, n + 1), n)


def plane_pair(rng, n):
    """Two forms with skew parts on the plane of e₁, e₂ and symmetric parts
    on it, one sometimes reaching e₃, behind one basis change."""
    c = rand_invertible_matrix(rng, n + 1)
    pair = []
    for leak in (False, rng.random() < 0.4):
        a = zeros(n + 1, n + 1)
        mu = Fraction(rng.choice([-2, -1, 1, 2]), 2)
        a[0][1], a[1][0] = -mu, mu
        for i, j in ((0, 0), (0, 1), (1, 1)) + (((1, 2),) if leak else ()):
            x = Fraction(rng.randint(-2, 2))
            a[i][j] += x
            a[j][i] += x if i != j else 0
        pair.append(algebra_from_form(a, n).change_basis(c))
    return tuple(pair)


def symmetric_pair(rng, n):
    """Two unimodular algebras behind one basis change: compatible."""
    c = rand_invertible_matrix(rng, n + 1)
    return tuple(algebra_from_form(rand_symmetric_matrix(rng, n + 1), n).change_basis(c)
                 for _ in range(2))


SINGLES = {
    "hidden": hidden,
    "perturbed": perturbed,
    "random": random_form,
    "skew-rank-4": lambda rng, n: skew_rank_four(rng, max(n, 3)),
}

PAIRS = {
    "shared-plane": plane_pair,
    "symmetric": symmetric_pair,
    "hidden": lambda rng, n: (hidden(rng, n), hidden(rng, n)),
    "perturbed": lambda rng, n: (hidden(rng, n), perturbed(rng, n)),
    "random": lambda rng, n: (random_form(rng, n), random_form(rng, n)),
}


def defect_vector(p):
    """Every component of the Jacobi defect on every (u, w) tuple pair, from
    the kernel the tuple search uses."""
    basis = [[(i, 1)] for i in range(p.dim)]
    out = []
    for us in itertools.combinations(range(p.dim), p.arity - 1):
        terms = [(list(p._frozen([basis[i] for i in us]).values()), p)]
        for ws in itertools.combinations(range(p.dim), p.arity):
            d = _defect(terms, [basis[i] for i in ws])
            out += [d.get(r, 0) for r in range(p.dim)]
    return out


def searched(pairs, p):
    return _first_defect(pairs, p.dim, p.arity) is None


class TestFrobeniusCriterion:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 6), family=st.sampled_from(sorted(SINGLES)),
           seed=st.integers(0, 2**32))
    def test_jacobi_matches_search(self, n, family, seed):
        p = SINGLES[family](random.Random(seed), n)
        assert (frobenius_defect(p) is None) == searched([(p, p)], p)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 6), family=st.sampled_from(sorted(PAIRS)),
           seed=st.integers(0, 2**32))
    def test_polarisation_matches_compat_search(self, n, family, seed):
        p, q = PAIRS[family](random.Random(seed), n)
        assert (frobenius_defect(p, q) is None) == searched([(p, q), (q, p)], p)

    def test_families_cover_both_verdicts(self):
        jacobi, compat = set(), set()
        for n in range(2, 7):
            for seed in range(4):
                rng = random.Random(seed)
                jacobi |= {frobenius_defect(f(rng, n)) is None for f in SINGLES.values()}
                compat |= {frobenius_defect(*f(rng, n)) is None for f in PAIRS.values()}
        assert jacobi == compat == {True, False}

    @pytest.mark.parametrize("n, rank", [(2, 3), (3, 16)])
    def test_defects_and_criterion_determine_each_other(self, n, rank):
        """Polarisation is exact only because the tuple-search defects J(a)
        and the criterion F(a), quadratic in the form a, are linear images
        of each other.  Over samples whose quadratic monomials a_p·a_q span
        all quadratic forms (full Veronese rank), rank F = rank J =
        rank [F | J] says exactly that: then J(a, b) = 0 ⟺ F(a, b) = 0 for
        the polarisations too, the compat defects and c(a, K_b) + c(b, K_a)."""
        rng = random.Random(n)
        dim = n + 1
        pairs = list(itertools.combinations_with_replacement(range(dim * dim), 2))
        veronese, f_rows, j_rows = [], [], []
        for _ in range(len(pairs) + 8):
            a = rand_vectors(rng, dim, dim, -3, 3)
            flat = [x for row in a for x in row]
            veronese.append([flat[s] * flat[t] for s, t in pairs])
            k = [[a[i][j] - a[j][i] for j in range(dim)] for i in range(dim)]
            f_rows.append([a[i][l] * k[j][m] - a[j][l] * k[i][m] + a[m][l] * k[i][j]
                           for i, j, m in itertools.combinations(range(dim), 3)
                           for l in range(dim)])
            j_rows.append(defect_vector(algebra_from_form(a, n)))
        assert linalg.rank(veronese) == len(pairs)
        ranks = (linalg.rank(f_rows), linalg.rank(j_rows),
                 linalg.rank([f + j for f, j in zip(f_rows, j_rows)]))
        assert ranks == (rank, rank, rank)
