"""Classification of (n+1)-dimensional n-Lie algebras through generating
bilinear forms, derivation algebras, canonical-form synthesis, and the
quadric-generated bracket embedding."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classify_oracle, congruent_diagonalize, generating_form_oracle,
                      in_span, jacobi_oracle, labels, mat_sub,
                      rand_invertible_matrix, rand_symmetric_matrix, rand_unimodular_matrix)
from nambu.bianchi import (algebra_from_form, classify, derivation_algebra,
                           generating_form, is_unimodular,
                           parse_psi_label, psi_label, synthesize,
                           unimodular_label, witt_embedding_check)
from nambu.linalg import inverse, mat_mul, transpose, zeros
from nambu.nlie import NLieStructure, frobenius_defect, vector_product_algebra
from nambu.poly import Poly


def atomic4():
    form = zeros(4, 4)
    form[3][3] = Fraction(1)
    return algebra_from_form(form, 3)


class TestGeneratingForm:
    def test_atomic_algebra(self):
        form = generating_form(atomic4())
        expected = zeros(4, 4)
        expected[3][3] = Fraction(1)
        assert form == expected

    def test_zero_algebra(self):
        assert generating_form(NLieStructure(4, 3)) == zeros(4, 4)

    def test_vector_products_give_identity_up_to_sign(self):
        for n, sign in [(2, -1), (3, 1)]:
            form = generating_form(vector_product_algebra(n))
            assert form == [[Fraction(sign) if i == j else Fraction(0)
                             for j in range(n + 1)] for i in range(n + 1)]

    def test_round_trip_with_algebra_builder(self, rng):
        a = rand_symmetric_matrix(rng, 4)
        assert generating_form(algebra_from_form(a, 3)) == a


class TestUnimodularity:
    def test_atomic_is_unimodular(self):
        assert is_unimodular(atomic4())

    def test_skew_form_is_not(self):
        assert not is_unimodular(synthesize(psi_label("psi_zero"), 3))

    def test_zero_algebra_is(self):
        assert is_unimodular(NLieStructure(4, 3))


class TestClassify:
    def test_atomic_label(self):
        label = classify(atomic4())
        assert label.kind == "unimodular" and (label.r, label.m) == (1, 1)

    def test_vector_product_label(self):
        for n in (2, 3):
            label = classify(vector_product_algebra(n))
            assert (label.r, label.m) == (n + 1, n + 1)

    def test_psi_plus_two(self):
        label = classify(synthesize(psi_label("psi_plus", Fraction(2)), 3))
        assert label.kind == "psi_plus" and label.lam == 2

    def test_round_trip_all_kinds(self):
        labels = [unimodular_label(0, 0), unimodular_label(1, 1),
                  unimodular_label(3, 2), unimodular_label(4, 4)]
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
            labels += [psi_label("psi_plus", lam), psi_label("psi_minus", lam)]
        labels += [psi_label("psi_one"), psi_label("psi_zero")]
        for label in labels:
            assert classify(synthesize(label, 3)) == label

    def test_basis_change_invariance(self, rng):
        samples = [atomic4(), vector_product_algebra(3),
                   synthesize(psi_label("psi_minus", Fraction(7, 3)), 3)]
        for p in samples:
            base = classify(p)
            for _ in range(5):
                if base.kind == "unimodular":
                    c = rand_invertible_matrix(rng, 4)
                else:
                    c = rand_unimodular_matrix(rng, 4)
                assert classify(p.change_basis(c)) == base

    def test_invalid_algebra_rejected(self):
        vp = vector_product_algebra(3)
        constants = dict(vp.constants)
        constants[(0, 1, 3)] = [x + (Fraction(1) if i == 3 else 0)
                                for i, x in enumerate(constants[(0, 1, 3)])]
        with pytest.raises(ValueError):
            classify(NLieStructure(4, 3, constants))

    @pytest.mark.parametrize("entries", [
        {(0, 1): Fraction(-1, 2), (1, 0): Fraction(1, 2),
         (2, 3): Fraction(1), (3, 2): Fraction(-1)},   # skew part of rank 4
        {(0, 1): Fraction(-1, 2), (1, 0): Fraction(1, 2),
         (2, 2): Fraction(1)},                         # S nonzero on ker K
        {(0, 1): Fraction(-1, 2), (1, 0): Fraction(1, 2),
         (0, 2): Fraction(1), (2, 0): Fraction(1)},    # S pairs ker K with P
    ], ids=["rank-4-skew", "symmetric-on-kernel", "mixed-support"])
    def test_inconsistent_form_rejected(self, entries):
        # such forms are never n-Lie: they fail the criterion α∧dα = 0 and the
        # tuple search alike, and classify refuses them with the coefficient
        form = zeros(4, 4)
        for (i, j), x in entries.items():
            form[i][j] = x
        p = algebra_from_form(form, 3)
        assert frobenius_defect(p) is not None
        assert not jacobi_oracle(p)[0]
        with pytest.raises(ValueError, match=r"not an n-Lie algebra: α∧dα ≠ 0.*\(i, j, k, l\)"):
            classify(p)
        with pytest.raises(ValueError, match="not an n-Lie algebra"):
            classify_oracle(p)


class TestOracles:
    """The closed-form path against the dual n-vector and the standardised
    basis, on every label kind hidden behind an integer basis change."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), arity=st.integers(2, 4), seed=st.integers(0, 2**32))
    def test_labels_and_forms_match(self, data, arity, seed):
        label = data.draw(labels(arity + 1))
        c = rand_invertible_matrix(random.Random(seed), arity + 1)
        p = synthesize(label, arity).change_basis(c)
        assert generating_form(p) == generating_form_oracle(p)
        assert classify(p) == classify_oracle(p) == label


class TestSynthesize:
    def test_unimodular_one_one_matches_atomic(self):
        assert classify(synthesize(unimodular_label(1, 1), 3)) == classify(atomic4())

    def test_zero_label_gives_zero_algebra(self):
        assert not synthesize(unimodular_label(0, 0), 3).constants

    def test_psi_zero_constants(self):
        p = synthesize(psi_label("psi_zero"), 3)
        assert not is_unimodular(p)
        ok, _ = p.check_n_jacobi()
        assert ok

    def test_label_validation(self):
        with pytest.raises(ValueError):
            unimodular_label(3, 1)  # m below ceil(r/2)
        with pytest.raises(ValueError):
            unimodular_label(2, 3)  # m above r
        with pytest.raises(ValueError):
            psi_label("psi_plus", Fraction(-1))
        with pytest.raises(ValueError):
            psi_label("psi_plus")  # λ required
        with pytest.raises(ValueError):
            psi_label("psi_one", Fraction(5))  # λ refused


class TestIsomorphism:
    def test_basis_change_preserves_class(self, rng):
        p = atomic4()
        q = p.change_basis(rand_invertible_matrix(rng, 4))
        assert classify(p) == classify(q)

    def test_distinct_unimodular_labels(self):
        assert classify(synthesize(unimodular_label(1, 1), 3)) != \
            classify(synthesize(unimodular_label(2, 2), 3))

    def test_lambda_is_an_invariant(self):
        a = synthesize(psi_label("psi_plus", Fraction(1)), 3)
        b = synthesize(psi_label("psi_plus", Fraction(3)), 3)
        assert classify(a) != classify(b)


class TestDerivations:
    def test_atomic_derivation_algebra(self):
        p = atomic4()
        basis = derivation_algebra(p)
        assert len(basis) == 12
        flat = [[x for row in d for x in row] for d in basis]
        e = NLieStructure.basis_vector

        def contains(matrix):
            assert p.is_derivation(matrix)
            return in_span(flat, [x for row in matrix for x in row])

        # the three inner generators
        for us in ([e(4, 1), e(4, 2)], [e(4, 0), e(4, 2)], [e(4, 0), e(4, 1)]):
            assert contains(p.inner_derivation(us))
        # outer: joint scaling of the transverse pair e₁, e₄
        scaling = zeros(4, 4)
        scaling[0][0] = scaling[3][3] = Fraction(1)
        assert contains(scaling)
        # outer: traceless rescaling tangent to the leaf directions
        leaf = zeros(4, 4)
        leaf[1][1], leaf[2][2] = Fraction(1), Fraction(-1)
        assert contains(leaf)
        # outer: off-diagonal leaf-tangent map e₂ ↦ e₃
        shear = zeros(4, 4)
        shear[2][1] = Fraction(1)
        assert contains(shear)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vector_product_dimension(self, n):
        basis = derivation_algebra(vector_product_algebra(n))
        assert len(basis) == n * (n + 1) // 2
        for d in basis:  # conformal symmetries of ±identity are skew
            for i in range(n + 1):
                for j in range(n + 1):
                    assert d[i][j] + d[j][i] == 0

    def test_zero_algebra_has_full_matrix_algebra(self):
        assert len(derivation_algebra(NLieStructure(4, 3))) == 16

    def test_closed_under_commutator(self, rng):
        basis = derivation_algebra(atomic4())
        flat = [[x for row in d for x in row] for d in basis]
        for _ in range(10):
            a, b = rng.choice(basis), rng.choice(basis)
            comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
            assert in_span(flat, [x for row in comm for x in row])


class TestCompatibilityFamilies:
    def test_unimodular_structures_mutually_compatible(self, rng):
        for _ in range(5):
            p = algebra_from_form(rand_symmetric_matrix(rng, 4), 3)
            q = algebra_from_form(rand_symmetric_matrix(rng, 4), 3)
            ok, _ = p.compat(q)
            assert ok

    def test_canonical_decomposition_pieces_compatible(self):
        # split a generating form into rank-1 symmetric pieces plus the skew
        # piece; the resulting structures sum to the original and are
        # pairwise compatible
        p = synthesize(psi_label("psi_plus", Fraction(2)), 3)
        a = generating_form(p)
        sym = [[(a[i][j] + a[j][i]) / 2 for j in range(4)] for i in range(4)]
        skew = [[(a[i][j] - a[j][i]) / 2 for j in range(4)] for i in range(4)]
        d, c = congruent_diagonalize(sym)
        b = transpose(inverse(c))
        pieces = [[[d[i][i] * b[r][i] * b[s][i] for s in range(4)]
                   for r in range(4)] for i in range(4) if d[i][i]]
        pieces.append(skew)
        algebras = [algebra_from_form(piece, 3) for piece in pieces]
        total = algebras[0]
        for al in algebras[1:]:
            total = total + al
        assert total == p
        for x, y in itertools.combinations(algebras, 2):
            ok, _ = x.compat(y)
            assert ok


class TestWittEmbedding:
    def test_bracket_table(self):
        ok, brackets = witt_embedding_check()
        assert ok
        x1, x2, x3 = Poly.variables(3)
        assert brackets["{x1,x2}"] == x1
        assert brackets["{x1,x3}"] == 2 * x2
        assert brackets["{x2,x3}"] == x3


class TestLabelSerialization:
    def test_float_lambda_rejected(self):
        for kind in ("psi_plus", "psi_minus"):
            with pytest.raises(ValueError):
                psi_label(kind, 2.0)
            with pytest.raises(ValueError):
                parse_psi_label(kind, 1.4142135623730951)

    def test_rational_lambda_text(self):
        label = psi_label("psi_minus", Fraction(7, 3))
        assert str(label) == "PsiLambdaMinus{λ=7/3}"
        assert label.to_json() == {"kind": "psi_minus", "lambda": "7/3"}
        assert parse_psi_label("psi_minus", "sqrt(49/9)") == label

    def test_irrational_lambda_text(self):
        label = classify(psi_algebra(Fraction(2)))
        assert str(label) == "PsiLambdaPlus{λ=sqrt(2)}"
        assert label.to_json() == {"kind": "psi_plus", "lambda": "sqrt(2)"}
        with pytest.raises(ValueError, match="irrational"):
            label.lam

    @pytest.mark.parametrize("text", ["sqrt(0)", "sqrt(-2)", "0", "-1/2", "sqrt(x)"])
    def test_invalid_lambda_text(self, text):
        with pytest.raises(ValueError):
            parse_psi_label("psi_plus", text)


# -- exact λ: the invariant is the rational λ², never a rounded root ----------

def psi_algebra(lam_sq, sign=1, arity=3):
    """The algebra of the standard skew block plus diag(λ², ±1): the label
    Ψ±_λ with λ² given exactly, rational or not."""
    form = zeros(arity + 1, arity + 1)
    form[0][1], form[1][0] = Fraction(-1, 2), Fraction(1, 2)
    form[0][0], form[1][1] = Fraction(lam_sq), Fraction(sign)
    return algebra_from_form(form, arity)


class TestExactLambda:
    def test_nearby_invariants_are_not_isomorphic(self):
        a = psi_algebra(Fraction(2))
        b = psi_algebra(Fraction(2) + Fraction(1, 10**15))
        assert classify(a) != classify(b)

    @pytest.mark.parametrize("lam_sq", [Fraction(2), Fraction(3, 5), Fraction(8)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trips_keep_lambda_squared(self, lam_sq, sign):
        label = classify(psi_algebra(lam_sq, sign))
        assert label.kind == ("psi_plus" if sign == 1 else "psi_minus")
        assert label.lam_sq == lam_sq
        assert classify(synthesize(label, 3)) == label
        assert parse_psi_label(label.kind, label.to_json()["lambda"]) == label
        q = synthesize(label, 3).change_basis(rand_unimodular_matrix(random.Random(7), 4))
        assert classify(q) == classify(psi_algebra(lam_sq, sign))


@settings(max_examples=40, deadline=None)
@given(q=st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
       sign=st.sampled_from([1, -1]),
       a=st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
       b=st.fractions(min_value=-5, max_value=5, max_denominator=7),
       seed=st.integers(0, 2**16))
def test_determinant_is_lambda_squared(q, sign, a, b, seed):
    """A symmetric block [[a, b], [b, c]] with ac − b² = ±q, behind a
    determinant-1 basis change, classifies to λ² = q exactly."""
    c = (sign * q + b * b) / a
    form = zeros(4, 4)
    form[0][0], form[0][1] = a, b - Fraction(1, 2)
    form[1][0], form[1][1] = b + Fraction(1, 2), c
    p = algebra_from_form(form, 3).change_basis(rand_unimodular_matrix(random.Random(seed), 4))
    label = classify(p)
    assert label.kind == ("psi_plus" if sign == 1 else "psi_minus")
    assert label.lam_sq == q
