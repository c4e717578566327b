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

from conftest import (binary_jacobi_oracle, complete_jacobi_walk, expand_slot,
                      fi_search_oracle, fraction_jacobi_walk, jacobi_defects_oracle,
                      rand_decomposable_tensor, rand_field_wedge, rand_fraction,
                      rand_jacobi_pair, rand_multivector, rand_poly, raw_jacobi_oracle,
                      slot_coefficients)
from nambu import njacobi
from nambu.multivector import MultiVector, OneForm, is_decomposable
from nambu.njacobi import (JacobiOp, canonical_bracket,
                           from_poisson_and_form, is_n_jacobi,
                           jacobi_defects, jacobiop_from_json, jacobiop_to_json, s_op)
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
            twice = s_op(s_op(op))
            assert twice.nabla.is_zero() and twice.box.is_zero()

    def test_homotopy_identity(self, rng):
        # inserting unity is a homotopy for s: (i₁∘s + s∘i₁) = identity,
        # expressed on the pair representation
        for _ in range(20):
            arity = rng.choice([2, 3])
            op = rand_jacobi_pair(rng, 4, arity)
            rebuilt = JacobiOp(s_op(op).box, op.box, arity=arity)
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
        coefficients, constants among them, or the walk's own slots
        {1, x₁,…,x_m}, a coordinate repeated among them."""
        rng = random.Random(seed)
        n = data.draw(st.integers(2, m))
        density = data.draw(st.sampled_from([0.3, 0.7]))
        op = JacobiOp(rand_multivector(rng, m, n, max_degree=2, density=density),
                      rand_multivector(rng, m, n - 1, max_degree=2, density=density))
        if data.draw(st.booleans()):
            slots = [Poly.const(m, 1)] + Poly.variables(m)
            fs = [slots[i] for i in data.draw(st.lists(st.integers(0, m), min_size=n - 1,
                                                       max_size=n - 1))]
            if n > 2 and data.draw(st.booleans()):
                fs[-1] = fs[0] = Poly.var(m, data.draw(st.integers(0, m - 1)))
        else:
            fs = [Poly.const(m, rand_fraction(rng)) if rng.random() < 0.25
                  else rand_poly(rng, m) for _ in range(n - 1)]
        assert jacobi_defects(op, fs) == jacobi_defects_oracle(op, fs)

    @pytest.mark.parametrize("c", [0, 1, -1, Fraction(5, 3)])
    def test_constant_slot_matches_the_oracle(self, rng, c):
        """One constant c among coordinates, the (1, x_K) tuples of the walks:
        Y = (−1)^t·c·□_K with h = 0, at every position t of the constant and
        on coordinates in any order, repeated ones included.  A second
        constant makes both defects zero."""
        nonzero = 0
        for m, n in ((3, 2), (4, 3), (4, 4), (5, 4)):
            op = JacobiOp(rand_multivector(rng, m, n, max_degree=2, density=0.7),
                          rand_multivector(rng, m, n - 1, max_degree=2, density=0.7))
            for coords in itertools.product(range(m), repeat=n - 2):
                for t in range(n - 1):
                    fs = [Poly.var(m, a) for a in coords]
                    fs.insert(t, Poly.const(m, c))
                    got = jacobi_defects(op, fs)
                    assert got == jacobi_defects_oracle(op, fs)
                    nonzero += t % 2 == 1 and not got[0].is_zero()
                    if n > 2:
                        fs[t - 1] = Poly.const(m, 1 - c)
                        got = jacobi_defects(op, fs)
                        assert got == jacobi_defects_oracle(op, fs)
                        assert got[0].is_zero() and got[1].is_zero()
        # the sign (−1)^t and the factor c are seen at odd positions
        assert (nonzero > 0) == (c != 0)

    def test_capped_pair_is_refused(self):
        """s of a top-degree pair has arity m + 1: refused up front, as by
        ``is_n_jacobi``, not deep inside a Hamiltonian field."""
        op = s_op(canonical_pair(m=3, n=3))
        assert op.arity == 4 and op.nabla.degree == 3
        for decide in (lambda: jacobi_defects(op, Poly.variables(3)),
                       lambda: is_n_jacobi(op)):
            with pytest.raises(ValueError, match="arity exceeds the chart dimension"):
                decide()


class TestIsNJacobi:
    def test_canonical_pair(self):
        ok, witness = is_n_jacobi(canonical_pair())
        assert ok and witness is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), m=st.integers(2, 4))
    def test_raw_oracle_slot_expansion_matches_apply(self, seed, m):
        # the premise of raw_jacobi_oracle: Δ is first order in each slot, so
        # Δ(…, P, …) = P·Δ(…, 1, …) + Σ_k ∂_kP·(Δ(…, x_k, …) − x_k·Δ(…, 1, …))
        rng = random.Random(seed)
        arity = rng.randint(2, m)
        op = rand_jacobi_pair(rng, m, arity)
        args = [rand_poly(rng, m) for _ in range(arity)]
        i = rng.randrange(arity)
        p = rand_poly(rng, m, max_degree=4, n_terms=5)
        slots = [Poly.const(m, 1)] + Poly.variables(m)
        coefficients = slot_coefficients(
            lambda k: op.apply(args[:i] + [slots[k]] + args[i + 1:]), slots[1:])
        got = expand_slot(coefficients, p, [p.partial(k) for k in range(m)])
        assert got == op.apply(args[:i] + [p] + args[i + 1:])

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


class TestBinaryOracle:
    def test_matches_two_schouten_brackets(self, rng):
        """At n = 2 ``is_n_jacobi`` agrees with ``binary_jacobi_oracle``, which
        walks no slots: on conformal pairs (a·Λ₀, ±Λ₀⌋da), Λ₀ = ∂₁∧∂₂ + ∂₃∧∂₄
        (∂₁∧∂₂ on two variables), Jacobi with the + sign, and on random pairs.
        On two variables ⌈Λ,Λ⌉ and E∧Λ are zero at the top degree."""
        ops = []
        for m in (2, 4, 5):
            lam0 = MultiVector.basis(m, (0, 1))
            if m > 2:
                lam0 = lam0 + MultiVector.basis(m, (2, 3))
            for _ in range(15):
                a = rand_poly(rng, m)
                for sign in (1, -1):
                    ops.append(JacobiOp(lam0 * a, lam0.contract(a) * sign))
        for _ in range(30):
            m = rng.randint(2, 5)
            ops.append(JacobiOp(rand_multivector(rng, m, 2), rand_multivector(rng, m, 1)))
        verdicts = [(is_n_jacobi(op)[0], binary_jacobi_oracle(op)) for op in ops]
        assert all(got == want for got, want in verdicts)
        assert 0 < sum(got for got, _ in verdicts) < len(verdicts)


def structure_case(rng, kind):
    """A pair of one of three kinds: "blades", a non-decomposable top
    f·∂₁∧∂₂∧∂₃ + g·∂_I in 5 or 6 variables (I = {1, 4, 5} or {4, 5, 6});
    "inside", a decomposable top (a constant blade times a polynomial, or a
    wedge of affine fields) with □ = ω⌋∇, ω a gradient or an affine 1-form;
    "outside", the same with a constant coordinate (n−1)-blade, mostly off the
    distribution, added to □, or a zero top with an arbitrary □."""
    if kind == "blades":
        m = rng.choice([5, 6])
        f, g = (Poly.var(m, rng.randrange(m)) * rand_fraction(rng) + rng.randint(1, 3)
                for _ in range(2))
        nabla = MultiVector.basis(m, (0, 1, 2), f) + MultiVector.basis(
            m, rng.choice([(0, 3, 4), (3, 4, 5)][:m - 4]), g)
        box = rng.choice([MultiVector.zero(m, 2), nabla.contract(rand_poly(rng, m)),
                          rand_multivector(rng, m, 2, density=0.3)])
        return JacobiOp(nabla, box)
    m = rng.randint(3, 5)
    n = rng.randint(2, 3 if m < 5 else 2)
    if kind == "outside" and rng.random() < 0.25:
        return JacobiOp(MultiVector.zero(m, n), rand_multivector(rng, m, n - 1, density=0.4))
    nabla = (rand_decomposable_tensor(rng, m, n, coef_degree=1) if rng.random() < 0.5
             else rand_field_wedge(rng, m, n))
    box = (nabla.contract(rand_poly(rng, m)) if rng.random() < 0.5
           else nabla.contract_form([rand_poly(rng, m, 1, 1) for _ in range(m)]))
    if kind == "outside":
        box = box + MultiVector.basis(m, tuple(sorted(rng.sample(range(m), n - 1))),
                                      Poly.const(m, rand_fraction(rng) or 1))
    return JacobiOp(nabla, box)


class TestStructureVerdict:
    """``is_n_jacobi`` and the shared decider of ``npoisson`` on pairs whose
    top part is not decomposable, and against the complete walk."""

    def test_sum_of_blades_is_false(self):
        """(∂₁∧∂₂∧∂₃ + ∂₄∧∂₅∧∂₆, 0) passes every tuple of {1, x₁,…,x₆}; its top
        part is not decomposable, and the identity fails at (x1, x2·x4), the
        fundamental-identity witness of the top part."""
        op = JacobiOp(MultiVector.basis(6, (0, 1, 2)) + MultiVector.basis(6, (3, 4, 5)),
                      MultiVector.zero(6, 2))
        x = Poly.variables(6)
        assert is_n_jacobi(op) == (False, (x[0], x[1] * x[3])) == is_n_poisson(op.nabla)
        assert not all(d.is_zero() for d in jacobi_defects_oracle(op, [x[0], x[1] * x[3]]))
        assert fraction_jacobi_walk(op) == is_n_jacobi(op)

    def test_witness_walk_refused_before_any_defect(self, monkeypatch):
        """(∂₁∧…∧∂₄ + ∂₅∧…∧∂₈, 0): its 84 slot tuples of work 384 pass the
        budget, its C(45, 3) witness tuples do not."""
        op = JacobiOp(MultiVector.basis(8, (0, 1, 2, 3)) + MultiVector.basis(8, (4, 5, 6, 7)),
                      MultiVector.zero(8, 3))
        monkeypatch.setattr(njacobi, "jacobi_defects",
                            lambda *a: pytest.fail("jacobi_defects called"))
        with pytest.raises(ValueError, match=r"slot monomial tuples: C\(45, 3\) = 14190 "
                                             r"tuples of work 384"):
            is_n_jacobi(op)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(["blades", "inside", "outside"]))
    def test_matches_the_complete_walk(self, seed, kind):
        """The verdict of the complete walk over {1} ∪ monomials of degree ≤ 2
        on ``jacobi_defects_oracle``; the same witness where the top part is
        not decomposable (the same walk), else a tuple with a nonzero defect."""
        op = structure_case(random.Random(seed), kind)
        ok, witness = is_n_jacobi(op)
        want = complete_jacobi_walk(op)
        assert ok == want[0]
        if kind == "blades":
            assert not ok and witness == want[1]
        elif not ok:
            assert not all(d.is_zero() for d in jacobi_defects_oracle(op, list(witness)))


def box_case(rng, kind):
    """A pair with □ of degree 2 or 3: "form", ∇ + s(ω⌋∇) by
    ``from_poisson_and_form``, ∇ a Poisson wedge of affine fields or a
    constant blade times a polynomial and ω a gradient plus a constant form;
    "outside", such a ∇ with the gradient extension ∇_h plus constant
    (n−1)-blades, mostly off ∇'s distribution, as □; "zero", that □ beside
    ∇ = 0."""
    m = rng.randint(3, 6)
    n = rng.randint(3, min(m, 4))
    nabla = rand_field_wedge(rng, m, n)
    if not is_n_poisson(nabla)[0]:
        nabla = rand_decomposable_tensor(rng, m, n, coef_degree=1)
    if kind == "form":
        omega = OneForm([d + rand_fraction(rng) for d in rand_poly(rng, m).gradient()])
        return from_poisson_and_form(nabla, omega)
    box = nabla.contract(rand_poly(rng, m))
    for _ in range(rng.randint(1, 2)):
        box = box + MultiVector.basis(m, tuple(sorted(rng.sample(range(m), n - 1))),
                                      Poly.const(m, rand_fraction(rng) or 1))
    return JacobiOp(MultiVector.zero(m, n) if kind == "zero" else nabla, box)


def blade_case(rng):
    """∇ = f·∂₁∧∂₂∧∂₃ in 4 or 5 variables, f ∈ {1, x1, x_m, 1 + x_m}, beside a
    □ of 1–3 coordinate components, at least one outside span{∂₁, ∂₂, ∂₃}:
    the case for which no argument shows the {1, xᵢ} walk complete."""
    m = rng.choice([4, 5])
    x, one = Poly.variables(m), Poly.const(m, 1)
    f = rng.choice([one, x[0], x[m - 1], one + x[m - 1]])
    coefs = [one, -one, x[0], x[1], x[m - 1], one + x[m - 1], x[0] * x[m - 1]]
    planes = list(itertools.combinations(range(m), 2))
    first = rng.choice([p for p in planes if max(p) > 2])
    box = MultiVector.zero(m, 2)
    for plane in [first] + rng.sample([p for p in planes if p != first], rng.randint(0, 2)):
        box = box + MultiVector.basis(m, plane, rng.choice(coefs))
    return JacobiOp(MultiVector.basis(m, (0, 1, 2), f), box)


class TestBoxPoisson:
    """□ = Δ(1, …) of an n-Jacobi Δ is (n−1)-Poisson (the ``njacobi`` module
    docstring), which ``check-jacobi`` reads off a true verdict."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kind=st.sampled_from(["form", "outside", "zero", "arbitrary"]))
    def test_true_verdict_makes_box_poisson(self, seed, kind):
        rng = random.Random(seed)
        if kind == "arbitrary":
            m = rng.randint(3, 4)
            op = rand_jacobi_pair(rng, m, rng.randint(3, m))
        else:
            op = box_case(rng, kind)
        if is_n_jacobi(op)[0] and op.box.degree >= 2:
            assert is_n_poisson(op.box)[0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_blade_with_box_outside_matches_the_complete_walk(self, seed):
        """The walk over {1, x₁,…,x_m} agrees with the complete walk on
        ``blade_case``, and a true verdict keeps □ Poisson."""
        op = blade_case(random.Random(seed))
        ok, witness = is_n_jacobi(op)
        assert ok == complete_jacobi_walk(op)[0]
        if ok:
            assert is_n_poisson(op.box)[0]
        else:
            assert not all(d.is_zero() for d in jacobi_defects_oracle(op, list(witness)))


class TestConstruction:
    def test_gradient_form(self):
        nabla = MultiVector.basis(4, (0, 1, 2))
        h = Poly.var(4, 3)
        op = from_poisson_and_form(nabla, OneForm(h.gradient()))
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
        op = JacobiOp(MultiVector.zero(3, 3), MultiVector.zero(3, 3), arity=4)
        image = s_op(op)
        assert (image.arity, image.nabla.degree, image.box.degree) == (5, 3, 3)
        assert image.nabla.is_zero() and image.box.is_zero()


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
