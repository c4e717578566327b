"""End-to-end acceptance suite: the headline guarantees of the library,
exercised at full advertised scale.  Everything symbolic is exact; the only
tolerances appear in the floating-point integration checks."""

from fractions import Fraction

from conftest import (fi_search_oracle, in_span, rand_4dim_3lie,
                      rand_decomposable_tensor, rand_invertible_matrix,
                      rand_jacobi_pair, rand_poly, rand_vectors,
                      raw_jacobi_oracle)
from nambu.bianchi import (classify, derivation_algebra, psi_label,
                           synthesize, unimodular_label, witt_embedding_check)
from nambu.dynamics import (KeplerSystem, SpinSystem, field_function,
                            rk4_integrate, spin_closed_form)
from nambu.linalg import zeros
from nambu.multivector import MultiVector, is_decomposable
from nambu.njacobi import JacobiOp, is_n_jacobi, s_op
from nambu.nlie import NLieStructure, vector_product_algebra
from nambu.npoisson import dual_nvector, fi_defect, is_n_poisson
from nambu.poly import Poly


def test_01_vector_product_algebras_satisfy_jacobi():
    for n in (2, 3, 4):
        ok, witness = vector_product_algebra(n).check_n_jacobi()
        assert ok and witness is None


def test_02_decomposable_tensors_poisson_and_blade_sum_fails(rng):
    # fifty random decomposable 3-vectors with cubic coefficients on 4 and 5
    # coordinates: all satisfy the fundamental identity and the rank test
    for i in range(50):
        m = 4 if i % 2 else 5
        v = rand_decomposable_tensor(rng, m, degree=3, coef_degree=3)
        while v.is_zero():
            v = rand_decomposable_tensor(rng, m, degree=3, coef_degree=3)
        ok, _ = is_n_poisson(v)
        assert ok
        assert is_decomposable(v)
    # a non-decomposable sum of blades fails with a concrete monomial witness
    blades = MultiVector.basis(6, (0, 1, 2)) + MultiVector.basis(6, (3, 4, 5))
    ok, witness = is_n_poisson(blades)
    assert not ok and witness is not None
    assert not fi_defect(blades, list(witness)).is_zero()


def test_03_dual_tensor_dichotomy(rng):
    for _ in range(20):
        ok, _ = is_n_poisson(dual_nvector(rand_4dim_3lie(rng)))
        assert ok
    vp = vector_product_algebra(3)
    ok, witness = is_n_poisson(dual_nvector(vp.direct_product(vp)))
    assert not ok and witness is not None


def test_04_s_complex_and_homotopy(rng):
    for _ in range(100):
        arity = rng.choice([2, 3])
        op = rand_jacobi_pair(rng, 4, arity)
        twice = s_op(s_op(op))
        assert twice.nabla.is_zero() and twice.box.is_zero()
        rebuilt = JacobiOp(s_op(op).box, op.box, arity=arity)
        assert rebuilt == op


def test_05_gradient_extensions_verify_with_consequences(rng):
    # twenty operators built as ∇ + s(∇_h) from a decomposable Poisson ∇ and
    # a polynomial h: the pair verifier passes, its structural consequences
    # hold, and the brute-force identity oracle agrees on every instance
    instances = []
    for _ in range(17):
        f = rand_poly(rng, 3, max_degree=1)
        while f.is_zero():
            f = rand_poly(rng, 3, max_degree=1)
        nabla = MultiVector.basis(3, (0, 1, 2), f)
        instances.append((nabla, rand_poly(rng, 3, max_degree=2)))
    for blade in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        f = rand_poly(rng, 4, max_degree=2)
        while f.is_zero():
            f = rand_poly(rng, 4, max_degree=2)
        instances.append((MultiVector.basis(4, blade, f),
                          rand_poly(rng, 4, max_degree=2)))
    for nabla, h in instances:
        op = JacobiOp(nabla, nabla.contract(h))
        ok, _ = is_n_jacobi(op)
        assert ok
        # the degree-(n−1) part satisfies the fundamental identity
        assert fi_search_oracle(op.box)[0]
        # the top part is a decomposable Poisson tensor
        assert op.box.is_zero() or is_decomposable(op.nabla)
        assert is_n_poisson(op.nabla)[0]
        # derived vectors of the lower part stay inside the top distribution
        for idx in range(op.box.num_vars):
            assert op.box.derived((idx,)).wedge(op.nabla).is_zero()
        raw, _ = raw_jacobi_oracle(op)
        assert raw


def test_06_classification_round_trip_and_invariance(rng):
    labels = [unimodular_label(0, 0), unimodular_label(1, 1),
              unimodular_label(3, 2), unimodular_label(4, 4),
              psi_label("psi_one"), psi_label("psi_zero")]
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
        labels += [psi_label("psi_plus", lam), psi_label("psi_minus", lam)]
    for label in labels:
        p = synthesize(label, 3)
        assert classify(p) == label
        for _ in range(30):
            q = p.change_basis(rand_invertible_matrix(rng, 4))
            assert classify(q) == label
    # the single-relation algebra [e₁,e₂,e₃] = e₄
    form = zeros(4, 4)
    form[3][3] = Fraction(1)
    from nambu.bianchi import algebra_from_form
    label = classify(algebra_from_form(form, 3))
    assert label.kind == "unimodular" and (label.r, label.m) == (1, 1)


def test_07_derivation_algebras():
    from nambu.bianchi import algebra_from_form
    form = zeros(4, 4)
    form[3][3] = Fraction(1)
    p = algebra_from_form(form, 3)
    basis = derivation_algebra(p)
    flat = [[x for row in d for x in row] for d in basis]

    def contains(matrix):
        assert p.is_derivation(matrix)
        return in_span(flat, [x for row in matrix for x in row])

    e = NLieStructure.basis_vector
    for us in ([e(4, 1), e(4, 2)], [e(4, 0), e(4, 2)], [e(4, 0), e(4, 1)]):
        assert contains(p.inner_derivation(us))
    outer1 = zeros(4, 4)
    outer1[0][0] = outer1[3][3] = Fraction(1)
    outer2 = zeros(4, 4)
    outer2[1][1], outer2[2][2] = Fraction(1), Fraction(-1)
    outer3 = zeros(4, 4)
    outer3[2][1] = Fraction(1)
    for outer in (outer1, outer2, outer3):
        assert contains(outer)
    # conformal symmetry count of the vector-product structures
    for n in (2, 3, 4):
        assert len(derivation_algebra(vector_product_algebra(n))) \
            == n * (n + 1) // 2


def test_08_quadric_generated_bracket_embedding():
    ok, brackets = witt_embedding_check()
    assert ok
    x1, x2, x3 = Poly.variables(3)
    assert brackets["{x1,x2}"] == x1
    assert brackets["{x1,x3}"] == 2 * x2
    assert brackets["{x2,x3}"] == x3
    biv = MultiVector(3, 2, {(0, 1): x1, (0, 2): 2 * x2, (1, 2): x3})
    assert biv.schouten(biv).is_zero()


def test_09_integration_accuracy_and_conservation():
    spin = SpinSystem((Fraction(0), Fraction(0), Fraction(1)), Fraction(1))
    nambu_sys = spin.nambu()
    x0 = [0.6, 0.0, 0.8]
    traj = rk4_integrate(spin.field(), x0, 1e-3, 10_000,
                         list(nambu_sys.hamiltonians))
    assert traj.ok
    assert max(traj.invariant_drift) < 1e-9
    exact = spin_closed_form(x0, 1.0, 1.0, 10.0)
    assert max(abs(a - b) for a, b in zip(traj.endpoint(), exact)) < 1e-6
    # fourth-order convergence: halving the step shrinks the endpoint error
    # by roughly 2⁴
    f = field_function(spin.field())
    errs = []
    for h, steps in ((0.02, 50), (0.01, 100)):
        end = rk4_integrate(f, x0, h, steps).endpoint()
        ref = spin_closed_form(x0, 1.0, 1.0, 1.0)
        errs.append(max(abs(a - b) for a, b in zip(end, ref)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0
    # the action-angle central-force system conserves all five integrals
    kepler = KeplerSystem(1.0, 1.0)
    traj = rk4_integrate(kepler.field(), [1.0, 1.2, 0.9, 0.1, 0.2, 0.3],
                         1e-3, 1000, list(kepler.hamiltonians))
    assert traj.ok
    assert max(traj.invariant_drift) < 1e-8


def test_10_compatibility_conditions_and_polarization(rng):
    for n in (3, 4):
        vp = vector_product_algebra(n)
        for k in (1, 2, 3):
            if k > n - 1:
                continue
            for _ in range(3):
                assert vp.comp_condition_k(rand_vectors(rng, k, n + 1),
                                           rand_vectors(rng, k, n + 1))
    # linear combinations are Jacobi exactly when the pair is compatible
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
