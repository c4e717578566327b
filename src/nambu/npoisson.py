"""n-Poisson (Nambu) structures as polynomial n-vector fields.

The fundamental identity is decided by the structure theorem: for n ≥ 3 an
n-Poisson tensor is decomposable, and a decomposable tensor (any tensor when
n = 2) is n-Poisson iff the Hamiltonian fields of the coordinate tuples
preserve it.  The argument is in the docstring of ``is_n_poisson``.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import linalg
from .multivector import MultiVector, is_decomposable, step_cost
from .nlie import NLieStructure
from .poly import MAX_CASIMIR_WORK, MAX_WALK, Poly, refuse_above, sized_combinations


def slot_monomials(num_vars: int, max_degree: int = 2) -> list[Poly]:
    """All monic monomials of degree 1..max_degree — the slot basis of the
    monomial searches.

    Constants are excluded: derivations annihilate them, so they never
    contribute to a defect.
    """
    return [Poly.monomial(num_vars, e)
            for e in poly_basis_exponents(num_vars, max_degree)[1:]]


def fi_defect(tensor: MultiVector, fs: Sequence[Poly]) -> MultiVector:
    """L_{X_{f₁,…,f_{n−1}}}(Λ) — the fundamental-identity defect."""
    field = tensor.hamiltonian_field(fs)
    return field.lie_derivative_of(tensor)


def is_n_poisson(tensor: MultiVector) -> tuple[bool, tuple | None]:
    """Decide whether the tensor satisfies the fundamental identity.

    Returns (verdict, witness); the witness is a tuple of n − 1 polynomials
    whose Hamiltonian field does not preserve the tensor.

    Zero and top-degree tensors are Poisson.  Otherwise expand a Hamiltonian
    field over the coordinate ones, X_f = Σ_J g_J Λ_J with |J| = n − 1 and
    g_J = det(∂f_a/∂x_{J_b}).  The Leibniz rule L_{gY}Λ = g·L_YΛ − Y∧(dg⌋Λ)
    leaves, beside Σ_J g_J L_{Λ_J}Λ, the residual −Σ_J Λ_J∧(dg_J⌋Λ).  For
    n = 2 it is Σ_{jk} ∂_j∂_k f · X_j∧X_k, zero by symmetry.  For decomposable
    Λ each Λ_J lies in its distribution, where Y∧(α⌋Λ) = ±α(Y)·Λ, so the
    residual is ±(Σ_J Λ_J(g_J))·Λ: an antisymmetrised sum of second
    derivatives, hence zero.  Conversely, for n ≥ 3 the identity forces
    decomposability where Λ ≠ 0, hence everywhere, decomposability being a
    closed polynomial condition.  So Λ is n-Poisson iff it is decomposable
    (or n = 2) and L_{Λ_J}Λ = 0 for the C(m, n − 1) coordinate tuples J.

    The first coordinate tuple with a nonzero defect is the witness.  A
    non-decomposable tensor may have none, so its witness comes from the
    monomial search of ``_find_fi_witness``, run only after that verdict.
    """
    n = tensor.degree
    if n < 2:
        raise ValueError("requires degree ≥ 2")
    if tensor.is_zero() or n == tensor.num_vars:
        return True, None
    if n > 2 and not is_decomposable(tensor):
        return False, _find_fi_witness(tensor)
    tuples = sized_combinations(tensor.num_vars, n - 1, step_cost(tensor), MAX_WALK,
                                "coordinate defects")
    xs = Poly.variables(tensor.num_vars)
    for idx in tuples:
        fs = tuple(xs[i] for i in idx)
        if not fi_defect(tensor, fs).is_zero():
            return False, fs
    return True, None


def decomposable_given(tensor: MultiVector, poisson: bool) -> bool:
    """``is_decomposable(tensor)``, given the verdict of ``is_n_poisson``.

    For n ≥ 3 a true verdict implies decomposability: it is reached only for
    zero or top-degree tensors or after ``is_decomposable`` passed.  So the
    test runs again only for bivectors and false verdicts.
    """
    return (poisson and tensor.degree > 2) or is_decomposable(tensor)


def _find_fi_witness(tensor: MultiVector) -> tuple | None:
    """First tuple of slot monomials with a nonvanishing defect, if any.

    Unordered tuples of distinct monomials suffice: the defect is totally
    skew in its slots and multilinear over the rationals.  Each slot of the
    defect is a differential operator of order ≤ 2, so monomials of degree
    1 and 2 detect every failure.
    """
    m = tensor.num_vars
    tuples = sized_combinations(math.comb(m + 2, 2) - 1, tensor.degree - 1,
                                step_cost(tensor), MAX_WALK, "slot monomial tuples")
    monos = slot_monomials(m)
    for idx in tuples:
        fs = tuple(monos[i] for i in idx)
        if not fi_defect(tensor, list(fs)).is_zero():
            return fs
    return None


def dual_nvector(p: NLieStructure) -> MultiVector:
    """The linear n-vector of an n-Lie algebra on its dual chart:

    T = Σ_{i₁<…<i_n} [x_{i₁},…,x_{i_n}] ∂_{i₁}∧…∧∂_{i_n},
    reading the bracket of coordinate functions off the structure constants.
    """
    m = p.dim
    comps = {}
    for idx, value in p.constants.items():
        poly = Poly.zero(m)
        for j, c in enumerate(value):
            if c:
                poly = poly + c * Poly.var(m, j)
        if not poly.is_zero():
            comps[idx] = poly
    return MultiVector(m, p.arity, comps)


def scale(f: Poly, tensor: MultiVector) -> MultiVector:
    """fΛ for a decomposable n-Poisson Λ — again n-Poisson.

    Refuses tensors that are not verified decomposable Poisson structures,
    since the conclusion needs the rank-n hypothesis.
    """
    ok, _ = is_n_poisson(tensor)
    if not (ok and decomposable_given(tensor, ok)):
        raise ValueError("scaling requires a decomposable n-Poisson tensor")
    return tensor * f


def wedge_compat_check(delta: MultiVector, nabla: MultiVector) -> tuple[bool, bool, bool]:
    """The three conditions under which Δ∧∇ is again multi-Poisson:

    (1) the Schouten bracket ⌈Δ,∇⌉ vanishes;
    (2) Δ_{g₁,…,g_{k−1}}(∇) ∧ ∇ = 0 for all functions g;
    (3) ∇_{h₁,…,h_{l−1}}(Δ) ∧ Δ = 0 for all functions h.

    Conditions (2)–(3) are checked over coordinate-function slots; this is
    complete under the stated rank hypotheses because the extra Leibniz term
    of a function rescaling is killed by the rank-n wedge identity.
    """
    for t in (delta, nabla):
        ok, _ = is_n_poisson(t)
        if not (ok and decomposable_given(t, ok)):
            raise ValueError("inputs must be decomposable multi-Poisson tensors")
    c1 = delta.schouten(nabla).is_zero()
    c2 = _mixed_wedge_vanishes(delta, nabla)
    c3 = _mixed_wedge_vanishes(nabla, delta)
    return c1, c2, c3


def _mixed_wedge_vanishes(a: MultiVector, b: MultiVector) -> bool:
    """Whether L_{X^a_{g…}}(b) ∧ b = 0 for all coordinate slot tuples g."""
    tuples = sized_combinations(a.num_vars, a.degree - 1, step_cost(a, b), MAX_WALK,
                                "mixed wedge tuples")
    xs = Poly.variables(a.num_vars)
    for gs in tuples:
        field = a.hamiltonian_field([xs[i] for i in gs])
        if not field.lie_derivative_of(b).wedge(b).is_zero():
            return False
    return True


def poly_basis_exponents(num_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials of total degree ≤ max_degree."""
    out = []
    for d in range(max_degree + 1):
        for exps in itertools.combinations_with_replacement(range(num_vars), d):
            e = [0] * num_vars
            for i in exps:
                e[i] += 1
            out.append(tuple(e))
    return out


def bound_casimir_work(tensor: MultiVector, max_degree: int) -> None:
    """Raise ValueError if the Casimir search of degree ≤ ``max_degree`` would
    do more than MAX_CASIMIR_WORK work: its C(m+d, d) unknowns, one per
    candidate monomial, times the C(m, n−1) Hamiltonian fields that
    constrain them."""
    m, d = tensor.num_vars, max_degree
    unknowns, fields = math.comb(m + d, d), math.comb(m, tensor.degree - 1)
    refuse_above(unknowns * fields, MAX_CASIMIR_WORK,
                 f"Casimirs of degree ≤ {d} in {m} variables: {unknowns} unknowns "
                 f"× {fields} Hamiltonian fields, work {unknowns * fields}")


def casimir_polynomials(tensor: MultiVector, max_degree: int) -> list[Poly]:
    """Basis of polynomial Casimirs of degree ≤ max_degree.

    A Casimir is annihilated by every Hamiltonian vector field; restricted to
    a finite-dimensional polynomial space this is an exact nullspace problem.
    The fields of coordinate-function tuples generate all Hamiltonian fields
    over the function ring, so they suffice as constraints.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be ≥ 1")
    bound_casimir_work(tensor, max_degree)
    m = tensor.num_vars
    basis_exps = poly_basis_exponents(m, max_degree)
    basis = [Poly.monomial(m, e) for e in basis_exps]
    xs = Poly.variables(m)
    # sparse rows: one per (field, result monomial); columns: the basis
    rows = []
    for idx in itertools.combinations(range(m), tensor.degree - 1):
        field = tensor.hamiltonian_field([xs[i] for i in idx])
        if field.is_zero():
            continue
        block: dict = {}
        for c, g in enumerate(basis):
            for e, coef in field.apply_field(g).terms.items():
                block.setdefault(e, {})[c] = coef
        rows.extend(block.values())
    return [Poly(m, {e: coef for coef, e in zip(vec, basis_exps) if coef})
            for vec in linalg.nullspace(rows, len(basis))]
