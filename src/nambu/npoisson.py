"""n-Poisson (Nambu) structures as polynomial n-vector fields.

The fundamental identity is decided by the structure theorem: for n ≥ 3 an
n-Poisson tensor is decomposable, and a decomposable tensor (any tensor when
n = 2) is n-Poisson iff the Hamiltonian fields of the coordinate tuples
preserve it.  The argument is in the docstring of ``is_n_poisson``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from . import linalg
from .multivector import MultiVector, integral, is_decomposable, step_cost, wedge_walk
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


class Verdict(tuple):
    """The ``(ok, witness)`` pair of ``is_n_poisson`` and ``is_n_jacobi``.
    ``decomposable`` is whether the top tensor is decomposable, found before
    the walk for every top of degree ≥ 2 (None below)."""

    def __new__(cls, ok: bool, witness: tuple | None, decomposable: bool | None):
        pair = super().__new__(cls, (ok, witness))
        pair.decomposable = decomposable
        return pair


def is_n_poisson(tensor: MultiVector) -> Verdict:
    """Decide whether the tensor satisfies the fundamental identity.

    Returns the ``Verdict`` (verdict, witness); the witness is a tuple of
    n − 1 polynomials whose Hamiltonian field does not preserve the tensor.

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
    (or n = 2) and L_{Λ_J}Λ = 0 for the C(m, n − 1) coordinate tuples J
    (``structure_verdict``).

    The defect of cΛ is c²·L_{X_f}Λ, so once the walk is sized it runs on
    the ``integral`` multiple of Λ: the verdict and the witness are the same.
    """
    n = tensor.degree
    if n < 2:
        raise ValueError("requires degree ≥ 2")
    if tensor.is_zero() or n == tensor.num_vars:
        return Verdict(True, None, True)
    if n > 2:
        wedge_walk(tensor)  # refused under its own name first, as it runs first
    cost = step_cost(tensor)
    tuples = sized_combinations(tensor.num_vars, n - 1, cost, MAX_WALK, "coordinate defects")
    tensor, = integral(tensor)
    return structure_verdict(tensor, tuples, Poly.variables(tensor.num_vars), cost,
                             lambda fs: (fi_defect(tensor, fs),))


def structure_verdict(top: MultiVector, walk: Iterable[tuple[int, ...]], slots: list[Poly],
                      cost: int, defect) -> Verdict:
    """The one decider of ``is_n_poisson`` and ``is_n_jacobi``: the witness is
    the first tuple of ``slots`` in ``walk`` with a nonzero ``defect``.  For
    n ≥ 3 a non-decomposable ``top`` is false (the structure theorem); its
    witness walk, sized here at ``cost`` a step, adds the quadratic monomials
    to ``slots``, as each slot of the defects has order ≤ 2.  The verdict
    carries the decomposability of ``top``, found before the walk for every
    degree ≥ 2; for bivectors its C(m, 1) wedges cost no more than the walk
    that was sized first."""
    decomposable = is_decomposable(top) if top.degree >= 2 else None
    if decomposable is False and top.degree > 2:
        m = top.num_vars
        walk = sized_combinations(len(slots) + math.comb(m + 1, 2), top.degree - 1, cost,
                                  MAX_WALK, "slot monomial tuples")
        return Verdict(False, first_failure(walk, slots + slot_monomials(m)[m:], defect),
                       False)
    witness = first_failure(walk, slots, defect)
    return Verdict(witness is None, witness, decomposable)


def first_failure(walk: Iterable[tuple[int, ...]], slots: Sequence[Poly], defect):
    """The first tuple of ``slots`` in ``walk`` with a nonzero ``defect``, or None."""
    for idx in walk:
        fs = tuple(slots[i] for i in idx)
        if not all(d.is_zero() for d in defect(fs)):
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
        verdict = is_n_poisson(t)
        if not (verdict[0] and verdict.decomposable):
            raise ValueError("inputs must be decomposable multi-Poisson tensors")
    c1 = delta.schouten(nabla).is_zero()
    c2 = _mixed_wedge_vanishes(delta, nabla)
    c3 = _mixed_wedge_vanishes(nabla, delta)
    return c1, c2, c3


def _mixed_wedge_vanishes(a: MultiVector, b: MultiVector) -> bool:
    """Whether L_{X^a_{g…}}(b) ∧ b = 0 for all coordinate slot tuples g;
    homogeneous in a and in b, so decided on their ``integral`` multiples."""
    tuples = sized_combinations(a.num_vars, a.degree - 1, step_cost(a, b), MAX_WALK,
                                "mixed wedge tuples")
    a, b = integral(a, b)
    return first_failure(tuples, Poly.variables(a.num_vars), lambda gs: (
        a.hamiltonian_field(gs).lie_derivative_of(b).wedge(b),)) is None


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
    candidate monomial, times the C(m, n−1) Hamiltonian fields that may
    constrain them.  That is the worst case: a tensor known to be
    decomposable is constrained by n of its fields (``casimir_polynomials``),
    but the bound stays on all of them, so that it refuses before any field
    is built."""
    m, d = tensor.num_vars, max_degree
    unknowns, fields = math.comb(m + d, d), math.comb(m, tensor.degree - 1)
    refuse_above(unknowns * fields, MAX_CASIMIR_WORK,
                 f"Casimirs of degree ≤ {d} in {m} variables: {unknowns} unknowns "
                 f"× {fields} Hamiltonian fields, work {unknowns * fields}")


def casimir_polynomials(tensor: MultiVector, max_degree: int,
                        decomposable: bool = False) -> list[Poly]:
    """Basis of polynomial Casimirs of degree ≤ max_degree.

    A Casimir is annihilated by every Hamiltonian vector field; restricted to
    a finite-dimensional polynomial space this is an exact nullspace problem.
    The fields X_J of coordinate-function tuples J generate all Hamiltonian
    fields over the function ring, so they suffice as constraints.

    ``decomposable`` says that the tensor is known to be decomposable, as
    the ``Verdict`` of ``is_n_poisson`` carries it; no walk is run here.
    A decomposable tensor T of degree n ≥ 2 needs only n of the fields
    (``casimir_fields``): where T ≠ 0 every X_J lies in T's n-plane, so n
    fields X_k independent at one point, hence over the rational functions,
    span every other one there, q·X_J = Σ_k p_k·X_k with polynomials p_k and
    q ≠ 0.  Polynomials have no zero divisors, so X_k(C) = 0 for every k
    gives X_J(C) = 0: the nullspace, and so its canonical basis, is the same.

    The rows are linear in the tensor and ``linalg.rref`` removes their
    content, so they are built from its ``integral`` multiple.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be ≥ 1")
    bound_casimir_work(tensor, max_degree)
    tensor, = integral(tensor)
    m = tensor.num_vars
    basis_exps = poly_basis_exponents(m, max_degree)
    basis = [Poly.monomial(m, e) for e in basis_exps]
    # sparse rows: one per (field, result monomial); columns: the basis
    rows = []
    for field in casimir_fields(tensor, decomposable):
        block: dict = {}
        for c, g in enumerate(basis):
            for e, coef in field.apply([g]).terms.items():
                block.setdefault(e, {})[c] = coef
        rows.extend(block.values())
    return [Poly(m, {e: coef for coef, e in zip(vec, basis_exps) if coef})
            for vec in linalg.nullspace(rows, len(basis))]


def casimir_fields(tensor: MultiVector, decomposable: bool) -> list[MultiVector]:
    """The Hamiltonian fields whose rows constrain the Casimirs: the nonzero
    X_J of the coordinate tuples J, or, when the tensor is ``decomposable``
    of degree n and has more than n of them, the first n that are
    independent at the point (1, …, m).  All of them when the point does not
    give exactly n independent ones (T vanishes there)."""
    m, n = tensor.num_vars, tensor.degree
    xs = Poly.variables(m)
    fields = [field for idx in itertools.combinations(range(m), n - 1)
              if not (field := tensor.hamiltonian_field([xs[i] for i in idx])).is_zero()]
    if not decomposable or len(fields) <= n:
        return fields
    # column k holds X_k at the point, so the pivot columns are the fields
    # independent of the ones before them
    point = list(range(1, m + 1))
    rows: dict = {}
    for k, field in enumerate(fields):
        for (i,), p in field.components.items():
            if x := p.evaluate(point):
                rows.setdefault(i, {})[k] = x
    pivots = linalg.rref(rows.values())[1]
    return [fields[k] for k in pivots] if len(pivots) == n else fields
