"""First-order skew n-differential operators as (n-vector, (n−1)-vector) pairs.

Every first-order skew-symmetric n-differential operator splits uniquely as
Δ = ∇ + s(□) with ∇ a multi-derivation of multiplicity n and □ one of
multiplicity n−1, where s multiplies out one argument:

    s(□)(f₁,…,f_n) = Σᵢ (−1)^{i−1} fᵢ · □(f₁,…,f̂ᵢ,…,f_n).

The pair is the stored representation, so the decomposition is a constructor
contract.  Δ is n-Jacobi iff two defect multivectors vanish identically.  On a
slot tuple f₁,…,f_{n−1} both are Lie derivatives along one vector field,

    Y = ∇_{f₁…f_{n−1}} + Σᵢ (−1)^{i−1} fᵢ·□_{f₁…f̂ᵢ…f_{n−1}},

up to terms in h = ±□(f₁,…,f_{n−1}): the 2n Lie derivatives and n wedges of
the expanded defects collapse to two Lie derivatives by the Leibniz rule
L_{fX}T = f·L_X T − X∧(df⌋T) and linearity of L in the field.  On a tuple of
coordinates x_K and one constant c at position t, as (1, x_K) of the walks,
∇_{f…}, h and every Xᵢ but X_t hold the constant, so Y = (−1)^t·c·□_K and
the defects are L_Y∇ and L_Y□; with two constants both vanish.

□ = Δ(1, ·, …, ·) is (n−1)-Poisson whenever Δ is n-Jacobi:
Δ(1, g₂, …, g_n) = □(g₂, …, g_n), because d1 = 0; and freezing a in an n-Lie
bracket gives an (n−1)-Lie bracket {x₂, …, x_n} = [a, x₂, …, x_n], as the
Filippov identity on (a, u₂, …) and (a, v₂, …) loses its first term
[[a, u₂, …, a], v₂, …] = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .multivector import (MultiVector, OneForm, _finished, _lie_into, _term_partials,
                          integral, multivector_from_json, multivector_to_json, step_cost)
from .npoisson import Verdict, is_n_poisson, structure_verdict
from .poly import (MAX_WALK, Poly, _add_products, _stored, coordinate_index,
                   sized_combinations)


class JacobiOp:
    """A skew first-order n-differential operator, stored as (∇, □)."""

    __slots__ = ("num_vars", "arity", "nabla", "box")

    def __init__(self, nabla: MultiVector, box: MultiVector, arity: int | None = None):
        if nabla.num_vars != box.num_vars:
            raise ValueError("variable count mismatch between the two parts")
        if arity is None:
            arity = nabla.degree
        m = nabla.num_vars
        # parts whose nominal degree exceeds the chart dimension are zero and
        # stored at the capped degree
        if nabla.degree != arity and not (arity > m and nabla.is_zero()):
            raise ValueError("top part has wrong degree for the arity")
        if box.degree != arity - 1 and not (arity - 1 > m and box.is_zero()):
            raise ValueError("degrees of the two parts must differ by exactly 1")
        object.__setattr__(self, "num_vars", nabla.num_vars)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "nabla", nabla)
        object.__setattr__(self, "box", box)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("JacobiOp is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiOp):
            return NotImplemented
        return (self.arity == other.arity and self.nabla == other.nabla
                and self.box == other.box)

    def __repr__(self) -> str:
        return f"JacobiOp(nabla={self.nabla!r}, box={self.box!r})"

    def apply(self, fs: Sequence[Poly]) -> Poly:
        """Δ(f₁,…,f_n) = ∇(f₁,…,f_n) + Σᵢ (−1)^{i−1} fᵢ □(f₁,…,f̂ᵢ,…,f_n)."""
        if len(fs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(fs)}")
        total = self.nabla.apply(fs) if self.nabla.degree == self.arity \
            else Poly.zero(self.num_vars)
        if self.box.degree != self.arity - 1:  # capped zero part
            return total
        for i, f in enumerate(fs):
            rest = list(fs[:i]) + list(fs[i + 1:])
            term = f * self.box.apply(rest)
            total = total + (term if i % 2 == 0 else -term)
        return total


def s_op(op: JacobiOp) -> JacobiOp:
    """s(∇ + s(□)) = s(∇): the pair (0, ∇) of arity n+1.  Hence s∘s = 0."""
    m = op.num_vars
    arity = op.arity + 1
    top = MultiVector.zero(m, min(arity, m))
    box = op.nabla if op.arity <= m else MultiVector.zero(m, min(arity - 1, m))
    return JacobiOp(top, box, arity=arity)


def jacobi_defects(op: JacobiOp, fs: Sequence[Poly]) -> tuple[MultiVector, MultiVector]:
    """The two components of the canonical decomposition of Δ_{f…}(Δ):

    Δ¹(f₁,…,f_{n−1}) = L_Y∇ + (1−n)h∇
    Δ⁰(f₁,…,f_{n−1}) = L_Y□ − ∇_h + (1−n)h□

    with one vector field Y = ∇_{f…} + Σᵢ(−1)^{i−1} fᵢ·Xᵢ, where
    Xᵢ = □_{f₁,…,f̂ᵢ,…,f_{n−1}} and h = (−1)^{n−1}□(f₁,…,f_{n−1}).  As L is
    linear in the field and L_{fX}T = f·L_X T − X∧(df⌋T) (Leibniz), L_Y T is
    the expanded form L_{∇_{f…}}T + Σᵢ(−1)^{i−1}(fᵢ·L_{Xᵢ}T − Xᵢ∧T_{fᵢ}).
    Δ is n-Jacobi iff both vanish for all f's.

    On coordinates x_K and one constant c at position t, told apart by one
    ``poly.coordinate_index`` a slot, Y = (−1)^t·c·□_K is one index drop
    (times the factor only when it is not 1), h = 0, and the defects are
    ``Y.lie_derivative_of`` ∇ and □, sharing Y's partials; a second constant
    slot, or c = 0, makes Y zero.  Otherwise Y is never built as a
    multivector: its components are summed as term maps, their partials read
    in one pass, and both Lie derivatives run on the kernel
    ``multivector._lie_into``, (1−n)h□ added into Δ⁰'s sum and the h-terms
    skipped when h = 0.  A pair whose arity exceeds the chart dimension is
    refused, as in ``is_n_jacobi``.
    """
    n = op.arity
    if op.nabla.degree != n:
        raise ValueError("arity exceeds the chart dimension")
    if len(fs) != n - 1:
        raise ValueError(f"expected {n - 1} arguments, got {len(fs)}")
    nabla, box = op.nabla, op.box
    slots = [coordinate_index(f) for f in fs]
    if -1 in slots and None not in slots:
        # (c, x_K): ∇_{f…}, h and every Xᵢ but X_t hold the constant slot t
        t = slots.index(-1)
        y = box.derived(slots[:t] + slots[t + 1:])
        c = sum(fs[t].terms.values())
        if t & 1:
            c = -c
        if c != 1:
            y = y * c
        return y.lie_derivative_of(nabla), y.lie_derivative_of(box)
    m = op.num_vars
    add = _add_products(m)
    y = {k: dict(p.terms) for (k,), p in nabla.hamiltonian_field(fs).components.items()}
    for i, f in enumerate(fs):
        x = box.hamiltonian_field(list(fs[:i]) + list(fs[i + 1:]))
        for (k,), p in x.components.items():
            add(y.setdefault(k, {}), f.terms, p.terms, -1 if i & 1 else 1)
    y = [(k, terms) for k, t in y.items() if (terms := _stored(t))]
    dy = _term_partials(m, (((k,), terms) for k, terms in y))
    d1: dict = {}
    _lie_into(d1, y, dy, nabla)
    d0: dict = {}
    _lie_into(d0, y, dy, box)
    h = box.apply(fs)
    if not h.terms:
        return _finished(m, n, d1), _finished(m, n - 1, d0)
    if (n - 1) % 2 == 1:
        h = -h
    scaled = h * Fraction(1 - n)
    for j, p in box.components.items():
        add(d0.setdefault(j, {}), p.terms, scaled.terms, 1)
    return (_finished(m, n, d1) + nabla * scaled,
            _finished(m, n - 1, d0) - nabla.contract(h))


def is_n_jacobi(op: JacobiOp) -> Verdict:
    """Decide whether both defects vanish on every tuple f of n − 1
    functions; the witness is the first tuple on which one does not.

    L_Y differentiates the first derivatives of the f's in Y, as ∇_h does in
    h, so each slot of either defect has order ≤ 2, and the distinct tuples
    from {1} ∪ monomials of degree ≤ 2 decide.  ``structure_verdict`` walks
    them when n ≥ 3 and ∇ is not decomposable (where the f's vanish, the
    Hessian terms of Δ¹ are those of the fundamental identity of ∇), else the
    tuples from {1, x₁,…,x_m}.  By the Leibniz rule, as in ``is_n_poisson``,
    the defects of f are Σ_J g_J times those of x_J, plus multiples of those
    of (1, x_K), L_{□_K}∇ and L_{□_K}□, plus Hessian terms: in Δ¹
    −Σ_J ∇_J∧(dg_J⌋∇) − Σᵢ ±fᵢ Σ_K □_K∧(dg⁽ⁱ⁾_K⌋∇), g⁽ⁱ⁾ the minors of the
    f's but fᵢ; in Δ⁰ the same with □ behind the wedge, and −Σ_J h_J·(dg_J⌋∇),
    h_J = ±□(x_J).  For n = 2 the g⁽ⁱ⁾ are 1 and the rest cancels by the
    symmetry of the Hessian.  For decomposable ∇ the first term vanishes as
    in ``is_n_poisson``, and the second when □ lies in ∇'s distribution; that
    all vanish once the smaller walk passed, □ outside it too, rests on the
    property test against the complete walk.  Both defects are quadratic in
    (∇, □), so the walk runs on the pair times one ``integral`` factor.
    """
    n = op.arity
    if op.nabla.degree != n:
        raise ValueError("arity exceeds the chart dimension")
    # a step sums one field and takes two Lie derivatives: weighted by the arity
    # it measures 0.05–1.4 µs a unit (0.05–0.12 on walks of 20 tuples or more;
    # degree ≤ 2 coefficients, Python 3.11 on a 2-core x86-64 guest); sized
    # first, it bounds the decomposability walk
    cost = n * step_cost(op.nabla, op.box)
    tuples = sized_combinations(op.num_vars + 1, n - 1, cost, MAX_WALK, "n-Jacobi slot tuples")
    op = JacobiOp(*integral(op.nabla, op.box), arity=n)
    slots = [Poly.const(op.num_vars, 1)] + Poly.variables(op.num_vars)
    return structure_verdict(op.nabla, tuples, slots, cost,
                             lambda fs: jacobi_defects(op, fs))


def from_poisson_and_form(nabla: MultiVector, omega: OneForm) -> JacobiOp:
    """Build the n-Jacobi operator ∇ + s(ω⌋∇) from a decomposable n-Poisson
    tensor and a closed 1-form."""
    verdict = is_n_poisson(nabla)
    if not verdict[0]:
        raise ValueError("top part must satisfy the fundamental identity")
    if not verdict.decomposable:
        raise ValueError("top part must be decomposable (rank equal to degree)")
    if not omega.is_closed():
        raise ValueError("the 1-form must be closed")
    return JacobiOp(nabla, nabla.contract_form(omega.components))


def canonical_bracket(m: int, n: int, fs: Sequence[Poly]) -> Poly:
    """The coordinate normal form of the n-Jacobi bracket:

    {f₁,…,f_n} = det‖∂fᵢ/∂x_j‖ (i,j = 1..n)
               + Σ_k (−1)^{k−1} f_k · det of the same matrix with row k and
                 column n removed.
    """
    if n > m:
        raise ValueError("arity exceeds the chart dimension")
    if len(fs) != n:
        raise ValueError(f"expected {n} arguments, got {len(fs)}")
    nabla = MultiVector.basis(m, tuple(range(n)))
    box = MultiVector.basis(m, tuple(range(n - 1)))
    return JacobiOp(nabla, box).apply(fs)


def jacobiop_to_json(op: JacobiOp) -> dict:
    return {"nabla": multivector_to_json(op.nabla),
            "box": multivector_to_json(op.box)}


def jacobiop_from_json(data: Mapping) -> JacobiOp:
    return JacobiOp(multivector_from_json(data["nabla"]),
                    multivector_from_json(data["box"]))
