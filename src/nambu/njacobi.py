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
L_{fX}T = f·L_X T − X∧(df⌋T) and linearity of L in the field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .multivector import (MultiVector, OneForm, multivector_from_json,
                          multivector_to_json, step_cost)
from .npoisson import decomposable_given, is_n_poisson
from .poly import MAX_WALK, Poly, sized_combinations


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

    def is_zero(self) -> bool:
        return self.nabla.is_zero() and self.box.is_zero()

    @staticmethod
    def zero(num_vars: int, arity: int) -> "JacobiOp":
        top = MultiVector.zero(num_vars, min(arity, num_vars))
        return JacobiOp(top, MultiVector.zero(num_vars, arity - 1), arity=arity)

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


def insert_unity(op: JacobiOp) -> MultiVector:
    """The multi-derivation obtained by fixing 1 in the first slot: just □."""
    return op.box


def jacobi_defects(op: JacobiOp, fs: Sequence[Poly]) -> tuple[MultiVector, MultiVector]:
    """The two components of the canonical decomposition of Δ_{f…}(Δ):

    Δ¹(f₁,…,f_{n−1}) = L_Y∇ + (1−n)h∇
    Δ⁰(f₁,…,f_{n−1}) = L_Y□ − ∇_h + (1−n)h□

    with one vector field Y = ∇_{f…} + Σᵢ(−1)^{i−1} fᵢ·Xᵢ, where
    Xᵢ = □_{f₁,…,f̂ᵢ,…,f_{n−1}} and h = (−1)^{n−1}□(f₁,…,f_{n−1}).  As L is
    linear in the field and L_{fX}T = f·L_X T − X∧(df⌋T) (Leibniz), L_Y T is
    the expanded form L_{∇_{f…}}T + Σᵢ(−1)^{i−1}(fᵢ·L_{Xᵢ}T − Xᵢ∧T_{fᵢ}).
    Δ is n-Jacobi iff both vanish for all f's.
    """
    n = op.arity
    if len(fs) != n - 1:
        raise ValueError(f"expected {n - 1} arguments, got {len(fs)}")
    nabla, box = op.nabla, op.box
    y = nabla.hamiltonian_field(fs)
    for i, f in enumerate(fs):
        term = box.hamiltonian_field(list(fs[:i]) + list(fs[i + 1:])) * f
        y = y + term if i % 2 == 0 else y - term
    h = box.apply(fs)
    if (n - 1) % 2 == 1:
        h = -h
    scaled = h * Fraction(1 - n)
    return (y.lie_derivative_of(nabla) + nabla * scaled,
            y.lie_derivative_of(box) - nabla.contract(h) + box * scaled)


def is_n_jacobi(op: JacobiOp) -> tuple[bool, tuple | None]:
    """Decide the n-Jacobi property by checking both defects on all tuples
    drawn from {1, x₁,…,x_m}.

    This finite basis is complete: each slot of either defect has differential
    order ≤ 1 and the defects are linear over constants in each slot; total
    skewness reduces the tuples to increasing combinations.
    """
    n = op.arity
    if op.nabla.degree != n:
        raise ValueError("arity exceeds the chart dimension")
    # a step builds one field and two Lie derivatives: weighted by the arity it
    # measures 0.1–2 µs a unit, no more than a witness step (1–2 µs)
    tuples = sized_combinations(op.num_vars + 1, n - 1, n * step_cost(op.nabla, op.box),
                                MAX_WALK, "n-Jacobi slot tuples")
    slots = [Poly.const(op.num_vars, 1)] + Poly.variables(op.num_vars)
    for idx in tuples:
        fs = tuple(slots[i] for i in idx)
        d1, d0 = jacobi_defects(op, list(fs))
        if not (d1.is_zero() and d0.is_zero()):
            return False, fs
    return True, None


def from_poisson_and_form(nabla: MultiVector, omega: OneForm) -> JacobiOp:
    """Build the n-Jacobi operator ∇ + s(ω⌋∇) from a decomposable n-Poisson
    tensor and a closed 1-form."""
    ok, _ = is_n_poisson(nabla)
    if not ok:
        raise ValueError("top part must satisfy the fundamental identity")
    if not decomposable_given(nabla, ok):
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
