"""Skew-symmetric multivector fields with polynomial coefficients.

A degree-k multivector on m coordinates stores a sparse map from strictly
increasing index tuples (i₁<…<i_k), 0-based, to ``Poly`` coefficients.  The
module provides the calculus used everywhere else: wedge product, contraction
with differentials and 1-forms, Hamiltonian vector fields, Lie derivative,
the Schouten bracket of multi-derivations, derived vectors, rank at a point,
and the decomposability test.

The multi-derivation attached to a multivector is the pairing
``V(f₁,…,f_k) = Σ_I p_I · (df₁∧…∧df_k)_I``, the same signed-minor pairing
the n-Lie bracket uses for its structure constants: ``apply`` builds the
wedge of the gradients once with ``linalg.wedge_minors`` and looks each
component up in it, so coordinate slots cost a single minor.  Contraction is
arranged so that ``df_k⌋…⌋df₁⌋V = V(f₁,…,f_k)``; contraction with coordinate
covectors (``derived``) only drops indices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .poly import (MAX_VARS, MAX_WALK, Poly, _add_products, _stored, json_int,
                   refuse_above, sized_combinations)

IndexTuple = tuple[int, ...]


def sort_indices(indices: Sequence[int]) -> tuple[IndexTuple, int] | None:
    """Sort an index tuple into increasing order, tracking permutation sign.

    Returns None when an index repeats (the term vanishes by skew-symmetry).
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; counts transpositions exactly
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    return tuple(idx), sign


def merge_sign(left: IndexTuple, right: IndexTuple) -> int:
    """Parity sign of sorting the concatenation of two increasing tuples."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions & 1 else 1


class MultiVector:
    """Immutable sparse multivector with exact polynomial coefficients."""

    __slots__ = ("num_vars", "degree", "components")

    def __init__(self, num_vars: int, degree: int,
                 components: Mapping[IndexTuple, Poly] | None = None):
        if not 0 <= degree <= num_vars:
            raise ValueError(f"degree {degree} out of range for {num_vars} variables")
        clean: dict[IndexTuple, Poly] = {}
        if components:
            for indices, poly in components.items():
                indices = tuple(indices)
                if len(indices) != degree:
                    raise ValueError(f"index tuple {indices} has wrong length for degree {degree}")
                if any(not 0 <= i < num_vars for i in indices):
                    raise ValueError(f"index tuple {indices} out of range")
                if list(indices) != sorted(set(indices)):
                    raise ValueError(f"index tuple {indices} must be strictly increasing")
                if poly.num_vars != num_vars:
                    raise ValueError("coefficient variable count mismatch")
                if not poly.is_zero():
                    clean[indices] = poly
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    @staticmethod
    def _make(num_vars: int, degree: int,
              components: dict[IndexTuple, Poly]) -> "MultiVector":
        """Wrap ``components`` as they are: strictly increasing index tuples of
        length ``degree`` in range to nonzero coefficients in ``num_vars``
        variables.  The dict is not copied."""
        v = object.__new__(MultiVector)
        object.__setattr__(v, "num_vars", num_vars)
        object.__setattr__(v, "degree", degree)
        object.__setattr__(v, "components", components)
        return v

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiVector is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(num_vars: int, degree: int) -> "MultiVector":
        return MultiVector(num_vars, degree)

    @staticmethod
    def basis(num_vars: int, indices: Sequence[int], coef: Poly | int = 1) -> "MultiVector":
        """coef · ∂_{i₁}∧…∧∂_{i_k} for arbitrary (possibly unsorted) indices."""
        sorted_sign = sort_indices(indices)
        if sorted_sign is None:
            return MultiVector.zero(num_vars, len(indices))
        idx, sign = sorted_sign
        if not isinstance(coef, Poly):
            coef = Poly.const(num_vars, coef)
        return MultiVector(num_vars, len(idx), {idx: coef * sign})

    @staticmethod
    def from_terms(num_vars: int, degree: int,
                   terms: Iterable[tuple[Sequence[int], Poly]]) -> "MultiVector":
        """Accumulate (indices, poly) terms, normalizing index order and signs."""
        acc: dict[IndexTuple, Poly] = {}
        for indices, poly in terms:
            ss = sort_indices(indices)
            if ss is None or poly.is_zero():
                continue
            idx, sign = ss
            contrib = poly if sign == 1 else -poly
            acc[idx] = acc.get(idx, Poly.zero(num_vars)) + contrib
        return MultiVector._make(num_vars, degree, _nonzero(acc))

    @staticmethod
    def vector(coeffs: Sequence[Poly]) -> "MultiVector":
        """Degree-1 field Σ cᵢ ∂ᵢ from a full coefficient list."""
        num_vars = len(coeffs)
        return MultiVector(num_vars, 1,
                           {(i,): c for i, c in enumerate(coeffs) if not c.is_zero()})

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, indices: Sequence[int]) -> Poly:
        return self.components.get(tuple(indices), Poly.zero(self.num_vars))

    def vector_coeffs(self) -> list[Poly]:
        """Full coefficient list of a degree-1 field."""
        if self.degree != 1:
            raise ValueError("vector_coeffs requires degree 1")
        return [self.coefficient((i,)) for i in range(self.num_vars)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.degree == other.degree
                and self.components == other.components)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, frozenset(self.components.items())))

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        comps = dict(self.components)
        for idx, poly in other.components.items():
            total = comps.get(idx)
            comps[idx] = poly if total is None else total + poly
        return MultiVector._make(self.num_vars, self.degree, _nonzero(comps))

    def __neg__(self) -> "MultiVector":
        return MultiVector._make(self.num_vars, self.degree,
                                 {i: -p for i, p in self.components.items()})

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def __mul__(self, factor) -> "MultiVector":
        """Multiply every coefficient by a Poly or scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.const(self.num_vars, Fraction(factor))
        comps = {i: p * factor for i, p in self.components.items()}
        # a product of nonzero polynomials is nonzero
        return MultiVector._make(self.num_vars, self.degree, comps if factor.terms else {})

    __rmul__ = __mul__

    def _check_compatible(self, other: "MultiVector") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(f"variable count mismatch: {self.num_vars} vs {other.num_vars}")

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for idx in sorted(self.components):
            wedge_part = "^".join(f"d{i + 1}" for i in idx) or "1"
            parts.append(f"({self.components[idx]}) {wedge_part}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- wedge / contraction -------------------------------------------------

    def wedge(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        degree = self.degree + other.degree
        if degree > self.num_vars:
            # the product vanishes identically; report it at the top degree
            return MultiVector.zero(self.num_vars, self.num_vars)
        terms = []
        for i1, p1 in self.components.items():
            for i2, p2 in other.components.items():
                terms.append((i1 + i2, p1 * p2))
        return MultiVector.from_terms(self.num_vars, degree, terms)

    def contract_form(self, alpha: Sequence[Poly]) -> "MultiVector":
        """Contraction α⌋V with a 1-form given by its m coefficients."""
        if self.degree < 1:
            raise ValueError("cannot contract a degree-0 multivector")
        zero = Poly.zero(self.num_vars)
        acc: dict[IndexTuple, Poly] = {}
        for idx, poly in self.components.items():
            for t, i in enumerate(idx):
                a = alpha[i]
                if a.is_zero():
                    continue
                rest = idx[:t] + idx[t + 1:]
                contrib = a * poly
                if t & 1:
                    contrib = -contrib
                acc[rest] = acc.get(rest, zero) + contrib
        return MultiVector._make(self.num_vars, self.degree - 1, _nonzero(acc))

    def contract(self, f: Poly) -> "MultiVector":
        """df⌋V — contraction with the differential of a function."""
        return self.contract_form(f.gradient())

    def hamiltonian_field(self, fs: Sequence[Poly]) -> "MultiVector":
        """X_{f₁,…,f_{n−1}} = df_{n−1}⌋…⌋df₁⌋V."""
        if len(fs) != self.degree - 1:
            raise ValueError(f"expected {self.degree - 1} functions, got {len(fs)}")
        out = self
        for f in fs:
            out = out.contract(f)
        return out

    def derived(self, covector_indices: Sequence[int]) -> "MultiVector":
        """V_{a₁,…,a_j}: contraction with constant coordinate covectors dx_a.

        dx_a⌋ drops a from each index tuple holding it, at position t, with
        sign (−1)^t; distinct tuples stay distinct, so nothing accumulates.
        """
        if len(covector_indices) > self.degree:
            raise ValueError("cannot contract a degree-0 multivector")
        comps: dict[IndexTuple, Poly] = {}
        for idx, poly in self.components.items():
            sign = 1
            for a in covector_indices:
                if a not in idx:
                    break
                t = idx.index(a)
                idx = idx[:t] + idx[t + 1:]
                if t & 1:
                    sign = -sign
            else:
                comps[idx] = poly if sign == 1 else -poly
        return MultiVector._make(self.num_vars, self.degree - len(covector_indices), comps)

    # -- evaluation as a multi-derivation -------------------------------------

    def apply(self, fs: Sequence[Poly]) -> Poly:
        """V(f₁,…,f_k) = Σ_I p_I · (df₁∧…∧df_k)_I, the minors det‖∂f_a/∂x_{i_b}‖."""
        if len(fs) != self.degree:
            raise ValueError(f"expected {self.degree} functions, got {len(fs)}")
        total = Poly.zero(self.num_vars)
        if self.degree == 0:
            return self.components.get((), total)
        # only minors on the coordinates V involves can meet a component
        support = {i for idx in self.components for i in idx}
        grads = [[(i, d) for i in support if not (d := grad[i]).is_zero()]
                 for grad in (f.gradient() for f in fs)]
        wedge = linalg.wedge_minors({(i,): d for i, d in grads[0]}, grads[1:])
        for idx, poly in self.components.items():
            d = wedge.get(idx)
            if d is not None and not d.is_zero():
                total = total + poly * d
        return total

    def apply_field(self, g: Poly) -> Poly:
        """A degree-1 field acting on a function as a derivation."""
        if self.degree != 1:
            raise ValueError("apply_field requires degree 1")
        return self.apply([g])

    def evaluate(self, point: Sequence) -> dict[IndexTuple, Fraction]:
        return {idx: poly.evaluate(point) for idx, poly in self.components.items()}

    # -- Lie derivative --------------------------------------------------------

    def lie_derivative_of(self, v: "MultiVector") -> "MultiVector":
        """L_X(V) for X = self (degree 1):

        L_X(p ∂_I) = X(p) ∂_I − p Σ_t Σ_j ∂_{i_t}x_j ∂_{I with i_t → j}.

        Every term product goes straight into one ``{index tuple: {exponent:
        coef}}`` accumulator, read from the cached gradients of p and of X's
        coefficients; a tuple that would repeat an index is dropped before
        its product, and each output component is built once."""
        if self.degree != 1:
            raise ValueError("Lie derivative requires a degree-1 field")
        self._check_compatible(v)
        x = [(j, c.terms, c.gradient()) for (j,), c in self.components.items()]
        acc: dict[IndexTuple, dict] = {}
        for idx, poly in v.components.items():
            grad = poly.gradient()
            flow = acc.setdefault(idx, {})  # X(p)
            for j, c, _ in x:
                _add_products(flow, c, grad[j].terms)
            for t, i in enumerate(idx):
                for j, _, dx in x:
                    d = dx[i].terms
                    if not d:
                        continue
                    if j == i:
                        key, sign = idx, 1
                    elif j in idx:
                        continue
                    else:
                        key, sign = sort_indices(idx[:t] + (j,) + idx[t + 1:])
                    _add_products(acc.setdefault(key, {}), poly.terms, d, -sign)
        comps = {}
        for idx, terms in acc.items():
            terms = _stored(terms)
            if terms:
                comps[idx] = Poly._make(self.num_vars, terms)
        return MultiVector._make(self.num_vars, v.degree, comps)

    # -- Schouten bracket --------------------------------------------------------

    def schouten(self, other: "MultiVector") -> "MultiVector":
        """Schouten bracket of multi-derivations, degree k+l−1.

        Components are reconstructed by evaluating the bracket on coordinate
        tuples; exact because the bracket is again a multi-derivation.
        """
        self._check_compatible(other)
        k, l = self.degree, other.degree
        degree = k + l - 1
        if degree > self.num_vars:
            raise ValueError("bracket degree exceeds variable count")
        if degree < 0:
            raise ValueError("bracket of two degree-0 multivectors is undefined")
        xs = Poly.variables(self.num_vars)
        comps: dict[IndexTuple, Poly] = {}
        for idx in itertools.combinations(range(self.num_vars), degree):
            value = _schouten_value(self, other, [xs[i] for i in idx])
            if not value.is_zero():
                comps[idx] = value
        return MultiVector(self.num_vars, degree, comps)


def _nonzero(comps: dict[IndexTuple, Poly]) -> dict[IndexTuple, Poly]:
    """``comps`` without its zero coefficients."""
    return {i: p for i, p in comps.items() if p.terms}


def _schouten_value(a: MultiVector, b: MultiVector, fs: list[Poly]) -> Poly:
    """Evaluate the Schouten bracket of multi-derivations on functions:

    ⌈A,B⌉(f₁,…,f_{k+l−1}) = Σ_{|I|=k−1} ±A(f_I, B(f_Ī)) − Σ_{|J|=k} ±B(A(f_J), f_J̄)

    where ± is the parity of shuffling I to the front.
    """
    k, l = a.degree, b.degree
    total = Poly.zero(a.num_vars)
    positions = range(len(fs))
    for i_set in itertools.combinations(positions, k - 1):
        comp = tuple(p for p in positions if p not in i_set)
        sign = merge_sign(i_set, comp)
        inner = b.apply([fs[p] for p in comp])
        term = a.apply([fs[p] for p in i_set] + [inner])
        total = total + (term if sign == 1 else -term)
    for j_set in itertools.combinations(positions, k):
        comp = tuple(p for p in positions if p not in j_set)
        sign = merge_sign(j_set, comp)
        inner = a.apply([fs[p] for p in j_set])
        term = b.apply([inner] + [fs[p] for p in comp])
        total = total - (term if sign == 1 else -term)
    return total


# -- derived vectors, rank, decomposability ------------------------------------

def derived_rank(v: MultiVector, point: Sequence) -> int:
    """Dimension at a point of the span of all derived vectors V_{a₁,…,a_{k−1}}.

    Each component is evaluated once.  Dropping a₁ < … < a_{k−1} from the
    tuple I = (a…) ∪ {i} in turn leaves i with sign (−1)^(k−1−t), t the
    position of i in I, so V_I(point) enters row (a…) at column i with it."""
    if v.degree < 1:
        raise ValueError("derived_rank requires degree ≥ 1")
    last = v.degree - 1
    rows: dict[IndexTuple, dict[int, Fraction]] = {}
    for idx, poly in v.components.items():
        value = poly.evaluate(point)
        if value:
            for t, i in enumerate(idx):
                rows.setdefault(idx[:t] + idx[t + 1:], {})[i] = \
                    -value if (last - t) & 1 else value
    return len(linalg.rref(rows.values())[1])


def is_decomposable(v: MultiVector) -> bool:
    """True iff V_{a₁,…,a_{k−1}} ∧ V = 0 identically for all coordinate covectors.

    Constant coordinate covectors suffice by multilinearity.  The zero
    multivector counts as decomposable.
    """
    if v.degree < 2:
        raise ValueError("decomposability test requires degree ≥ 2")
    if v.is_zero() or v.degree >= v.num_vars - 1:
        # dual to a function or a 1-form: decomposable at every point
        return True
    for covs in sized_combinations(v.num_vars, v.degree - 1, step_cost(v), MAX_WALK,
                                   "decomposability wedges"):
        if not v.derived(covs).wedge(v).is_zero():
            return False
    return True


def step_cost(*vs: MultiVector) -> int:
    """Work of one step of a slot-tuple walk over ``vs`` (``poly.MAX_WALK``):
    degree × variables of the first × (1 + terms of all), as a step builds
    about degree fields of num_vars-long exponents, even for zero tensors."""
    terms = sum(len(p.terms) for v in vs for p in v.components.values())
    return vs[0].degree * vs[0].num_vars * (1 + terms)


# -- 1-forms ---------------------------------------------------------------------

class OneForm:
    """A differential 1-form Σ αᵢ dxᵢ with polynomial coefficients."""

    __slots__ = ("num_vars", "components")

    def __init__(self, components: Sequence[Poly]):
        components = list(components)
        num_vars = len(components)
        for c in components:
            if c.num_vars != num_vars:
                raise ValueError("coefficient variable count mismatch")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("OneForm is immutable")

    @staticmethod
    def differential(f: Poly) -> "OneForm":
        return OneForm(f.gradient())

    def exterior_derivative(self) -> list[list[Poly]]:
        """Skew matrix (dα)_{ij} = ∂α_j/∂x_i − ∂α_i/∂x_j."""
        m = self.num_vars
        return [[self.components[j].partial(i) - self.components[i].partial(j)
                 for j in range(m)] for i in range(m)]

    def is_closed(self) -> bool:
        d = self.exterior_derivative()
        return all(d[i][j].is_zero()
                   for i in range(self.num_vars) for j in range(i + 1, self.num_vars))

    def to_json(self) -> dict:
        return {"num_vars": self.num_vars,
                "components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(data: Mapping) -> "OneForm":
        m = json_int(data["num_vars"])
        return OneForm([Poly.from_json(c, m) for c in data["components"]])


# -- serialization (1-based indices on the wire) -----------------------------------

def multivector_to_json(v: MultiVector) -> dict:
    return {
        "num_vars": v.num_vars,
        "degree": v.degree,
        "components": [
            {"indices": [i + 1 for i in idx], "poly": v.components[idx].to_json()}
            for idx in sorted(v.components)
        ],
    }


def multivector_from_json(data: Mapping) -> MultiVector:
    m = json_int(data["num_vars"])
    refuse_above(m, MAX_VARS, f"{m} variables")
    degree = json_int(data["degree"])
    comps = {}
    for item in data.get("components", []):
        idx = tuple(json_int(i) - 1 for i in item["indices"])
        comps[idx] = Poly.from_json(item["poly"], m)
    return MultiVector(m, degree, comps)
