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
component up in it.  Contraction is arranged so that ``df_k⌋…⌋df₁⌋V =
V(f₁,…,f_k)``; contraction with coordinate covectors (``derived``) only drops
indices.  Coordinate and constant slots skip the gradients and the kernel
below (``poly.coordinate_index``): ``contract(x_a)`` is ``derived((a,))``,
``apply`` on coordinates reads ±one component, and a constant slot gives
zero, as d1 = 0.  So the Hamiltonian field of a coordinate tuple a, which the
deciders walk, is one index drop ``derived(a)``.  Contraction and Schouten
bracket are one index-drop kernel, ``_drop_into``: sign · Σᵢ
(dxᵢ⌋A)∧(gᵢ,J ∂_J) added term by term into one ``{index tuple: {exponent:
coef}}`` accumulator by the product loop ``poly._add_products`` compiled for
the variable count, with g = α on J = () for α⌋V and the partials of the
other argument for ⌈A,B⌉.  The Lie derivative along a field X, the bracket
⌈X,T⌉, runs on its own kernel, ``_lie_into``: L_X T = Σᵢ Xᵢ·∂ᵢT +
(−1)^l Σᵢ (dxᵢ⌋T)∧∂ᵢX, the one index k of ∂ᵢX_k put into each remaining
tuple of T by bisection, and skipped before any product when the tuple
holds it.  It reads X as term maps and their partials, so
``njacobi.jacobi_defects`` runs it on a field it never builds as a
multivector.  A multivector keeps the two tables the kernels read once they
are built, as a ``Poly`` keeps its gradient: its partials (``_partials``, all
of a component's partials read in one pass over its terms) and its drop
table (``_drops``).  So a walk that takes the Lie derivatives of one fixed
tensor along many fields builds that tensor's tables once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .poly import (MAX_VARS, MAX_WALK, Poly, _add_products, _stored, coordinate_index,
                   integer_scaling, json_int, refuse_above, refuse_repeated,
                   sized_combinations)

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


class MultiVector:
    """Immutable sparse multivector with exact polynomial coefficients."""

    # ``_grad`` and ``_drop_table`` hold the kernel's tables of this (immutable)
    # multivector once they are built (``_partials``, ``_drops``); equality
    # and hashing read only the components.
    __slots__ = ("num_vars", "degree", "components", "_grad", "_drop_table")

    def __init__(self, num_vars: int, degree: int,
                 components: Mapping[IndexTuple, Poly] | None = None):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components",
                           _checked_components(num_vars, degree, components or {}))

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
        if not other.components:
            return self
        if not self.components:
            return other
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
        elif factor.num_vars != self.num_vars:
            raise ValueError(f"variable count mismatch: {self.num_vars} vs {factor.num_vars}")
        if not factor.terms:
            return MultiVector._make(self.num_vars, self.degree, {})
        # a product of nonzero polynomials is nonzero
        return MultiVector._make(self.num_vars, self.degree,
                                 {i: p * factor for i, p in self.components.items()})

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
        acc: dict[IndexTuple, dict] = {}
        add = _add_products(self.num_vars)
        right = [(j, q.terms) for j, q in other.components.items()]
        for i, p in self.components.items():
            _wedge_into(add, acc, i, p.terms, right, 1)
        return _finished(self.num_vars, degree, acc)

    def contract_form(self, alpha: Sequence[Poly]) -> "MultiVector":
        """Contraction α⌋V with a 1-form given by its m coefficients."""
        if self.degree < 1:
            raise ValueError("cannot contract a degree-0 multivector")
        acc: dict[IndexTuple, dict] = {}
        _drop_into(acc, self, [[((), a.terms)] if a.terms else [] for a in alpha], 1)
        return _finished(self.num_vars, self.degree - 1, acc)

    def contract(self, f: Poly) -> "MultiVector":
        """df⌋V — contraction with the differential of a function; for f
        exactly x_a this only drops a (``derived``), and d(constant) = 0."""
        a = coordinate_index(f)
        if a is None or self.degree < 1:
            return self.contract_form(f.gradient())
        if a < 0:
            return MultiVector.zero(self.num_vars, self.degree - 1)
        return self.derived((a,))

    def hamiltonian_field(self, fs: Sequence[Poly]) -> "MultiVector":
        """X_{f₁,…,f_{n−1}} = df_{n−1}⌋…⌋df₁⌋V; on coordinates x_{a₁},…,x_{a_{n−1}}
        one index drop ``derived(a)``, zero if a slot is constant (its −1 is in
        no index tuple)."""
        if len(fs) != self.degree - 1:
            raise ValueError(f"expected {self.degree - 1} functions, got {len(fs)}")
        slots = [coordinate_index(f) for f in fs]
        if None not in slots:
            return self.derived(slots)
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
            raise ValueError(f"cannot contract {len(covector_indices)} covectors "
                             f"with a degree-{self.degree} multivector")
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
        """V(f₁,…,f_k) = Σ_I p_I · (df₁∧…∧df_k)_I, the minors det‖∂f_a/∂x_{i_b}‖.
        On coordinates x_{a₁},…,x_{a_k} the one minor is the sign of sorting
        a, so the value is ±p_{sorted a}; a constant slot gives 0."""
        if len(fs) != self.degree:
            raise ValueError(f"expected {self.degree} functions, got {len(fs)}")
        total = Poly.zero(self.num_vars)
        slots = [coordinate_index(f) for f in fs]
        if -1 in slots:
            return total
        if None not in slots:
            found = sort_indices(slots)
            if found is None or (p := self.components.get(found[0])) is None:
                return total
            return p if found[1] == 1 else -p
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

    # -- Lie derivative and Schouten bracket --------------------------------------

    def lie_derivative_of(self, v: "MultiVector") -> "MultiVector":
        """L_X(V) = ⌈X, V⌉ for X = self (degree 1)."""
        if self.degree != 1:
            raise ValueError("Lie derivative requires a degree-1 field")
        self._check_compatible(v)
        acc: dict[IndexTuple, dict] = {}
        _lie_into(acc, [(i, p.terms) for (i,), p in self.components.items()],
                  _partials(self), v)
        return _finished(self.num_vars, v.degree, acc)

    def schouten(self, other: "MultiVector") -> "MultiVector":
        """Schouten bracket of multi-derivations, degree k+l−1 (k or l may be 0):

        ⌈A,B⌉ = (−1)^(k+1) Σᵢ [(dxᵢ⌋A)∧∂ᵢB + (−1)^(kl) (dxᵢ⌋B)∧∂ᵢA].

        Above the top degree the bracket vanishes identically and, as with
        ``wedge``, is the zero multivector of the top degree."""
        self._check_compatible(other)
        k, l = self.degree, other.degree
        degree = k + l - 1
        if degree < 0:
            raise ValueError(f"bracket degree {degree} out of range for {self.num_vars} variables")
        if degree > self.num_vars:
            return MultiVector.zero(self.num_vars, self.num_vars)
        sign = 1 if k & 1 else -1
        acc: dict[IndexTuple, dict] = {}
        _drop_into(acc, self, _partials(other), sign)
        _drop_into(acc, other, _partials(self), -sign if k * l & 1 else sign)
        return _finished(self.num_vars, degree, acc)


def _checked_components(num_vars: int, degree: int,
                         components: Mapping[IndexTuple, Poly]) -> dict[IndexTuple, Poly]:
    """The nonzero ``components`` in a new dict, after the checks of the
    constructor: ValueError unless 0 ≤ ``degree`` ≤ ``num_vars`` and every
    index tuple is strictly increasing, of length ``degree`` and in range,
    with a coefficient in ``num_vars`` variables."""
    if not 0 <= degree <= num_vars:
        raise ValueError(f"degree {degree} out of range for {num_vars} variables")
    clean: dict[IndexTuple, Poly] = {}
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
        if poly.terms:
            clean[indices] = poly
    return clean


def _nonzero(comps: dict[IndexTuple, Poly]) -> dict[IndexTuple, Poly]:
    """``comps`` without its zero coefficients."""
    return {i: p for i, p in comps.items() if p.terms}


# -- the index-drop kernel -------------------------------------------------------

def merge_indices(left: IndexTuple, right: IndexTuple) -> tuple[IndexTuple, int] | None:
    """``sort_indices(left + right)`` for two increasing tuples, each index of
    ``right`` inserted by ``bisect``; None when they share an index."""
    if not (left and right):
        return left + right, 1
    out, sign = list(left), 1
    for j in right:
        pos = bisect_left(out, j)
        if pos < len(out) and out[pos] == j:
            return None
        if (len(out) - pos) & 1:  # j passes the indices of left above it
            sign = -sign
        out.insert(pos, j)
    return tuple(out), sign


def _drop_into(acc: dict[IndexTuple, dict], a: MultiVector,
               g: Sequence[Sequence[tuple[IndexTuple, Mapping]]], sign: int) -> None:
    """Add sign · Σᵢ (dxᵢ⌋A)∧(Σ_J gᵢ,J ∂_J) to ``acc``, each gᵢ a sequence of
    (J, term map) pairs, over the drop table of A (``_drops``)."""
    add = _add_products(a.num_vars)
    for i, rest, p, odd in _drops(a):
        if g[i]:
            _wedge_into(add, acc, rest, p, g[i], -sign if odd else sign)


def _wedge_into(add: Callable[[dict, Mapping, Mapping, int], None],
                acc: dict[IndexTuple, dict], left: IndexTuple, p: Mapping,
                right: Sequence[tuple[IndexTuple, Mapping]], sign: int) -> None:
    """Add sign · (p ∂_left)∧(Σ q ∂_J over (J, q) in ``right``) to ``acc``, a
    ``{index tuple: {exponent: coef}}`` accumulator, term by term as q·p with
    ``add``, the product loop of ``poly._add_products``; a product that would
    repeat an index is skipped before it is formed."""
    for j, q in right:
        merged = merge_indices(left, j)
        if merged is not None:
            add(acc.setdefault(merged[0], {}), q, p, sign * merged[1])


def _drops(v: MultiVector) -> tuple[tuple[int, IndexTuple, Mapping, bool], ...]:
    """The drop table of V: (i, I without i, term map of v_I, whether i sits
    at an odd position t of I) for each component I and each i in it, as
    dxᵢ⌋ drops i with sign (−1)^t.  Built once per (immutable) multivector
    and shared, so callers must not change it."""
    try:
        return v._drop_table
    except AttributeError:
        table = tuple((i, idx[:t] + idx[t + 1:], p.terms, bool(t & 1))
                      for idx, p in v.components.items() for t, i in enumerate(idx))
        object.__setattr__(v, "_drop_table", table)
        return table


def _lie_into(acc: dict[IndexTuple, dict], x: Iterable[tuple[int, Mapping]],
              dx: Sequence[Sequence[tuple[IndexTuple, Mapping]]], t: MultiVector) -> None:
    """Add L_X T = Σᵢ Xᵢ·∂ᵢT + (−1)^l Σᵢ (dxᵢ⌋T)∧∂ᵢX to ``acc`` for a field X
    given by the (i, term map of Xᵢ) of its nonzero components, ``x``, and its
    partials ``dx`` in the form of ``_partials``, and T of degree l: the
    Schouten bracket ⌈X, T⌉ of ``_drop_into`` with the one index k of each
    ∂ᵢX_k put into the remaining tuple of each drop of T by bisection, and
    a k that the tuple holds already skipped before any product."""
    add = _add_products(t.num_vars)
    dt = _partials(t)
    for i, p in x:
        for j, q in dt[i]:
            add(acc.setdefault(j, {}), q, p, 1)
    flip = t.degree & 1
    for i, rest, p, odd in _drops(t):
        for (k,), q in dx[i]:
            pos = bisect_left(rest, k)
            if pos < len(rest) and rest[pos] == k:
                continue
            # k passes the len(rest) − pos indices of rest above it
            negative = flip ^ odd ^ ((len(rest) - pos) & 1)
            add(acc.setdefault(rest[:pos] + (k,) + rest[pos:], {}), q, p,
                -1 if negative else 1)


def _partials(v: MultiVector) -> tuple[tuple[tuple[IndexTuple, Mapping], ...], ...]:
    """``_term_partials`` of the components of V.  Built once per (immutable)
    multivector and shared, so callers must not change it."""
    try:
        return v._grad
    except AttributeError:
        table = _term_partials(v.num_vars, ((j, p.terms) for j, p in v.components.items()))
        object.__setattr__(v, "_grad", table)
        return table


def _term_partials(num_vars: int, components: Iterable[tuple[IndexTuple, Mapping]]
                   ) -> tuple[tuple[tuple[IndexTuple, Mapping], ...], ...]:
    """∂ᵢ of a multivector given by the (J, term map of v_J) of its components,
    for each i: the (J, term map of ∂ᵢv_J) with a nonzero partial, all of a
    component's partials read in one pass over its terms.  Distinct terms
    have distinct partials in each variable, so nothing accumulates."""
    g: list[list[tuple[IndexTuple, Mapping]]] = [[] for _ in range(num_vars)]
    for j, terms in components:
        ds: list[dict] = [{} for _ in range(num_vars)]
        for e, c in terms.items():
            for i, k in enumerate(e):
                if k:
                    d = c * k
                    ds[i][e[:i] + (k - 1,) + e[i + 1:]] = \
                        d if type(d) is int or d.denominator != 1 else d.numerator
        for i, d in enumerate(ds):
            if d:
                g[i].append((j, d))
    return tuple(map(tuple, g))


def _finished(num_vars: int, degree: int, acc: dict[IndexTuple, dict]) -> MultiVector:
    """The multivector of an accumulator, its zero sums dropped."""
    return MultiVector._make(num_vars, degree, {
        idx: Poly._make(num_vars, terms) for idx, t in acc.items() if (terms := _stored(t))})


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


def integral(*vs: MultiVector) -> tuple[MultiVector, ...]:
    """``vs`` times one positive integer c, the lcm of the denominators of all
    their coefficients, so that every coefficient is an ``int``; ``vs`` as
    they are when they are integral already or when c is too large to pay
    off (``poly.integer_scaling``).

    The deciders whose verdicts and witnesses do not change when their
    inputs are multiplied by c run on this multiple, on ``int`` arithmetic,
    after their walk is sized; the functions that return a defect do not,
    as it would scale with c."""
    scale = integer_scaling(x for v in vs for p in v.components.values()
                            for x in p.terms.values())
    if scale is None:
        return vs
    return tuple(MultiVector._make(v.num_vars, v.degree, {
        idx: Poly._make(v.num_vars, {e: scale(x) for e, x in p.terms.items()})
        for idx, p in v.components.items()}) for v in vs)


def wedge_walk(v: MultiVector) -> Iterable[IndexTuple] | None:
    """The covector tuples a₁ < … < a_{k−1} of ``is_decomposable``, sized
    before any work; None when V is decomposable without a walk."""
    if v.degree < 2:
        raise ValueError("decomposability test requires degree ≥ 2")
    if v.is_zero() or v.degree >= v.num_vars - 1:
        # dual to a function or a 1-form: decomposable at every point
        return None
    return sized_combinations(v.num_vars, v.degree - 1, step_cost(v), MAX_WALK,
                              "decomposability wedges")


def is_decomposable(v: MultiVector) -> bool:
    """True iff V_{a₁,…,a_{k−1}} ∧ V = 0 identically for all coordinate covectors.

    Constant coordinate covectors suffice by multilinearity.  The zero
    multivector counts as decomposable.  The wedges are quadratic in V, so
    once their walk is sized they run on its ``integral`` multiple.
    """
    walk = wedge_walk(v)
    if walk is None:
        return True
    v, = integral(v)
    return all(v.derived(covs).wedge(v).is_zero() for covs in walk)


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

    def exterior_derivative(self) -> list[list[Poly]]:
        """Skew matrix (dα)_{ij} = ∂α_j/∂x_i − ∂α_i/∂x_j."""
        m = self.num_vars
        return [[self.components[j].partial(i) - self.components[i].partial(j)
                 for j in range(m)] for i in range(m)]

    def is_closed(self) -> bool:
        d = self.exterior_derivative()
        return all(d[i][j].is_zero()
                   for i in range(self.num_vars) for j in range(i + 1, self.num_vars))


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
    """The JSON form read in one pass.  The errors, and which of several comes
    first, are those of reading every component and then building
    ``MultiVector(m, degree, components)``; after them, an index tuple that
    the file lists twice is refused."""
    m = json_int(data["num_vars"])
    refuse_above(m, MAX_VARS, f"{m} variables")
    degree = json_int(data["degree"])
    comps = {}
    repeated = None
    for item in data.get("components", []):
        idx = tuple(json_int(i) - 1 for i in item["indices"])
        poly = Poly.from_json(item["poly"], m)
        if repeated is None and idx in comps:
            repeated = idx
        comps[idx] = poly
    comps = _checked_components(m, degree, comps)
    refuse_repeated(repeated)
    return MultiVector._make(m, degree, comps)
