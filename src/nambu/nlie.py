"""Finite-dimensional n-Lie algebras given by structure constants.

An ``NLieStructure`` stores the bracket values on increasing basis tuples;
total skew-symmetry and multilinearity recover everything else.  The bracket
forms no determinant, and computes in integers: ``_reduced`` row-reduces its
arguments fraction-free to integer rows with the same wedge up to one
rational factor, removing each row's content as it goes so that the entries
stay small; ``linalg.wedge_minors``, the package's one wedge kernel (signed
minors on increasing index tuples, visiting only nonzero entries), builds
their wedge, and it is paired with the constants of the structure's
``integral`` multiple, cached on the structure: a basis tuple costs one
lookup, and each entry of the answer is one ``Fraction``, the integer sum
times the factor over the multiple.  One kernel, ``_defect``,
computes D·Q(w₁,…,w_n) − Σᵢ Q(w₁,…,Dwᵢ,…,w_n) from the sparse columns of D.
The n-ary Jacobi identity, ``is_derivation`` and the compatibility conditions
of every order between two structures are that kernel with different D and
Q, each inner derivation built once per tuple.

In dimension n + 1 the identity has a closed form.  Row i of the generating
form a is (−1)^i (1-based) times the bracket of the basis tuple omitting eᵢ,
and the algebra is n-Lie iff α = Σ a_ij x_j dx_i satisfies the Frobenius
condition α∧dα = 0 (the dual n-vector ±α⌋(∂₁∧…∧∂_{n+1}) is then n-Poisson).
With K = a − aᵀ the coefficient of x_l in (α∧dα)_ijk is −c_ijkl(a, K),

    c_ijkl(a, K) = a_il K_jk − a_jl K_ik + a_kl K_ij,

so ``check_n_jacobi`` and ``compat`` test C(n+1, 3)·(n+1) quadratic
identities and search basis tuples only for a witness after a false verdict.
``compat`` tests the polarisation c(a_P, K_Q) + c(a_Q, K_P) = 0.  Two
quadratic maps with the same zeros may have polarisations with different
zeros, so this rests on more: the defect vector J(a) of the tuple search and
the vector F(a) of the c_ijkl are linear images of each other, J = L·F and
F = L′·J as quadratic forms in a (``tests/test_nlie.py`` checks the ranks).
Their polarisations, the compatibility defects and c(a_P, K_Q) + c(a_Q, K_P),
are then the same images of each other and vanish together.  Other
dimensions keep the tuple search.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg
from .poly import (MAX_WORK, coef_text, integer_scaling, json_int, json_rational,
                   refuse_above, refuse_repeated, sized_combinations)

IndexTuple = tuple[int, ...]
Vector = list[Fraction]
Sparse = dict[int, Fraction]             # nonzero entries by index
Minors = dict[IndexTuple, Fraction]      # a wedge product on increasing tuples
Entries = Iterable[tuple[int, Fraction]]  # (index, value) pairs of a vector


def _to_vec(v: Sequence, dim: int) -> Vector:
    """``v`` as a new list of ``Fraction``s; an entry that is one already is
    not converted again (``nlie_from_json`` reads each constant in the stored
    form of ``poly.json_rational``, so only its integers are converted)."""
    v = [x if type(x) is Fraction else Fraction(x) for x in v]
    if len(v) != dim:
        raise ValueError(f"vector has length {len(v)}, expected {dim}")
    return v


def _reduced(vs: Sequence[Sequence], dim: int) -> tuple[list[list[tuple[int, int]]], Fraction]:
    """Integer rows r₁,…,r_k and the rational f with v₁∧…∧v_k = f·r₁∧…∧r_k,
    f = 0 when the v's are dependent.

    Each argument is scaled to coprime integers; then the sparsest row
    first pivots on its leading index, and each other row s that holds it
    becomes (a·s − b·r)/g, a/b the ratio of the two entries in lowest terms
    and g the content of a·s − b·r (``linalg._eliminate``, as in ``rref``);
    f collects the scales and the a/g.  Adding a multiple of one row to
    another leaves the wedge unchanged, so each row keeps its pivot and at
    most c = dim − k other indices, and the wedge has at most Σⱼ C(k, j)·C(c, j)
    minors (k + 1 for c = 1) where dense arguments would make up to 2^dim
    partial minors.  Content removal keeps each row primitive, so it divides
    a vector of minors of the arguments and its entries stay under their
    Hadamard bound; without it they grow with every step (30 dense ±2
    arguments in dimension 31: 18 bits, against 148)."""
    num, den = 1, 1
    rows = []
    for v in vs:
        if len(v) != dim:
            raise ValueError(f"vector has length {len(v)}, expected {dim}")
        try:
            d = math.lcm(*[x.denominator for x in v])
        except AttributeError:  # a float or another number: read as a Fraction
            v = [Fraction(x) for x in v]
            d = math.lcm(*[x.denominator for x in v])
        ints = [x.numerator * (d // x.denominator) for x in v]
        g = math.gcd(*ints)  # v = (g/d)·row
        rows.append({j: x // g for j, x in enumerate(ints) if x})
        num *= g
        den *= d
    for r in sorted(range(len(rows)), key=lambda s: len(rows[s])):
        pivot = rows[r]
        if not pivot:
            return [[]] * len(rows), Fraction(0)
        c = min(pivot)
        for s, row in enumerate(rows):
            if s != r and c in row:
                rows[s], a, g = linalg._eliminate(row, pivot, c)
                num *= g
                den *= a
    return [list(row.items()) for row in rows], Fraction(num, den)


def _apply(cols: Sequence[Sparse], vec: Entries) -> Sparse:
    """D·v for D given by its sparse columns."""
    out: Sparse = {}
    for j, c in vec:
        for r, x in cols[j].items():
            out[r] = out.get(r, 0) + c * x
    return out


def _defect(terms: Sequence[tuple[Sequence[Sparse], "NLieStructure"]],
            ws: Sequence[Entries]) -> Sparse:
    """Σ over (D, Q) in ``terms`` of D·Q(w₁,…,w_n) − Σᵢ Q(w₁,…,Dwᵢ,…,w_n), for
    D's sparse columns; may hold zeros.  Slot i is moved last, (w₁,…,Dwᵢ,…,w_n)
    = (−1)^(n−1−i) (w₁,…,ŵᵢ,…,w_n, Dwᵢ), so the column of D is visited once."""
    n = len(ws)
    out: Sparse = {}
    for cols, q in terms:
        for r, x in _apply(cols, q._pair(linalg.wedge_minors({(): 1}, ws)).items()).items():
            out[r] = out.get(r, 0) + x
    for i in range(n):
        rest = linalg.wedge_minors({(): -1 if (n - 1 - i) % 2 else 1}, ws[:i] + ws[i + 1:])
        for cols, q in terms:
            moved = [_apply(cols, ws[i]).items()]
            for r, x in q._pair(linalg.wedge_minors(rest, moved)).items():
                out[r] = out.get(r, 0) - x
    return out


def _step_cost(arity: int, structures: Iterable["NLieStructure"]) -> tuple[int, int]:
    """(work, nonzero constants) of a step of an n-Lie walk: ``arity`` wedges of up
    to ``arity`` arguments, paired with the constants of ``structures``."""
    nnz = sum(len(entries) for p in structures for entries in p._sparse.values())
    return arity * (arity + nnz), nnz


def _u_tuples(dim: int, arity: int, structures: Iterable["NLieStructure"]
              ) -> Iterator[IndexTuple]:
    """The u tuples of a walk over all (u, w) pairs of basis tuples, refused
    before the first if its pairs of ``_step_cost`` work exceed MAX_WORK."""
    step, nnz = _step_cost(arity, structures)
    w_count = math.comb(dim, arity)
    return sized_combinations(dim, arity - 1, w_count * step, MAX_WORK,
                              f"dimension {dim}, arity {arity}: "
                              f"{math.comb(dim, arity - 1) * w_count} (u, w) basis tuple "
                              f"pairs with {nnz} nonzero structure constants, u tuples")


def form_row(dim: int, i: int) -> tuple[IndexTuple, int]:
    """(the increasing basis tuple omitting i, (−1)^i with i 1-based): row i
    of a generating form is that sign times the bracket of the tuple, the
    sign fixing the library's orientation."""
    return tuple(k for k in range(dim) if k != i), 1 if i % 2 else -1


def generating_form(p: "NLieStructure") -> linalg.Matrix:
    """Matrix a_ij of the generating bilinear form of an (n+1)-dim algebra,
    read off the structure constants: α_i = (−1)^i [e_1,…,ê_i,…,e_{n+1}]."""
    if p.dim != p.arity + 1:
        raise ValueError("dimension must equal arity + 1")
    zero = [Fraction(0)] * p.dim
    return [[sign * x for x in p.constants.get(comp, zero)]
            for comp, sign in (form_row(p.dim, i) for i in range(p.dim))]


def frobenius_defect(p: "NLieStructure", q: "NLieStructure | None" = None
                     ) -> tuple[int, int, int, int] | None:
    """First (i, j, k, l), i < j < k, in lexicographic order, where
    c_ijkl(a_P, K_P) is nonzero (module docstring), or with ``q`` its
    polarisation c_ijkl(a_P, K_Q) + c_ijkl(a_Q, K_P); None if there is none.
    Needs dimension = arity + 1; refuses C(dim, 3)·dim above MAX_WORK.  It
    reads the forms of the cached ``integral`` multiples c_P·P and c_Q·Q: c
    is bilinear in (a, K), so both polarisation terms scale by c_P·c_Q and
    the first nonzero coefficient stays where it is."""
    dim = p.dim
    work = math.comb(dim, 3) * dim
    if dim == p.arity + 1:  # else generating_form refuses
        refuse_above(work, MAX_WORK, f"dimension {dim}: {work} coefficients of α∧dα")
    forms = [generating_form(x._integral()[0]) for x in ((p,) if q is None else (p, q))]
    skews = [[[x - y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]
             for a in forms]
    terms = list(zip(forms, reversed(skews)))  # (a_P, K_Q) and (a_Q, K_P)
    for i, j, k in itertools.combinations(range(dim), 3):
        parts = [(a[i], a[j], a[k], s[j][k], s[i][k], s[i][j]) for a, s in terms
                 if s[j][k] or s[i][k] or s[i][j]]
        if not parts:
            continue
        for l in range(dim):
            if sum(ai[l] * kjk - aj[l] * kik + ak[l] * kij
                   for ai, aj, ak, kjk, kik, kij in parts):
                return i, j, k, l
    return None


def integral(*ps: "NLieStructure") -> tuple["NLieStructure", ...]:
    """``ps`` times one positive integer c, the lcm of the denominators of all
    their constants, with ``int`` constants; ``ps`` as they are when they
    are integral already or when c is too large to pay off
    (``poly.integer_scaling``).  The deciders whose zeros do not move when
    every structure of a call is multiplied by c run on these: the kernel is
    bilinear in (D, Q) with D = ad^P linear in P, the c_ijkl of α∧dα are
    bilinear in (a, K), and the derivation system is linear in the
    generating form."""
    scale = integer_scaling(x for p in ps for vec in p.constants.values() for x in vec)
    if scale is None:
        return ps
    return tuple(NLieStructure._make(p.dim, p.arity, {
        idx: [scale(x) for x in vec]
        for idx, vec in p.constants.items()}) for p in ps)


def _first_defect(pairs: Sequence[tuple["NLieStructure", "NLieStructure"]],
                  dim: int, arity: int) -> tuple[IndexTuple, IndexTuple] | None:
    """First (us, ws) of increasing basis tuples, in lexicographic order with
    us outer, where the kernel with the terms (ad^P_{u…}, Q) for (P, Q) in
    ``pairs`` is nonzero; None if there is none.  Every term is quadratic in
    the structures, so all of them are scaled by one ``integral`` factor."""
    u_tuples = _u_tuples(dim, arity, [q for _, q in pairs])
    flat = integral(*(x for pair in pairs for x in pair))
    pairs = list(zip(flat[::2], flat[1::2]))
    basis = [[(i, 1)] for i in range(dim)]
    w_tuples = list(itertools.combinations(range(dim), arity))
    for us in u_tuples:
        u_args = [basis[i] for i in us]
        terms = [(list(p._frozen(u_args).values()), q) for p, q in pairs]
        for ws in w_tuples:
            if any(_defect(terms, [basis[i] for i in ws]).values()):
                return us, ws
    return None


def _checked_constants(dim: int, arity: int,
                       constants: Mapping[IndexTuple, Sequence]) -> dict[IndexTuple, Vector]:
    """The nonzero ``constants`` as new ``Fraction`` lists in a new dict, after
    the checks of the constructor: ValueError unless ``dim`` and ``arity``
    are at least 1 and every key is a strictly increasing ``arity``-tuple in
    range with a vector of length ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if arity < 1:
        raise ValueError("arity must be at least 1")
    clean: dict[IndexTuple, Vector] = {}
    for idx, value in constants.items():
        idx = tuple(idx)
        if len(idx) != arity or list(idx) != sorted(set(idx)):
            raise ValueError(f"constant key {idx} must be a strictly increasing {arity}-tuple")
        if any(not 0 <= i < dim for i in idx):
            raise ValueError(f"constant key {idx} out of range")
        vec = _to_vec(value, dim)
        if any(vec):
            clean[idx] = vec
    return clean


class NLieStructure:
    """Arity-n skew bracket on an N-dimensional space, by structure constants."""

    __slots__ = ("dim", "arity", "constants", "_sparse", "_scaled")

    def __init__(self, dim: int, arity: int,
                 constants: Mapping[IndexTuple, Sequence] | None = None):
        self._set(dim, arity, _checked_constants(dim, arity, constants or {}))

    def _set(self, dim: int, arity: int, constants: dict[IndexTuple, Vector]) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "_sparse", {
            idx: [(j, x) for j, x in enumerate(vec) if x] for idx, vec in constants.items()})
        object.__setattr__(self, "_scaled", None)

    def _integral(self) -> tuple["NLieStructure", Fraction]:
        """(Q, 1/c) for Q = c·P the ``integral`` multiple, built on first use:
        P's brackets are Q's divided by c, paired in integers."""
        if self._scaled is None:
            q, = integral(self)
            key = next(iter(self._sparse), None)
            inv = (Fraction(1) if q is self or key is None
                   else Fraction(self._sparse[key][0][1], q._sparse[key][0][1]))
            object.__setattr__(self, "_scaled", (q, inv))
        return self._scaled

    @staticmethod
    def _make(dim: int, arity: int, constants: dict[IndexTuple, list]) -> "NLieStructure":
        """Wrap ``constants`` as they are: nonzero vectors of length ``dim`` on
        strictly increasing ``arity``-tuples in range, entries ``int`` or
        ``Fraction``.  The dict is not copied."""
        p = object.__new__(NLieStructure)
        p._set(dim, arity, constants)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("NLieStructure is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def basis_vector(dim: int, i: int) -> Vector:
        return [Fraction(1) if j == i else Fraction(0) for j in range(dim)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NLieStructure):
            return NotImplemented
        return (self.dim == other.dim and self.arity == other.arity
                and self.constants == other.constants)

    def __hash__(self) -> int:
        return hash((self.dim, self.arity,
                     frozenset((k, tuple(v)) for k, v in self.constants.items())))

    # -- linear combinations ----------------------------------------------------

    def _combine(self, other: "NLieStructure", a, b) -> "NLieStructure":
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("dimension/arity mismatch")
        a, b = Fraction(a), Fraction(b)
        keys = set(self.constants) | set(other.constants)
        zero = [Fraction(0)] * self.dim
        consts = {}
        for k in keys:
            va = self.constants.get(k, zero)
            vb = other.constants.get(k, zero)
            consts[k] = [a * x + b * y for x, y in zip(va, vb)]
        return NLieStructure(self.dim, self.arity, consts)

    def __add__(self, other: "NLieStructure") -> "NLieStructure":
        return self._combine(other, 1, 1)

    def __sub__(self, other: "NLieStructure") -> "NLieStructure":
        return self._combine(other, 1, -1)

    def __mul__(self, scalar) -> "NLieStructure":
        c = Fraction(scalar)
        return NLieStructure(self.dim, self.arity,
                             {k: [c * x for x in v] for k, v in self.constants.items()})

    __rmul__ = __mul__

    # -- the bracket --------------------------------------------------------------

    def _pair(self, minors: Minors) -> Sparse:
        """Σ over increasing tuples I of minors[I] · [e_I]; may hold zeros."""
        out: Sparse = {}
        for key, coef in minors.items():
            for j, c in self._sparse.get(key, ()):
                out[j] = out.get(j, 0) + coef * c
        return out

    def _dense(self, vec: Sparse, f: Fraction) -> Vector:
        """f·vec as a list of ``Fraction``s, one built per entry."""
        num, den, zero = f.numerator, f.denominator, Fraction(0)
        return [Fraction(x * num, den) if (x := vec.get(j)) else zero
                for j in range(self.dim)]

    def bracket(self, vs: Sequence[Sequence]) -> Vector:
        """Multilinear totally skew evaluation of [v₁,…,v_n], wedged and
        paired in integers (``_reduced`` and the ``integral`` multiple)."""
        if len(vs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(vs)}")
        rows, f = _reduced(vs, self.dim)
        q, inv = self._integral()
        return self._dense(q._frozen(rows)[()], f * inv)

    # -- Jacobi identity ------------------------------------------------------------

    def check_n_jacobi(self) -> tuple[bool, tuple | None]:
        """Verify the n-ary Jacobi identity on all basis tuples.

        [u₁,…,u_{n−1},[v₁,…,v_n]] = Σᵢ [v₁,…,[u₁,…,u_{n−1},vᵢ],…,v_n];
        basis tuples suffice by multilinearity.  Returns (verdict, witness),
        the witness being the first failing (u indices, v indices).  In
        dimension n + 1 the verdict is α∧dα = 0 (module docstring), and the
        tuples are searched only for the witness of a false one.
        """
        if self.arity == 1 or (self.dim == self.arity + 1
                               and frobenius_defect(self) is None):
            return True, None
        witness = _first_defect([(self, self)], self.dim, self.arity)
        return witness is None, witness

    # -- hereditary structures and derivations -------------------------------------

    def _frozen(self, u_args: Sequence[Entries]) -> dict[IndexTuple, Sparse]:
        """[u₁,…,u_k,e_I] for every increasing basis tuple I of length n − k,
        the wedge of the u's built once: for k = n − 1, the columns of ad_{u…}."""
        frozen = linalg.wedge_minors({(): 1}, u_args)
        return {idx: self._pair(linalg.wedge_minors(frozen, [[(i, 1)] for i in idx]))
                for idx in itertools.combinations(range(self.dim), self.arity - len(u_args))}

    def hereditary(self, us: Sequence[Sequence]) -> "NLieStructure":
        """Freeze k arguments: the arity-(n−k) structure P_{u₁,…,u_k}."""
        k = len(us)
        if k >= self.arity:
            raise ValueError("must freeze fewer arguments than the arity")
        new_arity = self.arity - k
        step, nnz = _step_cost(self.arity, [self])
        tuples = sized_combinations(self.dim, new_arity, step, MAX_WORK,
                                    f"dimension {self.dim}, arity {self.arity}: brackets "
                                    f"with {nnz} nonzero structure constants")
        u_vecs = [_to_vec(u, self.dim) for u in us]
        consts = {}
        basis = [NLieStructure.basis_vector(self.dim, i) for i in range(self.dim)]
        for idx in tuples:
            value = self.bracket(u_vecs + [basis[i] for i in idx])
            if any(x != 0 for x in value):
                consts[idx] = value
        return NLieStructure(self.dim, new_arity, consts)

    def inner_derivation(self, us: Sequence[Sequence]) -> linalg.Matrix:
        """Matrix of ad_{u₁,…,u_{n−1}}: v ↦ [u₁,…,u_{n−1},v]."""
        if len(us) != self.arity - 1:
            raise ValueError(f"expected {self.arity - 1} arguments, got {len(us)}")
        rows, f = _reduced(us, self.dim)
        q, inv = self._integral()
        f *= inv
        return linalg.transpose([self._dense(c, f) for c in q._frozen(rows).values()])

    def is_derivation(self, d: linalg.Matrix) -> bool:
        """Whether D[u₁,…,u_n] = Σᵢ [u₁,…,Duᵢ,…,u_n] on all basis tuples.  The
        defect is linear in D and in the structure, so both are scaled to
        integers first."""
        if len(d) != self.dim or any(len(row) != self.dim for row in d):
            raise ValueError("dimension mismatch")
        n = self.arity
        step, nnz = _step_cost(n, [self])
        tuples = sized_combinations(self.dim, n, step, MAX_WORK,
                                    f"derivation check in dimension {self.dim}, arity {n}, "
                                    f"{nnz} nonzero structure constants")
        d = [[Fraction(x) for x in row] for row in d]
        scale = integer_scaling(x for row in d for x in row) or Fraction
        cols = [{i: scale(d[i][j]) for i in range(self.dim) if d[i][j]}
                for j in range(self.dim)]
        p = self._integral()[0]
        return not any(any(_defect([(cols, p)], [[(i, 1)] for i in idx]).values())
                       for idx in tuples)

    # -- compatibility -----------------------------------------------------------------

    def compat_defect(self, other: "NLieStructure",
                      us: Sequence[Sequence], ws: Sequence[Sequence]) -> Vector:
        """[P_{u…}(Q) + Q_{u…}(P)](w₁,…,w_n) — zero for compatible P, Q.

        Here ∂(Q)(w…) = ∂(Q(w…)) − Σᵢ Q(w₁,…,∂wᵢ,…,w_n) with ∂ the pure inner
        derivation ad_{u₁,…,u_{n−1}} of the respective structure.  Both terms
        are bilinear in (P, Q) and alternating multilinear in the u's and in
        the w's, so they are computed on the integral multiples cP, c′Q and
        the ``_reduced`` rows, and the sum is divided by cc′ and the factors.
        """
        if (self.dim, self.arity, self.arity - 1) != (other.dim, other.arity, len(us)) \
                or len(ws) != self.arity:
            raise ValueError("dimension/arity or argument count mismatch")
        u_args, fu = _reduced(us, self.dim)
        w_args, fw = _reduced(ws, self.dim)
        (p, ip), (q, iq) = self._integral(), other._integral()
        terms = [(list(p._frozen(u_args).values()), q),
                 (list(q._frozen(u_args).values()), p)]
        return self._dense(_defect(terms, w_args), fu * fw * ip * iq)

    def compat(self, other: "NLieStructure") -> tuple[bool, tuple | None]:
        """Whether the mutual Lie-derivative defect vanishes on all basis tuples;
        in dimension n + 1, whether the polarisation of α∧dα vanishes, with
        the tuples searched only for the witness of a false verdict."""
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("dimension/arity mismatch")
        if self.dim == self.arity + 1 and frobenius_defect(self, other) is None:
            return True, None
        witness = _first_defect([(self, other), (other, self)], self.dim, self.arity)
        return witness is None, witness

    def comp_condition_k(self, vs: Sequence[Sequence], ws: Sequence[Sequence]) -> bool:
        """The k-th order compatibility condition.

        C(v₁,…,v_k | w₁,…,w_k) = Σ_{I ∋ 1} ⟨(v,w)_I | (w,v)_I⟩ must vanish,
        where (v,w)_I takes vₛ in the slots s ∈ I and wₛ elsewhere, and
        ⟨a… | b…⟩(u…) is the compatibility defect of P_{a…} and P_{b…}.
        The sum runs over increasing subsets I of {1,…,k} containing 1.
        """
        k = len(vs)
        if k != len(ws):
            raise ValueError("need equally many v's and w's")
        if not 1 <= k <= self.arity - 1:
            raise ValueError(f"order {k} out of range for arity {self.arity}")
        # before the hereditary structures exist, this structure's constants
        # stand in for theirs; _first_defect checks again with theirs
        _u_tuples(self.dim, self.arity - k, [self])
        pairs = []
        for r in range(k):
            for rest in itertools.combinations(range(1, k), r):
                i_set = {0, *rest}
                a = self.hereditary([vs[s] if s in i_set else ws[s] for s in range(k)])
                b = self.hereditary([ws[s] if s in i_set else vs[s] for s in range(k)])
                pairs += [(a, b), (b, a)]
        return _first_defect(pairs, self.dim, self.arity - k) is None

    # -- products and transforms --------------------------------------------------------

    def direct_product(self, other: "NLieStructure") -> "NLieStructure":
        """Block-diagonal structure on the direct sum of the two spaces."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        dim = self.dim + other.dim
        consts: dict[IndexTuple, Vector] = {}
        for idx, value in self.constants.items():
            consts[idx] = list(value) + [Fraction(0)] * other.dim
        for idx, value in other.constants.items():
            shifted = tuple(i + self.dim for i in idx)
            consts[shifted] = [Fraction(0)] * self.dim + list(value)
        return NLieStructure(dim, self.arity, consts)

    def change_basis(self, c: linalg.Matrix) -> "NLieStructure":
        """Structure constants in the basis e'_j = Σᵢ c_ij eᵢ (columns of c)."""
        c_inv = linalg.inverse(c)
        cols = [[c[i][j] for i in range(self.dim)] for j in range(self.dim)]
        consts = {}
        for idx in itertools.combinations(range(self.dim), self.arity):
            value = linalg.mat_vec(c_inv, self.bracket([cols[i] for i in idx]))
            if any(x != 0 for x in value):
                consts[idx] = value
        return NLieStructure(self.dim, self.arity, consts)


def vector_product_algebra(n: int) -> NLieStructure:
    """The n-ary vector product on R^{n+1}:

    [e_{i₁},…,e_{i_n}] = sign(σ)·e_j where (i₁,…,i_n,j) is a permutation σ
    of (1,…,n+1) — the Levi-Civita convention on an oriented orthonormal basis.
    """
    if n < 2:
        raise ValueError("arity must be at least 2")
    dim = n + 1
    consts = {}
    for idx in itertools.combinations(range(dim), n):
        (j,) = set(range(dim)) - set(idx)
        # parity of moving j from its natural slot to the end of (idx, j)
        shifts = sum(1 for i in idx if i > j)
        sign = -1 if shifts & 1 else 1
        vec = [Fraction(0)] * dim
        vec[j] = Fraction(sign)
        consts[idx] = vec
    return NLieStructure(dim, n, consts)


# -- serialization (1-based indices on the wire) ------------------------------------------

def nlie_to_json(p: NLieStructure) -> dict:
    return {
        "dim": p.dim,
        "arity": p.arity,
        "constants": [
            {"indices": [i + 1 for i in idx],
             "value": [coef_text(x) for x in p.constants[idx]]}
            for idx in sorted(p.constants)
        ],
    }


def nlie_from_json(data: Mapping) -> NLieStructure:
    """The JSON form read in one pass.  The errors, and which of several comes
    first, are those of reading every constant and then building
    ``NLieStructure(dim, arity, constants)``; after them, an index tuple
    that the file lists twice is refused."""
    dim = json_int(data["dim"])
    arity = json_int(data["arity"])
    consts = {}
    repeated = None
    for item in data.get("constants", []):
        idx = tuple(json_int(i) - 1 for i in item["indices"])
        value = item["value"]
        if type(value) is not list:
            raise ValueError(f"expected a list of rationals, got {value!r}")
        vec = [json_rational(x) for x in value]
        if repeated is None and idx in consts:
            repeated = idx
        consts[idx] = vec
    consts = _checked_constants(dim, arity, consts)
    refuse_repeated(repeated)
    return NLieStructure._make(dim, arity, consts)
