"""Exact linear algebra over the rationals.

Dense matrices are lists of lists of ``Fraction``.  Provides the handful of
exact routines the rest of the package needs: rank, nullspace, inverse,
determinant, and congruence diagonalization of symmetric bilinear forms.

Rank, nullspace and inverse share one elimination, ``rref``, on sparse rows
(``{column: entry}`` dicts; ``sparse`` converts a dense matrix).  It is
fraction-free in the manner of Bareiss (Math. Comp. 22, 1968): each row is
kept as coprime integers, a row update is ``a·r − b·p`` followed by content
removal.  It works row by row: each incoming row is reduced once against
the pivot rows whose columns it holds, and its leading column, if anything
is left, becomes a pivot that is cleared from the pivot rows holding it.
So the Casimir and derivation systems, mostly zeros and with many repeated
rows, cost in proportion to their nonzero entries, and a repeated row is
one reduction to zero.  Each pivot row is turned into ``Fraction``s once,
at the end; the reduced form is canonical, so the result does not depend on
how it was reached.

One routine is generic over the coefficient ring: ``wedge_minors`` builds
wedge products as signed minors, for ``Fraction`` vectors (n-Lie brackets)
and for ``Poly`` gradients (multi-derivations) alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


Matrix = list[list[Fraction]]
Vector = list[Fraction]
Row = dict[int, Fraction]  # a sparse row: column -> nonzero entry
Rational = int | Fraction


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return [sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a]


def sparse(a: Matrix) -> list[Row]:
    """The rows of a dense matrix as sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _primitive(row: Mapping[int, Rational]) -> dict[int, int]:
    """``row`` scaled to coprime integers: times the lcm of its denominators,
    divided by the gcd of the results; zero entries dropped."""
    row = {j: x for j, x in row.items() if x}
    den = math.lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = math.gcd(*ints.values())
    return {j: x // g for j, x in ints.items()} if g > 1 else ints


def _eliminate(r: dict[int, int], p: dict[int, int], c: int
               ) -> tuple[dict[int, int], int, int]:
    """(a·r − b·p)/g with column ``c`` cancelled (a/b = p_c/r_c in lowest
    terms), g the content of a·r − b·p, zeros dropped; and a and g."""
    g = math.gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {j: a * x for j, x in r.items()} if a != 1 else dict(r)
    for j, y in p.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = math.gcd(*out.values())
    return ({j: x // g for j, x in out.items()} if g > 1 else out), a, g


def rref(rows: Iterable[Mapping[int, Rational]]) -> tuple[list[Row], list[int]]:
    """Reduced row-echelon form of sparse rows: its nonzero rows, the r-th
    with leading 1 in column ``pivots[r]``, and the list of pivot columns.

    Fraction-free and row by row: each incoming row, kept as coprime
    integers, is reduced once against the pivot rows whose columns it holds
    (r becomes a·r − b·p with a/b = p_c/r_c in lowest terms); what is left
    has no pivot column, and its leading column c becomes a pivot, cleared
    from the earlier pivot rows that hold it.  Each pivot row thus leads at
    its pivot and is zero in every other pivot column, so the result is the
    canonical reduced form, whatever the order of the rows.
    """
    done: dict[int, dict[int, int]] = {}  # pivot column -> its pivot row
    for r in map(_primitive, rows):
        for c in [c for c in r if c in done]:
            r = _eliminate(r, done[c], c)[0]
        if r:
            c = min(r)
            for k, p in done.items():
                if c in p:
                    done[k] = _eliminate(p, r, c)[0]
            done[c] = r
    pivots = sorted(done)
    return [{j: Fraction(x, r[c]) for j, x in r.items()}
            for c, r in zip(pivots, map(done.get, pivots))], pivots


def rank(a: Matrix) -> int:
    return len(rref(sparse(a))[1])


def nullspace(rows: Sequence[Mapping[int, Rational]], cols: int) -> list[Vector]:
    """Basis of the right nullspace of sparse ``rows`` with ``cols`` columns
    (exact)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x = row.get(f)
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    red, pivots = rref({**row, n + i: 1} for i, row in enumerate(sparse(a)))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in red]


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return result


def wedge_minors(minors: dict, vecs: Iterable[Iterable[tuple[int, object]]]) -> dict:
    """minors ∧ v for each v of ``vecs`` in turn, over any ring with ``+``,
    ``*`` and unary ``−``.

    A wedge is a map from strictly increasing index tuples to its minors
    (``{(): 1}`` is the empty wedge); each v gives its nonzero (index, entry)
    pairs and is walked once per minor, so it must not be an iterator.  e_i
    placed behind the larger indices of a tuple flips the sign once for each.
    Only nonzero entries are visited, so the wedge of k basis vectors is one
    minor; values may hold zeros.
    """
    for vec in vecs:
        out: dict = {}
        for key, coef in minors.items():
            for i, x in vec:
                pos = bisect_left(key, i)
                if pos < len(key) and key[pos] == i:
                    continue
                new = key[:pos] + (i,) + key[pos:]
                term = coef * x if (len(key) - pos) % 2 == 0 else -coef * x
                prev = out.get(new)
                out[new] = term if prev is None else prev + term
        minors = out
    return minors


def congruent_diagonalize(a: Matrix) -> tuple[Matrix, Matrix]:
    """Diagonalize a symmetric matrix by congruence over the rationals.

    Returns ``(d, c)`` with ``d = cᵀ a c`` diagonal.
    """
    n = len(a)
    d = [row[:] for row in a]
    c = identity(n)

    def col_op(j, k, factor):
        # column_j += factor * column_k, mirrored on rows to keep symmetry
        for i in range(n):
            d[i][j] += factor * d[i][k]
        for i in range(n):
            d[j][i] += factor * d[k][i]
        for i in range(n):
            c[i][j] += factor * c[i][k]

    def col_swap(j, k):
        for i in range(n):
            d[i][j], d[i][k] = d[i][k], d[i][j]
        d[j], d[k] = d[k], d[j]
        for i in range(n):
            c[i][j], c[i][k] = c[i][k], c[i][j]

    for p in range(n):
        if d[p][p] == 0:
            # bring a nonzero entry to the pivot: prefer a later diagonal
            k = next((i for i in range(p + 1, n) if d[i][i] != 0), None)
            if k is not None:
                col_swap(p, k)
            else:
                k = next((j for j in range(p + 1, n) if d[p][j] != 0), None)
                if k is None:
                    continue
                col_op(p, k, Fraction(1))  # pivot becomes 2*d[p][k] != 0
        inv = Fraction(1) / d[p][p]
        for j in range(p + 1, n):
            if d[p][j] != 0:
                col_op(j, p, -d[p][j] * inv)
    return d, c


def signature(a: Matrix) -> tuple[int, int]:
    """(number of positive, number of negative) diagonal entries after
    congruence diagonalization — Sylvester's law makes this well defined."""
    d, _ = congruent_diagonalize(a)
    pos = sum(1 for i in range(len(a)) if d[i][i] > 0)
    neg = sum(1 for i in range(len(a)) if d[i][i] < 0)
    return pos, neg
