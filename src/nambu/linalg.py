"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``.  Provides the handful of exact
routines the rest of the package needs: rank, nullspace, inverse, determinant,
and congruence diagonalization of symmetric bilinear forms.  One routine is
generic over the coefficient ring: ``wedge_minors`` builds wedge products as
signed minors, for ``Fraction`` vectors (n-Lie brackets) and for ``Poly``
gradients (multi-derivations) alike.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence


Matrix = list[list[Fraction]]
Vector = list[Fraction]


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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix, cols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace of ``a`` (exact)."""
    if not a:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(cols or 0)]
                for i in range(cols or 0)]
    n_cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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
