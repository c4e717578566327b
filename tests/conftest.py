"""Shared generators for randomized exact-arithmetic tests.

Everything is driven by seeded ``random.Random`` instances so failures are
reproducible; all generated coefficients are Fractions.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import strategies as st

from nambu.bianchi import BianchiLabel, psi_label, unimodular_label
from nambu.linalg import det, mat, mat_mul, mat_vec, rank, transpose, zeros
from nambu.multivector import MultiVector, OneForm
from nambu.njacobi import jacobi_defects
from nambu.nlie import NLieStructure
from nambu.npoisson import dual_nvector, fi_defect, poly_basis_exponents, slot_monomials
from nambu.poly import Poly


def fi_search_oracle(tensor):
    """The fundamental identity by exhaustive search: the test reference.

    Walks every unordered tuple of distinct monomials of degree 1 and 2 and
    returns (False, first tuple with a nonzero defect), else (True, None).
    It takes no shortcut for zero, top-degree or non-decomposable tensors.
    """
    for fs in itertools.combinations(slot_monomials(tensor.num_vars),
                                     tensor.degree - 1):
        if not fi_defect(tensor, list(fs)).is_zero():
            return False, fs
    return True, None


def fraction_jacobi_walk(op):
    """``is_n_jacobi`` on the Fraction pair itself, unscaled and unsized: the
    reference for its verdict and witness.

    For n ≥ 3 and a top part ∇ with some V_{a…}∧∇ ≠ 0 (not decomposable) it
    is false, with the first tuple of {1, x₁,…,x_m} followed by the quadratic
    monomials on which a defect is nonzero.  Otherwise it is the verdict and
    first failing tuple of the walk over {1, x₁,…,x_m}.
    """
    m, n, nabla = op.num_vars, op.arity, op.nabla
    slots = [Poly.const(m, 1)] + slot_monomials(m)
    decomposable = n <= 2 or n >= m - 1 or all(
        nabla.derived(a).wedge(nabla).is_zero() for a in itertools.combinations(range(m), n - 1))
    if decomposable:
        slots = slots[:m + 1]
    for fs in itertools.combinations(slots, n - 1):
        if not all(d.is_zero() for d in jacobi_defects(op, list(fs))):
            return False, fs
    return decomposable, None


def complete_jacobi_walk(op, max_slot_degree=2):
    """The n-Jacobi property by the complete walk: every tuple of distinct
    elements of {1} ∪ monomials of degree ≤ max_slot_degree, the defects
    from ``jacobi_defects_oracle``.  Each slot of a defect has differential
    order ≤ 2, so degree 2 decides.  Returns (True, None) or (False, first
    failing tuple)."""
    m = op.num_vars
    slots = [Poly.const(m, 1)] + slot_monomials(m, max_slot_degree)
    for fs in itertools.combinations(slots, op.arity - 1):
        if not all(d.is_zero() for d in jacobi_defects_oracle(op, list(fs))):
            return False, fs
    return True, None


def raw_jacobi_oracle(op, max_slot_degree=2):
    """The n-ary Jacobi identity of a Jacobi operator by direct expansion:

    Δ_{u₁,…,u_{n−1}}(Δ(v₁,…,v_n)) = Σᵢ Δ(v₁,…,Δ_{u…}(vᵢ),…,v_n)

    on tuples of monomials of degree ≤ max_slot_degree, where
    Δ_{u…}(g) = Δ(u₁,…,u_{n−1},g).  Slower than the defect route but makes no
    use of the decomposition formulas.  Returns (True, None) or
    (False, first (us, vs)).

    Both sides are homogeneous of degree 2 in Δ, so the identity is expanded
    on the integer multiple c·Δ, c the lcm of the coefficient denominators,
    scaled here term by term: the same tuples and verdict, on ``int``
    arithmetic.  Each outer Δ has one large argument, an inner Δ; as Δ is
    first order in each slot, it is expanded in that slot
    (``slot_coefficients``, ``expand_slot``).  So Δ is applied only to
    tuples of 1, coordinates and slot monomials, each tuple once; slots are
    keyed by their index in that list.
    """
    op = _integer_multiple(op)
    n, m = op.arity, op.num_vars
    slots = [Poly.const(m, 1)] + Poly.variables(m) + slot_monomials(m, max_slot_degree)
    applied, coefficients, partials = {}, {}, {}

    def ap(key):
        value = applied.get(key)
        if value is None:
            value = applied[key] = op.apply([slots[j] for j in key])
        return value

    def outer(key, i, inner):
        """Δ(key) with Δ(inner) in slot i."""
        context = key[:i] + key[i + 1:]
        coeffs = coefficients.get((context, i))
        if coeffs is None:
            coeffs = coefficients[context, i] = slot_coefficients(
                lambda j: ap(context[:i] + (j,) + context[i:]), slots[1:m + 1])
        p = ap(inner)
        grads = partials.get(inner)
        if grads is None:
            grads = partials[inner] = [p.partial(k) for k in range(m)]
        return expand_slot(coeffs, p, grads)

    monos = range(1 + m, len(slots))
    for us in itertools.combinations(monos, n - 1):
        for vs in itertools.combinations(monos, n):
            lhs = outer(us + (None,), n - 1, vs)
            rhs = Poly.zero(m)
            for i in range(n):
                rhs = rhs + outer(vs, i, us + (vs[i],))
            if lhs != rhs:
                return False, (tuple(slots[j] for j in us), tuple(slots[j] for j in vs))
    return True, None


def slot_coefficients(apply_at, xs):
    """The coefficients (c, [a_k]) of Δ in one slot, the others fixed, where
    ``apply_at(0)`` is Δ with 1 in that slot and ``apply_at(k)`` is Δ with
    the coordinate x_k = ``xs[k − 1]`` there.  Δ is first order in each
    slot, so Δ(…, P, …) = P·c + Σ_k ∂_kP·a_k (``expand_slot``), with
    c = Δ(…, 1, …) and a_k = Δ(…, x_k, …) − x_k·c."""
    c = apply_at(0)
    return c, [apply_at(k) - x * c for k, x in enumerate(xs, 1)]


def expand_slot(coefficients, p, partials):
    """Δ(…, p, …) from the ``slot_coefficients`` of Δ in that slot and the
    partials ∂_k p."""
    c, a = coefficients
    total = p * c
    for d, a_k in zip(partials, a):
        if not (d.is_zero() or a_k.is_zero()):
            total = total + d * a_k
    return total


def _integer_multiple(op):
    """The pair (c·∇, c·□) for c the lcm of every coefficient denominator."""
    from nambu.njacobi import JacobiOp
    parts = (op.nabla, op.box)
    c = math.lcm(*(Fraction(x).denominator for v in parts
                   for p in v.components.values() for x in p.terms.values()))
    nabla, box = (MultiVector(v.num_vars, v.degree, {
        idx: Poly(v.num_vars, {e: c * Fraction(x) for e, x in p.terms.items()})
        for idx, p in v.components.items()}) for v in parts)
    return JacobiOp(nabla, box, arity=op.arity)


# -- polynomial reference: a plain dict of Fractions ---------------------------

class RefPoly:
    """The reference for ``Poly``'s ring operations: a dict from exponent
    tuples to ``Fraction`` coefficients, every operation written out
    directly, zeros dropped after each one."""

    def __init__(self, num_vars, terms):
        self.num_vars = num_vars
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return RefPoly(self.num_vars, out)

    def __neg__(self):
        return RefPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly(self.num_vars,
                           {e: Fraction(other) * c for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return RefPoly(self.num_vars, out)

    def __pow__(self, k):
        out = RefPoly(self.num_vars, {(0,) * self.num_vars: 1})
        for _ in range(k):
            out = out * self
        return out

    def partial(self, index):
        out = {}
        for e, c in self.terms.items():
            if e[index]:
                d = list(e)
                d[index] -= 1
                out[tuple(d)] = out.get(tuple(d), Fraction(0)) + c * e[index]
        return RefPoly(self.num_vars, out)


def add_products_oracle(acc, a, b, sign):
    """The reference for the compiled loops of ``poly._add_products``: sign ×
    the product of the term maps ``a`` and ``b`` added into ``acc`` with
    ``tuple(map(add, e1, e2))``, keys in the order of the pairs (e1, e2),
    zero sums kept in place."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = sign * c1 * c2
            acc[e] = acc[e] + c if e in acc else c


def float_plan_oracle(p, point):
    """Float value of ``p`` by the term-by-term plan loop: per term the float
    coefficient times ``point[i] ** e`` over the nonzero exponents in
    ascending index, summed from 0.0 in ``terms`` order.  The reference for
    the compiled float evaluators."""
    plan = [(float(coef), [(i, e) for i, e in enumerate(exps) if e])
            for exps, coef in p.terms.items()]
    total = 0.0
    for v, factors in plan:
        for i, e in factors:
            v *= point[i] ** e
        total += v
    return total


def float_outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the type of the arithmetic error it
    raises: float results compared bit for bit, errors by kind."""
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def rk4_oracle(f, x0, h, steps):
    """States of classical RK4 written with per-stage lists: the reference
    for the generated stepper of ``dynamics``.  Stops before the first
    step that overflows, meets a pole or is not finite."""
    state = [float(x) for x in x0]
    states = [state]
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        try:
            k1 = f(state)
            k2 = f([x + half * d for x, d in zip(state, k1)])
            k3 = f([x + half * d for x, d in zip(state, k2)])
            k4 = f([x + h * d for x, d in zip(state, k3)])
        except (OverflowError, ZeroDivisionError):
            break
        state = [x + sixth * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if not all(math.isfinite(x) for x in state):
            break
        states.append(state)
    return states


# -- multivector oracles: determinant apply and per-component loops ----------

def poly_det(rows):
    """Determinant of a small matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Poly.zero(rows[0][0].num_vars)
    for c in range(n):
        if rows[0][c].is_zero():
            continue
        minor = [[row[j] for j in range(n) if j != c] for row in rows[1:]]
        cof = rows[0][c] * poly_det(minor)
        total = total + (cof if c % 2 == 0 else -cof)
    return total


def apply_oracle(v, fs):
    """V(f₁,…,f_k) = Σ_I p_I · det‖∂f_a/∂x_{i_b}‖, one determinant per
    component: the test reference for ``MultiVector.apply``."""
    assert len(fs) == v.degree
    if v.degree == 0:
        return v.coefficient(())
    grads = [f.gradient() for f in fs]
    total = Poly.zero(v.num_vars)
    for idx, poly in v.components.items():
        total = total + poly * poly_det([[g[i] for i in idx] for g in grads])
    return total


def derived_oracle(v, covector_indices):
    """V_{a₁,…,a_j} by contraction with constant 1-forms dx_a, one at a time."""
    m = v.num_vars
    for a in covector_indices:
        v = v.contract_form([Poly.const(m, 1 if i == a else 0) for i in range(m)])
    return v


def lie_derivative_oracle(x, v):
    """L_X(V) component by component, with every ∂ᵢxⱼ taken afresh and X(p)
    from the determinant apply."""
    coeffs = x.vector_coeffs()
    terms = []
    for idx, poly in v.components.items():
        terms.append((idx, apply_oracle(x, [poly])))
        for t, i in enumerate(idx):
            for j in range(v.num_vars):
                dxj = coeffs[j].partial(i)
                if not dxj.is_zero():
                    terms.append((idx[:t] + (j,) + idx[t + 1:], -(poly * dxj)))
    return MultiVector.from_terms(v.num_vars, v.degree, terms)


def jacobi_defects_oracle(op, fs):
    """The two n-Jacobi defects term by term, 2n Lie derivatives of the
    per-component reference and n wedges:

    Δ¹ = L_{∇_{f…}}∇ + Σᵢ(−1)^{i−1}(fᵢ·L_{Xᵢ}∇ − Xᵢ∧∇_{fᵢ}) + (1−n)h∇
    Δ⁰ = L_{∇_{f…}}□ − ∇_h + Σᵢ(−1)^{i−1}(fᵢ·L_{Xᵢ}□ − Xᵢ∧□_{fᵢ}) + (1−n)h□

    with Xᵢ = □_{f₁,…,f̂ᵢ,…,f_{n−1}} and h = (−1)^{n−1}□(f₁,…,f_{n−1}): the
    test reference for ``njacobi.jacobi_defects``."""
    n = op.arity
    nabla, box = op.nabla, op.box
    field = nabla.hamiltonian_field(fs)
    h = box.apply(fs)
    if (n - 1) % 2 == 1:
        h = -h
    scale = Fraction(1 - n)
    xs = [box.hamiltonian_field(list(fs[:i]) + list(fs[i + 1:])) for i in range(n - 1)]

    def defect(t, total):
        for i, (f, x_i) in enumerate(zip(fs, xs)):
            term = lie_derivative_oracle(x_i, t) * f - x_i.wedge(t.contract(f))
            total = total + term if i % 2 == 0 else total - term
        return total + (t * (h * scale))

    return (defect(nabla, lie_derivative_oracle(field, nabla)),
            defect(box, lie_derivative_oracle(field, box) - nabla.contract(h)))


def binary_jacobi_oracle(op):
    """n = 2 with no slot walk: (Λ, E) is a Jacobi structure iff
    ⌈Λ,Λ⌉ = 2E∧Λ and ⌈E,Λ⌉ = 0 (Lichnerowicz), which in this code's sign
    convention of ``schouten`` reads ⌈Λ,Λ⌉ = −2 E∧Λ: the test reference for
    ``is_n_jacobi`` at arity 2."""
    lam, e = op.nabla, op.box
    return lam.schouten(lam) == e.wedge(lam) * -2 and e.schouten(lam).is_zero()


def merge_sign(left, right):
    """Parity sign of sorting the concatenation of two increasing tuples."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions & 1 else 1


def schouten_oracle(a, b):
    """⌈A,B⌉ on every coordinate tuple, as a multi-derivation evaluated with
    the determinant apply:

    ⌈A,B⌉(f₁,…,f_{k+l−1}) = Σ_{|I|=k−1} ±A(f_I, B(f_Ī)) − Σ_{|J|=k} ±B(A(f_J), f_J̄)

    where ± is the parity of shuffling I (or J) to the front; for k = 0 the
    first sum is empty."""
    k, l = a.degree, b.degree
    xs = Poly.variables(a.num_vars)
    comps = {}
    for idx in itertools.combinations(range(a.num_vars), k + l - 1):
        fs = [xs[i] for i in idx]
        positions = range(len(fs))
        total = Poly.zero(a.num_vars)
        for i_set in itertools.combinations(positions, k - 1) if k else ():
            comp = tuple(p for p in positions if p not in i_set)
            inner = apply_oracle(b, [fs[p] for p in comp])
            term = apply_oracle(a, [fs[p] for p in i_set] + [inner])
            total = total + term * merge_sign(i_set, comp)
        for j_set in itertools.combinations(positions, k):
            comp = tuple(p for p in positions if p not in j_set)
            inner = apply_oracle(a, [fs[p] for p in j_set])
            term = apply_oracle(b, [inner] + [fs[p] for p in comp])
            total = total - term * merge_sign(j_set, comp)
        comps[idx] = total
    return MultiVector(a.num_vars, k + l - 1, comps)


def derived_pairing_vanishes(v):
    """Sufficient decomposability condition for degree k > 2:

    V_{a,c₁,…,c_{k−2}} ∧ V_b + V_{b,c₁,…,c_{k−2}} ∧ V_a = 0
    for all constant coordinate covectors a, b, c₁,…,c_{k−2}.
    """
    k = v.degree
    if k <= 2:
        raise ValueError("condition requires degree > 2")
    if v.is_zero():
        return True
    m = v.num_vars
    singles = [v.derived((b,)) for b in range(m)]
    for cs in itertools.combinations(range(m), k - 2):
        for a in range(m):
            for b in range(a, m):
                lhs = v.derived((a,) + cs).wedge(singles[b]) \
                    + v.derived((b,) + cs).wedge(singles[a])
                if not lhs.is_zero():
                    return False
    return True


# -- 1-form helpers ----------------------------------------------------------

def oneform_from_matrix(a):
    """The linear form α = Σ a_ij x_j dx_i from a square matrix."""
    n = len(a)
    return OneForm([sum((Fraction(a[i][j]) * Poly.var(n, j) for j in range(n) if a[i][j]),
                        Poly.zero(n)) for i in range(n)])


def oneform_linear_matrix(alpha):
    """Matrix a_ij of a form with linear coefficients: αᵢ = Σ a_ij x_j."""
    out = zeros(alpha.num_vars, alpha.num_vars)
    for i, c in enumerate(alpha.components):
        for exps, coef in c.terms.items():
            if sum(exps) != 1:
                raise ValueError("form coefficients are not linear")
            out[i][exps.index(1)] = coef
    return out


def wedge_d_self_is_zero(alpha):
    """Whether α∧dα vanishes identically (the integrability test)."""
    d = alpha.exterior_derivative()
    a = alpha.components
    return all((a[i] * d[j][k] - a[j] * d[i][k] + a[k] * d[i][j]).is_zero()
               for i, j, k in itertools.combinations(range(alpha.num_vars), 3))


# -- linear systems ----------------------------------------------------------

def identity(n):
    """The n×n identity matrix over ``Fraction``."""
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def congruent_diagonalize(a):
    """Diagonalize a symmetric matrix by congruence over the rationals, with
    row and column operations mirrored on each other.

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


def signature_oracle(a):
    """(positive, negative) diagonal entries of ``congruent_diagonalize``."""
    diagonal = [row[i] for i, row in enumerate(congruent_diagonalize(a)[0])]
    return sum(x > 0 for x in diagonal), sum(x < 0 for x in diagonal)


def rref_oracle(a):
    """Dense Gauss–Jordan over ``Fraction``: the reduced row-echelon form of
    the matrix ``a`` (zero rows kept, at the bottom) and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
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


def nullspace_oracle(a, cols):
    """Basis of the right nullspace of the dense matrix ``a`` with ``cols``
    columns, read off ``rref_oracle``: one vector per free column."""
    red, pivots = rref_oracle(a)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            basis.append(v)
    return basis


def casimir_oracle(tensor, max_degree):
    """The Casimir search as a dense system on every coordinate Hamiltonian
    field X_J, |J| = n − 1: one row per (field, result monomial), solved by
    ``nullspace_oracle``, with no field selection and no integer multiple."""
    m = tensor.num_vars
    basis = [Poly.monomial(m, e) for e in poly_basis_exponents(m, max_degree)]
    xs = Poly.variables(m)
    rows = []
    for idx in itertools.combinations(range(m), tensor.degree - 1):
        images = [tensor.hamiltonian_field([xs[i] for i in idx]).apply([g])
                  for g in basis]
        for e in sorted({e for p in images for e in p.terms}):
            rows.append([Fraction(p.terms.get(e, 0)) for p in images])
    return [sum((c * g for c, g in zip(vec, basis) if c), Poly.zero(m))
            for vec in nullspace_oracle(rows, len(basis))]


def solve(a, b):
    """One exact solution of ``a x = b``, or None if inconsistent."""
    rows = len(a)
    aug = [a[i][:] + [Fraction(b[i])] for i in range(rows)]
    red, pivots = rref_oracle(aug)
    n_cols = len(a[0]) if rows else 0
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x


def in_span(basis, v):
    """Whether ``v`` lies in the rational span of ``basis``."""
    if not basis:
        return all(x == 0 for x in v)
    return solve(transpose([b[:] for b in basis]), v) is not None


# -- n-Lie oracles: the determinant bracket and the per-tuple loops ----------

def det_bracket(p, vs):
    """[v₁,…,v_n] as Σ over the constants of the n×n minor of the arguments
    on the constant's index tuple: the test reference for ``bracket``."""
    if len(vs) != p.arity:
        raise ValueError(f"expected {p.arity} arguments, got {len(vs)}")
    vecs = [[Fraction(x) for x in v] for v in vs]
    out = [Fraction(0)] * p.dim
    for idx, const in p.constants.items():
        coef = det([[vecs[a][i] for i in idx] for a in range(p.arity)])
        if coef != 0:
            out = [x + coef * c for x, c in zip(out, const)]
    return out


def ad_oracle(p, us):
    """Matrix of v ↦ [u₁,…,u_{n−1},v] from the determinant bracket."""
    cols = [det_bracket(p, list(us) + [NLieStructure.basis_vector(p.dim, j)])
            for j in range(p.dim)]
    return [[cols[j][i] for j in range(p.dim)] for i in range(p.dim)]


def derivation_defect_oracle(q, d, ws):
    """D·Q(w₁,…,w_n) − Σᵢ Q(w₁,…,Dwᵢ,…,w_n), one determinant bracket per term."""
    out = mat_vec(d, det_bracket(q, ws))
    for i in range(len(ws)):
        args = list(ws)
        args[i] = mat_vec(d, ws[i])
        out = [x - y for x, y in zip(out, det_bracket(q, args))]
    return out


def _basis_tuples(dim, arity):
    basis = [NLieStructure.basis_vector(dim, i) for i in range(dim)]
    for idx in itertools.combinations(range(dim), arity):
        yield idx, [basis[i] for i in idx]


def jacobi_oracle(p):
    """(verdict, first (us, vs)) of the n-ary Jacobi identity, tuple by tuple."""
    if p.arity == 1:
        return True, None
    for us, u_vecs in _basis_tuples(p.dim, p.arity - 1):
        ad = ad_oracle(p, u_vecs)
        for vs, v_vecs in _basis_tuples(p.dim, p.arity):
            if any(derivation_defect_oracle(p, ad, v_vecs)):
                return False, (us, vs)
    return True, None


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator_oracle(p, us, vs):
    """[ad_{v…}, ad_{u…}] = Σᵢ ad_{u₁,…,[v₁,…,v_{n−1},uᵢ],…,u_{n−1}} as
    matrices, every entry from the determinant bracket."""
    ad_u, ad_v = ad_oracle(p, us), ad_oracle(p, vs)
    lhs = mat_sub(mat_mul(ad_v, ad_u), mat_mul(ad_u, ad_v))
    rhs = [[Fraction(0)] * p.dim for _ in range(p.dim)]
    for i in range(len(us)):
        varied = list(us)
        varied[i] = det_bracket(p, list(vs) + [us[i]])
        rhs = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(rhs, ad_oracle(p, varied))]
    return lhs == rhs


def compat_defect_oracle(p, q, us, ws):
    """[P_{u…}(Q) + Q_{u…}(P)](w₁,…,w_n), both inner derivations rebuilt."""
    return [x + y for x, y in zip(derivation_defect_oracle(q, ad_oracle(p, us), ws),
                                  derivation_defect_oracle(p, ad_oracle(q, us), ws))]


def compat_oracle(p, q):
    """(verdict, first (us, ws)) of the mutual inner-derivation defects."""
    for us, u_vecs in _basis_tuples(p.dim, p.arity - 1):
        ad_p, ad_q = ad_oracle(p, u_vecs), ad_oracle(q, u_vecs)
        for ws, w_vecs in _basis_tuples(p.dim, p.arity):
            if any(x + y for x, y in zip(derivation_defect_oracle(q, ad_p, w_vecs),
                                         derivation_defect_oracle(p, ad_q, w_vecs))):
                return False, (us, ws)
    return True, None


def hereditary_oracle(p, us):
    """P_{u₁,…,u_k} with every constant a determinant bracket."""
    consts = {}
    for idx, vecs in _basis_tuples(p.dim, p.arity - len(us)):
        value = det_bracket(p, list(us) + vecs)
        if any(value):
            consts[idx] = value
    return NLieStructure(p.dim, p.arity - len(us), consts)


def comp_condition_oracle(p, vs, ws):
    """The k-th order compatibility condition, pair by pair and tuple by tuple."""
    k = len(vs)
    pairs = []
    for r in range(k):
        for rest in itertools.combinations(range(1, k), r):
            i_set = {0, *rest}
            pairs.append((hereditary_oracle(p, [vs[s] if s in i_set else ws[s] for s in range(k)]),
                          hereditary_oracle(p, [ws[s] if s in i_set else vs[s] for s in range(k)])))
    for _, u_vecs in _basis_tuples(p.dim, p.arity - k - 1):
        for _, w_vecs in _basis_tuples(p.dim, p.arity - k):
            total = [Fraction(0)] * p.dim
            for a, b in pairs:
                total = [x + y for x, y in zip(total, compat_defect_oracle(a, b, u_vecs, w_vecs))]
            if any(total):
                return False
    return True


def derivation_oracle(p, d):
    """Whether d is a derivation of p, checked on every basis tuple."""
    return not any(any(derivation_defect_oracle(p, d, w_vecs))
                   for _, w_vecs in _basis_tuples(p.dim, p.arity))


# -- classification oracles: the dual n-vector and the standardised basis ----

def generating_form_oracle(p):
    """The generating matrix read back from the linear coefficients of the
    dual n-vector: row i is (−1)^i (1-based) times the coefficient of T on
    the index tuple omitting i."""
    t = dual_nvector(p)
    out = zeros(p.dim, p.dim)
    for i in range(p.dim):
        comp = tuple(k for k in range(p.dim) if k != i)
        sign = 1 if i % 2 == 1 else -1
        for exps, coef in t.coefficient(comp).terms.items():
            assert sum(exps) == 1
            out[i][exps.index(1)] = Fraction(sign * coef)
    return out


def _standardize_skew(k):
    """Invertible C with CᵀKC = the standard ½-block ⊕ 0, for skew K of rank 2."""
    n = len(k)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if k[i][j] != 0)
    c1 = [Fraction(1) if t == i else Fraction(0) for t in range(n)]
    c2 = [Fraction(-1, 2) / k[i][j] if t == j else Fraction(0) for t in range(n)]

    def pair(u, v):
        return sum((u[a] * k[a][b] * v[b] for a in range(n) for b in range(n)),
                   Fraction(0))

    cols = [c1, c2]
    for t in range(n):
        if t in (i, j):
            continue
        e = [Fraction(1) if s == t else Fraction(0) for s in range(n)]
        # remove the components pairing with the symplectic plane
        coef1 = pair(c2, e) / pair(c2, c1)
        coef2 = pair(c1, e) / pair(c1, c2)
        cols.append([e[s] - coef1 * c1[s] - coef2 * c2[s] for s in range(n)])
    c = [[cols[col][row] for col in range(n)] for row in range(n)]
    expected = zeros(n, n)
    expected[0][1], expected[1][0] = Fraction(-1, 2), Fraction(1, 2)
    if mat_mul(transpose(c), mat_mul(k, c)) != expected:
        raise ValueError("skew part does not have rank 2")
    return c


def classify_oracle(p):
    """The label of a valid (n+1)-dimensional n-Lie algebra through a change
    of basis: reduce the skew part of the dual generating form to the
    standard block ½(z₁dz₂ − z₂dz₁) and take det of the symmetric 2×2 block.
    The identity is checked tuple by tuple, and the structure the Ψ branch
    relies on (K of rank 2, S·ker K = 0) is checked again."""
    ok, witness = jacobi_oracle(p)
    if not ok:
        raise ValueError(f"not an n-Lie algebra; witness {witness}")
    a = generating_form_oracle(p)
    at = transpose(a)
    sym = [[(x + y) / 2 for x, y in zip(r, s)] for r, s in zip(a, at)]
    skew = [[(x - y) / 2 for x, y in zip(r, s)] for r, s in zip(a, at)]
    if all(x == 0 for row in skew for x in row):
        pos, neg = signature_oracle(sym)
        return unimodular_label(rank(sym), max(pos, neg))
    kernel = nullspace_oracle(skew, p.dim)
    if len(kernel) != p.dim - 2 or any(any(mat_vec(sym, v)) for v in kernel):
        raise ValueError("generating form is inconsistent: the skew part must have "
                         "rank 2 and its kernel must lie in that of the symmetric part")
    c = _standardize_skew(skew)
    a2 = mat_mul(transpose(c), mat_mul(a, c))
    if any(a2[i][j] for i in range(p.dim) for j in range(p.dim) if i >= 2 or j >= 2):
        raise ValueError("support outside the symplectic plane")
    s2 = [[(a2[i][j] + a2[j][i]) / 2 for j in range(2)] for i in range(2)]
    if all(x == 0 for row in s2 for x in row):
        return psi_label("psi_zero")
    d = det(s2)
    if d == 0:
        return psi_label("psi_one")
    return BianchiLabel("psi_plus" if d > 0 else "psi_minus", lam_sq=abs(d))


@pytest.fixture
def rng():
    return random.Random(20240817)


def primes_between(lo, hi):
    """The primes p with lo ≤ p < hi, by a sieve."""
    sieve = bytearray([1]) * hi
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(lo, hi) if sieve[i]]


def rand_fraction(rng, lo=-3, hi=3, max_den=2):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_poly(rng, num_vars, max_degree=2, n_terms=3):
    """A random sparse polynomial with small rational coefficients."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(num_vars)] += 1
        terms[tuple(exps)] = rand_fraction(rng)
    return Poly(num_vars, terms)


def rand_multivector(rng, num_vars, degree, max_degree=1, density=0.5):
    """A random multivector with polynomial coefficients."""
    comps = {}
    for idx in itertools.combinations(range(num_vars), degree):
        if rng.random() < density:
            comps[idx] = rand_poly(rng, num_vars, max_degree)
    return MultiVector(num_vars, degree, comps)


def rand_field_wedge(rng, num_vars, degree, density=0.6):
    """A nonzero wedge of vector fields whose components are single affine
    terms: decomposable, with a distribution that may or may not be
    integrable."""
    def field():
        return MultiVector.vector(
            [rand_poly(rng, num_vars, max_degree=1, n_terms=1)
             if rng.random() < density else Poly.zero(num_vars)
             for _ in range(num_vars)])
    while True:
        v = field()
        for _ in range(degree - 1):
            v = v.wedge(field())
        if not v.is_zero():
            return v


def rand_constant_vector_field(rng, num_vars):
    return MultiVector.vector(
        [Poly.const(num_vars, Fraction(rng.randint(-2, 2)))
         for _ in range(num_vars)])


def rand_decomposable_tensor(rng, num_vars, degree=3, coef_degree=3):
    """f · (v₁ ∧ … ∧ v_degree) with constant rational vᵢ and polynomial f."""
    while True:
        blade = rand_constant_vector_field(rng, num_vars)
        for _ in range(degree - 1):
            blade = blade.wedge(rand_constant_vector_field(rng, num_vars))
        if not blade.is_zero():
            break
    f = rand_poly(rng, num_vars, coef_degree, n_terms=4)
    return blade * f


def rand_invertible_matrix(rng, dim, lo=-2, hi=2):
    while True:
        c = mat([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])
        if det(c) != 0:
            return c


def rand_unimodular_matrix(rng, dim, shears=6):
    """A random product of integer shears: determinant exactly 1."""
    c = identity(dim)
    for _ in range(shears):
        i, j = rng.sample(range(dim), 2)
        factor = Fraction(rng.randint(-2, 2))
        for row in range(dim):
            c[row][j] += factor * c[row][i]
    return c


def rand_symmetric_matrix(rng, dim, lo=-3, hi=3):
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            a[i][j] = a[j][i] = Fraction(rng.randint(lo, hi))
    return a


def rand_vectors(rng, count, dim, lo=-2, hi=2):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(dim)]
            for _ in range(count)]


def rand_4dim_3lie(rng):
    """A random valid 4-dimensional 3-Lie algebra: built from a random
    symmetric generating form, hidden behind a random basis change."""
    from nambu.bianchi import algebra_from_form
    while True:
        form = rand_symmetric_matrix(rng, 4)
        if any(any(x for x in row) for row in form):
            break
    p = algebra_from_form(form, 3).change_basis(rand_invertible_matrix(rng, 4))
    ok, _ = p.check_n_jacobi()
    assert ok
    return p


def rand_jacobi_pair(rng, num_vars, arity):
    """An arbitrary operator pair (no Jacobi property implied)."""
    from nambu.njacobi import JacobiOp
    nabla = rand_multivector(rng, num_vars, min(arity, num_vars))
    box = rand_multivector(rng, num_vars, arity - 1)
    return JacobiOp(nabla, box, arity=arity)


@st.composite
def labels(draw, dim):
    """Any label realizable in dimension ``dim``; λ² is a square (rational λ)
    or an arbitrary positive rational (mostly irrational λ)."""
    kind = draw(st.sampled_from(["unimodular", "psi_plus", "psi_minus",
                                 "psi_one", "psi_zero"]))
    if kind == "unimodular":
        r = draw(st.integers(0, dim))
        return unimodular_label(r, draw(st.integers((r + 1) // 2, r)))
    if kind in ("psi_one", "psi_zero"):
        return psi_label(kind)
    q = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    return BianchiLabel(kind, lam_sq=q * q if draw(st.booleans()) else q)
