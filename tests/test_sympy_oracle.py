"""``MultiVector.apply`` and ``schouten`` against sympy: polynomial
arithmetic, differentiation and determinants that share no code with
``nambu``.  Skipped when sympy is not installed."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merge_sign, rand_multivector, rand_poly
from nambu.poly import Poly

sympy = pytest.importorskip("sympy")


def symbols(m):
    return sympy.symbols(f"x1:{m + 1}")


def to_sympy(p, xs):
    return sum((sympy.Rational(c.numerator, c.denominator) if not isinstance(c, int)
                else sympy.Integer(c)) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
               for exps, c in p.terms.items()) if p.terms else sympy.Integer(0)


def sympy_apply(v, fs, xs):
    """Σ_I p_I · det‖∂f_a/∂x_{I_b}‖ for sympy expressions ``fs``."""
    if v.degree == 0:
        return to_sympy(v.coefficient(()), xs)
    return sum((to_sympy(p, xs) * sympy.Matrix(
        [[sympy.diff(f, xs[i]) for i in idx] for f in fs]).det()
                for idx, p in v.components.items()), sympy.Integer(0))


def sympy_schouten(a, b, xs):
    """⌈A,B⌉ on each coordinate tuple as a multi-derivation:
    Σ_{|I|=k−1} ±A(x_I, B(x_Ī)) − Σ_{|J|=k} ±B(A(x_J), x_J̄), ± the parity of
    shuffling I (or J) to the front."""
    k, l = a.degree, b.degree
    comps = {}
    for idx in itertools.combinations(range(a.num_vars), k + l - 1):
        fs = [xs[i] for i in idx]
        positions = range(len(fs))
        total = sympy.Integer(0)
        for i_set in itertools.combinations(positions, k - 1) if k else ():
            rest = [p for p in positions if p not in i_set]
            inner = sympy_apply(b, [fs[p] for p in rest], xs)
            total += merge_sign(i_set, rest) * sympy_apply(a, [fs[p] for p in i_set] + [inner], xs)
        for j_set in itertools.combinations(positions, k):
            rest = [p for p in positions if p not in j_set]
            inner = sympy_apply(a, [fs[p] for p in j_set], xs)
            total -= merge_sign(j_set, rest) * sympy_apply(b, [inner] + [fs[p] for p in rest], xs)
        comps[idx] = sympy.expand(total)
    return comps


def same(p, expr, xs):
    return sympy.expand(to_sympy(p, xs) - expr) == 0


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32))
def test_apply(m, data, seed):
    """Coordinates (repeated, unsorted), constants and quadratic slots."""
    rng = random.Random(seed)
    xs = symbols(m)
    k = data.draw(st.integers(0, m))
    v = rand_multivector(rng, m, k, max_degree=2, density=0.7)
    pool = st.one_of(st.integers(0, m - 1).map(lambda a: Poly.var(m, a)),
                     st.sampled_from([Poly.const(m, 3)]),
                     st.integers(0, 2**32).map(lambda s: rand_poly(random.Random(s), m)))
    fs = data.draw(st.lists(pool, min_size=k, max_size=k))
    assert same(v.apply(fs), sympy_apply(v, [to_sympy(f, xs) for f in fs], xs), xs)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32))
def test_schouten(m, data, seed):
    """Every degree pair with 0 ≤ k + l − 1 ≤ m, degree 0 included."""
    rng = random.Random(seed)
    xs = symbols(m)
    k = data.draw(st.integers(0, m))
    l = data.draw(st.integers(max(1 - k, 0), min(m, m + 1 - k)))
    a = rand_multivector(rng, m, k, max_degree=2, density=0.7)
    b = rand_multivector(rng, m, l, max_degree=2, density=0.7)
    got = a.schouten(b)
    want = sympy_schouten(a, b, xs)
    assert all(same(got.coefficient(idx), expr, xs) for idx, expr in want.items())
    assert set(got.components) <= set(want)
