"""Exact sparse-polynomial arithmetic."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RefPoly, float_outcome as outcome, float_plan_oracle
from nambu import dynamics, poly as poly_module
from nambu.multivector import MultiVector
from nambu.poly import Poly, compile_floats, refuse_above, sized_combinations

X1, X2, X3 = Poly.variables(3)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X1 + X2) * (X1 - X2) == X1**2 - X2**2

    def test_additive_identity(self):
        p = X1 * X3 - X2**2
        assert p + Poly.zero(3) == p

    def test_scalar_multiple(self):
        half_sq = Poly.monomial(4, (0, 0, 0, 2), Fraction(1, 2))
        assert half_sq * 2 == Poly.monomial(4, (0, 0, 0, 2))

    def test_var_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Poly.var(2, 0) + Poly.var(3, 0)

    def test_no_zero_terms_stored(self):
        p = X1 - X1
        assert p.terms == {}
        assert (X1 + X2 - X2).terms == {(1, 0, 0): Fraction(1)}


class TestPartial:
    def test_power_rule(self):
        p = X1 * X3 - X2**2
        assert p.partial(1) == -2 * X2

    def test_constant_derivative_is_zero(self):
        assert Poly.const(3, Fraction(5, 7)).partial(0).is_zero()

    def test_half_sum_of_squares(self):
        p = Fraction(1, 2) * (X1**2 + X2**2)
        assert p.partial(0) == X1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            X1.partial(3)

    def test_partials_commute(self, rng):
        from conftest import rand_poly
        for _ in range(20):
            p = rand_poly(rng, 3, max_degree=4)
            for i in range(3):
                for j in range(3):
                    assert p.partial(i).partial(j) == p.partial(j).partial(i)


class TestEvaluate:
    def test_point_value(self):
        p = X1 * X3 - X2**2
        assert p.evaluate([1, 0, 1]) == 1

    def test_zero_poly(self):
        assert Poly.zero(3).evaluate([2, 3, 4]) == 0

    def test_single_variable(self):
        assert Poly.var(4, 3).evaluate([0, 0, 0, 3]) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            X1.evaluate([1, 2])


small_polys = st.builds(
    lambda terms: Poly(2, {e: Fraction(c) for e, c in terms}),
    st.lists(st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-4, 4)), max_size=4))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys,
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluate_is_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


points = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=50),
                 min_size=3, max_size=3)
polys3 = st.builds(
    lambda terms: Poly(3, {e: c for e, c in terms}),
    st.lists(st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-20, max_value=20, max_denominator=30)),
        max_size=6))


@settings(max_examples=100, deadline=None)
@given(polys3, points)
def test_evaluate_float_matches_exact_value(p, point):
    floats = [float(x) for x in point]
    value = p.evaluate_float(floats)
    # rounding error is bounded by a multiple of the sum of |term| values
    scale = sum(abs(float(c)) * math.prod(abs(x) ** e for x, e in zip(floats, exps))
                for exps, c in p.terms.items())
    assert abs(value - float(p.evaluate(point))) <= 1e-12 * scale
    assert p.evaluate_float(floats) == value
    assert p.evaluate_float(floats) == value


class TestSerialization:
    def test_json_round_trip(self, rng):
        from conftest import rand_poly
        for _ in range(10):
            p = rand_poly(rng, 4, max_degree=3)
            assert Poly.from_json(p.to_json(), 4) == p

    def test_text_round_trip(self):
        p = Fraction(3, 2) * X1**2 * X3 - X2
        assert Poly.parse(str(p), 3) == p

    def test_text_form_of_negative_exponents(self):
        assert str(Poly.monomial(3, (0, 0, -2))) == "x3^-2"
        assert str(Poly.monomial(3, (1, 0, -1), 3)) == "3 x1 x3^-1"
        assert str(Poly.monomial(3, (2, 1, 0), -1) + 3) == "3 - x1^2 x2"

    def test_coefficients_beyond_the_digit_limit(self):
        """Output writes every digit of a coefficient above Python's
        int-to-str limit (4,300 digits by default); input still refuses it."""
        big = 3 * 10**4999 + 7  # 5,000 digits
        p = Poly(2, {(1, 0): Fraction(1, 10**5000), (0, 2): -big, (0, 0): Fraction(big, 11)})
        digits = "3" + "0" * 4998 + "7"
        assert str(p) == f"{digits}/11 + 1/1{'0' * 5000} x1 - {digits} x2^2"
        assert [t["coef"] for t in p.to_json()] == [f"{digits}/11", f"1/1{'0' * 5000}",
                                                     f"-{digits}"]
        with pytest.raises(ValueError, match="digits"):
            Poly.from_json(p.to_json(), 2)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit: the text reads back
        try:
            assert Poly.from_json(p.to_json(), 2) == p
            assert Poly.parse(str(p), 2) == p
        finally:
            sys.set_int_max_str_digits(limit)

    def test_negative_exponent_in_json_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Poly.from_json([{"coef": "1", "exps": [0, 0, -1]}], 3)

    def test_parse_plain_terms(self):
        assert Poly.parse("x1^2 x3 - 2 x2 + 7", 3) == \
            X1**2 * X3 - 2 * X2 + Poly.const(3, 7)


def assert_stored_form(p):
    """Every coefficient is nonzero, and an int exactly when it is integral."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction)


# integral, half-integral and mixed coefficients; negative exponents too
coefs = st.one_of(st.integers(-4, 4),
                  st.integers(-4, 4).map(lambda k: Fraction(2 * k + 1, 2)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))
laurent_terms = st.lists(st.tuples(st.tuples(*[st.integers(-2, 3)] * 3), coefs),
                         max_size=5)


@settings(max_examples=150, deadline=None)
@given(laurent_terms, laurent_terms, coefs, st.integers(0, 3))
def test_ring_operations_match_fraction_reference(a, b, c, k):
    p, q = Poly(3, dict(a)), Poly(3, dict(b))
    rp, rq = RefPoly(3, dict(a)), RefPoly(3, dict(b))
    cases = [(p, rp), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
             (p * q, rp * rq), (p * c, rp * c), (c * p, rp * c),
             (p + c, rp + RefPoly(3, {(0, 0, 0): c})), (p ** k, rp ** k)]
    cases += [(p.partial(i), rp.partial(i)) for i in range(3)]
    cases += list(zip(p.gradient(), [rp.partial(i) for i in range(3)], strict=True))
    for got, want in cases:
        assert_stored_form(got)
        assert got.terms == want.terms


@settings(max_examples=100, deadline=None)
@given(laurent_terms, st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * 3))
def test_output_does_not_depend_on_storage(terms, point):
    # the same polynomial with every coefficient stored as a Fraction
    p = Poly(3, dict(terms))
    as_fractions = Poly._make(3, {e: Fraction(c) for e, c in p.terms.items()})
    assert str(p) == str(as_fractions)
    assert p.to_json() == as_fractions.to_json()
    if all(x for x in point) or all(e >= 0 for exps in p.terms for e in exps):
        value = p.evaluate(point)
        assert type(value) is Fraction and value == as_fractions.evaluate(point)
    floats = [float(x) or 0.5 for x in point]
    assert repr(p.evaluate_float(floats)) == repr(as_fractions.evaluate_float(floats))


@settings(max_examples=100, deadline=None)
@given(laurent_terms)
def test_equal_polys_hash_equal_across_input_types(terms):
    from_ints = Poly(3, dict(terms))
    from_fractions = Poly(3, {e: Fraction(c) for e, c in terms})
    halved = (from_ints + from_ints) * Fraction(1, 2)
    for p in (from_fractions, halved):
        assert_stored_form(p)
        assert p == from_ints and hash(p) == hash(from_ints)
        assert p.terms == from_ints.terms
    assert Poly.const(3, Fraction(4, 2)).terms == {(0, 0, 0): 2}
    assert hash(Poly.const(3, Fraction(4, 2))) == hash(Poly.const(3, 2))


@settings(max_examples=50, deadline=None)
@given(laurent_terms)
def test_gradient_is_cached_but_not_shared(terms):
    p = Poly(3, dict(terms))
    grad = p.gradient()
    expected = list(grad)
    grad[0] = Poly.const(3, 99)
    grad.append(Poly.const(3, 1))
    assert p.gradient() == expected
    assert p.gradient() is not p.gradient()


# signed zeros, poles, values whose powers overflow, and ordinary values
float_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-200, -1e-160, 1e155, -1e200, 3e307]),
    st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(laurent_terms, st.lists(float_coords, min_size=3, max_size=3))
@example([], [0.0, -0.0, 1e200])
@example([((-1, 0, 0), 1)], [-0.0, 1.0, 1.0])
@example([((0, 3, 0), Fraction(1, 3))], [1.0, 1e200, 1.0])
def test_compiled_float_matches_plan_loop(terms, point):
    p = Poly(3, dict(terms))
    want = outcome(float_plan_oracle, p, point)
    assert outcome(p.evaluate_float, point) == want
    assert outcome(p.evaluate_float, point) == want  # the cached function
    assert outcome(lambda x: compile_floats([p])(x)[0], point) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(laurent_terms, max_size=4), st.lists(float_coords, min_size=3, max_size=3))
def test_compiled_components_match_plan_loop(terms_list, point):
    polys = [Poly(3, dict(terms)) for terms in terms_list]
    want = []
    for p in polys:
        value = outcome(float_plan_oracle, p, point)
        if isinstance(value, type):
            want = value  # the first component that raises decides
            break
        want.append(value)
    got = outcome(lambda x: [repr(v) for v in compile_floats(polys)(x)], point)
    assert got == (want if isinstance(want, type) else repr(want))


class TestCompiledFloats:
    def test_errors_of_the_plan_loop(self):
        pole = Poly.monomial(2, (0, -1), 3)
        with pytest.raises(ZeroDivisionError):
            pole.evaluate_float([1.0, -0.0])
        with pytest.raises(OverflowError):
            (X1 ** 3).evaluate_float([1e200, 0.0, 0.0])
        huge = Poly.monomial(1, (1,), 10 ** 400)
        with pytest.raises(OverflowError):
            huge.evaluate_float([1.0])

    def test_zero_polynomial_and_signed_zero(self):
        assert repr(Poly.zero(2).evaluate_float([-0.0, 1e300])) == "0.0"
        assert repr((-X1).evaluate_float([0.0, 1.0, 1.0])) == "0.0"
        assert compile_floats([])([]) == []

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(ValueError):
            compile_floats([X1, Poly.var(2, 0)])

    def test_hostile_exponent_runs_nothing(self, monkeypatch):
        ran = []
        monkeypatch.setattr(poly_module, "exec", lambda *a: ran.append(a), raising=False)
        monkeypatch.setattr(dynamics, "exec", lambda *a: ran.append(a), raising=False)
        p = Poly(1, {("1)+__import__('os')#",): 1})
        with pytest.raises((ValueError, TypeError)):
            compile_floats([p])
        with pytest.raises((ValueError, TypeError)):
            p.evaluate_float([1.0])
        # in the fused stepper, as a field component and as a monitor
        with pytest.raises((ValueError, TypeError)):
            next(dynamics.rk4_blocks(MultiVector(1, 1, {(0,): p}), [1.0], 0.1, 1))
        with pytest.raises((ValueError, TypeError)):
            next(dynamics.rk4_blocks(lambda x: x, [1.0], 0.1, 1, [p]))
        assert ran == []

    def test_coefficients_are_not_source_text(self):
        p = Poly(2, {(1, 0): Fraction(1, 3), (0, 2): -7})
        code = compile_floats([p]).__code__
        assert Fraction(1, 3) not in code.co_consts and 1 / 3 not in code.co_consts
        assert p.evaluate_float([3.0, 2.0]) == float_plan_oracle(p, [3.0, 2.0])

    def test_five_thousand_terms_compile(self):
        # one long sum expression would overflow the compiler's recursion limit
        terms = {(i, 1): Fraction(1, i + 1) for i in range(5000)}
        p = Poly(2, terms)
        point = [0.5, -1.25]
        assert repr(p.evaluate_float(point)) == repr(float_plan_oracle(p, point))


class TestWorkBudget:
    def test_sized_walk_refuses_when_called(self):
        """The walk is counted, and refused, when it is created, before the
        first ``next()``: C(30, 15) steps of work 2 are over a limit of 10⁶."""
        with pytest.raises(ValueError, match=r"^slot tuples: C\(30, 15\) = 155117520 tuples "
                                             r"of work 2, 310235040 in all, above the limit"):
            sized_combinations(30, 15, 2, 10**6, "slot tuples")

    def test_sized_walk_at_the_limit_is_every_combination(self):
        walk = sized_combinations(5, 2, 3, 30, "pairs")
        assert list(walk) == list(itertools.combinations(range(5), 2))
        with pytest.raises(ValueError, match="31 in all, above the limit 30"):
            refuse_above(31, 30, "31 in all")
