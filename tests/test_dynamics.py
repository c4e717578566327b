"""Hamiltonian dynamics of ternary tensors: drift-monitored RK4 integration,
the magnetized spin system, hereditary bracket tables, and the action-angle
central-force system."""

import math
import random
import re
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import float_outcome, float_plan_oracle, rand_poly, rk4_oracle
from nambu import dynamics
from nambu.dynamics import (FlowAborted, KeplerSystem, NambuSystem,
                            SpinSystem, bracket_bivector, field_function,
                            hereditary_poisson_table, rk4_blocks,
                            rk4_integrate, spin_closed_form)
from nambu.multivector import MultiVector
from nambu.npoisson import is_n_poisson
from nambu.poly import Poly


def spin_system():
    return SpinSystem((Fraction(0), Fraction(0), Fraction(1)), Fraction(1))


class TestLaurentPoly:
    """Poly with negative exponents, as the deformed spin brackets need."""

    def test_arithmetic_with_negative_exponents(self):
        s3_inv2 = Poly.monomial(3, (0, 0, -2))
        s3_sq = Poly.monomial(3, (0, 0, 2))
        prod = s3_inv2 * s3_sq
        assert prod == Poly.monomial(3, (0, 0, 0))

    def test_partial_of_negative_power(self):
        p = Poly.monomial(3, (0, 0, -2))
        assert p.partial(2) == Poly.monomial(3, (0, 0, -3), -2)

    def test_evaluate(self):
        p = Poly.monomial(2, (1, -1), Fraction(3))
        assert p.evaluate_float([2.0, 4.0]) == pytest.approx(1.5)
        assert p.evaluate([2, 4]) == Fraction(3, 2)


class TestNambuSystem:
    def test_harmonic_oscillator_field(self):
        xs = Poly.variables(2)
        h = Fraction(1, 2) * (xs[0] ** 2 + xs[1] ** 2)
        sys_ = NambuSystem(MultiVector.basis(2, (0, 1)), (h,))
        field = sys_.dynamics_field()
        assert field == MultiVector.basis(2, (0,), -xs[1]) \
            + MultiVector.basis(2, (1,), xs[0])

    def test_hamiltonians_are_symbolic_first_integrals(self):
        sys_ = spin_system().nambu()
        field = sys_.dynamics_field()
        for h in sys_.hamiltonians:
            assert field.apply([h]).is_zero()

    def test_constant_hamiltonian_kills_field(self):
        tensor = MultiVector.basis(3, (0, 1, 2))
        sys_ = NambuSystem(tensor, (Poly.const(3, 5), Poly.var(3, 0)))
        assert sys_.dynamics_field().is_zero()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NambuSystem(MultiVector.basis(3, (0, 1, 2)), (Poly.var(3, 0),))

    def test_non_poisson_tensor_fails_is_n_poisson(self):
        bad = MultiVector.basis(6, (0, 1, 2)) + MultiVector.basis(6, (3, 4, 5))
        sys_ = NambuSystem(bad, tuple(Poly.variables(6)[:2]))
        assert not is_n_poisson(sys_.tensor)[0]


class TestSpinSystem:
    def test_precession_field(self):
        xs = Poly.variables(3)
        assert spin_system().field() == \
            MultiVector.basis(3, (0,), xs[1]) + MultiVector.basis(3, (1,), -xs[0])

    def test_closed_form_solves_the_ode(self):
        # derivative of the rotation matches the field numerically
        x0 = [1.0, 0.0, 0.5]
        f = field_function(spin_system().field())
        eps = 1e-6
        for t in (0.0, 0.3, 1.7):
            a = spin_closed_form(x0, 1.0, 1.0, t)
            b = spin_closed_form(x0, 1.0, 1.0, t + eps)
            deriv = [(y - x) / eps for x, y in zip(a, b)]
            for d, v in zip(deriv, f(a)):
                assert d == pytest.approx(v, abs=1e-5)

    def test_preserved_brackets(self):
        field = spin_system().field()
        volume = MultiVector.basis(3, (0, 1, 2))
        xs = Poly.variables(3)
        s_sq = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
        assert field.lie_derivative_of(volume).is_zero()
        assert field.lie_derivative_of(volume * s_sq).is_zero()
        assert not field.lie_derivative_of(volume * xs[0]).is_zero()

    def test_preservation_criterion_is_first_integral(self, rng):
        # L_X(fΛ) = 0 ⟺ X(f) = 0 when X preserves Λ
        field = spin_system().field()
        volume = MultiVector.basis(3, (0, 1, 2))
        seen = {True: 0, False: 0}
        for _ in range(20):
            f = rand_poly(rng, 3, max_degree=2)
            preserved = field.lie_derivative_of(volume * f).is_zero()
            killed = field.apply([f]).is_zero()
            assert preserved == killed
            seen[preserved] += 1
        assert seen[False]  # non-integrals genuinely occur

    def test_hereditary_bivectors_mutually_compatible(self):
        sys_ = spin_system().nambu()
        h1, h2 = sys_.hamiltonians
        p1 = sys_.tensor.contract(h1)
        p2 = sys_.tensor.contract(h2)
        assert p1.schouten(p1).is_zero()
        assert p2.schouten(p2).is_zero()
        assert p1.schouten(p2).is_zero()


class TestHereditaryTables:
    def test_standard_spin_table(self):
        xs = Poly.variables(3)
        table = hereditary_poisson_table(
            Poly.const(3, Fraction(1, 2)),
            xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2)
        assert table[1][2] == xs[0]
        assert table[2][0] == xs[1]
        assert table[0][1] == xs[2]
        assert table[0][2] == -xs[1]  # anti-cyclic entries flip sign

    def test_standard_table_closes_su2(self):
        xs = Poly.variables(3)
        table = hereditary_poisson_table(
            Poly.const(3, Fraction(1, 2)),
            xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2)
        biv = bracket_bivector(table)
        assert biv.schouten(biv).is_zero()
        # bracket of coordinates reproduces the table
        for j in range(3):
            for k in range(3):
                assert biv.apply([xs[j], xs[k]]) == table[j][k]

    def test_deformed_table(self):
        lam = Fraction(1)
        f = Poly.monomial(3, (0, 0, 1), lam / 4)
        big_f = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1,
                         (0, 0, 2): 1, (0, 0, -2): 1})
        table = hereditary_poisson_table(f, big_f)
        half = lam / 2
        assert table[0][1] == Poly(3, {(0, 0, 2): half, (0, 0, -2): -half})
        assert table[1][2] == Poly.monomial(3, (1, 0, 1), half)
        assert table[0][2] == Poly.monomial(3, (0, 1, 1), -half)

    def test_zero_function_gives_zero_table(self):
        xs = Poly.variables(3)
        table = hereditary_poisson_table(Poly.zero(3), xs[0] ** 2)
        assert all(entry.is_zero() for row in table for entry in row)


class TestRK4:
    def test_zero_field_constant_trajectory(self):
        zero = MultiVector.zero(3, 1)
        traj = rk4_integrate(zero, [1.0, 2.0, 3.0], 0.01, 50,
                             [Poly.var(3, 0)])
        assert traj.endpoint() == [1.0, 2.0, 3.0]
        assert traj.invariant_drift == [0.0]

    def test_spin_rotation_accuracy(self):
        sys_ = spin_system()
        x0 = [1.0, 0.0, 0.0]
        traj = rk4_integrate(sys_.field(), x0, 1e-3, 1000,
                             list(sys_.nambu().hamiltonians))
        exact = spin_closed_form(x0, 1.0, 1.0, 1.0)
        err = max(abs(a - b) for a, b in zip(traj.endpoint(), exact))
        assert err < 1e-9
        assert max(traj.invariant_drift) < 1e-12

    def test_energy_conservation_oscillator(self):
        xs = Poly.variables(2)
        h = Fraction(1, 2) * (xs[0] ** 2 + xs[1] ** 2)
        field = MultiVector.basis(2, (0, 1)).hamiltonian_field([h])
        traj = rk4_integrate(field, [1.0, 0.0], 1e-3, 10000, [h])
        assert traj.invariant_drift[0] < 1e-8

    def test_non_finite_state_aborts(self):
        traj = rk4_integrate(lambda x: [x[0] * x[0]], [1e160], 1.0, 10, [])
        assert not traj.ok
        assert "non-finite" in traj.error

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda x: x, [1.0], -0.1, 10)
        with pytest.raises(ValueError):
            rk4_integrate(lambda x: x, [1.0], 0.1, 0)

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_zero_step_rejected(self, h):
        with pytest.raises(ValueError):
            rk4_integrate(lambda x: x, [1.0], h, 10)

    def test_polynomial_overflow_aborts(self):
        # x**2 on a float beyond 1e154 raises OverflowError inside the field
        field = MultiVector(1, 1, {(0,): Poly.var(1, 0) ** 2})
        traj = rk4_integrate(field, [1e160], 1.0, 10, [Poly.var(1, 0)])
        assert not traj.ok and "non-finite" in traj.error
        assert traj.states == [[1e160]] and traj.drift_rows == [[0.0]]

    def test_coefficient_beyond_float_range_aborts(self):
        # as at a pole: the field raises when first evaluated, not when built
        field = MultiVector(1, 1, {(0,): Poly.monomial(1, (1,), 10 ** 400)})
        traj = rk4_integrate(field, [1.0], 0.1, 3)
        assert not traj.ok and traj.states == [[1.0]]

    def test_pole_aborts(self):
        # dx/dt = 1/x meets its pole at the start
        field = MultiVector(1, 1, {(0,): Poly.monomial(1, (-1,), 1)})
        traj = rk4_integrate(field, [0.0], 0.1, 10)
        assert not traj.ok and traj.states == [[0.0]] and traj.times == [0.0]

    def test_drift_rows_follow_states(self):
        sys_ = SpinSystem((Fraction(1, 3), Fraction(-2), Fraction(1, 2)),
                          Fraction(3, 2))
        monitors = list(sys_.nambu().hamiltonians)
        traj = rk4_integrate(sys_.field(), [1.0, 0.5, -2.0], 0.01, 40, monitors)
        assert len(traj.drift_rows) == len(traj.states) == len(traj.times)
        assert traj.drift_rows[0] == [0.0, 0.0]
        for state, row in zip(traj.states, traj.drift_rows):
            assert row == [abs(m.evaluate_float(state)
                               - m.evaluate_float(traj.states[0]))
                           for m in monitors]
        assert traj.invariant_drift == [max(col) for col in zip(*traj.drift_rows)]
        assert max(traj.invariant_drift) > 0.0

    def test_drift_rows_aligned_on_abort(self):
        # dx/dt = x² from x = 1 blows up at t = 1
        traj = rk4_integrate(lambda x: [x[0] * x[0]], [1.0], 0.05, 10**4,
                             [Poly.var(1, 0)])
        assert not traj.ok
        assert 1 < len(traj.states) == len(traj.drift_rows) == len(traj.times)
        assert traj.drift_rows[0] == [0.0]
        assert traj.invariant_drift == [max(col) for col in zip(*traj.drift_rows)]


class TestKepler:
    def test_constant_field_is_sum_of_angle_directions(self):
        k = KeplerSystem(1.0, 1.0)
        expected = MultiVector.basis(6, (3,)) + MultiVector.basis(6, (4,)) \
            + MultiVector.basis(6, (5,))
        assert k.constant_field() == expected

    def test_nu_value(self):
        k = KeplerSystem(1.0, 1.0)
        assert k.nu([1, 1, 1, 0, 0, 0]) == pytest.approx(2.0 / 27.0)
        assert KeplerSystem(2.0, 3.0).nu([1, 1, 1, 0, 0, 0]) == \
            pytest.approx(2 * 2 * 9 / 27)

    def test_singular_locus_rejected(self):
        with pytest.raises(ZeroDivisionError):
            KeplerSystem(1.0, 1.0).nu([1, -1, 0, 0, 0, 0])

    def test_actions_are_static(self):
        k = KeplerSystem(1.0, 1.0)
        f = k.field()
        rates = f([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        assert rates[:3] == [0.0, 0.0, 0.0]
        assert rates[3] == rates[4] == rates[5] != 0.0


# Laurent terms whose monomials mix exponent 1 with the others, and the
# points of ``test_field_function_matches_plan_loop`` with a negative huge one
fused_terms = st.lists(
    st.tuples(st.tuples(*[st.sampled_from([-2, -1, 0, 1, 1, 2, 3])] * 3),
              st.fractions(-4, 4, max_denominator=6).filter(bool)),
    max_size=4)
fused_coords = st.sampled_from([0.0, -0.0, 0.5, -1.75, 3.0, 1e-170, 1e120, -1e120])


class TestCompiledFlow:
    """The compiled fields and the generated stepper against the plan loop
    and the list-based RK4 loop, compared by ``repr``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.75, 3.0, 1e-170, 1e120]),
                    min_size=3, max_size=3))
    def test_field_function_matches_plan_loop(self, seed, point):
        rng = random.Random(seed)
        tensor = MultiVector.basis(3, (0, 1, 2), rand_poly(rng, 3, 2))
        field = NambuSystem(tensor, (rand_poly(rng, 3, 3, 4),
                                     rand_poly(rng, 3, 2))).dynamics_field()
        want = float_outcome(
            lambda x: [float_plan_oracle(c, x) for c in field.vector_coeffs()], point)
        assert float_outcome(field_function(field), point) == want

    def test_kepler_field_matches_plan_loop(self):
        k = KeplerSystem(2.0, 0.5)
        state = [1.0, 2.0, 0.5, 0.1, 0.2, 0.3]
        nu = k.nu(state)
        want = [nu * float_plan_oracle(c, state) for c in k.constant_field().vector_coeffs()]
        assert repr(k.field()(state)) == repr(want)

    @pytest.mark.parametrize("make, x0", [
        (lambda: SpinSystem((Fraction(1, 3), Fraction(-2), Fraction(1, 2)),
                            Fraction(3, 2)).field(), [1.0, 0.5, -2.0]),
        (lambda: KeplerSystem(2.0, 0.5).field(), [1.0, 2.0, 0.5, 0.1, 0.2, 0.3]),
        (lambda: MultiVector(3, 1, {(0,): Poly.monomial(3, (1, 1, 0), Fraction(1, 3)),
                                    (2,): Poly.monomial(3, (0, -1, 1), -1)}),
         [1.0, 0.5, -2.0]),
    ], ids=["spin", "kepler", "laurent"])
    def test_stepper_matches_list_loop(self, make, x0):
        field = make()
        f = field_function(field) if isinstance(field, MultiVector) else field
        traj = rk4_integrate(field, x0, 0.01, 200)
        assert repr(traj.states) == repr(rk4_oracle(f, x0, 0.01, 200))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(fused_terms, min_size=3, max_size=3), st.lists(fused_terms, max_size=2),
           st.lists(fused_coords, min_size=3, max_size=3),
           st.sampled_from([0.01, 0.1, 0.5]), st.integers(1, 12), st.integers(2, 5))
    @example([[((1, 1, 0), 1)], [((0, 1, 2), Fraction(-1, 3))], []], [[((2, 0, 1), 1)]],
             [1e120, -0.0, 1.0], 0.1, 5, 3)  # overflow of x0**2
    @example([[((1, 0, 0), 1)], [((0, -1, 0), 2)], [((0, 0, 1), -1)]], [[((0, 0, 1), 1)]],
             [1.0, 0.0, 1e-170], 0.1, 5, 3)  # pole at y = 0
    def test_fused_stepper_matches_oracle(self, comps, monitor_terms, x0, h, steps, block):
        """The fused stepper of a polynomial field with its inlined monitors
        against ``rk4_oracle`` on the term-by-term plan loop, by ``repr``:
        Laurent terms, exponent 1 beside higher ones, signed zeros, tiny and
        huge coordinates, runs cut by an overflow or a pole, and a block
        boundary inside the run."""
        field = MultiVector(3, 1, {(i,): Poly(3, dict(terms)) for i, terms in enumerate(comps)})
        monitors = [Poly(3, dict(terms)) for terms in monitor_terms]
        states = rk4_oracle(lambda x: [float_plan_oracle(c, x) for c in field.vector_coeffs()],
                            x0, h, steps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "BLOCK", block)
            try:
                initial = [float_plan_oracle(m, states[0]) for m in monitors]
            except (OverflowError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    rk4_integrate(field, x0, h, steps, monitors)
                return
            traj = rk4_integrate(field, x0, h, steps, monitors)
        rows = [[0.0] * len(monitors)]
        for k, state in enumerate(states[1:], 1):
            try:
                rows.append([abs(float_plan_oracle(m, state) - v)
                             for m, v in zip(monitors, initial)])
            except (OverflowError, ZeroDivisionError):  # the step is not taken
                states = states[:k]
                break
        assert repr(traj.states) == repr(states)
        assert repr(traj.drift_rows) == repr(rows)
        times = [0.0]
        for _ in states[1:]:
            times.append(times[-1] + h)
        assert traj.times == times
        assert traj.ok == (len(states) == steps + 1)

    def test_stepper_source_has_no_pow_of_one_or_coefficients(self, monkeypatch):
        """Every factor of exponent 1 is written as the plain name, and every
        coefficient of the field and the monitors is a bound name."""
        sources = []
        compiled = dynamics._compiled
        monkeypatch.setattr(dynamics, "_compiled",
                            lambda source: sources.append(source) or compiled(source))
        x, y, z = Poly.variables(3)
        field = MultiVector(3, 1, {(0,): Fraction(22, 7) * x * y**2, (1,): -12345 * x * z,
                                   (2,): x**10 + Poly.monomial(3, (0, -1, 0), 1729)})
        rk4_integrate(field, [1.0, 0.5, -2.0], 0.01, 5, [Fraction(5, 9) * x * y * z])
        assert len(sources) == 1
        assert re.search(r"\*\*1\b", sources[0]) is None
        assert "x0**10" in sources[0] and "**-1" in sources[0]
        for text in ("22/7", repr(22 / 7), "12345", "5/9", repr(5 / 9), "1729"):
            assert text not in sources[0]

    def test_runs_of_one_term_structure_share_one_compile(self, monkeypatch):
        """Two fields and monitors with the same terms and different
        coefficients compile one stepper, and each run keeps the rows of
        the term-by-term loop."""
        compiles = []
        monkeypatch.setattr(dynamics, "compile", lambda *args: compiles.append(args[0])
                            or compile(*args), raising=False)
        dynamics._compiled.cache_clear()
        x, y, z = Poly.variables(3)
        for a, b in ((Fraction(1, 3), -2), (Fraction(-5, 7), 11)):
            field = MultiVector.vector([a * y * z**3, b * x**2 + 1, a * x * y])
            monitor = b * x * y + z**2
            traj = rk4_integrate(field, [0.5, -1.0, 0.25], 0.01, 40, [monitor])
            states = rk4_oracle(lambda s: [float_plan_oracle(c, s) for c in field.vector_coeffs()],
                                [0.5, -1.0, 0.25], 0.01, 40)
            assert repr(traj.states) == repr(states)
            assert repr(traj.drift_rows) == repr(
                [[abs(float_plan_oracle(monitor, s) - float_plan_oracle(monitor, states[0]))]
                 for s in states])
        assert len(compiles) == 1

    def test_rhs_called_four_times_per_step(self):
        calls = []

        def f(state):
            calls.append(state)
            return [-state[1], state[0]]

        traj = rk4_integrate(f, [1.0, 0.0], 0.1, 10)
        assert len(calls) == 40 and len(traj.states) == 11

    def test_blocks_stream_the_trajectory(self, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK", 7)
        sys_ = SpinSystem((Fraction(1), Fraction(1, 2), Fraction(-1)), Fraction(1))
        monitors = list(sys_.nambu().hamiltonians)
        whole = rk4_integrate(sys_.field(), [1.0, 0.5, -2.0], 0.01, 50, monitors)
        blocks = list(rk4_blocks(sys_.field(), [1.0, 0.5, -2.0], 0.01, 50,
                                 monitors))
        assert [len(b[0]) for b in blocks] == [7] * 7 + [2]
        for got, want in zip(zip(*blocks), (whole.times, whole.states, whole.drift_rows)):
            assert repr([row for block in got for row in block]) == repr(want)

    def test_blocks_end_with_the_rows_before_an_abort(self, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK", 5)
        # dx/dt = x² from x = 1 blows up at t = 1
        blocks = rk4_blocks(lambda x: [x[0] * x[0]], [1.0], 0.05, 10 ** 4,
                            [Poly.var(1, 0)])
        seen = []
        with pytest.raises(FlowAborted, match="non-finite state at t="):
            for times, states, rows in blocks:
                seen += states
        traj = rk4_integrate(lambda x: [x[0] * x[0]], [1.0], 0.05, 10 ** 4,
                             [Poly.var(1, 0)])
        assert seen == traj.states == rk4_oracle(lambda x: [x[0] * x[0]], [1.0], 0.05, 10 ** 4)
        assert not traj.ok
