"""Nambu dynamics: Hamiltonian fields of n-Poisson tensors, fixed-step RK4
integration with first-integral monitoring, and two worked systems — the
magnetized spinning particle on R³ and the Kepler problem in action-angle
coordinates.

The symbolic core stays polynomial.  The q-deformed spin bracket needs
negative powers of S₃, which ``Poly`` represents exactly (its exponents may be
negative internally; file input may not carry them).  The Kepler tensor's
rational prefactor ν = 2mk²/(ΣJ)³ is evaluated pointwise and never feeds back
into the exact verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .multivector import MultiVector
from .npoisson import is_n_poisson
from .poly import Poly


# -- systems --------------------------------------------------------------------

@dataclass(frozen=True)
class NambuSystem:
    """An n-Poisson tensor plus its n−1 Hamiltonians; defines dx/dt = X_{H…}x."""

    tensor: MultiVector
    hamiltonians: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "hamiltonians", tuple(self.hamiltonians))
        if len(self.hamiltonians) != self.tensor.degree - 1:
            raise ValueError("need exactly degree−1 Hamiltonians")

    def validate(self) -> None:
        ok, witness = is_n_poisson(self.tensor)
        if not ok:
            raise ValueError(f"tensor fails the fundamental identity; witness {witness}")

    def dynamics_field(self) -> MultiVector:
        return self.tensor.hamiltonian_field(list(self.hamiltonians))


def field_function(v: MultiVector) -> Callable[[Sequence[float]], list[float]]:
    """Float evaluation of a polynomial vector field."""
    coeffs = v.vector_coeffs()
    return lambda state: [c.evaluate_float(state) for c in coeffs]


def check_preserved_bracket(x: MultiVector, tensor: MultiVector) -> bool:
    """Whether the flow of X preserves the tensor: L_X(Λ) = 0 identically."""
    return x.lie_derivative_of(tensor).is_zero()


# -- integration ------------------------------------------------------------------

@dataclass
class Trajectory:
    """States of an RK4 run with the drift of its monitors.

    ``drift_rows[k]`` holds |H(states[k]) − H(x0)| for each monitor H, so
    row 0 is all zeros and there is one row per state, also when the run
    stops early; ``invariant_drift`` is the column-wise maximum of the rows.
    """

    times: list[float]
    states: list[list[float]]
    invariant_drift: list[float]
    drift_rows: list[list[float]]
    ok: bool = True
    error: str | None = None

    def endpoint(self) -> list[float]:
        return self.states[-1]


def rk4_integrate(f: Callable[[Sequence[float]], Sequence[float]] | MultiVector,
                  x0: Sequence[float], h: float, steps: int,
                  monitors: Sequence[Poly] = ()) -> Trajectory:
    """Classical fixed-step 4th-order Runge–Kutta with drift monitoring.

    ``monitors`` are polynomials evaluated once on every state; the drift
    rows and their running maximum are kept in the ``Trajectory``.  Drift
    is reported, never corrected.  ``h`` must be finite and positive.  A
    step whose state is not finite, or overflows or meets a pole of the
    field while being computed, ends the run with ``ok=False``; the states
    before it are kept.
    """
    if not (math.isfinite(h) and h > 0) or steps < 1:
        raise ValueError("need a finite h > 0 and steps ≥ 1")
    if isinstance(f, MultiVector):
        f = field_function(f)
    state = [float(x) for x in x0]
    initial = [mon.evaluate_float(state) for mon in monitors]
    drift = [0.0] * len(monitors)
    times = [0.0]
    states = [state]
    rows = [[0.0] * len(monitors)]
    half, sixth = 0.5 * h, h / 6.0
    t = 0.0
    for _ in range(steps):
        t += h
        try:
            k1 = f(state)
            k2 = f([x + half * d for x, d in zip(state, k1)])
            k3 = f([x + half * d for x, d in zip(state, k2)])
            k4 = f([x + h * d for x, d in zip(state, k3)])
            state = [x + sixth * (a + 2 * b + 2 * c + d)
                     for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
            if not all(math.isfinite(x) for x in state):
                raise OverflowError
            row = [abs(mon.evaluate_float(state) - v)
                   for mon, v in zip(monitors, initial)]
        except (OverflowError, ZeroDivisionError):
            return Trajectory(times, states, drift, rows, ok=False,
                              error=f"non-finite state at t={t}")
        times.append(t)
        states.append(state)
        rows.append(row)
        drift = [max(d, r) for d, r in zip(drift, row)]
    return Trajectory(times, states, drift, rows)


# -- the spinning particle ------------------------------------------------------------

@dataclass(frozen=True)
class SpinSystem:
    """Magnetized spin on R³: dS/dt = μ S×B, realized as the Nambu system
    with tensor ∂₁∧∂₂∧∂₃ and Hamiltonians (½S², μ S·B)."""

    b_field: tuple[Fraction, Fraction, Fraction]
    mu: Fraction = Fraction(1)

    def nambu(self) -> NambuSystem:
        tensor = MultiVector.basis(3, (0, 1, 2))
        xs = Poly.variables(3)
        h1 = Fraction(1, 2) * (xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2)
        h2 = self.mu * sum((Fraction(b) * x for b, x in zip(self.b_field, xs)),
                           Poly.zero(3))
        return NambuSystem(tensor, (h1, h2))

    def field(self) -> MultiVector:
        return self.nambu().dynamics_field()


def spin_closed_form(x0: Sequence[float], b3: float, mu: float, t: float) -> list[float]:
    """Exact solution for B = (0,0,b₃): rotation about the 3-axis with
    dS₁/dt = μb₃S₂, dS₂/dt = −μb₃S₁."""
    w = mu * b3
    c, s = math.cos(w * t), math.sin(w * t)
    return [c * x0[0] + s * x0[1], -s * x0[0] + c * x0[1], x0[2]]


def hereditary_poisson_table(f: Poly, big_f: Poly) -> list[list[Poly]]:
    """Pairwise brackets {S_j,S_k} = f · ε_{jkl} ∂F/∂S_l of the ternary
    structure f·∂₁∧∂₂∧∂₃ with the function F frozen in one slot; f and F may
    carry negative exponents, as the deformed spin brackets do."""
    grads = big_f.gradient()
    table = [[Poly.zero(3) for _ in range(3)] for _ in range(3)]
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        entry = f * grads[l]
        table[j][k], table[k][j] = entry, -entry
    return table


def bracket_bivector(table: list[list[Poly]]) -> MultiVector:
    """The bivector Σ_{j<k} {S_j,S_k} ∂_j∧∂_k of a 3×3 bracket table."""
    comps = {}
    for j in range(3):
        for k in range(j + 1, 3):
            if not table[j][k].is_zero():
                comps[(j, k)] = table[j][k]
    return MultiVector(3, 2, comps)


# -- Kepler in action-angle coordinates -----------------------------------------------------

@dataclass(frozen=True)
class KeplerSystem:
    """The Kepler problem on the chart (J₁,J₂,J₃,φ₁,φ₂,φ₃).

    The 6-vector ν·∂_{J₁}∧…∧∂_{φ₃} with ν = 2mk²/(J₁+J₂+J₃)³ and Hamiltonians
    (J₁, J₂, J₃, φ₁−φ₂, φ₂−φ₃) drives the flow ν·(∂_{φ₁}+∂_{φ₂}+∂_{φ₃});
    ν is evaluated pointwise since it is not polynomial.
    """

    mass: float
    k_const: float

    @property
    def hamiltonians(self) -> tuple[Poly, ...]:
        xs = Poly.variables(6)
        return (xs[0], xs[1], xs[2], xs[3] - xs[4], xs[4] - xs[5])

    def constant_field(self) -> MultiVector:
        """The ν-independent part: the volume 6-vector contracted with the
        five Hamiltonian differentials."""
        volume = MultiVector.basis(6, tuple(range(6)))
        return volume.hamiltonian_field(list(self.hamiltonians))

    def nu(self, state: Sequence[float]) -> float:
        total = state[0] + state[1] + state[2]
        if total == 0:
            raise ZeroDivisionError("singular locus ΣJ = 0")
        return 2.0 * self.mass * self.k_const**2 / total**3

    def field(self) -> Callable[[Sequence[float]], list[float]]:
        base = self.constant_field().vector_coeffs()
        def f(state):
            nu = self.nu(state)
            return [nu * c.evaluate_float(state) for c in base]
        return f
