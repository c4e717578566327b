"""Nambu dynamics: Hamiltonian fields of n-Poisson tensors, fixed-step RK4
integration with first-integral monitoring, and two worked systems — the
magnetized spinning particle on R³ and the Kepler problem in action-angle
coordinates.

The symbolic core stays polynomial.  The q-deformed spin bracket needs
negative powers of S₃, which ``Poly`` represents exactly (its exponents may be
negative internally; file input may not carry them).  The Kepler tensor's
rational prefactor ν = 2mk²/(ΣJ)³ is evaluated pointwise and never feeds back
into the exact verifiers.

Floats enter only here.  A vector field and a list of monitors each become
one function generated by ``poly.compile_floats``, and the RK4 loop is
generated once per state dimension and monitor count, with the stage
arithmetic unrolled over scalars; every float is the one the term-by-term,
list-by-list loop gives.  ``rk4_blocks`` yields the run in blocks of
``BLOCK`` rows, so the ``integrate`` verb streams its CSV in bounded
memory; ``rk4_integrate`` collects the blocks into a ``Trajectory``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .multivector import MultiVector
from .npoisson import is_n_poisson
from .poly import Poly, compile_floats


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
    """Float evaluation of a polynomial vector field: its components
    compiled into one function (``poly.compile_floats``)."""
    return compile_floats(v.vector_coeffs())


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


class FlowAborted(Exception):
    """An RK4 step was not finite, overflowed or met a pole of the field."""


BLOCK = 1024

# The RK4 loop on n state scalars x0…x{n-1} with k drift monitors: the
# classical stage combination written out per component, with f called
# exactly 4 times per step.  It takes ``count`` steps from ``state`` at time
# ``t``, appends each time, state and drift row, and returns ``(t, state)``,
# or ``(t, None)`` at the time of a step that is not finite.
_STEPPER = """\
def run(f, g, initial, state, t, h, count, times, states, rows):
    half, sixth = 0.5 * h, h / 6.0
    [{x}] = state
    [{v}] = initial
    for _ in range(count):
        t += h
        try:
            [{a}] = f(state)
            [{b}] = f([{x_a}])
            [{c}] = f([{x_b}])
            [{d}] = f([{x_c}])
            {update}
            if not ({finite}):
                return t, None
            state = [{x}]
            [{m}] = g(state)
        except (OverflowError, ZeroDivisionError):
            return t, None
        times.append(t)
        states.append(state)
        rows.append([{drift}])
    return t, state
"""


@functools.cache
def _stepper(n: int, k: int) -> Callable:
    """``_STEPPER`` for n state scalars and k monitors, compiled once."""
    def vec(template: str, size: int = n, sep: str = ", ") -> str:
        return sep.join(template.format(i=i) for i in range(size))

    namespace = {"isfinite": math.isfinite}
    exec(_STEPPER.format(
        x=vec("x{i}"), a=vec("a{i}"), b=vec("b{i}"), c=vec("c{i}"), d=vec("d{i}"),
        x_a=vec("x{i} + half * a{i}"), x_b=vec("x{i} + half * b{i}"),
        x_c=vec("x{i} + h * c{i}"),
        update=vec("x{i} = x{i} + sixth * (a{i} + 2 * b{i} + 2 * c{i} + d{i})",
                   sep="\n            "),
        finite=vec("isfinite(x{i})", sep=" and ") or "True",
        v=vec("v{i}", k), m=vec("m{i}", k), drift=vec("abs(m{i} - v{i})", k)),
        namespace)
    return namespace["run"]


def rk4_blocks(f: Callable[[Sequence[float]], Sequence[float]] | MultiVector,
               x0: Sequence[float], h: float, steps: int,
               monitors: Sequence[Poly] = ()):
    """The run of ``rk4_integrate`` as a generator of ``(times, states,
    rows)`` blocks of at most ``BLOCK`` rows each, so that a caller that
    writes them out holds one block at a time.

    The first block starts with ``x0`` at t = 0 and a zero drift row; the
    parameters are checked and the monitors evaluated at ``x0`` when that
    block is requested.  A step that is not finite ends the run: the rows
    before it are yielded, then ``FlowAborted`` is raised.
    """
    if not (math.isfinite(h) and h > 0) or steps < 1:
        raise ValueError("need a finite h > 0 and steps ≥ 1")
    if isinstance(f, MultiVector):
        f = field_function(f)
    state = [float(x) for x in x0]
    initial = [mon.evaluate_float(state) for mon in monitors]
    monitor_values = compile_floats(monitors)
    run = _stepper(len(state), len(monitors))
    times, states, rows = [0.0], [state], [[0.0] * len(monitors)]
    t = 0.0
    while True:
        count = min(steps, BLOCK - len(times))
        t, state = run(f, monitor_values, initial, state, t, h, count,
                       times, states, rows)
        steps -= count
        yield times, states, rows
        if state is None:
            raise FlowAborted(f"non-finite state at t={t}")
        if not steps:
            return
        times, states, rows = [], [], []


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
    times, states, rows = [], [], []
    error = None
    try:
        for block in rk4_blocks(f, x0, h, steps, monitors):
            times += block[0]
            states += block[1]
            rows += block[2]
    except FlowAborted as exc:
        error = str(exc)
    drift = [max(col) for col in zip(*rows)]
    return Trajectory(times, states, drift, rows, ok=error is None, error=error)


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
        base = compile_floats(self.constant_field().vector_coeffs())
        def f(state):
            nu = self.nu(state)
            return [nu * c for c in base(state)]
        return f
