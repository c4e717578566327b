"""A magnetized spinning particle as a ternary Hamiltonian system.

dS/dt = mu S x B arises from the volume 3-vector on R3 with the two
Hamiltonians (S^2)/2 and mu S.B; both are conserved exactly by the flow and
to integrator precision along RK4 trajectories.
Run with:  python3 demos/03_spin_dynamics.py
"""

from fractions import Fraction

from nambu.dynamics import (SpinSystem, bracket_bivector,
                            hereditary_poisson_table, rk4_integrate,
                            spin_closed_form)
from nambu.poly import Poly


def banner(title):
    print(f"\n== {title} ==")


spin = SpinSystem((Fraction(0), Fraction(0), Fraction(1)), Fraction(1))
system = spin.nambu()

banner("The dynamics field of the ternary description")
print(f"tensor: d1^d2^d3, Hamiltonians: {[str(h) for h in system.hamiltonians]}")
print(f"field: {spin.field()}")
for h in system.hamiltonians:
    print(f"  field applied to {h}: {spin.field().apply([h])}")

banner("RK4 with drift monitoring (B = (0,0,1), mu = 1)")
x0 = [1.0, 0.0, 0.5]
traj = rk4_integrate(spin.field(), x0, 1e-3, 10_000,
                     list(system.hamiltonians))
exact = spin_closed_form(x0, 1.0, 1.0, 10.0)
err = max(abs(a - b) for a, b in zip(traj.endpoint(), exact))
print(f"steps: 10000, h = 1e-3, endpoint: {traj.endpoint()}")
print(f"closed form:               {exact}")
print(f"endpoint error: {err:.3e}")
print(f"drift of (S^2/2, S.B): {[f'{d:.3e}' for d in traj.invariant_drift]}")

banner("Hereditary Poisson brackets: freeze one Hamiltonian")
xs = Poly.variables(3)
table = hereditary_poisson_table(Poly.const(3, Fraction(1, 2)),
                                 xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2)
print("the su(2) table {S_j, S_k} from the spin-length Hamiltonian:")
for j in range(3):
    for k in range(j + 1, 3):
        print(f"  {{S{j + 1},S{k + 1}}} = {table[j][k]}")
biv = bracket_bivector(table)
print(f"its bivector closes (zero self Schouten bracket): "
      f"{biv.schouten(biv).is_zero()}")
