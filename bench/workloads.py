"""Seeded request generators and output checks for the four workloads.

Every request is one call of the public CLI entry point ``nambu.cli.main``.
A workload is an infinite stream of requests.  Request ``i`` is built
from two random sources (``Draw``): its *shape* (which request kind, which
monomials, which sparsity pattern, which label) comes from slot
``i % SHAPES`` of a fixed pool, and its *values* (coefficients, basis
changes, start points) come from ``(seed, workload, i)``.  So every run
walks the same mix of shapes in the same order, and the seed changes every
instance without changing how much work the mix asks for.  Requests are
built one at a time, so the stream is the same however it is batched.

Expected verdicts and exit codes follow from how each instance is built,
never from running the checker under test.  False verdicts are further
confirmed by replaying the printed witness, which must give a nonzero
defect.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from nambu import bianchi, linalg
from nambu.multivector import MultiVector, multivector_to_json
from nambu.njacobi import JacobiOp, jacobi_defects, jacobiop_to_json
from nambu.nlie import NLieStructure, nlie_from_json, nlie_to_json
from nambu.npoisson import dual_nvector, fi_defect
from nambu.poly import Poly


class CheckFailed(Exception):
    """The program's output disagrees with what the instance implies."""


@dataclass
class Request:
    kind: str
    argv: list[str]       # "@name" stands for the path of files[name]
    files: dict           # name -> JSON document written before the call
    code: int             # expected exit code
    check: Callable[[str], None]  # raises CheckFailed on wrong stdout
    mix: dict = field(default_factory=dict)

    def key(self) -> str:
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def materialize(self, directory: str, index: int) -> list[str]:
        """Write the input files and return the argv that names them."""
        paths = {}
        for name, doc in self.files.items():
            path = os.path.join(directory, f"{index:06d}-{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths[name] = path
        return [paths[a[1:]] if a.startswith("@") else a for a in self.argv]


# -- random building blocks ------------------------------------------------------

class Draw:
    """The two random sources of one instance."""

    def __init__(self, shape: random.Random, value: random.Random):
        self.shape, self.value = shape, value


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def rand_support(shape: random.Random, m: int, degree: int, n_terms: int) -> list:
    """``n_terms`` exponent tuples, the first of total degree ``degree``
    and the others of degree at most ``degree``."""
    support: list = []
    while len(support) < n_terms:
        exps = [0] * m
        for _ in range(degree if not support else shape.randint(0, degree)):
            exps[shape.randrange(m)] += 1
        if tuple(exps) not in support:
            support.append(tuple(exps))
    return support


def poly_on(rng: random.Random, m: int, support: list) -> Poly:
    return Poly(m, {exps: rand_fraction(rng) for exps in support})


def rand_poly(d: Draw, m: int, degree: int, n_terms: int) -> Poly:
    return poly_on(d.value, m, rand_support(d.shape, m, degree, n_terms))


def rand_blade(d: Draw, m: int, k: int, components: int) -> MultiVector:
    """v₁∧…∧v_k for sparse constant vectors with exactly ``components``
    nonzero components.  The blade is part of the shape: it fixes most of
    the checker's work."""
    while True:
        blade = None
        for _ in range(k):
            vec = MultiVector.vector([Poly.const(m, d.shape.choice((-1, 0, 0, 1, 2)))
                                      for _ in range(m)])
            blade = vec if blade is None else blade.wedge(vec)
        if len(blade.components) == components:
            return blade


def rand_invertible(rng: random.Random, dim: int) -> linalg.Matrix:
    while True:
        c = linalg.mat([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if linalg.det(c) != 0:
            return c


def rand_symmetric(rng: random.Random, dim: int) -> linalg.Matrix:
    while True:
        a = linalg.zeros(dim, dim)
        for i in range(dim):
            for j in range(i, dim):
                a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3))
        if any(x for row in a for x in row):
            return a


def rand_3lie(rng: random.Random) -> NLieStructure:
    """A nonzero 4-dimensional 3-Lie algebra: a symmetric generating form
    (always a valid algebra) hidden behind a basis change."""
    form = rand_symmetric(rng, 4)
    return bianchi.algebra_from_form(form, 3).change_basis(rand_invertible(rng, 4))


def fraction_csv(values) -> str:
    return ",".join(str(v) for v in values)


# -- output helpers ----------------------------------------------------------------

def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _parse_witness(witness, m: int) -> list[Poly]:
    if not isinstance(witness, list):
        raise CheckFailed(f"witness missing: {witness!r}")
    return [Poly.parse(w, m) for w in witness]


# -- poisson: check-poisson --------------------------------------------------------

def _poisson_true(tensor: MultiVector, rank0: int, max_degree: int = 0,
                  casimir_count: int = 0):
    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), True)
        _expect("witness", out.get("witness"), None)
        _expect("decomposable", out.get("decomposable"), True)
        _expect("rank_at_origin", out.get("rank_at_origin"), rank0)
        if not max_degree:
            return
        casimirs = [Poly.parse(c, tensor.num_vars) for c in out.get("casimirs", [])]
        _expect("casimir count", len(casimirs), casimir_count)
        xs = Poly.variables(tensor.num_vars)
        for c in casimirs:
            for pair in itertools.combinations(xs, tensor.degree - 1):
                if not tensor.apply([*pair, c]).is_zero():
                    raise CheckFailed(f"{c} is not a Casimir")
    return check


def _poisson_false(tensor: MultiVector):
    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), False)
        _expect("decomposable", out.get("decomposable"), False)
        fs = _parse_witness(out.get("witness"), tensor.num_vars)
        if fi_defect(tensor, fs).is_zero():
            raise CheckFailed(f"witness {out['witness']} has zero defect")
    return check


def _check_poisson(tensor: MultiVector, code: int, check, extra=(), **mix) -> Request:
    return Request("check-poisson",
                   ["--json", "check-poisson", "@tensor", *extra],
                   {"tensor": multivector_to_json(tensor)}, code, check,
                   {"num_vars": tensor.num_vars, "degree": tensor.degree, **mix})


def poisson_decomposable(d: Draw, m: int, coef_degree: int, components: int,
                         max_degree: int = 0) -> Request:
    """f·(v₁∧v₂∧v₃): Nambu-Poisson for any polynomial f (true)."""
    f = rand_poly(d, m, coef_degree, 3)
    tensor = rand_blade(d, m, 3, components) * f
    rank0 = 3 if f.evaluate([0] * m) != 0 else 0
    extra = ("--max-degree", str(max_degree)) if max_degree else ()
    # the Casimirs are the polynomials in the m − 3 linear forms that
    # annihilate the blade: C(m − 3 + d, d) of them up to degree d
    casimirs = math.comb(m - 3 + max_degree, max_degree)
    return _check_poisson(tensor, 0, _poisson_true(tensor, rank0, max_degree, casimirs),
                          extra, coef_degree=coef_degree, max_degree=max_degree,
                          verdict=True)


def poisson_dual(d: Draw) -> Request:
    """The dual 3-vector of a 4-dimensional 3-Lie algebra (true)."""
    tensor = dual_nvector(rand_3lie(d.value))
    return _check_poisson(tensor, 0, _poisson_true(tensor, 0), coef_degree=1,
                          verdict=True)


def poisson_blade_sum(d: Draw) -> Request:
    """f·∂_I + g·∂_J on 6 coordinates with I, J complementary triples: not
    decomposable where fg ≠ 0, so the fundamental identity fails (false)."""
    coords = list(range(6))
    d.shape.shuffle(coords)
    i, j = sorted(coords[:3]), sorted(coords[3:])
    f = rand_poly(d, 6, 1, 2)
    g = rand_poly(d, 6, 1, 2)
    tensor = MultiVector.basis(6, i, f) + MultiVector.basis(6, j, g)
    return _check_poisson(tensor, 1, _poisson_false(tensor), coef_degree=1,
                          verdict=False)


def poisson_dual_product(d: Draw) -> Request:
    """The dual of a direct product of two nonzero 3-Lie algebras: a sum of
    rank-3 tensors on complementary coordinate blocks (false)."""
    tensor = dual_nvector(rand_3lie(d.value).direct_product(rand_3lie(d.value)))
    return _check_poisson(tensor, 1, _poisson_false(tensor), coef_degree=1,
                          verdict=False)


# -- jacobi: check-jacobi ----------------------------------------------------------

def _check_jacobi(op: JacobiOp, code: int, check, **mix) -> Request:
    return Request("check-jacobi", ["--json", "check-jacobi", "@pair"],
                   {"pair": jacobiop_to_json(op)}, code, check,
                   {"num_vars": op.num_vars, "degree": op.arity, **mix})


def jacobi_gradient(d: Draw, m: int, arity: int, components: int) -> Request:
    """∇ + s(∇_h) for a decomposable Poisson ∇ and polynomial h (true)."""
    f = rand_poly(d, m, 1, 2)
    h = rand_poly(d, m, 2, 2)
    nabla = rand_blade(d, m, arity, components) * f
    op = JacobiOp(nabla, nabla.contract(h))

    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), True)
        _expect("witness", out.get("witness"), None)
        _expect("box_poisson", out.get("box_poisson"), True)
        _expect("nabla_decomposable", out.get("nabla_decomposable"), True)
    return _check_jacobi(op, 0, check, verdict=True)


def _raw_identity_fails(op: JacobiOp, slots: list[Poly]) -> bool:
    """Whether the n-ary Jacobi identity of Δ, expanded directly from
    ``JacobiOp.apply``, fails on some tuple drawn from ``slots``."""
    n = op.arity
    values: dict = {}

    def apply(args) -> Poly:
        key = tuple(args)
        if key not in values:
            values[key] = op.apply(list(args))
        return values[key]

    for us in itertools.combinations(slots, n - 1):
        for vs in itertools.combinations(slots, n):
            lhs = apply((*us, apply(vs)))
            rhs = Poly.zero(op.num_vars)
            for i in range(n):
                args = list(vs)
                args[i] = apply((*us, vs[i]))
                rhs = rhs + apply(args)
            if lhs != rhs:
                return True
    return False


def jacobi_random(d: Draw, m: int, arity: int) -> Request:
    """A random pair on which the expanded identity fails (false)."""
    slots = [Poly.const(m, 1), *Poly.variables(m)]
    op = None
    while op is None:
        top = {idx: rand_support(d.shape, m, 1, 2)
               for idx in itertools.combinations(range(m), arity)
               if d.shape.random() < 0.5}
        low = {idx: rand_support(d.shape, m, 1, 1)
               for idx in itertools.combinations(range(m), arity - 1)
               if d.shape.random() < 0.6}
        for _ in range(5):
            candidate = JacobiOp(
                MultiVector(m, arity, {i: poly_on(d.value, m, s) for i, s in top.items()}),
                MultiVector(m, arity - 1, {i: poly_on(d.value, m, s) for i, s in low.items()}))
            if _raw_identity_fails(candidate, slots):
                op = candidate
                break

    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), False)
        fs = _parse_witness(out.get("witness"), m)
        d1, d0 = jacobi_defects(op, fs)
        if d1.is_zero() and d0.is_zero():
            raise CheckFailed(f"witness {out['witness']} has zero defects")
    return _check_jacobi(op, 1, check, verdict=False)


# -- algebra: n-Lie verbs on hidden-basis (n+1)-dimensional algebras ------------------

def rand_label(d: Draw) -> bianchi.BianchiLabel:
    """The label kind and (r, m) are shape; λ is a value."""
    kind = d.shape.choice(("unimodular", "unimodular", "psi_plus", "psi_minus",
                           "psi_one", "psi_zero"))
    if kind == "unimodular":
        r = d.shape.randint(1, 4)
        return bianchi.unimodular_label(r, d.shape.randint((r + 1) // 2, r))
    if kind in ("psi_plus", "psi_minus"):
        return bianchi.psi_label(kind, Fraction(d.value.randint(1, 5), d.value.randint(1, 3)))
    return bianchi.psi_label(kind)


def hidden(d: Draw, label: bianchi.BianchiLabel, n: int) -> NLieStructure:
    return bianchi.synthesize(label, n).change_basis(rand_invertible(d.value, n + 1))


def _algebra_request(kind: str, argv: list[str], files: dict, code: int, check,
                     n: int, verdict=None) -> Request:
    return Request(kind, argv, files, code, check,
                   {"num_vars": n + 1, "degree": n, "verdict": verdict})


def _basis(dim: int, indices) -> list[list[Fraction]]:
    return [NLieStructure.basis_vector(dim, i - 1) for i in indices]


def nlie_identity_defect(p: NLieStructure, us, vs) -> list[Fraction]:
    """[u…,[v…]] − Σᵢ [v₁,…,[u…,vᵢ],…,v_n], from the bracket alone."""
    lhs = p.bracket([*us, p.bracket(vs)])
    for i in range(len(vs)):
        args = list(vs)
        args[i] = p.bracket([*us, vs[i]])
        lhs = [x - y for x, y in zip(lhs, p.bracket(args))]
    return lhs


def algebra_check_nlie(d: Draw, n: int, valid: bool) -> Request:
    """A hidden-basis algebra (true), or one built from a form whose skew
    part has rank 4, which no n-Lie algebra has (false)."""
    if valid:
        p = hidden(d, rand_label(d), n)
    else:
        a = rand_symmetric(d.value, n + 1)
        for i, j in ((0, 1), (2, 3)):
            a[i][j] -= Fraction(1, 2)
            a[j][i] += Fraction(1, 2)
        p = bianchi.algebra_from_form(a, n).change_basis(rand_invertible(d.value, n + 1))

    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), valid)
        if valid:
            return
        w = out.get("witness") or {}
        us = _basis(p.dim, w.get("u_indices", []))
        vs = _basis(p.dim, w.get("v_indices", []))
        if len(us) != n - 1 or len(vs) != n \
                or not any(nlie_identity_defect(p, us, vs)):
            raise CheckFailed(f"witness {w} does not violate the identity")
    return _algebra_request("check-nlie", ["--json", "check-nlie", "@algebra"],
                            {"algebra": nlie_to_json(p)}, 0 if valid else 1,
                            check, n, valid)


def algebra_classify(d: Draw, n: int) -> Request:
    label = rand_label(d)
    p = hidden(d, label, n)

    def check(stdout: str) -> None:
        _expect("label", _json(stdout).get("label_json"), label.to_json())
    return _algebra_request("classify", ["--json", "classify", "@algebra"],
                            {"algebra": nlie_to_json(p)}, 0, check, n)


@functools.lru_cache(maxsize=None)
def derivation_dimension(label: bianchi.BianchiLabel, n: int) -> int:
    return len(bianchi.derivation_algebra(bianchi.synthesize(label, n)))


def algebra_derivations(d: Draw, n: int) -> Request:
    """The derivation algebra's dimension is an isomorphism invariant, read
    off the canonical algebra of the same label."""
    label = rand_label(d)
    p = hidden(d, label, n)
    want = derivation_dimension(label, n)

    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("dimension", out.get("dimension"), want)
        basis = [[[Fraction(x) for x in row] for row in mat] for mat in out["basis"]]
        _expect("basis size", len(basis), want)
        if basis and linalg.rank([[x for row in mat for x in row] for mat in basis]) != want:
            raise CheckFailed("derivation basis is linearly dependent")
        for mat in basis:
            if not p.is_derivation(mat):
                raise CheckFailed(f"{mat} is not a derivation")
    return _algebra_request("derivations", ["--json", "derivations", "@algebra"],
                            {"algebra": nlie_to_json(p)}, 0, check, n)


def algebra_compat(d: Draw, n: int, compatible: bool) -> Request:
    """Two unimodular algebras in one basis are compatible (their forms add
    to a symmetric form); Ψ₀ algebras on complementary planes are not."""
    dim = n + 1
    if compatible:
        forms = [rand_symmetric(d.value, dim), rand_symmetric(d.value, dim)]
    else:
        forms = []
        for i, j in ((0, 1), (2, 3)):
            a = linalg.zeros(dim, dim)
            a[i][j], a[j][i] = Fraction(-1, 2), Fraction(1, 2)
            forms.append(a)
    c = rand_invertible(d.value, dim)
    p, q = (bianchi.algebra_from_form(a, n).change_basis(c) for a in forms)

    def check(stdout: str) -> None:
        out = _json(stdout)
        _expect("verdict", out.get("verdict"), compatible)
        if compatible:
            return
        w = out.get("witness") or {}
        us = _basis(dim, w.get("u_indices", []))
        ws = _basis(dim, w.get("w_indices", []))
        if len(us) != n - 1 or len(ws) != n or not any(p.compat_defect(q, us, ws)):
            raise CheckFailed(f"witness {w} has zero compatibility defect")
    return _algebra_request("compat", ["--json", "compat", "@p", "@q"],
                            {"p": nlie_to_json(p), "q": nlie_to_json(q)},
                            0 if compatible else 1, check, n, compatible)


def algebra_hereditary(d: Draw, n: int) -> Request:
    """Freeze k < n − 1 arguments; every constant of the result must be
    the bracket with the frozen vectors in front."""
    p = hidden(d, rand_label(d), n)
    k = d.shape.randint(1, n - 2)
    us = [[Fraction(d.value.randint(-2, 2)) for _ in range(p.dim)] for _ in range(k)]
    freeze = ";".join(fraction_csv(u) for u in us)

    def check(stdout: str) -> None:
        result = nlie_from_json(_json(stdout))
        _expect("arity", (result.dim, result.arity), (p.dim, n - k))
        for idx in itertools.combinations(range(p.dim), n - k):
            want = p.bracket(us + [NLieStructure.basis_vector(p.dim, i) for i in idx])
            _expect(f"constants at {idx}", result.constants.get(idx, [0] * p.dim), want)
    return _algebra_request("hereditary",
                            ["hereditary", "@algebra", f"--freeze={freeze}"],
                            {"algebra": nlie_to_json(p)}, 0, check, n)


def algebra_synthesize(d: Draw, n: int) -> Request:
    """Only the Ψ±_λ labels take a value, so only they give distinct
    requests however many a run makes."""
    label = bianchi.psi_label(d.shape.choice(("psi_plus", "psi_minus")),
                              Fraction(d.value.randint(1, 99), d.value.randint(1, 19)))
    argv = ["synthesize", "--kind", label.kind, "--arity", str(n),
            "--lambda", str(label.lam)]

    def check(stdout: str) -> None:
        p = nlie_from_json(_json(stdout))
        _expect("shape", (p.dim, p.arity), (n + 1, n))
        _expect("label", bianchi.classify(p).to_json(), label.to_json())
    return _algebra_request("synthesize", argv, {}, 0, check, n)


# -- flow: integrate ----------------------------------------------------------------

# RK4 at h = 1e-3 over these orbits drifts by up to a few 1e-8 (halving h
# divides it by about 16); a wrong vector field drifts by O(1)
DRIFT_TOLERANCE = 1e-6
ENDPOINT_TOLERANCE = 1e-6


def _trajectory_check(steps: int, n_state: int, n_monitors: int,
                      endpoint: list[float] | None):
    def check(stdout: str) -> None:
        rows = list(csv.reader(io.StringIO(stdout)))
        header = ["t"] + [f"x{i + 1}" for i in range(n_state)] \
            + [f"drift{i + 1}" for i in range(n_monitors)]
        _expect("header", rows[0] if rows else None, header)
        _expect("rows", len(rows) - 1, steps + 1)
        worst = max(float(x) for row in rows[1:] for x in row[1 + n_state:])
        if not worst <= DRIFT_TOLERANCE:
            raise CheckFailed(f"invariant drift {worst:.3g} exceeds {DRIFT_TOLERANCE}")
        if endpoint is not None:
            last = [float(x) for x in rows[-1][1:1 + n_state]]
            err = max(abs(a - b) for a, b in zip(last, endpoint))
            if not err <= ENDPOINT_TOLERANCE:
                raise CheckFailed(f"endpoint error {err:.3g} exceeds {ENDPOINT_TOLERANCE}")
    return check


def _flow_request(kind: str, argv: list[str], files: dict, check, n_state: int,
                  steps: int) -> Request:
    """The tensor of every flow here has top degree, so degree = num_vars."""
    return Request(kind, ["integrate", *argv], files, 0, check,
                   {"num_vars": n_state, "degree": n_state, "steps": steps})


def _rational_point(rng, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def flow_spin(d: Draw, steps: int, h: float, axial: bool) -> Request:
    """dS/dt = μ S×B.  For B = b e₃ the flow is the rotation
    S₁ + iS₂ ↦ e^{−iμbt}(S₁ + iS₂), which fixes the expected endpoint."""
    rng = d.value
    b = [Fraction(0), Fraction(0), Fraction(rng.randint(1, 5), rng.randint(1, 3))]
    if not axial:
        b = [rand_fraction(rng) for _ in range(3)]
    mu = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    x0 = _rational_point(rng, 3)
    endpoint = None
    if axial:
        w = float(mu * b[2]) * steps * h
        s1, s2, s3 = (float(x) for x in x0)
        endpoint = [s1 * math.cos(w) + s2 * math.sin(w),
                    -s1 * math.sin(w) + s2 * math.cos(w), s3]
    argv = ["--builtin", "spin", f"--B={fraction_csv(b)}", f"--mu={mu}",
            f"--x0={fraction_csv(x0)}", f"--h={h!r}", f"--steps={steps}"]
    return _flow_request("spin-axial" if axial else "spin", argv, {},
                         _trajectory_check(steps, 3, 2, endpoint), 3, steps)


def flow_kepler(d: Draw, steps: int, h: float) -> Request:
    """Action-angle Kepler flow: the actions J stay fixed and every angle
    advances at ν = 2mk²/(J₁+J₂+J₃)³."""
    rng = d.value
    mass = rng.randint(1, 4) / 2
    k = rng.randint(1, 4) / 2
    actions = [Fraction(rng.randint(4, 12), 4) for _ in range(3)]
    angles = [Fraction(rng.randint(-9, 9), 4) for _ in range(3)]
    nu = 2.0 * mass * k ** 2 / float(sum(actions)) ** 3
    t = steps * h
    endpoint = [float(j) for j in actions] + [float(a) + nu * t for a in angles]
    argv = ["--builtin", "kepler", f"--mass={mass!r}", f"--k={k!r}",
            f"--x0={fraction_csv(actions + angles)}", f"--h={h!r}",
            f"--steps={steps}"]
    return _flow_request("kepler", argv, {},
                         _trajectory_check(steps, 6, 5, endpoint), 6, steps)


def flow_system(d: Draw, steps: int, h: float) -> Request:
    """f·∂₁∧∂₂∧∂₃ with H₁ = ½(a x₁² + b x₂² + c x₃²), a, b, c > 0, and a
    quadratic H₂.  H₁ is conserved, so the orbit stays on an ellipsoid."""
    m = 3
    xs = Poly.variables(m)
    h1 = sum((Fraction(d.value.randint(1, 4), 2) * x * x for x in xs), Poly.zero(m))
    h2 = rand_poly(d, m, 2, 3)
    f = rand_poly(d, m, 1, 2)
    tensor = MultiVector.basis(m, (0, 1, 2), f)
    system = {"tensor": multivector_to_json(tensor),
              "hamiltonians": [h1.to_json(), h2.to_json()]}
    x0 = [Fraction(d.value.randint(-4, 4), 8) for _ in range(m)]
    argv = ["--system", "@system", f"--x0={fraction_csv(x0)}", f"--h={h!r}",
            f"--steps={steps}"]
    return _flow_request("system", argv, {"system": system},
                         _trajectory_check(steps, 3, 2, None), 3, steps)


# -- the workloads -------------------------------------------------------------------

CYCLES = {
    "poisson": [
        (poisson_decomposable, dict(m=4, coef_degree=1, components=2)),
        (poisson_blade_sum, {}),
        (poisson_decomposable, dict(m=4, coef_degree=2, components=3)),
        (poisson_dual, {}),
        (poisson_decomposable, dict(m=4, coef_degree=3, components=4)),
        (poisson_dual_product, {}),
        (poisson_decomposable, dict(m=4, coef_degree=1, components=3, max_degree=2)),
        (poisson_decomposable, dict(m=4, coef_degree=2, components=2)),
        (poisson_blade_sum, {}),
        (poisson_decomposable, dict(m=4, coef_degree=3, components=3)),
        (poisson_dual, {}),
        (poisson_decomposable, dict(m=4, coef_degree=1, components=4)),
        (poisson_dual_product, {}),
        (poisson_decomposable, dict(m=5, coef_degree=1, components=4)),
        (poisson_blade_sum, {}),
        (poisson_decomposable, dict(m=4, coef_degree=2, components=4, max_degree=3)),
        (poisson_decomposable, dict(m=4, coef_degree=3, components=2)),
        (poisson_blade_sum, {}),
        (poisson_decomposable, dict(m=4, coef_degree=1, components=2, max_degree=4)),
        (poisson_dual_product, {}),
    ],
    "jacobi": [
        (jacobi_gradient, dict(m=3, arity=3, components=1)),
        (jacobi_random, dict(m=4, arity=3)),
        (jacobi_gradient, dict(m=4, arity=3, components=2)),
        (jacobi_gradient, dict(m=4, arity=4, components=1)),
        (jacobi_random, dict(m=5, arity=4)),
        (jacobi_gradient, dict(m=5, arity=3, components=2)),
        (jacobi_gradient, dict(m=5, arity=4, components=1)),
        (jacobi_random, dict(m=5, arity=3)),
        (jacobi_gradient, dict(m=4, arity=3, components=4)),
        (jacobi_random, dict(m=4, arity=4)),
    ],
    "algebra": [
        (algebra_check_nlie, dict(n=3, valid=True)),
        (algebra_classify, dict(n=4)),
        (algebra_derivations, dict(n=3)),
        (algebra_compat, dict(n=4, compatible=True)),
        (algebra_hereditary, dict(n=5)),
        (algebra_synthesize, dict(n=3)),
        (algebra_check_nlie, dict(n=4, valid=False)),
        (algebra_classify, dict(n=5)),
        (algebra_derivations, dict(n=4)),
        (algebra_compat, dict(n=3, compatible=False)),
        (algebra_hereditary, dict(n=4)),
        (algebra_synthesize, dict(n=5)),
        (algebra_check_nlie, dict(n=5, valid=True)),
        (algebra_classify, dict(n=3)),
        (algebra_derivations, dict(n=5)),
        (algebra_compat, dict(n=5, compatible=False)),
    ],
    # two fast kinds (axial spin, Kepler) against four slow ones, so that
    # the median latency falls inside the slow cluster, not in the gap
    # between the two, where it would jump from run to run
    "flow": [
        (flow_spin, dict(steps=3000, h=1e-3, axial=True)),
        (flow_kepler, dict(steps=2000, h=1e-3)),
        (flow_system, dict(steps=2000, h=1e-3)),
        (flow_spin, dict(steps=3000, h=1e-3, axial=False)),
        (flow_system, dict(steps=2000, h=1e-3)),
        (flow_spin, dict(steps=3000, h=1e-3, axial=False)),
    ],
}

WORKLOADS = tuple(CYCLES)

# a workload's shapes: five rounds of its cycle, each round with its own
SHAPE_ROUNDS = 5


def build(workload: str, seed: int, index: int, attempt: int = 0) -> Request:
    cycle = CYCLES[workload]
    fn, kwargs = cycle[index % len(cycle)]
    slot = index % (SHAPE_ROUNDS * len(cycle))  # the shape pool repeats
    return fn(Draw(random.Random(f"shape/{workload}/{slot}"),
                   random.Random(f"{seed}/{workload}/{index}/{attempt}")), **kwargs)


class Stream:
    """The distinct requests of one run, in order, each built on demand."""

    def __init__(self, workload: str, seed: int):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed = workload, seed
        self.batch = len(CYCLES[workload])
        self.pool = SHAPE_ROUNDS * self.batch
        self.index = 0
        self.seen: set[str] = set()

    def next(self) -> Request:
        for attempt in range(100):
            req = build(self.workload, self.seed, self.index, attempt)
            key = req.key()
            if key not in self.seen:
                self.seen.add(key)
                self.index += 1
                return req
        raise RuntimeError(f"no distinct {self.workload} request at index {self.index}")
