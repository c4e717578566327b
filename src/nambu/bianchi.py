"""Classification of (n+1)-dimensional n-Lie algebras.

Every such algebra is encoded by a linear 1-form α = Σ a_ij x_j dx_i on the
dual chart through T = ±α⌋(∂₁∧…∧∂_{n+1}); the matrix ‖a_ij‖ is the algebra's
generating bilinear form; row i is (−1)^i times the bracket of the basis
tuple omitting e_i, so ``nlie.generating_form`` reads it straight off the
structure constants, and the structure is an n-Lie algebra iff α∧dα = 0
(``nlie.frobenius_defect``).  The algebra is unimodular iff the matrix is
symmetric, in which case (rank, max index) of a is a complete isomorphism
invariant.  Otherwise α∧dα = 0 forces the skew part K to have rank exactly 2
and the symmetric part S to vanish on ker K, so both live on the plane
V/ker K.  Any plane P = span(e_i, e_j) with K_ij ≠ 0
represents it, so det S_P / det K_P depends on neither P nor the basis.  The
standard block ½(z₁dz₂ − z₂dz₁) has determinant 1/4, so the single scale
invariant λ is kept exactly as the rational λ² = |d|, d = det S_P / (4 K_ij²),
computed in the given basis.

Orientation convention: the sign of the correspondence is fixed so that the
algebra with single bracket [e₁,e₂,e₃] = e₄ has generating matrix a₄₄ = +1
(i.e. generating polynomial ½x₄²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from . import linalg
from .multivector import MultiVector
from .nlie import NLieStructure, form_row, frobenius_defect, generating_form
from .poly import MAX_ENTRIES, Poly, json_int, refuse_above

LAMBDA_KINDS = ("psi_plus", "psi_minus")


@dataclass(frozen=True)
class BianchiLabel:
    """Isomorphism-class label of an (n+1)-dimensional n-Lie algebra.  The
    Ψ±_λ families keep the exact invariant λ², so equal labels mean
    isomorphic algebras."""

    kind: str  # unimodular | psi_plus | psi_minus | psi_one | psi_zero
    r: int | None = None        # rank of the quadratic form (unimodular only)
    m: int | None = None        # max of positive/negative index (unimodular only)
    lam_sq: Fraction | None = None  # λ² > 0 (psi_plus/minus); λ may be irrational

    @property
    def lam(self) -> Fraction | None:
        """λ as a Fraction; ValueError when λ is irrational."""
        if self.lam_sq is None:
            return None
        root = _exact_sqrt(self.lam_sq)
        if root is None:
            raise ValueError(f"λ = sqrt({self.lam_sq}) is irrational")
        return root

    def _lam_text(self) -> str:
        """λ as ``p/q`` when rational, else ``sqrt(λ²)``."""
        root = _exact_sqrt(self.lam_sq)
        return f"sqrt({self.lam_sq})" if root is None else str(root)

    def __str__(self) -> str:
        if self.kind == "unimodular":
            return f"Unimodular{{r={self.r}, m={self.m}}}"
        if self.kind == "psi_plus":
            return f"PsiLambdaPlus{{λ={self._lam_text()}}}"
        if self.kind == "psi_minus":
            return f"PsiLambdaMinus{{λ={self._lam_text()}}}"
        return {"psi_one": "PsiOne", "psi_zero": "PsiZero"}[self.kind]

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.r is not None:
            out["r"] = self.r
            out["m"] = self.m
        if self.lam_sq is not None:
            out["lambda"] = self._lam_text()
        return out


def unimodular_label(r: int, m: int) -> BianchiLabel:
    if not (0 <= r and (r + 1) // 2 <= m <= r):
        raise ValueError(f"invalid unimodular label (r={r}, m={m})")
    return BianchiLabel("unimodular", r=r, m=m)


def psi_label(kind: str, lam: Rational | None = None) -> BianchiLabel:
    """A non-unimodular label; Ψ±_λ take an exact positive rational λ."""
    if kind in LAMBDA_KINDS:
        if not isinstance(lam, Rational) or lam <= 0:
            raise ValueError("λ must be a positive rational")
        return BianchiLabel(kind, lam_sq=Fraction(lam) ** 2)
    if kind in ("psi_one", "psi_zero"):
        if lam is not None:
            raise ValueError(f"{kind} takes no λ")
        return BianchiLabel(kind)
    raise ValueError(f"unknown label kind {kind!r}")


def parse_psi_label(kind: str, lam: str | None) -> BianchiLabel:
    """A non-unimodular label with λ as text: ``p/q``, or ``sqrt(q)`` for λ² = q."""
    if not (isinstance(lam, str) and kind in LAMBDA_KINDS):
        return psi_label(kind, lam)
    if not (lam.startswith("sqrt(") and lam.endswith(")")):
        return psi_label(kind, Fraction(lam))
    lam_sq = Fraction(lam[5:-1])
    if lam_sq <= 0:
        raise ValueError("λ must be positive")
    return BianchiLabel(kind, lam_sq=lam_sq)


# -- generating form ----------------------------------------------------------------

def algebra_from_form(a: linalg.Matrix, arity: int) -> NLieStructure:
    """Inverse of ``generating_form``: structure constants from a matrix."""
    dim = arity + 1
    if len(a) != dim:
        raise ValueError("matrix size must equal arity + 1")
    return _from_rows(dict(enumerate(a)), arity)


def _from_rows(rows: Mapping[int, Sequence], arity: int) -> NLieStructure:
    """The algebra whose generating form has the given rows and zeros elsewhere."""
    dim = arity + 1
    consts = {}
    for i, row in rows.items():
        comp, sign = form_row(dim, i)
        consts[comp] = [sign * Fraction(x) for x in row]
    return NLieStructure(dim, arity, consts)


def is_unimodular(p: NLieStructure) -> bool:
    """All inner derivations traceless ⟺ the generating matrix is symmetric."""
    a = generating_form(p)
    return a == linalg.transpose(a)


# -- classification ----------------------------------------------------------------------

def _exact_sqrt(x: Fraction) -> Fraction | None:
    """√x as a Fraction when it is rational, else None."""
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def classify(p: NLieStructure) -> BianchiLabel:
    """Complete isomorphism label of a valid (n+1)-dimensional n-Lie algebra:
    (rank, max index) of S when K = 0, else the Ψ class of d (module docstring)
    on the plane of the first K_ij ≠ 0.  A structure failing α∧dα = 0 is
    refused with the first nonzero coefficient (``nlie.frobenius_defect``)."""
    defect = frobenius_defect(p)
    if defect is not None:
        raise ValueError("not an n-Lie algebra: α∧dα ≠ 0, the coefficient c_ijkl is "
                         f"nonzero at (i, j, k, l) = {tuple(x + 1 for x in defect)}")
    a = generating_form(p)
    at = linalg.transpose(a)
    sym = [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(a, at)]
    skew = [[(x - y) / 2 for x, y in zip(row, col)] for row, col in zip(a, at)]
    pivot = next(((i, j) for i, row in enumerate(skew) for j, x in enumerate(row) if x),
                 None)
    if pivot is None:
        pos, neg = linalg.signature(sym)
        return unimodular_label(pos + neg, max(pos, neg))
    i, j = pivot
    block = [[sym[i][i], sym[i][j]], [sym[j][i], sym[j][j]]]
    if not any(block[0] + block[1]):
        return psi_label("psi_zero")
    d = linalg.det(block) / (4 * skew[i][j] ** 2)
    if d == 0:
        return psi_label("psi_one")
    return BianchiLabel("psi_plus" if d > 0 else "psi_minus", lam_sq=abs(d))


def synthesize(label: BianchiLabel, arity: int) -> NLieStructure:
    """An algebra realizing the given label, built from its canonical form.
    Only the nonzero rows of the form are built; an answer of more than
    MAX_ENTRIES entries, nonzero rows × (arity + 1), is refused first."""
    dim = arity + 1
    if label.kind == "unimodular":
        r, m = label.r, label.m
        if not (0 <= r <= dim and (r + 1) // 2 <= m <= r or r == m == 0):
            raise ValueError(f"invalid unimodular parameters for dimension {dim}")
        rows = {i: {i: Fraction(1 if i < m else -1)} for i in range(r)}
    else:
        if dim < 2:
            raise ValueError("Ψ-family labels need dimension ≥ 2")
        rows = {0: {1: Fraction(-1, 2)}, 1: {0: Fraction(1, 2)}}
        if label.kind in LAMBDA_KINDS:
            if label.lam_sq is None or label.lam_sq <= 0:
                raise ValueError("λ must be positive")
            # diag(λ, ±λ) for rational λ, else diag(λ², ±1): determinant ±λ²
            sign = 1 if label.kind == "psi_plus" else -1
            lam = _exact_sqrt(label.lam_sq)
            rows[0][0], rows[1][1] = ((lam, sign * lam) if lam is not None
                                      else (label.lam_sq, Fraction(sign)))
        elif label.kind == "psi_one":
            rows[0][0] = Fraction(1)
        elif label.kind != "psi_zero":
            raise ValueError(f"unknown label kind {label.kind!r}")
    entries = len(rows) * dim
    refuse_above(entries, MAX_ENTRIES, f"arity {arity}: {len(rows)} nonzero rows of "
                                       f"{dim} entries, {entries} in all")
    zero = Fraction(0)
    return _from_rows({i: [row.get(j, zero) for j in range(dim)]
                       for i, row in rows.items()}, arity)


def is_isomorphic(p: NLieStructure, q: NLieStructure) -> bool:
    if (p.dim, p.arity) != (q.dim, q.arity):
        raise ValueError("dimension/arity mismatch")
    return classify(p) == classify(q)


# -- derivations ---------------------------------------------------------------------------

def derivation_algebra(p: NLieStructure) -> list[linalg.Matrix]:
    """Basis of the derivation algebra of an (n+1)-dimensional n-Lie algebra.

    Derivations correspond to infinitesimal conformal symmetries A of the
    generating form G — solutions of AᵀG + GA = tr(A)·G — acting on the dual;
    the derivation on the algebra itself is the transpose Aᵀ.  An answer of
    up to n² matrices of n² entries above MAX_ENTRIES is refused first.
    """
    n = p.dim
    if n == p.arity + 1:  # else generating_form refuses
        refuse_above(n**4, MAX_ENTRIES, f"dimension {n}: up to {n * n} derivations "
                                        f"of {n * n} entries, {n**4} in all")
    g = generating_form(p)

    def unknown(i, j):
        return i * n + j

    rows = []
    for u in range(n):
        for v in range(n):
            row: dict[int, Fraction] = {}
            # (AᵀG)_{uv} = Σ_k A_{ku} G_{kv}; (GA)_{uv} = Σ_k G_{uk} A_{kv};
            # tr(A)·G_{uv} = Σ_k A_{kk} G_{uv}
            for k in range(n):
                for j, x in ((unknown(k, u), g[k][v]), (unknown(k, v), g[u][k]),
                             (unknown(k, k), -g[u][v])):
                    if x:
                        row[j] = row.get(j, 0) + x
            rows.append(row)
    basis = []
    for vec in linalg.nullspace(rows, n * n):
        a = [[vec[unknown(i, j)] for j in range(n)] for i in range(n)]
        basis.append(linalg.transpose(a))
    return basis


# -- the rank-3 quadric embedding demo --------------------------------------------------------

def witt_embedding_check() -> tuple[bool, dict[str, Poly]]:
    """Contract F = x₁x₃ − x₂² into ∂₁∧∂₂∧∂₃ and verify the resulting
    bivector: its three coordinate brackets and that it is a Poisson tensor
    (vanishing Schouten self-bracket)."""
    f = Poly.parse("x1 x3 - x2^2", 3)
    volume = MultiVector.basis(3, (0, 1, 2))
    bivector = volume.contract(f)
    xs = Poly.variables(3)
    brackets = {
        "{x1,x2}": bivector.apply([xs[0], xs[1]]),
        "{x1,x3}": bivector.apply([xs[0], xs[2]]),
        "{x2,x3}": bivector.apply([xs[1], xs[2]]),
    }
    expected = {
        "{x1,x2}": xs[0],
        "{x1,x3}": 2 * xs[1],
        "{x2,x3}": xs[2],
    }
    ok = brackets == expected and bivector.schouten(bivector).is_zero()
    return ok, brackets


def label_from_json(data: Mapping) -> BianchiLabel:
    kind = data["kind"]
    keys = {"unimodular": {"r", "m"}, **dict.fromkeys(LAMBDA_KINDS, {"lambda"})}
    stray = set(data) - {"kind"} - keys.get(kind, set())
    if stray:
        raise ValueError(f"unexpected keys {sorted(stray)} for kind {kind!r}")
    if kind == "unimodular":
        return unimodular_label(json_int(data["r"]), json_int(data["m"]))
    return parse_psi_label(kind, data.get("lambda"))
