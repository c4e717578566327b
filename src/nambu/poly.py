"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``m`` variables is a map from exponent tuples (length ``m``)
to nonzero rational coefficients, each stored as an ``int`` when it is
integral and as a ``Fraction`` otherwise (never a ``Fraction`` with
denominator 1), so that integer coefficients take the cheap ``int``
arithmetic.  ``int`` and ``Fraction`` compare and hash alike, so equality,
hashing, text and JSON do not depend on the storage.  All arithmetic is
exact; this is the coefficient ring for every symbolic object in the
package.  Results of the ring operations are built by ``Poly._make``, which
trusts its input; ``Poly(num_vars, terms)`` validates.  Exponents may be
negative, so the same class is the Laurent ring that the deformed spin
brackets of ``dynamics`` need; the text and JSON input forms accept only
non-negative exponents.

Every module imports this one, so it also holds the work budget: the table
of limits, the one refusal ``refuse_above`` and ``sized_combinations``; and
``integer_scaling``, which gives the integer multiples that the
scale-invariant deciders run on.

Text form: ``"3/2 x1^2 x3 - x2"`` (1-based variable names).
JSON form: ``[{"coef": "3/2", "exps": [2, 0, 1]}, ...]``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence


Exponent = tuple[int, ...]
Coef = int | Fraction


def _coef(value) -> Coef:
    """A rational scalar in stored form: ``int`` when integral."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def coef_text(value: Coef) -> str:
    """``str(value)``, also when its numerator or denominator has more digits
    than Python's int-to-str limit (``sys.get_int_max_str_digits``), so that
    an exact answer is written however large it is."""
    try:
        return str(value)
    except ValueError:
        if type(value) is int:
            return _decimal(value)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(n: int) -> str:
    """The decimal digits of ``n``, split around 10**k for k about half its
    digit count until each part is within the limit."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # half of n's digit count, from below
        high, low = divmod(n, 10**k)
        return _decimal(high) + _decimal(low).zfill(k)


def json_int(value) -> int:
    """An integer field of an input file: ValueError unless a JSON integer."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_rational(value) -> Fraction:
    """A rational field of an input file: ValueError unless a JSON string or
    integer (a float would be read through its binary expansion)."""
    if type(value) is not str and type(value) is not int:
        raise ValueError(f"expected a rational as a string or integer, got {value!r}")
    return Fraction(value)


# The work limits, one table.  Each estimate is made from counts before any
# work and refused through ``refuse_above``.  A limit is at most about 10 s of
# its slowest kind of step (2 cores), far above the largest estimate that any
# fixture, test or benchmark instance reaches:
# - MAX_WORK: n-Lie steps × arity × (arity + nonzero constants), or the
#   C(dim, 3)·dim coefficients of α∧dα.  10 s at zero constants and arity 7;
#   largest 139,345.
# - MAX_CASIMIR_WORK: Casimir unknowns × Hamiltonian fields.  1–5 s on the
#   4-variable fixtures; largest 2,970.
# - MAX_ENTRIES: entries of an answer, 8 µs and 365 bytes each, so 8 s and
#   365 MB; largest 4,002.
# - MAX_WALK: slot tuples × ``multivector.step_cost``, 1–2 µs a unit at worst
#   (witness steps, wedges, small n-Jacobi walks), so 3–6 s (15 s with quartic
#   coefficients); largest 749,232.
# - MAX_VARS: variables of an input tensor.  A zero system of 1,000 variables
#   integrates 1,000 steps in 1 s; largest 24.
MAX_WORK = 2 * 10**7
MAX_CASIMIR_WORK = 10**4
MAX_ENTRIES = 10**6
MAX_WALK = 3 * 10**6
MAX_VARS = 10**3


# The deciders run on an integer multiple c of their input (for example
# ``multivector.integral``) while c has at most SCALE_BITS bits.  The bound
# is on c itself: c becomes a factor of every coefficient, so one huge
# denominator among small ones would turn every product of the walk into a
# product of huge integers.  Deciding
# f·∂₁∧∂₂, f·∂₁∧∂₂∧∂₃ and an n-Jacobi pair in 4 variables, f with 20–200
# integer terms and one term over a prime of 129–513 bits, the integer path
# took 0.5–1.45× the time of the ``Fraction`` path, and 1.1–2.2× at 1,025
# bits (best of 3 on a shared 2-core host, where two runs of one path
# differed by up to 1.4×); with small denominators beside it, 0.2–0.55×.
SCALE_BITS = 512


def integer_scaling(coefs: Iterable[Coef]) -> Callable[[Coef], int] | None:
    """x ↦ c·x as an ``int``, for c the lcm of the denominators of ``coefs``;
    None when every coefficient is an ``int`` already, or as soon as c has
    more than SCALE_BITS bits.  One pass, each step one gcd with a number of
    at most SCALE_BITS bits, so the cost is linear in the input."""
    c, ints = 1, True
    for x in coefs:
        if type(x) is not int:
            ints, d = False, x.denominator
            if c % d:
                c *= d // math.gcd(c, d)
                if c.bit_length() > SCALE_BITS:
                    return None
    return None if ints else lambda x: x.numerator * (c // x.denominator)


def refuse_above(work: int, limit: int, what: str) -> None:
    """The one refusal of too much work: ValueError when ``work`` > ``limit``."""
    if work > limit:
        raise ValueError(f"{what}, above the limit {limit}")


def sized_combinations(size: int, k: int, cost: int, limit: int,
                       what: str) -> Iterator[tuple[int, ...]]:
    """``itertools.combinations(range(size), k)``, refused when called, before
    any candidate pool is built, if its C(size, k) steps of ``cost`` work
    each exceed ``limit``."""
    count = math.comb(size, k)
    refuse_above(count * cost, limit, f"{what}: C({size}, {k}) = {count} tuples "
                                      f"of work {cost}, {count * cost} in all")
    return itertools.combinations(range(size), k)


class Poly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("num_vars", "terms", "_hash", "_float", "_grad")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, Coef] | None = None):
        clean: dict[Exponent, Coef] = {}
        if terms:
            for exps, coef in terms.items():
                if len(exps) != num_vars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {num_vars}"
                    )
                coef = _coef(coef)
                if coef != 0:
                    clean[tuple(exps)] = coef
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _make(num_vars: int, terms: dict[Exponent, Coef]) -> "Poly":
        """Wrap ``terms`` as they are: exponent tuples of length ``num_vars``
        to nonzero coefficients in stored form.  The dict is not copied."""
        p = object.__new__(Poly)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "Poly":
        return Poly._make(num_vars, {})

    @staticmethod
    def const(num_vars: int, value) -> "Poly":
        value = _coef(value)
        return Poly._make(num_vars, {(0,) * num_vars: value} if value else {})

    @staticmethod
    def var(num_vars: int, index: int) -> "Poly":
        """The coordinate x_index (0-based)."""
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} variables")
        exps = [0] * num_vars
        exps[index] = 1
        return Poly._make(num_vars, {tuple(exps): 1})

    @staticmethod
    def monomial(num_vars: int, exps: Sequence[int], coef=1) -> "Poly":
        return Poly(num_vars, {tuple(exps): coef})

    @staticmethod
    def variables(num_vars: int) -> list["Poly"]:
        return [Poly.var(num_vars, i) for i in range(num_vars)]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ---------------------------------------------------

    def _check_vars(self, other: "Poly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.num_vars, other)
        self._check_vars(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            c = terms.get(exps)
            if c is None:
                terms[exps] = coef
                continue
            c += coef
            if not c:
                del terms[exps]  # each key comes once, so the order is kept
            elif type(c) is int or c.denominator != 1:
                terms[exps] = c
            else:
                terms[exps] = c.numerator
        return Poly._make(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.const(self.num_vars, other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _coef(other)
            if c == 0:
                return Poly.zero(self.num_vars)
            return Poly._make(self.num_vars, _stored({e: c * v for e, v in self.terms.items()}))
        self._check_vars(other)
        terms: dict[Exponent, Coef] = {}
        _add_products(terms, self.terms, other.terms)
        return Poly._make(self.num_vars, _stored(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to x_index (0-based)."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        terms: dict[Exponent, Coef] = {}
        for exps, coef in self.terms.items():
            k = exps[index]
            if k:
                # distinct terms stay distinct, and coef · k is nonzero
                c = coef * k
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[exps[:index] + (k - 1,) + exps[index + 1:]] = c
        return Poly._make(self.num_vars, terms)

    def gradient(self) -> list["Poly"]:
        """The m partial derivatives, computed once per (immutable) object;
        each call returns a new list."""
        try:
            grad = self._grad
        except AttributeError:
            grad = tuple(self.partial(i) for i in range(self.num_vars))
            object.__setattr__(self, "_grad", grad)
        return list(grad)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has length {len(point)}, expected {self.num_vars}"
            )
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, coef in self.terms.items():
            v = coef
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Float value at a point of length ``num_vars``: the function of
        ``compile_floats([self])``, compiled on the first call and cached
        on the object, so repeated calls give bit-identical results."""
        try:
            fn = self._float
        except AttributeError:
            fn = compile_floats([self])
            object.__setattr__(self, "_float", fn)
        return fn(point)[0]

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.num_vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Coef]]:
        """Terms in a canonical order: by total degree, then lexicographic."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [
                f"x{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mag = abs(coef)
            if not factors:
                body = coef_text(mag)
            elif mag == 1:
                body = " ".join(factors)
            else:
                body = coef_text(mag) + " " + " ".join(factors)
            sign = "-" if coef < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        return [
            {"coef": coef_text(coef), "exps": list(exps)}
            for exps, coef in self.sorted_terms()
        ]

    @staticmethod
    def from_json(data: Iterable[dict], num_vars: int) -> "Poly":
        terms: dict[Exponent, Fraction] = {}
        for item in data:
            exps = tuple(json_int(e) for e in item["exps"])
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {list(exps)}")
            coef = json_rational(item["coef"])
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return Poly(num_vars, terms)

    _TERM_RE = re.compile(r"\s*([+-]?)\s*([^+-]+)")
    _FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")

    @staticmethod
    def parse(text: str, num_vars: int) -> "Poly":
        """Parse the text form, e.g. ``"3/2 x1^2 x3 - x2"``."""
        text = text.strip()
        if text in ("", "0"):
            return Poly.zero(num_vars)
        result = Poly.zero(num_vars)
        for match in Poly._TERM_RE.finditer(text):
            sign, body = match.group(1), match.group(2).strip()
            if not body:
                continue
            coef = Fraction(-1 if sign == "-" else 1)
            exps = [0] * num_vars
            for factor in body.split():
                m = Poly._FACTOR_RE.match(factor)
                if m:
                    idx = int(m.group(1)) - 1
                    if not 0 <= idx < num_vars:
                        raise ValueError(f"variable x{idx + 1} out of range")
                    exps[idx] += int(m.group(2) or 1)
                else:
                    coef *= Fraction(factor)
            result = result + Poly.monomial(num_vars, exps, coef)
        return result


def float_statements(polys: Sequence[Poly], args: Sequence[str], outs: Sequence[str],
                     coefs: list) -> list[str]:
    """The statements that evaluate ``polys`` in floats from the variables
    named ``args`` into the names ``outs``: ``out = 0.0``, then one
    ``out += cK * arg**E * …`` per term, terms in ``terms`` order and factors
    by ascending index, with ``* arg`` for an exponent of 1 (``x**1 == x``
    bit for bit, without a ``pow`` call).  Statements, not one sum: a sum of
    thousands of terms as one expression overflows the compiler's recursion
    limit.  The coefficients are appended to ``coefs`` and named ``cK`` by
    their index there, so no coefficient is source text, and exponents pass
    ``operator.index`` before anything else sees them, so no input reaches
    the source except as an integer.
    """
    lines = []
    for out, p in zip(outs, polys, strict=True):
        if p.num_vars != len(args):
            raise ValueError(f"variable count mismatch: {len(args)} vs {p.num_vars}")
        lines.append(f"{out} = 0.0")
        for exps, coef in p.terms.items():
            factors = ""
            for arg, e in zip(args, exps):
                e = operator.index(e)
                if e:
                    factors += f" * {arg}" if e == 1 else f" * {arg}**{e}"
            lines.append(f"{out} += c{len(coefs)}{factors}")
            try:
                coefs.append(float(coef))
            except OverflowError:  # then the term raises it when evaluated
                coefs.append(coef)
    return lines


def compile_floats(polys: Sequence[Poly]) -> Callable[[Sequence[float]], list[float]]:
    """One function ``f(state) -> list[float]`` that evaluates ``polys`` in
    floats at a state of exactly ``num_vars`` values: the statements of
    ``float_statements`` on the names ``x0…`` into ``t0…``.  Every float is
    the one of the term-by-term loop that multiplies each coefficient by
    ``x ** e`` over the nonzero exponents.
    """
    args = [f"x{i}" for i in range(polys[0].num_vars)] if polys else []
    outs = [f"t{j}" for j in range(len(polys))]
    coefs: list = []
    body = float_statements(polys, args, outs, coefs)
    if polys:
        body.insert(0, f"[{', '.join(args)}] = state")
    source = "\n    ".join(["def f(state):", *body, f"return [{', '.join(outs)}]"])
    namespace = {f"c{k}": c for k, c in enumerate(coefs)}
    namespace["__builtins__"] = {}
    exec(source, namespace)
    return namespace["f"]


def _add_products(acc: dict[Exponent, Coef], a: Mapping[Exponent, Coef],
                  b: Mapping[Exponent, Coef], sign: int = 1) -> None:
    """Add ``sign`` × the product of the term maps ``a`` and ``b`` into
    ``acc``.  Zero sums stay in place, so the key order is kept; ``_stored``
    drops them once the sum is complete."""
    get = acc.get
    for e1, c1 in a.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = get(e)
            acc[e] = c1 * c2 if c is None else c + c1 * c2


def _stored(terms: dict[Exponent, Coef]) -> dict[Exponent, Coef]:
    """``terms`` without zeros, integral ``Fraction`` values as ``int``."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}
