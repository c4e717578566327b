"""Per-layer tracing of the ``nambu`` library from outside it.

The tracer replaces library functions and methods with wrappers; the
library itself is not modified.  A module-level function is replaced under
every name that binds it in any ``nambu`` module, because modules import
each other's functions by name (``njacobi`` and ``dynamics`` both import
``is_n_poisson``).  A target that no longer exists raises ``TraceError``.

Each wrapped call that happens while the tracer is enabled is timed.  Its
self time, the duration minus the duration of the wrapped calls directly
inside it, is added to the target's layer, so unwrapped helpers count
towards the layer of the nearest wrapped caller.  Targets marked as spans
are recorded as (name, start, end, parent, request); the many small calls
of the other targets are rolled up into (span, name, calls, total, self)
so that memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """A trace target is missing from the library."""


SPAN, LEAF, FACTORY = "span", "leaf", "factory"

# (module, attribute path, metric name, mode).  The layer is the module.
# Several attributes may share one metric name (``__add__``/``__radd__``).
TARGETS = [
    ("poly", "Poly.__add__", "poly.add", LEAF),
    ("poly", "Poly.__radd__", "poly.add", LEAF),
    ("poly", "Poly.__sub__", "poly.sub", LEAF),
    ("poly", "Poly.__rsub__", "poly.sub", LEAF),
    ("poly", "Poly.__neg__", "poly.neg", LEAF),
    ("poly", "Poly.__mul__", "poly.mul", LEAF),
    ("poly", "Poly.__rmul__", "poly.mul", LEAF),
    ("poly", "Poly.__pow__", "poly.pow", LEAF),
    ("poly", "Poly.partial", "poly.partial", LEAF),
    ("poly", "Poly.gradient", "poly.gradient", LEAF),
    ("poly", "Poly.evaluate", "poly.evaluate", LEAF),
    ("poly", "Poly.evaluate_float", "poly.evaluate_float", LEAF),
    ("poly", "Poly.zero", "poly.zero", LEAF),
    ("poly", "Poly.const", "poly.const", LEAF),
    ("poly", "Poly.var", "poly.var", LEAF),
    ("poly", "Poly.monomial", "poly.monomial", LEAF),
    ("poly", "Poly.variables", "poly.variables", LEAF),
    ("poly", "Poly.from_json", "poly.from_json", LEAF),
    ("poly", "Poly.to_json", "poly.to_json", LEAF),
    ("poly", "Poly.parse", "poly.parse", LEAF),
    ("poly", "Poly.__str__", "poly.str", LEAF),
    ("linalg", "rref", "linalg.rref", LEAF),
    ("linalg", "det", "linalg.det", LEAF),
    ("linalg", "rank", "linalg.rank", LEAF),
    ("linalg", "nullspace", "linalg.nullspace", LEAF),
    ("linalg", "inverse", "linalg.inverse", LEAF),
    ("linalg", "mat_mul", "linalg.mat_mul", LEAF),
    ("linalg", "mat_vec", "linalg.mat_vec", LEAF),
    ("linalg", "transpose", "linalg.transpose", LEAF),
    ("linalg", "signature", "linalg.signature", LEAF),
    ("multivector", "MultiVector.apply", "multivector.apply", LEAF),
    ("multivector", "MultiVector.lie_derivative_of", "multivector.lie_derivative_of", LEAF),
    ("multivector", "MultiVector.wedge", "multivector.wedge", LEAF),
    ("multivector", "MultiVector.contract_form", "multivector.contract_form", LEAF),
    ("multivector", "MultiVector.contract", "multivector.contract", LEAF),
    ("multivector", "MultiVector.hamiltonian_field", "multivector.hamiltonian_field", LEAF),
    ("multivector", "MultiVector.derived", "multivector.derived", LEAF),
    ("multivector", "MultiVector.from_terms", "multivector.from_terms", LEAF),
    ("multivector", "MultiVector.basis", "multivector.basis", LEAF),
    ("multivector", "MultiVector.__add__", "multivector.add", LEAF),
    ("multivector", "MultiVector.__sub__", "multivector.sub", LEAF),
    ("multivector", "MultiVector.__neg__", "multivector.neg", LEAF),
    ("multivector", "MultiVector.__mul__", "multivector.mul", LEAF),
    ("multivector", "MultiVector.__rmul__", "multivector.mul", LEAF),
    ("multivector", "MultiVector.vector_coeffs", "multivector.vector_coeffs", LEAF),
    ("multivector", "is_decomposable", "multivector.is_decomposable", SPAN),
    ("multivector", "derived_rank", "multivector.derived_rank", SPAN),
    ("multivector", "multivector_from_json", "multivector.from_json", LEAF),
    ("nlie", "NLieStructure.bracket", "nlie.bracket", LEAF),
    ("nlie", "NLieStructure.inner_derivation", "nlie.inner_derivation", LEAF),
    ("nlie", "NLieStructure.check_n_jacobi", "nlie.check_n_jacobi", SPAN),
    ("nlie", "NLieStructure.hereditary", "nlie.hereditary", SPAN),
    ("nlie", "NLieStructure.compat", "nlie.compat", SPAN),
    ("nlie", "NLieStructure.compat_defect", "nlie.compat_defect", LEAF),
    ("nlie", "nlie_from_json", "nlie.from_json", LEAF),
    ("nlie", "nlie_to_json", "nlie.to_json", LEAF),
    ("npoisson", "is_n_poisson", "npoisson.is_n_poisson", SPAN),
    ("npoisson", "fi_defect", "npoisson.fi_defect", LEAF),
    ("npoisson", "casimir_polynomials", "npoisson.casimir_polynomials", SPAN),
    ("npoisson", "dual_nvector", "npoisson.dual_nvector", LEAF),
    ("npoisson", "slot_monomials", "npoisson.slot_monomials", LEAF),
    ("njacobi", "is_n_jacobi", "njacobi.is_n_jacobi", SPAN),
    ("njacobi", "jacobi_defects", "njacobi.jacobi_defects", LEAF),
    ("njacobi", "jacobiop_from_json", "njacobi.from_json", LEAF),
    ("bianchi", "classify", "bianchi.classify", SPAN),
    ("bianchi", "derivation_algebra", "bianchi.derivation_algebra", SPAN),
    ("bianchi", "synthesize", "bianchi.synthesize", SPAN),
    ("bianchi", "generating_form", "bianchi.generating_form", LEAF),
    ("bianchi", "is_unimodular", "bianchi.is_unimodular", LEAF),
    ("bianchi", "algebra_from_form", "bianchi.algebra_from_form", LEAF),
    ("dynamics", "rk4_integrate", "dynamics.rk4_integrate", SPAN),
    ("dynamics", "field_function", "dynamics.field_function", FACTORY),
    ("dynamics", "KeplerSystem.field", "dynamics.kepler_field", FACTORY),
    ("dynamics", "SpinSystem.nambu", "dynamics.spin_nambu", LEAF),
    ("dynamics", "NambuSystem.dynamics_field", "dynamics.dynamics_field", LEAF),
    ("cli", "main", "cli.main", SPAN),
]

LAYERS = ("poly", "linalg", "multivector", "nlie", "npoisson", "njacobi",
          "bianchi", "dynamics", "cli")

# the vector field closures made by the FACTORY targets
RHS = "dynamics.rhs"


class Tracer:
    """Wraps the targets on ``install``; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.request = -1
        self.calls: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.term_products = 0
        self.spans: list = []       # [name, start, end, parent, request]
        self.rollups: dict = {}     # (span, name) -> [calls, total_s, self_s]
        self._stack: list = []      # one [child_s] cell per open call
        self._span = -1             # index of the innermost open span
        self._patches: list = []    # (owner, attribute, original)

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        modules = {}
        for module, path, name, mode in TARGETS:
            if module not in modules:
                try:
                    modules[module] = importlib.import_module(f"nambu.{module}")
                except ImportError as exc:
                    raise TraceError(f"trace target module nambu.{module} is missing") from exc
            self._install_one(modules[module], module, path, name, mode)

    def _install_one(self, mod, layer: str, path: str, name: str, mode: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            raise TraceError(f"trace target nambu.{layer}.{path} no longer exists")
        raw = vars(owner)[attr]
        if owner_name:
            is_static = isinstance(raw, staticmethod)
            func = raw.__func__ if is_static else raw
            wrapper = self.wrap(func, name, layer, mode)
            self._patch(owner, attr, raw, staticmethod(wrapper) if is_static else wrapper)
            return
        wrapper = self.wrap(raw, name, layer, mode)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "nambu":
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, raw, wrapper)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the wrapper -----------------------------------------------------------------

    def wrap(self, func, name: str, layer: str, mode: str):
        tracer = self
        calls, self_s, stack = self.calls, self.self_s, self._stack
        is_span = mode == SPAN
        is_mul = name == "poly.mul"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            if is_span:
                parent = tracer._span
                index = tracer._span = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.request])
            if is_mul and len(args) == 2 and type(args[1]) is type(args[0]):
                tracer.term_products += len(args[0].terms) * len(args[1].terms)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                own = total - cell[0]
                if stack:
                    stack[-1][0] += total
                calls[name] += 1
                self_s[layer] += own
                if is_span:
                    tracer._span = parent
                    record = tracer.spans[index]
                    record[1], record[2] = start, end
                else:
                    key = (tracer._span, name)
                    roll = tracer.rollups.get(key)
                    if roll is None:
                        tracer.rollups[key] = [1, total, own]
                    else:
                        roll[0] += 1
                        roll[1] += total
                        roll[2] += own
            if mode == FACTORY:
                return tracer.wrap(result, RHS, "dynamics", LEAF)
            return result

        return functools.wraps(func)(traced)

    # -- results ---------------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "term_products": self.term_products,
            "span_fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "rollup_fields": ["span", "name", "calls", "total_s", "self_s"],
            "rollups": [[span, name, *roll]
                        for (span, name), roll in self.rollups.items()],
        }
