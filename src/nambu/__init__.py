"""Exact computer algebra for n-Lie algebras, Nambu-Poisson tensors and
n-Jacobi operators on a single coordinate chart."""

from .poly import Poly
from .multivector import MultiVector, OneForm, derived_rank, is_decomposable
from .nlie import NLieStructure, vector_product_algebra
from .npoisson import (casimir_polynomials, dual_nvector, fi_defect,
                       is_n_poisson, scale, wedge_compat_check)
from .njacobi import (JacobiOp, canonical_bracket, from_poisson_and_form,
                      insert_unity, is_n_jacobi, jacobi_defects, s_op)
from .bianchi import (BianchiLabel, classify, derivation_algebra,
                      generating_form, is_isomorphic, is_unimodular,
                      psi_label, synthesize, unimodular_label,
                      witt_embedding_check)
from .dynamics import (KeplerSystem, NambuSystem, SpinSystem, Trajectory,
                       check_preserved_bracket, hereditary_poisson_table,
                       rk4_integrate)

__version__ = "0.1.0"

__all__ = [
    "Poly", "MultiVector", "OneForm", "NLieStructure", "JacobiOp",
    "BianchiLabel", "NambuSystem", "SpinSystem", "KeplerSystem",
    "Trajectory",
    "derived_rank", "is_decomposable",
    "vector_product_algebra", "casimir_polynomials", "dual_nvector",
    "fi_defect", "is_n_poisson", "scale", "wedge_compat_check",
    "canonical_bracket", "from_poisson_and_form", "insert_unity",
    "is_n_jacobi", "jacobi_defects", "s_op",
    "classify", "derivation_algebra", "generating_form", "is_isomorphic",
    "is_unimodular", "psi_label", "synthesize", "unimodular_label",
    "witt_embedding_check",
    "check_preserved_bracket", "hereditary_poisson_table", "rk4_integrate",
]
