"""Exact computational commutative algebra over small coefficient fields.

Polynomial quotient rings, Groebner bases, finitely presented modules,
Koszul homology, and Hilbert-Samuel multiplicities, all in exact arithmetic,
plus verifiers for the length/multiplicity identities they satisfy.
"""

from .errors import EngineError, ParseError
from .fpmodules import (FPModule, ModuleMap, ModuleVector, gamma_saturation,
                        kernel_of_map, module_gb, preimage_submodule,
                        subquotient, syzygies, unit_vectors)
from .groebner import (GroebnerBasis, buchberger, krull_dimension,
                       normal_form, standard_monomials)
from .koszul import VirtualModule, koszul_homology, phi_apply, reduce_class
from .multiplicity import (Report, SearchResult, evaluate_multiplicity,
                           homology_lengths, ideal_power, multiplicity,
                           multiplicity_data, ord_check, parameter_colength,
                           search_parameters, serre_alternating_sum,
                           verify_factorization, verify_serre,
                           verify_serre2, verify_vanish)
from .polyring import INFINITE, MonomialOrder, OrderKind, Polynomial, RingSpec
from .scalars import FieldKind, FieldSpec

__version__ = "0.1.0"

__all__ = [
    "EngineError", "ParseError", "FieldKind", "FieldSpec",
    "INFINITE", "MonomialOrder", "OrderKind", "Polynomial",
    "RingSpec", "GroebnerBasis", "buchberger", "normal_form",
    "standard_monomials", "krull_dimension",
    "ModuleVector", "ModuleMap", "FPModule", "module_gb",
    "syzygies", "preimage_submodule", "subquotient", "kernel_of_map",
    "unit_vectors", "gamma_saturation",
    "koszul_homology", "VirtualModule", "phi_apply", "reduce_class",
    "Report", "SearchResult", "ideal_power", "multiplicity", "multiplicity_data",
    "evaluate_multiplicity", "homology_lengths", "serre_alternating_sum",
    "verify_serre", "verify_factorization", "verify_vanish", "verify_serre2",
    "ord_check", "parameter_colength", "search_parameters", "__version__",
]
