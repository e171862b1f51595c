"""Exact-arithmetic toolkit for Zinbiel 2-algebras.

Structures are candidates over Q or GF(p); validity is established by
checkers that verify every axiom on all basis tuples.  The central objects
are extending data (the structure maps parameterizing products on Z + V),
their product construction, the transcribed compatibility-condition
catalogs cross-validated against the direct build-then-verify oracle, the
crossed/bicrossed specializations, and exhaustive classification of valid
data up to stabilizing isomorphism over finite fields.
"""

from .fields import PrimeField, Rationals, field_from_name
from .linalg import BilMap, LinMap, TwoVectorSpace
from .core import (BimodulePair, ConditionReport, TwoMorphism, Violation,
                   ZinbielAlgebra, ZinbielTwoAlgebra, check_2alg_morphism,
                   check_action, check_bimodule, check_crossed_module,
                   check_zinbiel, semidirect_product)
from .unified import (ComplementSplit, ExtendingDatum, build_unified_product,
                      check_datum_conditions, check_datum_direct,
                      check_trivial_z1_conditions, extract_datum,
                      verify_psi)
from .special import (CrossedSystem, MatchedPairDatum, build_bicrossed_product,
                      build_crossed_product, check_crossed_system,
                      check_ideal_extension, check_matched_pair, factorize,
                      star_structure)
from .classify import (OrbitPartition, RSData, are_equivalent, census,
                       check_rs_conditions, check_rs_direct, compute_quotients,
                       enumerate_valid_data, morphism_from_rs)

__all__ = [
    "PrimeField", "Rationals", "field_from_name",
    "BilMap", "LinMap", "TwoVectorSpace",
    "BimodulePair", "ConditionReport", "TwoMorphism", "Violation",
    "ZinbielAlgebra", "ZinbielTwoAlgebra",
    "check_zinbiel", "check_bimodule", "check_action", "check_crossed_module",
    "check_2alg_morphism", "semidirect_product",
    "ComplementSplit", "ExtendingDatum", "build_unified_product",
    "check_datum_direct", "check_datum_conditions", "check_trivial_z1_conditions",
    "extract_datum", "verify_psi",
    "CrossedSystem", "MatchedPairDatum", "build_crossed_product",
    "build_bicrossed_product", "check_crossed_system", "check_matched_pair",
    "check_ideal_extension", "factorize", "star_structure",
    "OrbitPartition", "RSData", "are_equivalent", "census", "check_rs_conditions",
    "check_rs_direct", "compute_quotients", "enumerate_valid_data", "morphism_from_rs",
]

__version__ = "0.1.0"
