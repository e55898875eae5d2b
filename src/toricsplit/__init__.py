"""Exact combinatorics of smooth complete toric fans.

The package computes, in exact integer arithmetic: fan construction and
validation for the smooth toric Fano varieties with (almost) maximal Picard
number, Frobenius pushforward splittings of line bundles into line bundles,
wall relations and Bondal's criterion, and line-bundle cohomology with
(strongly) exceptional collection checks.
"""

from .fan import (
    Fan,
    FaceComplex,
    Wall,
    PrimitiveCollection,
    ValidationReport,
    ConstructionFailed,
    InvalidSpec,
    NotComplete,
    build_named,
    del_pezzo,
    del_pezzo_bundle,
    fan_product,
    hirzebruch,
    maximal_cones_from_primitive_pairs,
    poincare_polynomial,
    primitive_collections,
    projective_space,
    validate,
    walls,
)
from .divisor import (
    TorsionDetected,
    PositivityReport,
    canonical_divisor,
    cartier_data,
    divisor_class,
    is_fano,
    linearly_equivalent,
    picard_rank,
    positivity,
    principal_divisor,
)
from .frobenius import (
    SplittingReport,
    SplittingResult,
    stabilization_check,
    summand_divisors,
    thomsen_split,
    verify_splitting_invariants,
)
from .bondal import (
    BasisDegenerate,
    BondalVerdict,
    WallRelation,
    bondal_criterion,
    wall_relation,
)
from .cohomology import (
    CohomologyTable,
    ExceptionalityReport,
    FactorNotStronglyExceptional,
    NotExceptionalMember,
    StrongOrderResult,
    box_product,
    ext_table,
    find_strong_order,
    is_strongly_exceptional,
    line_bundle_cohomology,
    reduced_cohomology,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
