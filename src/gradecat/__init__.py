"""gradecat: exact computer algebra for abelian group gradings on real matrix algebras.

Constructs gradings M_k(D) over graded-division algebras given as crossed
products, decides fineness, computes universal abelian groups via Smith
normal form, and computes/verifies the automorphism groups of the gradings
(diagonal group, stabilizer, Weyl group).  All arithmetic is exact.
"""

from .abelian import (
    AbelianGroup,
    GroupElement,
    GroupHomomorphism,
    automorphism_group,
    chain_elements,
    character_group,
    parse_group_string,
    smith_normal_form,
    universal_abelian_group,
)
from .autgroups import (
    AutTriple,
    DivisionAutomorphism,
    diag_descriptor,
    identify_group,
    stab_descriptor,
    stab_division,
    triple_apply,
    triple_product,
    weyl_descriptor,
    weyl_division,
)
from .classify import ClassificationRow, CoverageError, classify
from .division import (
    Bicharacter,
    CoefficientKind,
    DivisionElement,
    GradedDivisionAlgebra,
    QuadraticData,
    arf,
    build_crossed_product,
    canonical,
    centralizer_support,
    commutation_bicharacter,
    equivalent,
    is_fine_division,
    parse_catalog_ref,
    quad_forms,
    quadratic_form,
    radical,
)
from .matrix import (
    GradedElement,
    GradedMatrixAlgebra,
    equivalent_gradings,
    fine_condition,
    harvest_universal_group,
    homogeneous_idempotents,
    is_fine,
    matrix_algebra,
    squares_profile,
)
from .scalars import Cyclotomic, RationalQuaternion, zeta
from .structconst import (
    StructureConstantAlgebra,
    hxh_counterexample,
    inner_stabilizer_quotient,
    int_in_stabilizer,
    is_graded_simple,
    homogeneous_witness,
)
from .verify import run_suite

__all__ = [
    "AbelianGroup", "GroupElement", "GroupHomomorphism", "automorphism_group", "chain_elements",
    "character_group", "parse_group_string", "smith_normal_form", "universal_abelian_group",
    "AutTriple", "DivisionAutomorphism", "diag_descriptor", "identify_group",
    "stab_descriptor", "stab_division", "triple_apply", "triple_product",
    "weyl_descriptor", "weyl_division",
    "ClassificationRow", "CoverageError", "classify",
    "Bicharacter", "CoefficientKind", "DivisionElement", "GradedDivisionAlgebra",
    "QuadraticData", "arf", "build_crossed_product", "canonical",
    "centralizer_support", "commutation_bicharacter", "equivalent",
    "is_fine_division", "parse_catalog_ref", "quad_forms", "quadratic_form",
    "radical",
    "GradedElement", "GradedMatrixAlgebra", "equivalent_gradings",
    "fine_condition", "harvest_universal_group", "homogeneous_idempotents",
    "is_fine", "matrix_algebra", "squares_profile",
    "Cyclotomic", "RationalQuaternion", "zeta",
    "StructureConstantAlgebra", "hxh_counterexample",
    "inner_stabilizer_quotient", "int_in_stabilizer", "is_graded_simple",
    "homogeneous_witness",
    "run_suite",
]

__version__ = "0.1.0"
