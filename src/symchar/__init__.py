"""Exact characters of symmetric powers of irreducible representations.

The pipeline: build a root system, compute the weight multiplicities of an
irreducible module, decompose the graded symmetric-power character into
pole data (closed in the degree), then read off characters, weight
multiplicities, Weyl-orbit summands and vector-partition counts for any
concrete degree.  Independent oracles (truncated series expansion, a
Newton-style recursion, symmetric-function identities and a quadrature
check) validate every result.  All core arithmetic is exact over Q.
"""

from .charformula import (
    CharacterPoly,
    CyclotomicPole,
    OrbitSummand,
    UnivariatePFD,
    character_at,
    cyclotomic,
    multiplicity_at,
    orbit_split,
    univariate_pfd,
)
from .oracle import (
    GradedTruncation,
    adams_symmetric,
    hsym_character,
    quadrature_check,
    truncated_molien,
)
from .pfdcore import (
    ClosedCharacter,
    PFDTerm,
    binomial_poly,
    fundamental_coefficient,
    pfd_decompose,
    sl2_coefficient,
)
from .polyring import (
    ExactDivisionError,
    FactoredRational,
    InconsistencyError,
    LaurentPoly,
    PoleError,
)
from .rootsys import (
    RootSystem,
    Weight,
    build_root_system,
    from_label,
    is_dominant,
    positive_root_count,
    weyl_group_order,
)
from .vpart import (
    PartitionMatrix,
    build_partition_matrix,
    check_partition_equivalence,
    count_solutions,
)
from .weightsys import MultiplicityTable, dim_irrep, weight_system

__version__ = "0.1.0"

__all__ = [
    "CharacterPoly",
    "ClosedCharacter",
    "CyclotomicPole",
    "ExactDivisionError",
    "FactoredRational",
    "GradedTruncation",
    "InconsistencyError",
    "LaurentPoly",
    "MultiplicityTable",
    "OrbitSummand",
    "PFDTerm",
    "PartitionMatrix",
    "PoleError",
    "RootSystem",
    "UnivariatePFD",
    "Weight",
    "adams_symmetric",
    "binomial_poly",
    "build_partition_matrix",
    "build_root_system",
    "character_at",
    "check_partition_equivalence",
    "count_solutions",
    "cyclotomic",
    "dim_irrep",
    "from_label",
    "fundamental_coefficient",
    "hsym_character",
    "is_dominant",
    "multiplicity_at",
    "orbit_split",
    "pfd_decompose",
    "positive_root_count",
    "quadrature_check",
    "sl2_coefficient",
    "truncated_molien",
    "univariate_pfd",
    "weight_system",
    "weyl_group_order",
    "__version__",
]
