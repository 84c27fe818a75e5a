"""Exact certificates for the birational link calculus of the quintic del Pezzo surface.

Everything is computed in the cyclotomic field Q(zeta_20) with exact rational
coefficients; there is no floating point anywhere and every certified equality
is an equality.
"""

__version__ = "0.1.0"

from .cyclo import (  # noqa: F401
    FieldElement,
    I_UNIT,
    ONE,
    SQRT5,
    ZERO,
    ZETA,
    ZETA5,
    galois_apply,
    rational,
    root_of_unity,
)
from .census import (  # noqa: F401
    LineConfiguration,
    OrbitCensus,
    Surface,
    clebsch_surface,
    general_position_on_quadric,
    invariant_skew_families,
    lines27,
    orbit_census,
    quadric_surface,
    smoothness_check,
)
from .groups import (  # noqa: F401
    FiniteGroup,
    Permutation,
    fixed_locus,
    orbit_and_stabilizer,
    standard_groups,
    subgroup_closure,
    subgroups_of_order,
)
from .linalg import IntLattice, kernel_basis, orthogonal_complement  # noqa: F401
from .normalizer import assemble_normalizer, characters_of_g20, intertwiner  # noqa: F401
from .picard import (  # noqa: F401
    PicardLattice,
    contract,
    divisor_relation_check,
    invariant_rank,
    reconstruct_picard,
    ruling_blowup_check,
    selfmap_degree,
)
from .projgeo import (  # noqa: F401
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    line_in_surface,
    line_through,
    membership,
    residual_line,
)
from .report import Report, run_checks  # noqa: F401
