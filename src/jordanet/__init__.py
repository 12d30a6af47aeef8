"""jordanet: exact analysis of linear subspaces of symmetric matrices.

Core objects: sparse rational polynomials (``exact``), exact dense linear
algebra (``linalg``), subspaces of symmetric matrices as Grassmannian points
(``spaces``), the inverse-twisted commutative product and its algebra theory
(``jordan``), Chow matrices of nets (``chow``), polynomial certificates
(``varieties``), and classification front ends (``classify``).
"""

from .catalog import canonical, catalog_ids
from .chow import (
    chow_det_generic,
    chow_kernel_forms,
    chow_matrix,
    chow_rank,
    sampled_reciprocal_span,
)
from .classify import (
    classify_abstract,
    classify_copencil_S3,
    classify_net_S4,
    classify_pencil,
    ejo_component_count,
)
from .errors import InputError, InternalCheckError, JordanetError, PreconditionError
from .exact import MPoly, parse_poly, poly_eval
from .jordan import (
    JordanStructure,
    check_reciprocal_identity,
    is_jordan,
    jordan_closure,
    peirce,
    radical,
    structure_constants,
)
from .linalg import Mat, adjugate, charpoly, det
from .spaces import (
    MatSpace,
    ParametricBasis,
    PluckerVector,
    congruence_transform,
    contains,
    find_invertible,
    generic_det,
    grassmann_limit,
    make_space,
    orth_complement,
    plucker,
    sample_congruent,
)
from .varieties import catalog_eval, macaulay_emptiness, min_rank_bounds, rank_one_pencil

__version__ = "0.1.0"
