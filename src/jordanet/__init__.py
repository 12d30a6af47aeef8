"""jordanet: exact analysis of linear subspaces of symmetric matrices.

Core objects: rational scalars and exact dense linear algebra (``linalg``),
subspaces of symmetric matrices as Grassmannian points (``spaces``), the
inverse-twisted commutative product and its algebra theory (``jordan``);
above them, sparse rational polynomials and the packed integer polynomial
kernel (``exact``), integer polynomials in one variable (``univariate``),
Chow matrices of nets (``chow``), polynomial certificates (``varieties``),
and classification front ends (``classify``).

Each name of ``__all__`` loads its home module the first time it is read
(PEP 562): ``import jordanet`` compiles none of them, and ``from jordanet
import chow_rank`` compiles ``chow`` and the layers it imports.
"""

import importlib

__version__ = "0.1.0"

#: the home module of each exported name
_HOMES = {
    "catalog": "canonical catalog_ids",
    "chow": "chow_det_generic chow_kernel_forms chow_matrix chow_rank sampled_reciprocal_span",
    "classify": "classify_abstract classify_copencil_S3 classify_net_S4 classify_pencil "
                "ejo_component_count",
    "errors": "InputError InternalCheckError JordanetError PreconditionError",
    "exact": "MPoly parse_poly poly_eval",
    "jordan": "JordanStructure check_reciprocal_identity is_jordan jordan_closure peirce "
              "radical structure_constants",
    "linalg": "Mat adjugate charpoly det",
    "spaces": "MatSpace ParametricBasis PluckerVector congruence_transform contains "
              "find_invertible generic_det grassmann_limit make_space orth_complement "
              "plucker rank_one_pencil sample_congruent",
    "varieties": "catalog_eval macaulay_emptiness min_rank_bounds",
}

__all__ = [name for names in _HOMES.values() for name in names.split()]


def __getattr__(name):
    home = next((module for module, names in _HOMES.items() if name in names.split()), None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
