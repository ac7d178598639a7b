"""Exact commuting-distance computations for square matrices.

The library decides how far apart two matrices sit in the commuting graph of
a full matrix ring: adjacency is commutation, the distance-2 question is a
rank bound on a stacked Kronecker-style lift, distance 3 reduces to
polynomial-commuting certificates, and small finite fields carry a
brute-force BFS oracle that cross-checks every algebraic test.
"""

from . import census, commute, errors, field, graph, matrix, verify
from .commute import (
    DistanceResult,
    PcCertificate,
    PcSearchResult,
    centralizer_basis,
    commutes,
    derogatory,
    dist_le_2,
    distance,
    is_scalar,
    lift_M,
    pc_search,
    pc_verify,
    stack_M,
    verify_chain,
    zi_membership,
)
from .errors import (
    BadWitness,
    CapExceeded,
    CommdistError,
    DimMismatch,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    ParseError,
    ReducibleModulus,
    ScalarVertex,
    UnsupportedDegree,
)
from .field import FieldElem, FieldSpec, arith, field_from_spec
from .matrix import (
    ExactMatrix,
    commutator,
    det,
    kron,
    mat_op,
    mat_pow,
    min_poly,
    nullspace_basis,
    rank,
    vec,
    unvec,
)

__version__ = "0.1.0"

__all__ = [
    "BadWitness",
    "CapExceeded",
    "CommdistError",
    "DimMismatch",
    "DistanceResult",
    "DivisionByZero",
    "ExactMatrix",
    "FieldElem",
    "FieldMismatch",
    "FieldSpec",
    "NotPrime",
    "ParseError",
    "PcCertificate",
    "PcSearchResult",
    "ReducibleModulus",
    "ScalarVertex",
    "UnsupportedDegree",
    "arith",
    "census",
    "centralizer_basis",
    "commutator",
    "commute",
    "commutes",
    "derogatory",
    "det",
    "dist_le_2",
    "distance",
    "errors",
    "field",
    "field_from_spec",
    "graph",
    "is_scalar",
    "kron",
    "lift_M",
    "mat_op",
    "mat_pow",
    "matrix",
    "min_poly",
    "nullspace_basis",
    "pc_search",
    "pc_verify",
    "rank",
    "stack_M",
    "unvec",
    "vec",
    "verify",
    "verify_chain",
    "zi_membership",
]
