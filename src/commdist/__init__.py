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
from .field import FieldElem, FieldSpec
from .matrix import ExactMatrix, min_poly, rank, unvec, vec

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
    "census",
    "centralizer_basis",
    "commute",
    "commutes",
    "derogatory",
    "dist_le_2",
    "distance",
    "errors",
    "field",
    "graph",
    "is_scalar",
    "lift_M",
    "matrix",
    "min_poly",
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
