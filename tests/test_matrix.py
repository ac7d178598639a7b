"""Exact matrix operations: products, lifts' building blocks, rank, nullspace,
powers, and minimal polynomials, checked against independent oracles."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from commdist import matrix
from commdist.commute import derogatory
from commdist.errors import DimMismatch, DivisionByZero, FieldMismatch, ParseError
from commdist.field import FieldSpec
from commdist.matrix import (
    ExactMatrix,
    commutator,
    decode_matrix,
    det,
    kron,
    lift_rows_raw,
    mat_op,
    mat_pow,
    mat_vec,
    min_poly,
    nullspace_basis,
    nullspace_raw,
    random_matrix,
    rank,
    rref_raw,
    unvec,
    vec,
)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
GF9 = FieldSpec.parse("gf(9)")

ALL_FIELDS = [QQ, GF2, GF3, GF9]

A25 = ExactMatrix(QQ, [[1, 2, 0], [3, 4, 0], [0, 0, 5]])
B25 = ExactMatrix(QQ, [[1, 1, 0], [2, 2, 0], [0, 0, 3]])
C25 = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
A46 = ExactMatrix(QQ, [[1, -1, 0, 3], [-1, 1, 0, -1], [-2, 2, 0, -4], [0, 0, 0, -2]])


def test_mat_op_identity():
    rng = random.Random(0)
    for spec in ALL_FIELDS:
        ident = ExactMatrix.identity(spec, 3)
        m = random_matrix(spec, 3, 3, rng)
        assert mat_op(ident, m, "mul") == m
        assert mat_op(m, ident, "mul") == m


def test_bundled_example_products():
    assert A25 @ C25 == C25 @ A25
    assert B25 @ C25 == C25 @ B25
    assert A25 @ B25 != B25 @ A25


def test_mat_op_errors():
    with pytest.raises(DimMismatch):
        mat_op(ExactMatrix(QQ, [[1, 2]]), ExactMatrix(QQ, [[1, 2]]), "mul")
    with pytest.raises(FieldMismatch):
        mat_op(ExactMatrix(QQ, [[1]]), ExactMatrix(GF2, [[1]]), "add")
    with pytest.raises(ParseError):
        mat_op(C25, C25, "frobnicate")


def test_commutator_examples():
    assert commutator(A25, A25) == ExactMatrix.zeros(QQ, 3, 3)
    assert commutator(A25, ExactMatrix.identity(QQ, 3)) == ExactMatrix.zeros(QQ, 3, 3)
    e12 = ExactMatrix(GF2, [[0, 1], [0, 0]])
    e21 = ExactMatrix(GF2, [[0, 0], [1, 0]])
    assert commutator(e12, e21) == ExactMatrix.identity(GF2, 2)


def test_kron_examples():
    i2 = ExactMatrix.identity(QQ, 2)
    assert kron(i2, i2) == ExactMatrix.identity(QQ, 4)
    assert kron(ExactMatrix.diag(QQ, [1, 2]), i2) == ExactMatrix.diag(QQ, [1, 1, 2, 2])


def test_kron_builds_the_lift():
    # the lift of a matrix equals kron(A, I) - kron(I, A^T) entrywise
    from commdist.commute import lift_M

    rng = random.Random(5)
    for _ in range(10):
        a = random_matrix(GF5, 3, 3, rng)
        ident = ExactMatrix.identity(GF5, 3)
        direct = kron(a, ident) - kron(ident, a.transpose())
        assert direct == lift_M(a)


def test_rank_examples():
    assert rank(ExactMatrix.zeros(QQ, 9, 9)) == 0
    for n in (1, 3, 5):
        assert rank(ExactMatrix.identity(GF3, n)) == n
    from commdist.commute import lift_M

    # non-derogatory non-scalar 3x3: the commuting space is span(I, A, A^2)
    assert rank(lift_M(A25)) == 6


def test_nullspace_trivial_cases():
    assert nullspace_basis(ExactMatrix.identity(QQ, 4)) == []
    basis = nullspace_basis(ExactMatrix.zeros(GF3, 9, 9))
    assert len(basis) == 9
    for idx, v in enumerate(basis):
        assert [e.to_json() for e in v] == [1 if j == idx else 0 for j in range(9)]


def test_nullspace_of_example_lift_has_six_vectors():
    from commdist.commute import lift_M

    assert len(nullspace_basis(lift_M(A46))) == 6


def test_nullspace_exact_regression():
    # hand-checked: RREF of [[1,2,0],[2,4,0]] is [1,2,0]; free columns 1 and 2
    m = ExactMatrix(QQ, [[1, 2, 0], [2, 4, 0]])
    basis = nullspace_basis(m)
    assert [[e.to_json() for e in v] for v in basis] == [[-2, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("spec", ALL_FIELDS)
def test_rank_nullity_and_kernel_membership(spec):
    rng = random.Random(3)
    zero = spec.ops().zero
    for _ in range(60):
        m = random_matrix(spec, rng.randint(1, 6), rng.randint(1, 6), rng)
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == m.ncols
        for v in basis:
            assert all(x == zero for x in mat_vec(m, v))


def test_mat_pow():
    rng = random.Random(11)
    m = random_matrix(GF3, 3, 3, rng)
    assert mat_pow(m, 0) == ExactMatrix.identity(GF3, 3)
    for i, j in [(1, 2), (2, 3), (4, 4)]:
        assert mat_pow(m, i + j) == mat_pow(m, i) @ mat_pow(m, j)
    with pytest.raises(DimMismatch):
        mat_pow(m, 65)


def test_min_poly_examples():
    assert [c.to_json() for c in min_poly(ExactMatrix.identity(QQ, 4))] == [-1, 1]
    assert [c.to_json() for c in min_poly(A46)] == [0, -4, 0, 1]  # x^3 - 4x
    companion = ExactMatrix(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # x^3 + 1
    assert [c.to_json() for c in min_poly(companion)] == [1, 0, 0, 1]


def _poly_eval_full(m: ExactMatrix, coeffs) -> ExactMatrix:
    acc = ExactMatrix.zeros(m.spec, m.nrows, m.ncols)
    power = ExactMatrix.identity(m.spec, m.nrows)
    for c in coeffs:
        acc = acc + power.scale(c)
        power = power @ m
    return acc


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF2, 4), (GF3, 3)])
def test_min_poly_annihilates_and_is_minimal(spec, n):
    rng = random.Random(17)
    q = spec.order
    for _ in range(12):
        m = random_matrix(spec, n, n, rng)
        coeffs = [c.raw for c in min_poly(m)]
        assert _poly_eval_full(m, coeffs) == ExactMatrix.zeros(spec, n, n)
        deg = len(coeffs) - 1
        # no monic polynomial of lower degree annihilates (exhaustive oracle)
        for lower_deg in range(1, deg):
            for tail in itertools.product(range(q), repeat=lower_deg):
                cand = list(tail) + [1]
                if _poly_eval_full(m, cand) == ExactMatrix.zeros(spec, n, n):
                    raise AssertionError(f"{cand} annihilates below degree {deg}")


@st.composite
def _small_square(draw):
    """A square matrix over GF(2) or GF(3) with n <= 3."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    return ExactMatrix(FieldSpec.prime(p), [entries[i * n : (i + 1) * n] for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(_small_square())
def test_min_poly_is_the_least_monic_annihilator(m):
    # checked by evaluating polynomials only, with no elimination
    spec, n = m.spec, m.nrows
    zero = ExactMatrix.zeros(spec, n, n)
    coeffs = [c.raw for c in min_poly(m)]
    assert coeffs[-1] == 1
    assert _poly_eval_full(m, coeffs) == zero
    for lower_deg in range(len(coeffs) - 1):
        for tail in itertools.product(range(spec.p), repeat=lower_deg):
            assert _poly_eval_full(m, list(tail) + [1]) != zero


def test_min_poly_annihilates_over_q():
    rng = random.Random(19)
    for _ in range(10):
        m = random_matrix(QQ, 3, 3, rng)
        coeffs = [c.raw for c in min_poly(m)]
        assert _poly_eval_full(m, coeffs) == ExactMatrix.zeros(QQ, 3, 3)


def _det_leibniz(m: ExactMatrix):
    ops = m.spec.ops()
    n = m.nrows
    total = ops.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ops.one
        for i in range(n):
            term = ops.mul(term, m.rows[i][perm[i]])
        total = ops.add(total, term if sign > 0 else ops.neg(term))
    return total


@pytest.mark.parametrize("spec", [QQ, GF3, GF9])
def test_det_against_permanent_expansion(spec):
    rng = random.Random(23)
    for _ in range(20):
        m = random_matrix(spec, 3, 3, rng)
        assert det(m).raw == _det_leibniz(m)


@st.composite
def _low_rank_rows(draw):
    """(p, rows): an m x n product L @ R mod p with inner size k, so ranks vary."""
    p = draw(st.sampled_from([2, 3]))
    m, n, k = draw(st.integers(1, 32)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    digits = st.integers(0, p - 1)
    left = draw(st.lists(st.lists(digits, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=k, max_size=k))
    return p, [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]


@settings(max_examples=100, deadline=None)
@given(_low_rank_rows())
def test_rref_matches_sympy_over_small_prime_fields(case):
    p, rows = case
    field = GF(p)
    dm = DomainMatrix([[field(x) for x in row] for row in rows], (len(rows), len(rows[0])), field)
    want, want_pivots = dm.rref()
    got, pivots = rref_raw(FieldSpec.prime(p), rows)
    assert pivots == list(want_pivots)
    assert got == [[int(x) % p for x in row] for row in want.to_list()[: len(pivots)]]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_centralizers_match_the_per_matrix_route(data):
    spec = data.draw(st.sampled_from([GF2, GF3, GF5, FieldSpec.parse("gf(2^2):1,1,1")]))
    n = data.draw(st.integers(1, 3))
    total = spec.order ** (n * n)
    start = data.draw(st.integers(0, total - 1))
    codes = np.arange(start, min(start + data.draw(st.integers(1, 40)), total))
    # small cell budgets split the range into several chunks
    cells = data.draw(st.sampled_from([1, 300, 1 << 18]))
    with mock.patch.object(matrix, "_BATCH_CELLS", cells):
        chunks = list(matrix._centralizer_chunks(spec, n, codes))
    assert np.concatenate([c for c, _, _ in chunks]).tolist() == codes.tolist()
    for chunk, free, vecs in chunks:
        for code, f, v in zip(chunk.tolist(), free, vecs):
            m = decode_matrix(spec, n, code)
            assert v[f].tolist() == nullspace_raw(spec, lift_rows_raw(m))
            if n >= 2:
                # A is nonderogatory iff its centralizer has dimension n
                assert (f.sum() > n) == derogatory(m)


def test_det_singular():
    assert det(ExactMatrix(QQ, [[1, 2], [2, 4]])).is_zero


def test_vec_round_trip():
    rng = random.Random(29)
    for spec in ALL_FIELDS:
        m = random_matrix(spec, 3, 3, rng)
        flat = vec(m)
        assert flat == tuple(x for row in m.rows for x in row)
        assert unvec(spec, 3, flat) == m


def test_json_round_trips():
    cases = [
        ExactMatrix(QQ, [[Fraction(1, 2), 3], [0, -7]]),
        ExactMatrix(GF3, [[2, 0], [1, 1]]),
        ExactMatrix(GF9, [[[1, 2], [0, 1]], [[0, 0], [2, 2]]]),
    ]
    for m in cases:
        assert ExactMatrix.from_json(m.to_json()) == m


def test_bad_json():
    with pytest.raises(ParseError):
        ExactMatrix.from_json({"rows": [[1]]})
    with pytest.raises(DimMismatch):
        ExactMatrix.from_json({"field": "qq", "rows": [[1, 2], [3]]})
    with pytest.raises(DimMismatch):
        ExactMatrix.from_json({"field": "qq", "rows": []})


def test_field_coercion():
    m = ExactMatrix(QQ, [[Fraction(1, 2), -1], [3, 0]])
    reduced = m.to_field(GF3)
    assert reduced.to_json()["rows"] == [[2, 2], [0, 0]]
    with pytest.raises(DivisionByZero):
        ExactMatrix(QQ, [[Fraction(1, 3)]]).to_field(GF3)
    # prime residues embed into an extension of the same characteristic
    lifted = ExactMatrix(GF3, [[2]]).to_field(GF9)
    assert lifted.to_json()["rows"] == [[[2, 0]]]


def test_extension_int_entries_embed_as_constants():
    # regression: a plain integer entry is a constant, never a raw code
    m = ExactMatrix(GF9, [[4]])
    assert m.to_json()["rows"] == [[[1, 0]]]


def test_dimension_cap():
    with pytest.raises(DimMismatch):
        ExactMatrix.zeros(QQ, 200, 1)
