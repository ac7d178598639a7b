"""Exact matrix operations: products, lifts' building blocks, rank, nullspace,
powers, and minimal polynomials, checked against independent oracles."""

import itertools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ as SQQ, prevprime
from sympy.polys.matrices import DomainMatrix

from commdist import matrix
from commdist.commute import commutes, derogatory
from commdist.errors import DimMismatch, DivisionByZero, FieldMismatch, ParseError
from commdist.field import FieldSpec
from commdist.matrix import (
    ExactMatrix,
    _power_stack,
    decode_matrix,
    encode_matrix,
    is_scalar,
    lift_rows_raw,
    min_poly,
    nullspace_raw,
    random_matrix,
    rank,
    rank_raw,
    rref_raw,
    unvec,
    vec,
)
from commdist.verify import _invert

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
GF9 = FieldSpec.parse("gf(9)")
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
GF8 = FieldSpec.parse("gf(2^3):1,1,0,1")
GF17_2 = FieldSpec.parse("gf(17^2):14,0,1")
GF5_4 = FieldSpec.parse("gf(5^4):1,0,1,1,1")

ALL_FIELDS = [QQ, GF2, GF3, GF9]
P0 = 2**31 - 1  # the first prime the rational kernel eliminates modulo

A25 = ExactMatrix(QQ, [[1, 2, 0], [3, 4, 0], [0, 0, 5]])
B25 = ExactMatrix(QQ, [[1, 1, 0], [2, 2, 0], [0, 0, 3]])
C25 = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
A46 = ExactMatrix(QQ, [[1, -1, 0, 3], [-1, 1, 0, -1], [-2, 2, 0, -4], [0, 0, 0, -2]])


def test_mat_op_identity():
    rng = random.Random(0)
    for spec in ALL_FIELDS:
        ident = ExactMatrix.identity(spec, 3)
        m = random_matrix(spec, 3, 3, rng)
        assert ident @ m == m
        assert m @ ident == m


def test_bundled_example_products():
    assert A25 @ C25 == C25 @ A25
    assert B25 @ C25 == C25 @ B25
    assert A25 @ B25 != B25 @ A25


def test_a_matrix_hashes_its_entries_once():
    # the memos key on matrices: the hash goes into a slot on first use, and the matrix stays immutable
    m = ExactMatrix(GF3, [[1, 2], [0, 1]])
    assert not hasattr(m, "_hash")
    h = hash(m)
    assert m._hash == h == hash(ExactMatrix(GF3, [[1, 2], [0, 1]])) == hash((GF3, m.rows))
    assert hash(ExactMatrix(QQ, [[Fraction(1, 2)]])) == hash((QQ, ((Fraction(1, 2),),)))
    with pytest.raises(AttributeError):
        m._hash = 0


def test_mat_op_errors():
    with pytest.raises(DimMismatch):
        ExactMatrix(QQ, [[1, 2]]) @ ExactMatrix(QQ, [[1, 2]])
    with pytest.raises(FieldMismatch):
        ExactMatrix(QQ, [[1]]) + ExactMatrix(GF2, [[1]])


def test_commutator_examples():
    ident = ExactMatrix.identity(QQ, 3)
    assert A25 @ A25 - A25 @ A25 == ExactMatrix.zeros(QQ, 3, 3) and commutes(A25, A25)
    assert A25 @ ident - ident @ A25 == ExactMatrix.zeros(QQ, 3, 3) and commutes(A25, ident)
    e12 = ExactMatrix(GF2, [[0, 1], [0, 0]])
    e21 = ExactMatrix(GF2, [[0, 0], [1, 0]])
    assert e12 @ e21 - e21 @ e12 == ExactMatrix.identity(GF2, 2) and not commutes(e12, e21)


@pytest.mark.parametrize("spec", [GF4, GF9], ids=str)
def test_diag_keeps_extension_field_entries(spec):
    # an entry keeps its element: code 2 of GF(4) is x, not the constant 2 = 0
    for code in range(spec.order):
        d = ExactMatrix.diag(spec, [spec.elem_from_code(code)] * 2 + [spec.elem_from_code(1)])
        assert [d[i, i].raw for i in range(3)] == [code, code, 1]
        assert d == decode_matrix(spec, 3, code + code * spec.order**4 + spec.order**8)


def test_kron_builds_the_lift():
    # the lift equals A (x) I - I (x) A^T, written out entrywise: row (i, j) and
    # column (k, l) hold [l == j] a_ik - [k == i] a_lj
    for spec in (QQ, GF2, GF5, GF9, GF8, GF17_2, FieldSpec.prime(P0)):
        ops, rng = spec.ops(), random.Random(5)
        for n in (1, 2, 3, 4):
            a = random_matrix(spec, n, n, rng)
            want = [
                [
                    ops.sub(a.rows[i][k] if l == j else ops.zero, a.rows[l][j] if k == i else ops.zero)
                    for k in range(n)
                    for l in range(n)
                ]
                for i in range(n)
                for j in range(n)
            ]
            assert lift_rows_raw(a) == want


@st.composite
def _rational_operands(draw):
    """An m x k and a k x n matrix of Fractions, sides 1..5: heights up to
    10^12, integer, zero and negative entries."""
    m, k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nums = st.integers(-(10**12), 10**12) | st.integers(-2, 2)
    entry = st.builds(Fraction, nums, st.integers(1, 10**12) | st.just(1))
    return (
        draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m)),
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)),
    )


@settings(max_examples=150, deadline=None)
@given(_rational_operands())
def test_rational_products_match_an_entrywise_fraction_oracle(operands):
    a, b = operands
    want = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]
    got = ExactMatrix(QQ, a) @ ExactMatrix(QQ, b)
    assert (got.nrows, got.ncols) == (len(a), len(b[0]))
    # canonical Fractions: the same numerator and denominator, not only the same value
    assert [[x.as_integer_ratio() for x in row] for row in got.rows] == [
        [x.as_integer_ratio() for x in row] for row in want
    ]


def test_rational_products_and_lifts_do_no_fraction_arithmetic(monkeypatch):
    # products clear denominators and take integer dot products; lifts only
    # negate and subtract, so neither adds nor multiplies two Fractions
    a, b = (random_matrix(QQ, 4, 4, random.Random(seed)) for seed in (1, 2))
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda x, y, _m=method, _n=name: calls.append(_n) or _m(x, y))
    a @ b, lift_rows_raw(a)
    assert calls == []
    assert Fraction(1) + Fraction(1) == 2 and calls == ["__add__"]  # the counter counts


def test_rank_examples():
    assert rank(ExactMatrix.zeros(QQ, 9, 9)) == 0
    for n in (1, 3, 5):
        assert rank(ExactMatrix.identity(GF3, n)) == n
    from commdist.commute import lift_M

    # non-derogatory non-scalar 3x3: the commuting space is span(I, A, A^2)
    assert rank(lift_M(A25)) == 6


def test_nullspace_trivial_cases():
    assert nullspace_raw(QQ, ExactMatrix.identity(QQ, 4).raw_rows()) == []
    basis = nullspace_raw(GF3, ExactMatrix.zeros(GF3, 9, 9).raw_rows())
    assert len(basis) == 9
    for idx, v in enumerate(basis):
        assert v == [1 if j == idx else 0 for j in range(9)]


def test_nullspace_of_example_lift_has_six_vectors():
    from commdist.commute import lift_M

    assert len(nullspace_raw(QQ, lift_M(A46).raw_rows())) == 6


def test_nullspace_exact_regression():
    # hand-checked: RREF of [[1,2,0],[2,4,0]] is [1,2,0]; free columns 1 and 2
    m = ExactMatrix(QQ, [[1, 2, 0], [2, 4, 0]])
    assert nullspace_raw(QQ, m.raw_rows()) == [[-2, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("spec", ALL_FIELDS)
def test_rank_nullity_and_kernel_membership(spec):
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(spec, rng.randint(1, 6), rng.randint(1, 6), rng)
        basis = nullspace_raw(spec, m.raw_rows())
        assert rank(m) + len(basis) == m.ncols
        for v in basis:
            assert m @ ExactMatrix._from_raw(spec, [[x] for x in v]) == ExactMatrix.zeros(spec, m.nrows, 1)


def _chain(m: ExactMatrix, k: int) -> list[ExactMatrix]:
    """[I, m, ..., m^k] by a chain of products: the reference for the power stack."""
    return list(itertools.accumulate([m] * k, operator.matmul, initial=ExactMatrix.identity(m.spec, m.nrows)))


def test_mat_pow():
    # the one power stack behind min_poly, derogatory, the rational commutator
    # test and certificate evaluation: D = d A with d clearing A's denominators
    # (d = 1 over a finite field), against a chain of products and in any order of requests
    rng = random.Random(11)
    for spec in (GF3, GF9, QQ):
        m = random_matrix(spec, 3, 3, rng)
        d = math.lcm(*(x.denominator for row in m.rows for x in row)) if spec.kind == "rationals" else 1
        want = [p.scale(d**i).raw_rows() for i, p in enumerate(_chain(m, 8))]
        _power_stack.cache_clear()
        stack = _power_stack(m)
        assert stack.d == d and _power_stack(m) is stack
        for k in (1, 4, 0, 8, 2):
            assert [[list(row) for row in p] for p in stack.upto(k)] == want[: k + 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExactMatrix(QQ, []), lambda: ExactMatrix(QQ, [[]]), lambda: ExactMatrix.identity(QQ, 0),
        lambda: ExactMatrix.zeros(QQ, 0, 3), lambda: ExactMatrix.zeros(QQ, 2, 0), lambda: ExactMatrix.diag(QQ, []),
        lambda: ExactMatrix.identity(GF9, 0), lambda: matrix.unvec(GF2, 0, []),
    ],
)
def test_empty_shapes_are_rejected_by_every_constructor(build):
    with pytest.raises(DimMismatch, match="at least one row and one column"):
        build()


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


def _invertible(spec: FieldSpec, n: int, rng) -> ExactMatrix:
    p = random_matrix(spec, n, n, rng)
    while rank(p) < n:
        p = random_matrix(spec, n, n, rng)
    return p


def _repeated_eigenvalue(spec: FieldSpec, n: int, rng) -> ExactMatrix:
    """P diag(l, l, ...) P^-1 for a random invertible P: a derogatory matrix."""
    e, zero, p = list(random_matrix(spec, 1, n, rng).rows[0]), spec.ops().zero, _invertible(spec, n, rng)
    e[1] = e[0]
    return p @ unvec(spec, n, [e[i] if i == j else zero for i in range(n) for j in range(n)]) @ _invert(p)


def _sympy_charpoly(m: ExactMatrix) -> list:
    """The characteristic polynomial of m, low-to-high, by sympy over QQ or a prime field."""
    if m.spec.kind == "rationals":
        dm = DomainMatrix([[SQQ(x.numerator, x.denominator) for x in row] for row in m.rows], (m.nrows,) * 2, SQQ)
        return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(dm.charpoly())]
    field = GF(m.spec.p)
    dm = DomainMatrix([[field(x) for x in row] for row in m.rows], (m.nrows,) * 2, field)
    return [int(c) % m.spec.p for c in reversed(dm.charpoly())]


def _remainder(spec: FieldSpec, num: list, den: list) -> list:
    """num mod den for raw coefficient lists, low-to-high, den monic."""
    ops, num = spec.ops(), list(num)
    for top in range(len(num) - 1, len(den) - 2, -1):
        lead, shift = num[top], top - len(den) + 1
        num[shift : top + 1] = [ops.sub(x, ops.mul(lead, c)) for x, c in zip(num[shift : top + 1], den)]
    return num[: len(den) - 1]


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, FieldSpec.prime(257)], ids=str)
def test_min_poly_is_the_charpoly_or_divides_it(spec):
    # sympy's charpoly as the oracle: equal on a nonderogatory matrix, and a
    # proper divisor of it on a derogatory one
    rng, seen = random.Random(23), set()
    for n in range(2, 6):
        for m in [random_matrix(spec, n, n, rng) for _ in range(3)] + [_repeated_eigenvalue(spec, n, rng)]:
            coeffs, char = [c.raw for c in min_poly(m)], _sympy_charpoly(m)
            seen.add(derogatory(m))
            if derogatory(m):
                assert len(coeffs) - 1 < n
                assert _remainder(spec, char, coeffs) == [spec.ops().zero] * (len(coeffs) - 1)
            else:
                assert coeffs == char
    assert seen == {False, True}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([QQ, GF3, GF4, FieldSpec.prime(257)]), st.integers(2, 5), st.booleans(), st.integers(0, 2**32)
)
def test_min_poly_and_derogatory_are_invariant_under_conjugation(spec, n, repeated, seed):
    rng = random.Random(seed)
    a = _repeated_eigenvalue(spec, n, rng) if repeated else random_matrix(spec, n, n, rng)
    p = _invertible(spec, n, rng)
    b = p @ a @ _invert(p)
    assert [c.raw for c in min_poly(b)] == [c.raw for c in min_poly(a)]
    assert derogatory(b) == derogatory(a)
    assert derogatory(a) or not repeated


def _min_poly_by_fraction_powers(m: ExactMatrix) -> list:
    """The minimal polynomial by the route min_poly took before the power stack: the
    first nullspace vector of the columns vec(I), vec(A), ..., vec(A^n) of Fraction powers."""
    first = nullspace_raw(m.spec, [list(c) for c in zip(*map(vec, _chain(m, m.nrows)))])[0]
    return first[: max(i for i, c in enumerate(first) if c != 0) + 1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.sampled_from(["generic", "sparse", "repeated"]), st.integers(0, 2**32))
def test_rational_min_poly_matches_the_fraction_power_route(n, shape, seed):
    # non-integer entries, so D = d A differs from A, with heights up to 10^6
    rng = random.Random(seed)
    height = rng.choice([9, 10**6])

    def entry():
        return Fraction(rng.randint(-height, height), rng.choice([1, 2, 3, 7, 12]))

    if shape == "repeated" and n >= 2:
        m = _repeated_eigenvalue(QQ, n, rng)
    else:
        keep = 1.0 if shape == "generic" else 0.3
        m = ExactMatrix(QQ, [[entry() if rng.random() < keep else 0 for _ in range(n)] for _ in range(n)])
    assert [c.raw for c in min_poly(m)] == _min_poly_by_fraction_powers(m)


@st.composite
def _low_rank_rows(draw):
    """(p, rows): an m x n product L @ R mod p with inner size k, so ranks vary;
    257 is the least prime above the table fields, and p = 2^31 - 1 sits at the
    prime cap, where int64 has the least headroom."""
    p = draw(st.sampled_from([2, 3, 257, P0]))
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 32), st.integers(1, 16), st.data())
def test_gf2_rank_only_pivots_match_the_full_rref_and_sympy(m, n, data):
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=m, max_size=m))
    none, pivots = rref_raw(GF2, rows, rank_only=True)
    assert none is None and pivots == rref_raw(GF2, rows)[1]
    dm = DomainMatrix([[GF(2)(x) for x in row] for row in rows], (m, n), GF(2))
    assert rank_raw(GF2, rows) == len(pivots) == dm.rank()


EXT_FIELDS = [
    GF4, GF9, GF8, FieldSpec.parse("gf(3^4):2,0,0,1,1"), FieldSpec.parse("gf(17^2):14,0,1"),
    FieldSpec.parse("gf(7^3):2,0,0,1"),
]


def _lincomb(ops, coeffs, vectors, length):
    """sum coeffs[i] * vectors[i] with scalar field ops (zero when empty)."""
    acc = [ops.zero] * length
    for c, v in zip(coeffs, vectors):
        acc = [ops.add(x, ops.mul(c, y)) for x, y in zip(acc, v)]
    return acc


def _mul_matrix(spec, a):
    """The k x k matrix over GF(p) of multiplication by the code a, in the basis
    1, x, ..., x^(k-1): column j holds the digits of a * x^j."""
    mul = spec.ops().mul
    return [list(col) for col in zip(*(spec.entry_to_json(mul(a, spec.p**j)) for j in range(spec.k)))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXT_FIELDS), st.integers(1, 32), st.integers(1, 16), st.booleans(), st.data())
def test_rref_over_extension_fields_is_the_unique_rref(spec, m, n, low_rank, data):
    # checked with scalar arithmetic alone: R is in RREF, spans every input
    # row, and has as many rows as the rank of the GF(p)-expansion over k
    ops = spec.ops()
    digits = st.integers(0, spec.order - 1)
    if low_rank:
        k = data.draw(st.integers(1, min(m, n)))
        left = data.draw(st.lists(st.lists(digits, min_size=k, max_size=k), min_size=m, max_size=m))
        right = data.draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [_lincomb(ops, row, right, n) for row in left]
    else:
        rows = data.draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=m, max_size=m))
    rref, pivots = rref_raw(spec, rows)
    assert len(rref) == len(pivots) and pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(rref, pivots)):
        assert all(x == 0 for x in row[:pc]) and row[pc] == 1
        assert [r[pc] for r in rref] == [int(j == i) for j in range(len(rref))]
    for row in rows:
        assert _lincomb(ops, [row[pc] for pc in pivots], rref, n) == row
    assert _expanded_rank(spec, rows) == spec.k * len(pivots)
    assert rank_raw(spec, rows) == len(pivots)


def _expanded_rank(spec, rows):
    """sympy's GF(p) rank of the rows, over GF(p^k) with each entry expanded to
    its k x k multiplication matrix: k times the rank over GF(p^k)."""
    if spec.kind == "extension":
        rows = [sum((_mul_matrix(spec, a)[i] for a in row), []) for row in rows for i in range(spec.k)]
    return DomainMatrix([[GF(spec.p)(x) for x in r] for r in rows], (len(rows), len(rows[0])), GF(spec.p)).rank()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([GF3, FieldSpec.prime(257), FieldSpec.prime(P0), GF9, GF17_2]),
    st.integers(1, 32), st.integers(1, 16), st.integers(1, 16), st.data(),
)
def test_rank_only_pivots_match_the_full_rref_and_sympy(spec, m, n, k, data):
    # a product of m x k and k x n factors, so ranks vary; the forward echelon
    # skips back-reduction but must find the RREF's pivots
    ops = spec.ops()
    digits = st.integers(0, spec.order - 1)
    left = data.draw(st.lists(st.lists(digits, min_size=k, max_size=k), min_size=m, max_size=m))
    right = data.draw(st.lists(st.lists(digits, min_size=n, max_size=n), min_size=k, max_size=k))
    rows = [_lincomb(ops, row, right, n) for row in left]
    none, pivots = rref_raw(spec, rows, rank_only=True)
    assert none is None and pivots == rref_raw(spec, rows)[1]
    assert _expanded_rank(spec, rows) == spec.k * len(pivots)


def _sympy_rref_qq(rows):
    dm = DomainMatrix(
        [[SQQ(x.numerator, x.denominator) for x in row] for row in rows],
        (len(rows), len(rows[0])),
        SQQ,
    )
    want, pivots = dm.rref()
    out = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in want.to_list()]
    return out[: len(pivots)], list(pivots)


@st.composite
def _low_rank_rationals(draw):
    """An m x n product L @ R over Q with inner size k: factor heights up to
    10^12, denominators that include the first lift prime, ranks that vary."""
    m, n, k = draw(st.integers(1, 10)), draw(st.integers(1, 10)), draw(st.integers(1, 6))
    nums = st.integers(-(10**12), 10**12) | st.integers(-2, 2)
    entry = st.builds(Fraction, nums, st.sampled_from([1, 2, 9, 10**6 + 3, P0]))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(map(operator.mul, row, col), Fraction(0)) for col in zip(*right)] for row in left]


@settings(max_examples=100, deadline=None)
@given(_low_rank_rationals())
def test_rref_matches_sympy_over_the_rationals(rows):
    assert rref_raw(QQ, rows) == _sympy_rref_qq(rows)


@settings(max_examples=100, deadline=None)
@given(_low_rank_rationals())
def test_rank_matches_sympy_over_the_rationals(rows):
    dm = DomainMatrix(
        [[SQQ(x.numerator, x.denominator) for x in row] for row in rows],
        (len(rows), len(rows[0])),
        SQQ,
    )
    assert rank_raw(QQ, rows) == dm.rank()


TALL = [[3, 2**40 + 1, 0], [5, 7, 2**35]]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, P0]],  # rank 2 over Q, rank 1 modulo P0
        [[P0, 1], [2 * P0, 2]],  # pivot in column 0 over Q, in column 1 modulo P0
        TALL,  # RREF heights above 2^31
    ],
    ids=["rank-drops", "pivot-moves-right", "tall-entries"],
)
def test_rref_over_q_drops_bad_primes_and_lifts_tall_entries(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    assert rref_raw(QQ, rows) == _sympy_rref_qq(rows)


def test_rref_over_q_drops_a_later_prime_with_worse_pivots():
    # the first prime alone cannot lift (7^30 + 1) / P; modulo P, the second prime,
    # the second pivot moves to column 2, so that prime is met and dropped
    p, tall = matrix._lift_prime(1), 7**30 + 1
    assert matrix._rref_np(FieldSpec.prime(p), [[1, 0, 3], [0, 0, tall % p]])[1] == [0, 2]
    with mock.patch.object(matrix, "_rref_np", wraps=matrix._rref_np) as spy:
        got = rref_raw(QQ, [[Fraction(x) for x in row] for row in [[1, 0, 3], [0, p, tall]]])
    assert got == ([[1, 0, 3], [0, 1, Fraction(tall, p)]], [0, 1])
    assert [call.args[0].p for call in spy.call_args_list][:3] == [P0, p, matrix._lift_prime(2)]


def test_tall_entries_take_several_primes():
    with mock.patch.object(matrix, "_rref_np", wraps=matrix._rref_np) as spy:
        rref, _ = rref_raw(QQ, [[Fraction(x) for x in row] for row in TALL])
    assert max(abs(x.numerator) for row in rref for x in row) > 2**31
    assert spy.call_count > 1


@pytest.mark.parametrize(
    "rows,want",
    [(TALL, 2), ([[1, 0], [0, P0]], 2), ([[1, 2], [P0, 2 * P0]], 1), ([[2, 4], [3, 6]], 1)],
    ids=["full", "drops-modulo-p0", "row-times-p0", "deficient"],
)
def test_rank_over_q_with_bad_primes(rows, want):
    assert rank_raw(QQ, [[Fraction(x) for x in row] for row in rows]) == want


def test_full_rank_over_q_takes_one_prime():
    # a full rank modulo one prime is already the rank over Q, while the RREF
    # of TALL takes several primes to lift
    with mock.patch.object(matrix, "_rref_np", wraps=matrix._rref_np) as spy:
        assert rank_raw(QQ, [[Fraction(x) for x in row] for row in TALL]) == 2
    assert spy.call_count == 1


def test_lift_primes_count_down_from_the_prime_cap():
    want, p = [], 2**31
    for _ in range(20):
        p = prevprime(p)
        want.append(p)
    assert [matrix._lift_prime(i) for i in range(20)] == want


def test_rref_over_q_raises_instead_of_looping_past_the_hadamard_bound():
    # the Hadamard bound of [[3, 1]] is 4, so one prime already exceeds 2 * 4^2
    with mock.patch.object(matrix, "_rational_reconstruct", return_value=None):
        with pytest.raises(RuntimeError, match="Hadamard"):
            rref_raw(QQ, [[Fraction(3), Fraction(1)]])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_centralizers_match_the_per_matrix_route(data):
    # past 256 elements the kernel runs int64 arithmetic: modulo 257, or
    # digit sums and exp/log products over GF(17^2)
    spec = data.draw(st.sampled_from([GF2, GF3, GF5, GF4, GF9, GF8, FieldSpec.prime(257), GF17_2]))
    n = data.draw(st.integers(1, 2 if spec.order > 256 else 3))
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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_product_matches_the_exact_product(data):
    spec = data.draw(st.sampled_from([GF5, GF4, GF9, GF8, GF17_2, GF5_4, FieldSpec.prime(P0)]))
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    # each operand has length 1 on some leading axes, or y has none of them
    lead = data.draw(st.lists(st.integers(1, 3), max_size=2))
    lead_x, lead_y = ([k if data.draw(st.booleans()) else 1 for k in lead] for _ in range(2))
    lead_y = [] if data.draw(st.booleans()) else lead_y
    dtypes = [np.uint8, np.int64] if spec.order <= 256 else [np.int64]  # codes past 255 need int64
    digits, dtype = st.integers(0, spec.order - 1), data.draw(st.sampled_from(dtypes))

    def draw_array(shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(digits, min_size=size, max_size=size)), dtype).reshape(shape)

    x, y = draw_array(lead_x + [rows, inner]), draw_array(lead_y + [inner, cols])
    got = matrix._ff_matmul(spec, x, y)
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    assert got.shape == lead + (rows, cols)
    xs, ys = np.broadcast_to(x, lead + x.shape[-2:]), np.broadcast_to(y, lead + y.shape[-2:])
    for index in np.ndindex(*lead):
        want = ExactMatrix._from_raw(spec, xs[index].tolist()) @ ExactMatrix._from_raw(spec, ys[index].tolist())
        assert got[index].tolist() == [list(row) for row in want.rows]


def test_batched_product_stays_exact_past_the_int64_edge():
    # inner dimension times (p - 1)^2 past 2^63 sums reduced products one index at a time
    for p in (P0, 2**20 + 7, 3):
        spec = FieldSpec.prime(p)
        for inner in (1, 2, 3, 8, 64):
            x, y = np.full((2, 3, inner), p - 1, np.int64), np.full((inner, 2), p - 1, np.int64)
            x[1, 0, 0] = 1
            cols = y.T.tolist()
            want = [[[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in m] for m in x.tolist()]
            assert matrix._ff_matmul(spec, x, y).tolist() == want


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
    with pytest.raises(ParseError):  # JSON text is decoded by the caller
        ExactMatrix.from_json('{"field": "qq", "rows": [[1]]}')
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
    assert m.to_field(QQ) is m and repr(m) == "ExactMatrix(qq, 2x2)"


def test_extension_entries_keep_every_coefficient_in_another_extension():
    # regression: to_field read the converted codes back as integer
    # constants, so every coefficient of x and above was lost
    m = ExactMatrix(FieldSpec.parse("gf(3^2):1,0,1"), [[[0, 1], [2, 1]], [[1, 0], [0, 2]]])  # [[x, 2+x], [1, 2x]]
    assert m.to_field(FieldSpec.parse("gf(3^2):2,2,1")).to_json()["rows"] == [[[0, 1], [2, 1]], [[1, 0], [0, 2]]]
    gf27 = FieldSpec.parse("gf(3^3):1,2,0,1")
    assert m.to_field(gf27).to_json()["rows"] == [[[0, 1, 0], [2, 1, 0]], [[1, 0, 0], [0, 2, 0]]]
    with pytest.raises(ParseError):  # x^2 has no coefficient vector of length 2
        ExactMatrix(gf27, [[[0, 0, 1]]]).to_field(GF9)


def test_extension_int_entries_embed_as_constants():
    # regression: a plain integer entry is a constant, never a raw code
    m = ExactMatrix(GF9, [[4]])
    assert m.to_json()["rows"] == [[[1, 0]]]


def test_dimension_cap():
    with pytest.raises(DimMismatch):
        ExactMatrix.zeros(QQ, 200, 1)


STACK_FIELDS = [
    GF2, GF3, GF5, GF4, GF9, GF8, FieldSpec.prime(101), FieldSpec.prime(257), FieldSpec.prime(P0), GF17_2, GF5_4
]


@st.composite
def _pair_batches(draw):
    """(spec, n, a, b): a few pairs of n x n raw matrices, some of them equal
    or with entries mostly 0 and 1, so that stacked ranks vary."""
    spec = draw(st.sampled_from(STACK_FIELDS))
    n, size = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    digit = st.integers(0, spec.order - 1) | st.sampled_from([0, 0, 1])
    flat = draw(st.lists(digit, min_size=2 * size * n * n, max_size=2 * size * n * n))
    a, b = np.array(flat, np.int64).reshape(2, size, n, n)
    if draw(st.booleans()):
        b[0] = a[0]
    return spec, n, a, b


@settings(max_examples=150, deadline=None)
@given(_pair_batches())
def test_stack_ranks_match_rank_raw_of_the_stacked_lifts(case):
    spec, n, a, b = case
    def lift(x):
        return lift_rows_raw(ExactMatrix._from_raw(spec, x.tolist()))

    want = [rank_raw(spec, lift(x) + lift(y)) for x, y in zip(a, b)]
    assert matrix._stack_ranks(spec, n, a, b).tolist() == want
    with mock.patch.object(matrix, "_BATCH_CELLS", 1):  # one pair per chunk
        assert matrix._stack_ranks(spec, n, a, b).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec", STACK_FIELDS, ids=str)
def test_one_operand_stack_ranks_are_lift_ranks(spec, n):
    # the exhaustive counts read centralizer dimensions as n^2 minus these ranks;
    # every field ranks in batches, past 256 elements in int64 arithmetic
    rng = np.random.default_rng(spec.order * 10 + n)
    mats = rng.integers(0, spec.order, (12, n, n)) * (rng.random((12, n, n)) < 0.4)
    mats[1] = np.eye(n, dtype=np.int64)
    want = [n * n - len(nullspace_raw(spec, lift_rows_raw(ExactMatrix._from_raw(spec, x)))) for x in mats.tolist()]
    assert matrix._stack_ranks(spec, n, mats).tolist() == want
    with mock.patch.object(matrix, "_BATCH_CELLS", 1):  # one matrix per chunk
        assert matrix._stack_ranks(spec, n, mats).tolist() == want


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.prime(17), FieldSpec.parse("gf(49)"), FieldSpec.parse("gf(3^4):2,1,0,0,1"), FieldSpec.prime(251)],
    ids=str,
)
def test_flat_lookup_matches_the_two_dimensional_index_past_uint8(spec):
    # x * q leaves uint8 for every q >= 17, so the flat index must be widened
    # whatever type the promotion rule of the installed numpy gives a uint8 product
    add, neg, mul, _, neg_mul = matrix._np_tables(spec)
    x, y = (grid.ravel().astype(np.uint8) for grid in np.indices((spec.order, spec.order)))
    for table in (add, mul, neg_mul):
        assert np.array_equal(matrix._lookup(table, x, y), table[x, y])
    assert np.array_equal(neg_mul, neg[mul])
    ops = spec.ops()
    assert all(neg_mul[a, b] == ops.neg(ops.mul(a, b)) for a, b in [(1, 1), (2, 3), (spec.order - 1, spec.order - 2)])


@pytest.mark.parametrize(
    "spec,elements",
    [
        (FieldSpec.prime(257), range(1, 257)),
        (GF17_2, range(1, 289)),
        (FieldSpec.prime(8191), np.random.default_rng(8191).integers(1, 8191, 500)),
        (FieldSpec.prime(P0), np.random.default_rng(P0).integers(1, P0, 500)),
    ],
    ids=str,
)
def test_batched_pivot_inverses_match_the_scalar_inverse(spec, elements):
    # past 256 elements a Fermat power in int64, or the exp/log tables, invert a whole pivot column
    xs = np.array(elements, np.int64)
    inverses = matrix._row_ops(spec).invs(xs)
    assert inverses.dtype == np.int64
    assert inverses.tolist() == [spec.ops().inv(int(x)) for x in xs]


def _gauss_jordan_one(spec, rows):
    """(pivot_row, reduced rows) of one member by the scalar field operations: a
    column's pivot is its first unused row with a nonzero entry, and rows stay in place."""
    ops, rows = spec.ops(), [[int(x) for x in row] for row in rows]
    used, pivot_row = set(), []
    for c in range(len(rows[0])):
        r = next((i for i, row in enumerate(rows) if i not in used and row[c] != ops.zero), -1)
        pivot_row.append(r)
        if r < 0:
            continue
        inv = ops.inv(rows[r][c])
        rows[r] = [ops.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != ops.zero:
                rows[i] = [ops.sub(x, ops.mul(row[c], y)) for x, y in zip(row, rows[r])]
        used.add(r)
    return pivot_row, rows


def _elimination_batches(spec, seed):
    """Batches of the shapes `_gauss_jordan` meets: dense narrow stacks like the power and
    commutator stacks, single and stacked lifts, batches of one, all-zero members and
    members whose columns repeat, so that some column has no pivot."""
    rng, q = np.random.default_rng(seed), spec.order
    dense = rng.integers(1, q, (24, 9, 3)) * (rng.random((24, 9, 3)) < 0.9)
    edged = dense.copy()
    edged[0], edged[1, :, 1], edged[2, :, 2] = 0, 0, edged[2, :, 0]
    sparse = rng.integers(0, q, (2, 6, 3, 3)) * (rng.random((2, 6, 3, 3)) < 0.4)
    sparse[0, 0] = np.eye(3, dtype=np.int64)  # a scalar matrix lifts to the zero member
    return [
        dense, edged, dense[:1], edged[1:2],
        rng.integers(1, q, (6, 16, 4)) * (rng.random((6, 16, 4)) < 0.7),
        matrix._lifts(spec, sparse[0]), matrix._lifts(spec, *sparse), matrix._lifts(spec, sparse[1, :1]),
    ]


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9, FieldSpec.prime(257), GF17_2], ids=str)
def test_batched_gauss_jordan_matches_a_per_member_elimination(monkeypatch, spec):
    # every `_row_ops` arithmetic: the uint8 tables, int64 products mod p and base-p digits
    arith, batches, branches = matrix._row_ops(spec), _elimination_batches(spec, spec.order), set()

    def neg_mul(x, y):  # the broadcast update passes 3-D factors, the gathered one 2-D
        branches.add("broadcast" if x.ndim == 3 else "gathered")
        return arith.neg_mul(x, y)

    monkeypatch.setattr(matrix, "_row_ops", lambda spec_: arith._replace(neg_mul=neg_mul))
    for batch in batches:
        mat = batch.astype(arith.dtype)
        pivot_row = matrix._gauss_jordan(spec, mat)
        for member, got_pivots, got_rows in zip(batch, pivot_row.tolist(), mat.tolist()):
            assert (got_pivots, got_rows) == _gauss_jordan_one(spec, member)
    assert branches == {"broadcast", "gathered"}


def _lift_mask(spec, n, x, y):
    return matrix._stack_ranks(spec, n, x, y) <= n * n - 2


@pytest.mark.parametrize("spec", [GF2, GF3, GF4], ids=str)
def test_shared_commuters_of_every_two_by_two_pair_match_the_lift_ranks(spec):
    codes = np.arange(spec.order**4)
    x, y = (matrix._code_stack(spec, 2, grid.ravel()) for grid in np.meshgrid(codes, codes, indexing="ij"))
    assert np.array_equal(matrix._shares_commuter(spec, 2, x, y), _lift_mask(spec, 2, x, y))


def test_shared_commuters_of_every_gf2_orbit_representative_match_the_lift_ranks():
    reps = matrix._orbits(GF2, 3)[0]
    x = matrix._code_stack(GF2, 3, np.repeat(reps, 512))
    y = matrix._code_stack(GF2, 3, np.tile(np.arange(512), len(reps)))
    mask = matrix._shares_commuter(GF2, 3, x, y)
    assert np.array_equal(mask, _lift_mask(GF2, 3, x, y)) and 0 < mask.sum() < len(mask)


def _structured_pairs(spec, n, seed):
    """Seeded (x, y) raw pairs: random sides, which are mostly nonderogatory,
    scalar plus rank-one sides, which are derogatory at n >= 3, scalar sides
    and equal sides, in every combination."""
    rng = np.random.default_rng(seed)

    def rand():
        return ExactMatrix._from_raw(spec, rng.integers(0, spec.order, (n, n)).tolist())

    def scalar():
        return ExactMatrix.diag(spec, [int(rng.integers(0, spec.p))] * n)

    def derog():
        u, v = (ExactMatrix._from_raw(spec, rng.integers(0, spec.order, shape).tolist()) for shape in ((n, 1), (1, n)))
        return u @ v + scalar()

    pairs = [(f(), g()) for f in (rand, derog, scalar) for g in (rand, derog, scalar) for _ in range(6)]
    pairs += [(m, m) for m in (f() for f in (rand, derog, scalar) for _ in range(4))]
    return tuple(np.array([m.raw_rows() for m in side], np.int64) for side in zip(*pairs))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("spec", [GF2, GF5, GF8, FieldSpec.prime(257)], ids=str)
def test_shared_commuters_take_every_branch_and_match_the_lift_ranks(monkeypatch, spec, n):
    x, y = _structured_pairs(spec, n, seed=spec.order * 10 + n)
    derogs = [np.array([derogatory(ExactMatrix._from_raw(spec, m.tolist())) for m in side]) for side in (x, y)]
    both = derogs[0] & derogs[1]
    # a nonderogatory x, a derogatory x with a nonderogatory y, and two derogatory sides
    assert (~derogs[0]).any() and (derogs[0] & ~derogs[1]).any() and both.any()
    want = _lift_mask(spec, n, x, y)
    assert want.any() and (~want).any()
    seen = []
    ranks = matrix._stack_ranks

    def spy(spec_, n_, *mats):
        seen.append(np.stack(mats, 1))
        return ranks(spec_, n_, *mats)

    monkeypatch.setattr(matrix, "_stack_ranks", spy)
    assert np.array_equal(matrix._shares_commuter(spec, n, x, y), want)
    # only the pairs with two derogatory sides rank their lifts
    assert np.array_equal(np.concatenate(seen), np.stack([x, y], 1)[both])


@pytest.mark.parametrize("spec", [GF2, GF9, FieldSpec.prime(257)], ids=str)
def test_shared_commuters_of_an_empty_batch(spec):
    empty = np.zeros((0, 3, 3), np.int64)
    mask = matrix._shares_commuter(spec, 3, empty, empty)
    assert mask.dtype == bool and mask.shape == (0,)


def test_shared_commuters_at_the_int64_edge():
    # the restricted scan admits every p < 2^31 at n = 2, where 2 (p - 1)^2 < 2^63
    rng = np.random.default_rng(P0)
    x, y = rng.integers(0, P0, (2, 300, 2, 2))
    y[:100] = x[:100]
    x[100:150] = x[100:150, :1, :1] * np.eye(2, dtype=np.int64)  # scalar sides
    y[150:200] = (x[150:200] + np.eye(2, dtype=np.int64)) % P0  # commuting sides
    mask = matrix._shares_commuter(FieldSpec.prime(P0), 2, x, y)
    assert np.array_equal(mask, _lift_mask(FieldSpec.prime(P0), 2, x, y)) and mask.any() and (~mask).any()


@pytest.mark.parametrize("spec", [GF2, GF5, FieldSpec.prime(257)], ids=str)
def test_a_shared_side_forms_its_powers_once_and_matches_the_broadcast(monkeypatch, spec):
    x, y = _structured_pairs(spec, 3, seed=spec.order)
    eliminate, batches = matrix._gauss_jordan, []

    def spy(spec_, mat):
        batches.append(len(mat))
        return eliminate(spec_, mat)

    monkeypatch.setattr(matrix, "_gauss_jordan", spy)
    sides = x[:1], x[18:19], np.eye(3, dtype=np.int64)[None]  # nonderogatory, derogatory and scalar
    assert [derogatory(ExactMatrix._from_raw(spec, side[0].tolist())) for side in sides] == [False, True, True]
    for one in sides:
        full = np.broadcast_to(one, y.shape)
        for pair, broadcast in (((one, y), (full, y)), ((y, one), (y, full))):
            batches.clear()
            got = matrix._shares_commuter(spec, 3, *pair)
            assert 1 in batches and np.array_equal(got, _lift_mask(spec, 3, *broadcast))
        assert matrix._shares_commuter(spec, 3, one, y[:0]).shape == (0,)


def test_shape_field_and_code_checks():
    wide = ExactMatrix(GF3, [[1, 2, 0]])
    square = ExactMatrix(GF3, [[1, 2], [0, 1]])
    for call in (lambda: vec(wide), lambda: encode_matrix(wide), lambda: min_poly(wide), lambda: is_scalar(wide),
                 lambda: unvec(GF3, 2, [1, 2, 3]), lambda: decode_matrix(GF3, 2, 3**4),
                 lambda: decode_matrix(GF3, 2, -1), lambda: square + wide):
        with pytest.raises(DimMismatch):
            call()
    with pytest.raises(FieldMismatch):
        encode_matrix(ExactMatrix(QQ, [[1]]))
    with pytest.raises(FieldMismatch):
        decode_matrix(QQ, 2, 0)
    with pytest.raises(TypeError):
        square @ 3


def test_negation():
    m = ExactMatrix(GF3, [[1, 2], [0, 1]])
    assert (-m).to_json()["rows"] == [[2, 1], [0, 2]]
    assert (m + -m).to_json()["rows"] == [[0, 0], [0, 0]]
    assert -ExactMatrix(QQ, [["1/2", -3]]) == ExactMatrix(QQ, [["-1/2", 3]])
