"""Distance-theoretic tests: lifts, rank criterion, derogatory classification,
idempotent witnesses, certificates, and the distance decision ladder."""

import functools
import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdist.errors import BadWitness, CapExceeded, DimMismatch, FieldMismatch
from commdist.field import FieldSpec
from commdist import commute as cm
from commdist import matrix
from commdist.graph import bfs_distance, decode_matrix
from commdist.verify import _invert, random_derogatory
from commdist.matrix import (
    ExactMatrix,
    _code_digits,
    _code_stack,
    _projective_reps,
    lift_rows_raw,
    min_poly,
    nullspace_raw,
    random_matrix,
    rank,
    rank_raw,
    unvec,
    vec,
)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
GF8 = FieldSpec.parse("gf(2^3):1,1,0,1")
GF9 = FieldSpec.parse("gf(9)")

A25 = ExactMatrix(QQ, [[1, 2, 0], [3, 4, 0], [0, 0, 5]])
B25 = ExactMatrix(QQ, [[1, 1, 0], [2, 2, 0], [0, 0, 3]])
C25 = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
A46 = ExactMatrix(QQ, [[1, -1, 0, 3], [-1, 1, 0, -1], [-2, 2, 0, -4], [0, 0, 0, -2]])
B46 = ExactMatrix(QQ, [[1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, -1, 1], [0, 0, -1, -1]])
A410 = ExactMatrix(QQ, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
B410 = ExactMatrix(QQ, [[0, -1, 0], [1, 0, 1], [0, 0, 0]])


def test_is_scalar():
    assert cm.is_scalar(ExactMatrix.identity(QQ, 4).scale(3))
    assert not cm.is_scalar(C25)
    assert cm.is_scalar(ExactMatrix.zeros(GF3, 3, 3))


def test_lift_of_scalar_is_zero():
    lam = ExactMatrix.identity(GF3, 3).scale(2)
    assert cm.lift_M(lam) == ExactMatrix.zeros(GF3, 9, 9)


def test_stack_dimensions():
    stacked = cm.stack_M(A25, B25)
    assert (stacked.nrows, stacked.ncols) == (18, 9)
    # the top block is the single lift of the first operand, the bottom the second's
    assert stacked.rows[:9] == cm.lift_M(A25).rows
    assert stacked.rows[9:] == cm.lift_M(B25).rows


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF9])
def test_lift_identity_property(spec):
    rng = random.Random(101)
    for _ in range(40):
        a = random_matrix(spec, 3, 3, rng)
        c = random_matrix(spec, 3, 3, rng)
        lhs = cm.lift_M(a) @ ExactMatrix._from_raw(spec, [[x] for x in vec(c)])
        assert lhs == ExactMatrix._from_raw(spec, [[x] for x in vec(a @ c - c @ a)])


def test_centralizer_of_scalar_is_everything():
    assert len(cm.centralizer_basis(ExactMatrix.identity(GF2, 3))) == 9


def test_centralizer_dimension_of_bundled_matrices():
    basis = cm.centralizer_basis(A25)
    assert len(basis) == 3
    # oracle: over GF(2) the centralizer size must be 2^dim, counted brute force
    a2 = A25.to_field(GF2)
    brute = sum(
        1
        for code in range(512)
        if (lambda m: m @ a2 == a2 @ m)(decode_matrix(GF2, 3, code))
    )
    assert brute == 2 ** len(cm.centralizer_basis(a2))
    # the 4x4 pair: 6-parameter and 4-parameter commuting templates
    assert len(cm.centralizer_basis(A46)) == 6
    assert len(cm.centralizer_basis(B46)) == 4


def test_centralizer_members_commute():
    for m in cm.centralizer_basis(A46):
        assert m @ A46 == A46 @ m


def test_dist_le_2_bundled_pair():
    assert cm.dist_le_2(A25, B25)
    assert not cm.commutes(A25, B25)


def test_dist_le_2_reflexive():
    rng = random.Random(5)
    for spec in (QQ, GF3):
        a = random_matrix(spec, 3, 3, rng)
        assert cm.dist_le_2(a, a)
    lam = ExactMatrix.identity(QQ, 2).scale(7)
    assert cm.dist_le_2(lam, lam)


def test_no_two_by_two_distance_two_pairs_exhaustive():
    # oracle: brute-force search for a common non-scalar commuter among all 16
    mats = [decode_matrix(GF2, 2, c) for c in range(16)]
    nonscalar = [m for m in mats if not cm.is_scalar(m)]
    for a in nonscalar:
        for b in nonscalar:
            if a @ b == b @ a:
                continue
            assert not cm.dist_le_2(a, b)
            brute = any(
                not cm.is_scalar(c) and c @ a == a @ c and c @ b == b @ c
                for c in mats
            )
            assert not brute


def test_dist_le_2_matches_stack_rank():
    rng = random.Random(31)
    for spec in (QQ, GF2, GF3, GF9):
        for _ in range(15):
            a = random_matrix(spec, 3, 3, rng)
            b = random_matrix(spec, 3, 3, rng)
            assert cm.dist_le_2(a, b) == (rank(cm.stack_M(a, b)) <= 7)


def test_stack_nullity_at_least_one():
    rng = random.Random(37)
    for spec in (QQ, GF2, GF9):
        for _ in range(10):
            a = random_matrix(spec, 3, 3, rng)
            b = random_matrix(spec, 3, 3, rng)
            assert len(nullspace_raw(spec, cm.stack_M(a, b).raw_rows())) >= 1


def test_derogatory_examples():
    assert cm.derogatory(A46)
    assert cm.derogatory(ExactMatrix.identity(QQ, 3))
    companion = ExactMatrix(GF2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # x^3 + x + 1
    assert not cm.derogatory(companion)


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF9])
def test_derogatory_agrees_with_min_poly_degree(spec):
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = random_matrix(spec, n, n, rng)
        assert cm.derogatory(a) == (len(min_poly(a)) - 1 < n)


@st.composite
def _qq_pairs(draw):
    """A rational pair, n = 2..6, of one of five shapes: generic, sparse, one
    side a conjugate of diag(l, l, m, ...), both sides so (the lift fallback),
    or both block diagonal in one basis (so at distance at most 2).  Heights up
    to 10^6 over the denominators of ladder-qq's large and skip pairs."""
    n, shape = draw(st.integers(2, 6)), draw(st.sampled_from(["generic", "sparse", "derog", "both", "shared"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    height, k = rng.choice([9, 10**6]), rng.randint(1, n - 1)

    def entry():
        return Fraction(rng.randint(-height, height), rng.choice([1, 3, 5, 7, 13]))

    def rand(zeros=0.0):
        return ExactMatrix(QQ, [[0 if rng.random() < zeros else entry() for _ in range(n)] for _ in range(n)])

    def invertible():
        p = rand()
        while rank(p) < n:
            p = rand()
        return p

    def conj(p, rows):
        return p @ ExactMatrix(QQ, rows) @ _invert(p)

    def derog():  # diag(lam, lam, ...) in a fresh random basis
        d = [lam, lam] + [entry() for _ in range(n - 2)]
        return conj(invertible(), [[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def block_diagonal(p):  # blocks k and n - k in the basis p
        return conj(p, [[entry() if (i < k) == (j < k) else 0 for j in range(n)] for i in range(n)])

    lam = entry()
    if shape == "generic":
        return rand(), rand()
    if shape == "sparse":
        return rand(0.7), rand(0.7)
    if shape == "derog":
        return derog(), rand()
    if shape == "both":
        return derog(), derog()
    p = invertible()
    return block_diagonal(p), block_diagonal(p)


def _lift_witness(a, b):
    """The first non-scalar joint null vector of the stacked lift, as a matrix."""
    null = nullspace_raw(QQ, lift_rows_raw(a) + lift_rows_raw(b))
    return next((m for m in (unvec(QQ, a.nrows, v) for v in null) if not cm.is_scalar(m)), None)


def _chain(m, k):
    """[I, m, ..., m^k] by a chain of products."""
    return list(itertools.accumulate([m] * k, operator.matmul, initial=ExactMatrix.identity(m.spec, m.nrows)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_qq_pairs())
def test_rational_commutator_route_matches_the_stacked_lift(pair):
    a, b = pair
    n = a.nrows
    lifted = rank_raw(QQ, lift_rows_raw(a) + lift_rows_raw(b)) <= n * n - 2
    assert cm.dist_le_2(a, b) == lifted
    assert cm.common_nonscalar_commuter(a, b) == (_lift_witness(a, b) if lifted else None)
    for m in (a, b):  # the Fraction powers the derogatory test used to rank
        assert cm.derogatory(m) == (rank_raw(QQ, [list(vec(x)) for x in _chain(m, n - 1)]) <= n - 1)


@pytest.mark.parametrize("name", ["derog4", "skip5"])
def test_one_rational_distance_builds_each_power_stack_once(monkeypatch, name):
    # a pc-scalar-side pair (derogatory A) and a pc-unknown pair: every consumer
    # of a side's powers reads one stack, and no matrix, mod-p copies included, gets two
    snap = json.loads((Path(__file__).parent / "data" / "qq_ladder.json").read_text())[name]
    a, b = ExactMatrix.from_json(snap["a"]), ExactMatrix.from_json(snap["b"])
    built, init = [], matrix._PowerStack.__init__
    monkeypatch.setattr(matrix._PowerStack, "__init__", lambda stack, m: built.append(m) or init(stack, m))
    matrix._power_stack.cache_clear()
    assert cm.distance(a, b).to_json() == snap["distance"]
    assert built.count(a) == built.count(b) == 1
    assert len(built) == len(set(built))


def _block_diagonal(x, y):
    k, n = x.nrows, x.nrows + y.nrows
    return ExactMatrix(QQ, [
        [x.rows[i][j] if i < k and j < k else y.rows[i - k][j - k] if i >= k and j >= k else 0 for j in range(n)]
        for i in range(n)
    ])


def _nonderogatory_side_pairs():
    """Seeded rational pairs at n = 2..6 with a nonderogatory side: generic; b in Q[a], as it is
    and perturbed, sides swapped; a derogatory side beside a generic one; and a pair P (R1 + R2) P^-1,
    P (S1 + sI) P^-1 with 2 x 2 blocks R1, S1 (1 x 1 at n = 2), whose joint commutant is the scalars plus
    Q[R2] on the second block, so its commutator kernel has dimension n - 2 and the pair does not commute."""
    rng = random.Random(29)

    def rand(m):
        return random_matrix(QQ, m, m, rng)

    for n, _ in itertools.product(range(2, 7), range(2)):
        a, b = rand(n), rand(n)
        poly = cm.poly_eval_no_const(a, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)])
        p = rand(n)
        while rank(p) < n:
            p = rand(n)
        lam, k = Fraction(rng.randint(-3, 3)), min(2, n - 1)
        derog = p @ ExactMatrix.diag(QQ, [lam, lam] + [Fraction(i) for i in range(n - 2)]) @ _invert(p)
        yield a, b
        yield a, poly
        yield poly + ExactMatrix.diag(QQ, [1] + [0] * (n - 1)), a
        yield derog, b
        yield (
            p @ _block_diagonal(rand(k), rand(n - k)) @ _invert(p),
            p @ _block_diagonal(rand(k), ExactMatrix.identity(QQ, n - k).scale(lam)) @ _invert(p),
        )


def _lift_nullspace(*mats):
    return nullspace_raw(mats[0].spec, [row for m in mats for row in lift_rows_raw(m)])


def _commutant_checked(*mats):
    """`matrix._commutant`, asserted to be the stacked lifts' nullspace list for list and entry type for entry type."""
    got, want = matrix._commutant(*mats), _lift_nullspace(*mats)
    assert got == want
    assert [type(v) for v in got] == [list] * len(got)
    assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]
    return got


def _derogatory_pairs():
    """Seeded rational pairs with two derogatory sides at n = 3..5, conjugates of diag(l, l, ...) in one basis
    (so they commute) and in two, and one pair of fixed diagonal forms."""
    rng = random.Random(30)

    def derog(p):
        n = p.nrows
        d = [Fraction(rng.randint(-3, 3))] * 2 + [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 2)]
        return p @ ExactMatrix.diag(QQ, d) @ _invert(p)

    for n in range(3, 6):
        p, r = (random_matrix(QQ, n, n, rng) for _ in range(2))
        assert rank(p) == rank(r) == n
        yield derog(p), derog(p)
        yield derog(p), derog(r)
    yield C25, ExactMatrix.diag(QQ, [1, 2, 2])


def test_commutant_is_the_stacked_lift_nullspace():
    # the commutator kernel of a nonderogatory member gives the lifts' own basis, vector for vector,
    # for one matrix and for a pair; two derogatory sides and the finite fields take the lifts
    dims, apart = [], []  # kernel dimensions, of every pair and of the non-commuting ones
    for a, b in _nonderogatory_side_pairs():
        _commutant_checked(a)
        _commutant_checked(b)
        got = _commutant_checked(a, b)
        assert all(type(x) is Fraction for v in got for x in v)
        assert cm.dist_le_2(a, b) == (len(got) > 1)
        dims.append(len(got) - 1)
        if not cm.commutes(a, b):
            apart.append(len(got) - 1)
    assert len(dims) == 50 and dims.count(0) >= 10 and sum(d >= 2 for d in apart) >= 5
    derogs = list(_derogatory_pairs())
    assert all(cm.derogatory(a) and cm.derogatory(b) for a, b in derogs)
    assert {len(_commutant_checked(a, b)) > 1 for a, b in derogs} == {True, False}
    one = ExactMatrix(QQ, [[Fraction(1, 3)]])
    _commutant_checked(one)
    _commutant_checked(one, one)
    rng = random.Random(31)
    for spec, n in itertools.product([GF2, GF9, FieldSpec.prime(257)], range(1, 5)):
        a, b = random_matrix(spec, n, n, rng), random_matrix(spec, n, n, rng)
        d = random_derogatory(spec, n, rng) if n > 1 else a
        for mats in [(a,), (d,), (a, b), (d, b), (a, a)]:
            _commutant_checked(*mats)


# 2^31 - 1, the largest prime, takes the commutator grid's products past the int64 edge
FF_BACKENDS = [GF2, GF3, FieldSpec.prime(257), GF9, FieldSpec.parse("gf(17^2):14,0,1"), FieldSpec.prime(2**31 - 1)]


def _ff_pair(spec, n, shape, rng):
    """A seeded pair over a finite field: generic; a derogatory second or first side; or both block
    diagonal in one random basis P, blocks of sizes k and n - k, so both commute with a rank-k projection."""
    a, b = random_matrix(spec, n, n, rng), random_matrix(spec, n, n, rng)
    if shape in ("derogatory", "swapped"):
        a, b = (a, random_derogatory(spec, n, rng)) if shape == "derogatory" else (random_derogatory(spec, n, rng), b)
    elif shape == "shared":
        p, k = random_matrix(spec, n, n, rng), rng.randint(1, n - 1)
        while rank(p) < n:
            p = random_matrix(spec, n, n, rng)
        a, b = (
            p @ unvec(spec, n, [x if (i < k) == (j < k) else 0 for i in range(n) for j, x in enumerate(m.rows[i])])
            @ _invert(p)
            for m in (a, b)
        )
    return a, b


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(FF_BACKENDS), st.integers(2, 4), st.sampled_from(["generic", "derogatory", "swapped", "shared"]),
       st.integers(0, 2**32))
def test_finite_field_commutant_is_the_stacked_lift_nullspace(spec, n, shape, seed):
    # the commutator filter answers [vec(I)] only where the lift would, with the lift's entry types
    a, b = _ff_pair(spec, n, shape, random.Random(seed))
    got = _commutant_checked(a, b)
    assert all(type(x) is int for v in got for x in v)
    assert _commutant_checked(b, a) == got
    if shape == "shared":
        assert len(got) > 1


def test_the_commutator_filter_decides_without_a_lift_where_it_can(monkeypatch):
    # with a nonderogatory side X the filter is exact: [X^k, Y] are dependent iff some non-scalar
    # p(X) commutes with Y.  So such a pair takes the lift only when it shares a non-scalar commuter,
    # and only two derogatory sides take it for the scalars
    built, decided = [], []
    monkeypatch.setattr(matrix, "lift_rows_raw", lambda m: built.append(m) or lift_rows_raw(m))
    rng = random.Random(32)
    for spec, n, shape in itertools.product(FF_BACKENDS, (3, 4), ("generic", "derogatory", "swapped", "shared")):
        a, b = _ff_pair(spec, n, shape, rng)
        want = _lift_nullspace(a, b)
        assert matrix._commutant(a, b) == want
        cyclic = not (cm.derogatory(a) and cm.derogatory(b))
        assert (built == []) == (len(want) == 1 and cyclic), (spec, n, shape)
        decided += [shape] if built == [] else []
        built.clear()
    assert decided.count("generic") == 2 * len(FF_BACKENDS) and decided.count("shared") == 0
    assert decided.count("derogatory") >= 5 and decided.count("swapped") >= 5


def test_comm_grid_holds_the_commutators_of_powers_read_only():
    rng = random.Random(33)
    for spec, n in itertools.product(FF_BACKENDS, (2, 3, 4)):
        a, b = random_matrix(spec, n, n, rng), random_matrix(spec, n, n, rng)
        grid = matrix._comm_grid(a, b)
        assert grid.shape == (n - 1, n - 1, n, n) and not grid.flags.writeable
        a_pows, b_pows = _chain(a, n - 1)[1:], _chain(b, n - 1)[1:]
        assert [[x @ y - y @ x for y in b_pows] for x in a_pows] == [
            [ExactMatrix._from_raw(spec, c.tolist()) for c in row] for row in grid
        ]
        assert matrix._comm_grid(a, b) is grid


def test_a_finite_field_pc_none_distance_forms_one_grid_and_no_lift(monkeypatch):
    # the distance-2 filter and the certificate scan share one commutator grid, and a pair with
    # no certificate is settled without a lift or a nullspace
    a = ExactMatrix(GF3, [[1, 1, 0, 0], [1, 2, 2, 1], [2, 1, 1, 2], [2, 0, 0, 2]])
    b = ExactMatrix(GF3, [[0, 1, 0, 0], [2, 1, 0, 1], [2, 2, 2, 2], [0, 0, 2, 0]])
    calls = []
    monkeypatch.setattr(matrix, "lift_rows_raw", lambda m: calls.append("lift") or lift_rows_raw(m))
    for module in (matrix, cm):
        monkeypatch.setattr(module, "nullspace_raw", lambda *args: calls.append("nullspace") or nullspace_raw(*args))
    matrix._comm_grid.cache_clear()
    assert cm.distance(a, b).decided_by == "pc-none"
    info = matrix._comm_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1) and calls == []


def test_a_rational_pair_with_a_nonderogatory_side_builds_no_lift(monkeypatch):
    pairs = list(_nonderogatory_side_pairs())
    wants = [_lift_witness(a, b) for a, b in pairs]
    sides = [a for a, _ in pairs if not cm.derogatory(a)]
    bases = [[unvec(QQ, a.nrows, v) for v in _lift_nullspace(a)] for a in sides]
    built = []
    monkeypatch.setattr(matrix, "lift_rows_raw", lambda m: built.append(m) or lift_rows_raw(m))
    assert [cm.common_nonscalar_commuter(a, b) for a, b in pairs] == wants
    assert [cm.centralizer_basis(a) for a in sides] == bases
    assert built == []
    assert None in wants and wants.count(None) < len(wants) and len(sides) >= 20


def test_rational_rank_criterion_skips_the_lift_unless_both_sides_are_derogatory(monkeypatch):
    built = []
    monkeypatch.setattr(matrix, "lift_rows_raw", lambda m: built.append(m) or lift_rows_raw(m))
    a, b = random_matrix(QQ, 4, 4, random.Random(3)), random_matrix(QQ, 4, 4, random.Random(4))
    assert not cm.dist_le_2(a, b) and cm.common_nonscalar_commuter(a, b) is None
    assert not cm.dist_le_2(A46, b) and built == []  # A46 is derogatory, b is not
    d2 = ExactMatrix.diag(QQ, [1, 2, 2])
    assert cm.dist_le_2(C25, d2) and built == [C25, d2]  # both derogatory
    assert cm.dist_le_2(A25, B25) and cm.common_nonscalar_commuter(A25, B25) is not None
    # a 1 x 1 pair has no non-scalar commuter, and the lift says so
    one = ExactMatrix(QQ, [[Fraction(1, 3)]])
    assert cm.common_nonscalar_commuter(one, one) is None


def test_rational_reports_match_their_snapshots():
    # taken before the rank criterion over QQ moved off the stacked lift: an
    # n = 5 skip pair (pc-unknown), an n = 4 distance-2 pair with its witness
    # and an n = 4 pair with a derogatory side, all from ladder-qq seed 1
    snaps = json.loads((Path(__file__).parent / "data" / "qq_ladder.json").read_text())
    assert [s["distance"]["decided_by"] for s in snaps.values()] == ["pc-unknown", "rank-criterion", "pc-scalar-side"]
    for snap in snaps.values():
        a, b = ExactMatrix.from_json(snap["a"]), ExactMatrix.from_json(snap["b"])
        assert cm.distance(a, b).to_json() == snap["distance"]
        assert [cm.derogatory(a), cm.derogatory(b)] == snap["derogatory"]
    assert [True, False] in [s["derogatory"] for s in snaps.values()]


def test_zi_witness_validation():
    p = ExactMatrix(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert cm.zi_membership(A25, B25, 1, witness=p) == p
    with pytest.raises(BadWitness) as err:
        cm.zi_membership(A25, B25, 1, witness=ExactMatrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert err.value.condition == "idempotent"
    with pytest.raises(BadWitness) as err:
        cm.zi_membership(A25, B25, 1, witness=C25)  # idempotent of rank 2, not 1
    assert err.value.condition == "rank"
    bad = ExactMatrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(BadWitness) as err:
        cm.zi_membership(A25, B25, 1, witness=bad)
    assert err.value.condition == "commutes-with-first"


def test_zi_witness_errors_for_field_shape_and_second_operand():
    a = ExactMatrix.diag(QQ, [1, 2, 3])
    b = ExactMatrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e11 = ExactMatrix.diag(QQ, [1, 0, 0])  # commutes with a, not with b
    with pytest.raises(BadWitness) as err:
        cm.zi_membership(a, b, 1, witness=e11)
    assert err.value.condition == "commutes-with-second"
    with pytest.raises(BadWitness) as err:
        cm.zi_membership(a, b, 1, witness=ExactMatrix.diag(QQ, [1, 0]))
    assert err.value.condition == "shape"
    with pytest.raises(FieldMismatch):
        cm.zi_membership(a, b, 1, witness=ExactMatrix.diag(GF3, [1, 0, 0]))


def test_zi_enumeration_matches_independent_oracle():
    rng = random.Random(47)
    ident = ExactMatrix.identity(GF2, 3)
    for trial in range(12):
        a = ident.scale(1) if trial % 4 == 0 else random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        got = cm.zi_membership(a, b, 1)
        # oracle: independent scan of all 512 matrices in code order
        want = None
        for code in range(512):
            p = decode_matrix(GF2, 3, code)
            if (
                p @ p == p
                and rank(p) == 1
                and p @ a == a @ p
                and p @ b == b @ p
            ):
                want = p
                break
        assert got == want


@pytest.mark.parametrize("spec", [GF4, GF8, GF9], ids=str)
def test_idempotent_pool_over_extension_fields(spec):
    want = []
    for code in range(spec.order**4):
        m = decode_matrix(spec, 2, code)
        if m @ m == m:
            want.append((code, rank(m)))
    assert cm.idempotent_pool(spec, 2) == want


@pytest.mark.parametrize(
    "spec,n", [(GF2, 2), (GF2, 3), (GF2, 4), (GF3, 3), (GF4, 2), (GF9, 2)], ids=str
)
def test_idempotent_pool_ranks_match_the_per_matrix_rank(spec, n):
    # the pool builds each idempotent from the RREF of its row space, so it knows the rank
    pool = cm.idempotent_pool(spec, n)
    assert [(code, rank(decode_matrix(spec, n, code))) for code, _ in pool] == pool
    assert {r for _, r in pool} == set(range(n + 1))


@pytest.mark.parametrize(
    "spec,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF2, 4), (GF3, 3), (FieldSpec.prime(5), 2), (FieldSpec.prime(7), 2)],
    ids=str,
)
def test_idempotent_pool_matches_a_squaring_oracle(spec, n):
    # every code of Mat_n squared by integer products mod p, with no library kernel
    codes = np.arange(spec.order ** (n * n), dtype=np.int64)
    mats = (codes[:, None] // spec.order ** np.arange(n * n) % spec.order).reshape(-1, n, n)
    hits = codes[np.all(mats @ mats % spec.p == mats, axis=(1, 2))].tolist()
    assert cm.idempotent_pool(spec, n) == [(code, rank(decode_matrix(spec, n, code))) for code in hits]


@pytest.mark.parametrize("spec", [GF2, GF4], ids=str)
def test_pool_commutes_takes_an_empty_batch(spec):
    pool = _code_stack(spec, 2, [code for code, r in cm.idempotent_pool(spec, 2) if r == 1])
    mask = cm._pool_commutes(spec, pool, np.zeros((0, 2, 2), np.int64))
    assert mask.shape == (0, len(pool)) and mask.dtype == bool


def test_idempotent_pool_of_one_by_one_matrices():
    for spec in (FieldSpec.prime(5), FieldSpec.parse("gf(31^2)")):
        assert cm.idempotent_pool(spec, 1) == [(0, 0), (1, 1)]


def test_zi_block_diagonal_pair_has_rank_two_witness():
    a = ExactMatrix(GF2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
    b = ExactMatrix(GF2, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    wit = cm.zi_membership(a, b, 2)
    assert wit is not None and rank(wit) == 2 and wit @ wit == wit
    assert cm.dist_le_2(a, b)


def test_zi_cap_and_range_errors():
    g7 = FieldSpec.prime(7)
    a = ExactMatrix(g7, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(CapExceeded):
        cm.zi_membership(a, a, 1)  # 7^9 codes exceed 2^24
    with pytest.raises(DimMismatch):
        cm.zi_membership(A25, B25, 2)  # rank above floor(n/2)


def test_self_pair_lies_in_z1_over_gf2():
    a = ExactMatrix(GF2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    wit = cm.zi_membership(a, a, 1)
    assert wit is not None and cm.dist_le_2(a, a)


# ---------------------------------------------------------------------------
# certificates


def test_pc_search_self_pair_returns_x_x():
    rng = random.Random(53)
    m = random_matrix(GF3, 3, 3, rng)
    while cm.is_scalar(m):
        m = random_matrix(GF3, 3, 3, rng)
    res = cm.pc_search(m, m)
    assert res.status == "certificate"
    assert [c.raw for c in res.certificate.cs] == [1, 0]
    assert [d.raw for d in res.certificate.ds] == [1, 0]


def test_pc_derogatory_certificate_over_gf3():
    a3, b3 = A46.to_field(GF3), B46.to_field(GF3)
    res = cm.pc_search(a3, b3)
    assert res.status == "certificate"
    assert cm.pc_verify(a3, b3, res.certificate)
    # the annihilating-polynomial route: p = normalized minimal polynomial, q = x
    ops = GF3.ops()
    coeffs = [c.raw for c in min_poly(a3)]
    vec = cm._normalize_vector(GF3, coeffs[1:] + [ops.zero] * (4 - len(coeffs)))
    cert = cm.PcCertificate(
        cm._elems(GF3, vec),
        cm._elems(GF3, [1, 0, 0]),
        True,
        False,
    )
    assert cm.pc_verify(a3, b3, cert)


def _first_hit_by_double_loop(a, b):
    """The certificate scan as a plain double loop: the first projective pair
    (c, d) in code order with [p(A), q(B)] = 0, or None."""
    spec, n = a.spec, a.nrows
    reps = _code_digits(spec.order, _projective_reps(spec, n - 1), n - 1).tolist()
    for cs in reps:
        pa = cm.poly_eval_no_const(a, cs)
        for ds in reps:
            qb = cm.poly_eval_no_const(b, ds)
            if pa @ qb == qb @ pa:
                elems = [tuple(spec.elem_from_code(x) for x in v) for v in (cs, ds)]
                return cm.PcCertificate(*elems, cm.is_scalar(pa), cm.is_scalar(qb))
    return None


# GF(11) is the last modulus of the search over the rationals
PC_GRID = [(GF2, 3), (GF3, 3), (GF4, 3), (FieldSpec.prime(5), 3), (GF2, 4), (GF3, 4), (GF9, 3), (GF8, 3),
           (FieldSpec.prime(11), 3)]


def _check_first_hits(spec, n):
    rng = random.Random(17 * n + spec.order)
    statuses = set()
    for t in range(9):
        a = random_derogatory(spec, n, rng) if t % 3 == 1 else random_matrix(spec, n, n, rng)
        b = a @ a + a if t % 3 == 2 else random_matrix(spec, n, n, rng)
        res = cm.pc_search(a, b)
        assert res.certificate == _first_hit_by_double_loop(a, b)
        statuses.add(res.status)
    assert statuses == {"certificate", "none"}


@pytest.mark.parametrize("spec, n", PC_GRID)
def test_pc_search_returns_the_first_hit_of_the_double_loop(spec, n):
    _check_first_hits(spec, n)


@pytest.mark.parametrize("spec, n", PC_GRID)
def test_pc_search_first_hit_survives_one_class_blocks(spec, n, monkeypatch):
    # one class per block: the first singular class lies in a later block
    monkeypatch.setattr(matrix, "_BATCH_CELLS", 1)
    _check_first_hits(spec, n)


def test_pc_search_past_the_table_fields():
    # q > 256 ranks the classes in int64 arithmetic modulo 257; A^2 = 0 gives
    # an early hit at c = (0, 1), whose p(A) is scalar
    gf257 = FieldSpec.prime(257)
    a = ExactMatrix(gf257, [[0, 5, 1], [0, 0, 0], [0, 0, 0]])
    b = random_matrix(gf257, 3, 3, random.Random(257))
    res = cm.pc_search(a, b)
    assert res.status == "certificate" and res.certificate == _first_hit_by_double_loop(a, b)
    assert [c.raw for c in res.certificate.cs] == [0, 1] and res.certificate.pa_scalar


def _first_hit_by_class_ranks(a, b):
    """The certificate scan one class at a time: L(c) from exact products,
    column j being sum_i c_i vec(A^i B^j - B^j A^i) by scaling and adding
    matrices, ranked by rank_raw; the first singular L(c) gives d, its first
    nullspace vector normalized."""
    spec, n = a.spec, a.nrows
    a_pows, b_pows = _chain(a, n - 1)[1:], _chain(b, n - 1)[1:]
    terms = [[ai @ bj - bj @ ai for ai in a_pows] for bj in b_pows]  # terms[j][i]
    for cs in _code_digits(spec.order, _projective_reps(spec, n - 1), n - 1).tolist():
        elems = [spec.elem_from_code(c) for c in cs]
        columns = [vec(functools.reduce(operator.add, map(ExactMatrix.scale, column, elems))) for column in terms]
        rows = [list(r) for r in zip(*columns)]
        if rank_raw(spec, rows) < n - 1:
            return cm._certificate(a, b, cs, cm._normalize_vector(spec, nullspace_raw(spec, rows)[0]))
    return None


def test_pc_search_over_gf17_squared_matches_both_references():
    # digit sums and exp/log products past the tables: early hits against the
    # double loop, every status against the per-class ranks
    spec = FieldSpec.parse("gf(17^2):14,0,1")
    rng = random.Random(289)
    a = ExactMatrix(spec, [[0, 5, 1], [0, 0, 0], [0, 0, 0]])  # A^2 = 0: the hit is c = (0, 1)
    b = random_matrix(spec, 3, 3, rng)
    for x, y in [(a, b), (b, b @ b + b)]:
        res = cm.pc_search(x, y)
        assert res.status == "certificate" and res.certificate == _first_hit_by_double_loop(x, y)
    statuses = set()
    for t in range(4):
        x = random_derogatory(spec, 3, rng) if t % 2 else random_matrix(spec, 3, 3, rng)
        y = random_matrix(spec, 3, 3, rng)
        res = cm.pc_search(x, y)
        assert res.certificate == _first_hit_by_class_ranks(x, y)
        statuses.add(res.status)
    assert statuses == {"certificate", "none"}


def test_pc_search_at_the_class_cap_and_the_int64_edge():
    # GF(8191) is the largest prime whose 3x3 scan fits _PC_CLASS_CAP (q + 1 = 8192
    # classes), so its int64 products are the largest a certificate scan forms
    spec = FieldSpec.prime(8191)
    assert len(matrix._projective_coeffs(spec, 2, matrix._PC_CLASS_CAP)) == matrix._PC_CLASS_CAP
    rng = random.Random(8191)
    statuses = set()
    for a in (random_matrix(spec, 3, 3, rng), random_derogatory(spec, 3, rng)):
        b = random_matrix(spec, 3, 3, rng)
        res = cm.pc_search(a, b)
        assert res.certificate == _first_hit_by_class_ranks(a, b)
        statuses.add(res.status)
    assert statuses == {"certificate", "none"}


def test_pc_search_takes_one_nullspace_only_for_a_certificate(monkeypatch):
    # the scan ranks every class of a block at once; only the first class
    # with a free column gets a nullspace
    calls = []

    def counted(spec, rows):
        calls.append(len(rows))
        return nullspace_raw(spec, rows)

    monkeypatch.setattr(cm, "nullspace_raw", counted)
    a = ExactMatrix(GF9, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    b = ExactMatrix(GF9, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert cm.pc_search(a, b).status == "none" and calls == []
    rng = random.Random(9)
    a2 = random_derogatory(GF9, 3, rng)
    res = cm.pc_search(a2, random_matrix(GF9, 3, 3, rng))
    assert res.status == "certificate" and [c.raw for c in res.certificate.cs] != [1, 0]
    assert calls == [9]


def test_a_reconstructed_certificate_is_the_only_one_built(monkeypatch):
    # the scans modulo 3, 5, 7 and 11 hand back raw residue vectors, so of a
    # corpus pair certified from residues only the rational certificate gets
    # its flags evaluated
    golden = [json.loads(line) for line in (Path(__file__).parent / "data" / "golden" / "qq.jsonl").open()]
    mats = {line["input"]: ExactMatrix.from_json(line["matrix"]) for line in golden if "input" in line}
    line = next(x for x in golden if x.get("fn") == "pc_search" and x["out"].get("note") == "reconstructed from residues")
    built, certificate = [], cm._certificate

    def spy(*args):
        built.append(certificate(*args))
        return built[-1]

    monkeypatch.setattr(cm, "_certificate", spy)
    res = cm.pc_search(*(mats[name] for name in line["args"]))
    assert res.note == "reconstructed from residues" and res.certificate.to_json() == line["out"]["certificate"]
    assert built == [res.certificate] and built[0].cs[0].spec == QQ


def test_pc_search_memory_stays_bounded_over_the_rationals():
    # denominators 3, 5 and 7 leave only the scan modulo 11: 1,464 classes at n = 5
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]
    rows[0][0], rows[0][1], rows[1][0] = Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7)
    a, b = ExactMatrix(QQ, rows), random_matrix(QQ, 5, 5, rng)
    tracemalloc.start()
    try:
        res = cm.pc_search(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.note.startswith("no certificate modulo 11")
    assert peak <= 1.5e6


def test_projective_coeffs_are_memoized_read_only_and_capped_on_every_call():
    gf11 = FieldSpec.prime(11)
    first = matrix._projective_coeffs(gf11, 3, 1 << 13)
    assert matrix._projective_coeffs(gf11, 3, 1 << 13) is first and not first.flags.writeable
    for _ in range(2):  # 16,105 classes; lru_cache keeps no exception
        with pytest.raises(CapExceeded):
            matrix._projective_coeffs(gf11, 5, 1 << 13)


def test_pc_search_none_is_a_proof_over_finite_fields():
    a3, b3 = A410.to_field(GF3), B410.to_field(GF3)
    res = cm.pc_search(a3, b3)
    assert res.status == "none"
    # both are non-derogatory mod 3, so "none" matches distance >= 4 there
    assert not cm.derogatory(a3) and not cm.derogatory(b3)


def test_pc_search_results_always_verify():
    rng = random.Random(59)
    found = 0
    for _ in range(40):
        a = random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        res = cm.pc_search(a, b)
        if res.certificate is not None:
            found += 1
            assert cm.pc_verify(a, b, res.certificate)
    assert found > 0


def test_pc_verify_against_direct_evaluation():
    rng = random.Random(61)
    ops = GF3.ops()
    for _ in range(60):
        a = random_matrix(GF3, 3, 3, rng)
        b = random_matrix(GF3, 3, 3, rng)
        raw = [rng.randrange(3) for _ in range(2)]
        vec = cm._normalize_vector(GF3, raw)
        if vec is None:
            continue
        dvec = cm._normalize_vector(GF3, [rng.randrange(3) for _ in range(2)])
        if dvec is None:
            continue
        pa = cm.poly_eval_no_const(a, cm._elems(GF3, vec))
        qb = cm.poly_eval_no_const(b, cm._elems(GF3, dvec))
        cert = cm.PcCertificate(
            cm._elems(GF3, vec), cm._elems(GF3, dvec), cm.is_scalar(pa), cm.is_scalar(qb)
        )
        assert cm.pc_verify(a, b, cert) == (pa @ qb == qb @ pa)


def test_pc_verify_rejects_zero_and_unnormalized_vectors():
    zero2 = cm._elems(GF3, [0, 0])
    x2 = cm._elems(GF3, [1, 0])
    assert not cm.pc_verify(A410.to_field(GF3), B410.to_field(GF3),
                            cm.PcCertificate(zero2, x2, False, False))
    unnorm = cm._elems(GF3, [2, 0])  # first nonzero coordinate must be one
    assert not cm.pc_verify(A410.to_field(GF3), B410.to_field(GF3),
                            cm.PcCertificate(unnorm, x2, False, False))


def test_pc_verify_checks_scalar_flags():
    m = ExactMatrix(GF3, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    res = cm.pc_search(m, m)
    cert = res.certificate
    lied = cm.PcCertificate(cert.cs, cert.ds, not cert.pa_scalar, cert.qb_scalar)
    assert not cm.pc_verify(m, m, lied)


def test_pc_needs_n_at_least_3():
    with pytest.raises(DimMismatch):
        cm.pc_search(ExactMatrix(GF2, [[0, 1], [0, 0]]), ExactMatrix(GF2, [[0, 0], [1, 0]]))


def test_pc_rational_reconstruction_of_self_pair():
    m = ExactMatrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert not cm.derogatory(m)
    res = cm.pc_search(m, m)
    assert res.status == "certificate" and res.note == "reconstructed from residues"
    assert cm.pc_verify(m, m, res.certificate)


def test_pc_rational_unknown_when_a_prime_blocks():
    res = cm.pc_search(A410, B410)
    assert res.status == "unknown"
    assert "modulo 3" in res.note


def test_poly_eval_uses_field_coefficients():
    # regression: extension-field coefficient codes must never re-embed
    a = A410.to_field(GF9)
    i_elem = GF9.elem([0, 1])
    p = cm.poly_eval_no_const(a, [GF9.zero(), i_elem])  # i * A^2
    expected = (a @ a).scale(i_elem)
    assert p == expected
    assert cm.poly_eval_no_const(a, []) == ExactMatrix.zeros(GF9, 3, 3)


@pytest.mark.parametrize(
    "spec", [QQ, GF2, GF3, GF9, GF8, FieldSpec.prime(257), FieldSpec.parse("gf(17^2):14,0,1")], ids=str
)
def test_poly_eval_matches_horner(spec):
    # one product with the stacked powers against A(c_1 I + A(c_2 I + ...)) by `@` and `+`
    rng = random.Random(41)
    for n in range(2, 7):
        eye = ExactMatrix.identity(spec, n)
        for k in range(n):
            a = random_matrix(spec, n, n, rng)
            cs = [c[0, 0] for c in (random_matrix(spec, 1, 1, rng) for _ in range(k))]
            horner = ExactMatrix.zeros(spec, n, n)
            for c in reversed(cs):
                horner = a @ (horner + eye.scale(c))
            assert cm.poly_eval_no_const(a, cs) == horner
            assert cm.poly_eval_no_const(a, [c.raw for c in cs]) == horner


def test_certificate_json_round_trip():
    res = cm.pc_search(A46.to_field(GF9), B46.to_field(GF9))
    cert = res.certificate
    again = cm.PcCertificate.from_json(GF9, cert.to_json())
    assert again == cert


# ---------------------------------------------------------------------------
# the distance ladder


def test_distance_conventions():
    lam = ExactMatrix.identity(QQ, 3).scale(4)
    assert cm.distance(lam, lam).value == 0
    assert cm.distance(lam, A25).value == 1
    assert cm.distance(A25, lam).value == 1
    assert cm.distance(A25, A25).value == 0
    r = cm.distance(A25, C25)
    assert r.value == 1 and r.decided_by == "commuting"


def test_distance_two_with_witness():
    r = cm.distance(A25, B25)
    assert (r.kind, r.value, r.decided_by) == ("exact", 2, "rank-criterion")
    assert cm.verify_chain(A25, B25, r.witness)
    assert not cm.is_scalar(r.witness[0])


def test_distance_two_by_two_infinite():
    e12 = ExactMatrix(QQ, [[0, 1], [0, 0]])
    e21 = ExactMatrix(QQ, [[0, 0], [1, 0]])
    assert cm.distance(e12, e21).kind == "infinite"
    g2pair = cm.distance(e12.to_field(GF2), e21.to_field(GF2))
    assert g2pair.kind == "infinite"


def test_distance_agrees_with_bfs_over_small_field():
    rng = random.Random(67)
    for _ in range(40):
        a = random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(a) or cm.is_scalar(b) or a == b:
            continue
        r = cm.distance(a, b)
        d = 1 if a @ b == b @ a else bfs_distance(a, b)
        if d == math.inf:
            assert r.kind == "infinite"
        else:
            assert r.kind == "exact" and r.value == d
        if r.witness:
            assert cm.verify_chain(a, b, r.witness)


def test_distance_three_by_certificate_chain_over_gf9():
    a9, b9 = A410.to_field(GF9), B410.to_field(GF9)
    r = cm.distance(a9, b9)
    assert (r.kind, r.value, r.decided_by) == ("exact", 3, "pc-chain")
    assert cm.verify_chain(a9, b9, r.witness)
    assert r.certificate is not None and not r.certificate.pa_scalar


def test_distance_bounded_over_rationals():
    r = cm.distance(A410, B410)
    assert r.kind == "bounded" and (r.lower, r.upper) == (3, math.inf)
    assert r.decided_by == "pc-unknown"
    r46 = cm.distance(A46, B46)
    assert r46.kind == "bounded" and r46.decided_by == "pc-scalar-side"
    assert r46.certificate is not None and r46.certificate.pa_scalar


def test_rational_search_skips_primes_beyond_the_class_cap():
    # at n = 6 the scan modulo 11 has 16105 projective classes, above 2^13
    rng = random.Random(5)
    a = random_matrix(QQ, 6, 6, rng)
    b = random_matrix(QQ, 6, 6, rng)
    r = cm.distance(a, b)
    assert r.kind == "bounded" and (r.lower, r.upper) == (3, math.inf)
    assert r.decided_by == "pc-unknown"
    assert "11" in r.note and "2^13" in r.note
    # over a finite field the cap still bounds the answer
    gf11 = FieldSpec.prime(11)
    r11 = cm.distance(random_matrix(gf11, 6, 6, rng), random_matrix(gf11, 6, 6, rng))
    assert (r11.kind, r11.lower, r11.decided_by) == ("bounded", 3, "pc-cap-exceeded")
    assert "exceed" in r11.note


def test_distance_result_json():
    r = cm.distance(A25, B25)
    js = r.to_json()
    assert js["kind"] == "exact" and js["value"] == 2 and "witness" in js
    rb = cm.distance(A410, B410).to_json()
    assert rb["upper"] == "inf" and rb["lower"] == 3


def test_verify_chain_rejects_scalar_interior():
    lam = ExactMatrix.identity(QQ, 3).scale(2)
    assert not cm.verify_chain(A25, B25, [lam])
    assert cm.verify_chain(A25, B25, [C25])


def test_verify_chain_rejects_a_link_that_does_not_commute():
    assert not cm.commutes(A25, B25)
    assert not cm.verify_chain(A25, C25, [B25])


def test_pc_verify_rejects_a_certificate_of_the_wrong_length():
    cert = cm._certificate(A410.to_field(GF9), B410.to_field(GF9), [1], [1])
    with pytest.raises(DimMismatch, match="certificate length must be 2"):
        cm.pc_verify(A410.to_field(GF9), B410.to_field(GF9), cert)


def test_one_by_one_and_mixed_sizes_are_dimension_errors():
    one = ExactMatrix(QQ, [[Fraction(1, 3)]])
    with pytest.raises(DimMismatch, match="rank criterion needs n >= 2"):
        cm.dist_le_2(one, one)
    with pytest.raises(DimMismatch, match="derogatory needs n >= 2"):
        cm.derogatory(one)
    with pytest.raises(DimMismatch, match="sizes 2 and 3 differ"):
        cm.commutes(ExactMatrix.identity(QQ, 2), A25)


def test_size_cap():
    big = ExactMatrix.identity(QQ, 9)
    with pytest.raises(CapExceeded):
        cm.distance(big, big)
