"""Graph-automorphism invariance as an oracle past the BFS cap.

Conjugation by an invertible P, the transpose, and A -> alpha A + beta I with
alpha != 0 on either side map the commuting graph onto itself and keep
centralizer dimensions, so the answer of `distance` (kind, value and bounds),
`dist_le_2`, `derogatory` and the size of the centralizer basis must not
change under them.  Answers are compared, not notes: over QQ which prime a
`pc-unknown` note names depends on the denominators of the pair.  Every field
below is past the BFS cap (q^(n^2) above 2^24), where no exhaustive search
checks `distance`.  Swapping the arguments is an automorphism too, but today's
certificate scan keeps the first hit in argument order, so one pinned pair
still gets two answers.
"""

import random
from fractions import Fraction

import pytest

from commdist import commute as cm
from commdist.field import FieldSpec
from commdist.matrix import SPACE_CAP, ExactMatrix, random_matrix, rank_raw
from commdist.verify import _invert

CASES = [
    ("gf(7)", 3), ("gf(7)", 4), ("gf(3)", 4), ("gf(257)", 3), ("gf(17^2):3,1,1", 3),
    ("qq", 3), ("qq", 4), ("qq", 5),
]
SIDES = [("random", "random"), ("derogatory", "random"), ("random", "derogatory"), ("derogatory", "derogatory")]


def _element(spec: FieldSpec, rng: random.Random, nonzero: bool = False):
    if spec.is_finite:
        return spec.elem_from_code(rng.randrange(int(nonzero), spec.order))
    value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return spec.elem(value if value or not nonzero else 1)


def _invertible(spec: FieldSpec, n: int, rng: random.Random) -> ExactMatrix:
    while True:
        p = random_matrix(spec, n, n, rng)
        if rank_raw(spec, p.raw_rows()) == n:
            return p


def _matrix(kind: str, spec: FieldSpec, n: int, rng: random.Random) -> ExactMatrix:
    """A random matrix, or a conjugate of diag(l, l, ...), which is derogatory."""
    if kind == "random":
        return random_matrix(spec, n, n, rng)
    lam = _element(spec, rng)
    p = _invertible(spec, n, rng)
    return p @ ExactMatrix.diag(spec, [lam, lam] + [_element(spec, rng) for _ in range(n - 2)]) @ _invert(p)


def _affine(a: ExactMatrix, rng: random.Random) -> ExactMatrix:
    alpha, beta = _element(a.spec, rng, nonzero=True), _element(a.spec, rng)
    return a.scale(alpha) + ExactMatrix.identity(a.spec, a.nrows).scale(beta)


def _answers(a: ExactMatrix, b: ExactMatrix) -> tuple:
    res = cm.distance(a, b)
    return (
        (res.kind, res.value, res.lower, res.upper),
        cm.dist_le_2(a, b),
        (cm.derogatory(a), cm.derogatory(b)),
        (len(cm.centralizer_basis(a)), len(cm.centralizer_basis(b))),
    )


def _differences(a: ExactMatrix, b: ExactMatrix, rng: random.Random) -> list:
    """The images of (a, b) under each automorphism whose answers differ from those of (a, b)."""
    p = _invertible(a.spec, a.nrows, rng)
    p_inv = _invert(p)
    images = {
        "conjugate": (p @ a @ p_inv, p @ b @ p_inv),
        "transpose": (a.transpose(), b.transpose()),
        "affine-first": (_affine(a, rng), b),
        "affine-second": (a, _affine(b, rng)),
    }
    want = _answers(a, b)
    return [(name, want, got) for name, pair in images.items() if (got := _answers(*pair)) != want]


@pytest.mark.parametrize("field,n", CASES, ids=[f"{field.split(':')[0]}-{n}" for field, n in CASES])
def test_answers_do_not_change_under_graph_automorphisms(field, n):
    spec = FieldSpec.parse(field)
    assert not spec.is_finite or spec.order ** (n * n) > SPACE_CAP
    rng = random.Random(f"{field}|{n}")
    differences = []
    for sides in SIDES * 3:
        a, b = (_matrix(kind, spec, n, rng) for kind in sides)
        differences += [(sides, *diff) for diff in _differences(a, b, rng)]
    assert differences == []


# a derogatory A against a nonderogatory B over GF(3) at exact distance 3 (`pc-chain`)
GF3 = FieldSpec.prime(3)
CHAIN_A = ExactMatrix(GF3, [[0, 2, 2, 2], [0, 2, 0, 0], [2, 1, 0, 2], [1, 0, 1, 2]])
CHAIN_B = ExactMatrix(GF3, [[2, 1, 0, 0], [0, 1, 1, 2], [0, 2, 1, 1], [2, 1, 2, 2]])


def test_an_exact_distance_3_does_not_change_under_graph_automorphisms():
    assert cm.distance(CHAIN_A, CHAIN_B).decided_by == "pc-chain"
    assert _differences(CHAIN_A, CHAIN_B, random.Random(3)) == []


@pytest.mark.xfail(strict=True, reason="the certificate scan keeps its first hit in argument order")
def test_distance_does_not_depend_on_argument_order():
    # with the derogatory A second, the first class (1, 0, 0) hits with a scalar q(A),
    # so the scan stops before it reaches a chain B -> p(B) -> q(A) -> A
    assert cm.derogatory(CHAIN_A) and not cm.derogatory(CHAIN_B)
    assert _answers(CHAIN_A, CHAIN_B)[0] == _answers(CHAIN_B, CHAIN_A)[0]
