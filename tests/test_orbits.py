"""Orbits of Mat_n under automorphisms of the commuting graph: an orbit
enumeration built from scratch with ExactMatrix arithmetic, invariance of the
orbit-reduced quantities under random words in the generators, and the twin
classes {aA + bI : a != 0} that `dist-le-2` expands once."""

import pytest
from hypothesis import given, settings, strategies as st

from commdist.commute import centralizer_basis, derogatory, distance
from commdist.field import FieldSpec
from commdist.graph import components
from commdist.matrix import (
    ExactMatrix,
    _orbits,
    _scalar_codes,
    _twin_reps,
    decode_matrix,
    encode_matrix,
    rank,
)

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
GF5 = FieldSpec.prime(5)


def _scalar(spec, n, raw):
    return ExactMatrix._from_raw(spec, [[raw if i == j else 0 for j in range(n)] for i in range(n)])


def _power(ops, x, e):
    y = ops.one
    for _ in range(e):
        y = ops.mul(y, x)
    return y


def _frobenius(a):
    ops, p = a.spec.ops(), a.spec.p
    return ExactMatrix._from_raw(a.spec, [[_power(ops, x, p) for x in row] for row in a.rows])


def _inverse(p):
    ident = ExactMatrix.identity(p.spec, p.nrows)
    prev, cur = ident, p
    while cur != ident:
        prev, cur = cur, cur @ p
    return prev


def _orbits_from_scratch(spec, n):
    """(least code, size) of every orbit under conjugation by all of GL_n(q),
    A -> alpha A + beta I, transpose and Frobenius, least code first."""
    q = spec.order
    mats = [decode_matrix(spec, n, c) for c in range(q ** (n * n))]
    gl = [(p, _inverse(p)) for p in mats if rank(p) == n]
    affine = [(_scalar(spec, n, a), _scalar(spec, n, b)) for a in range(1, q) for b in range(q)]
    seen, out = set(), []
    for code, a in enumerate(mats):
        if code in seen:
            continue
        orbit = {p @ x @ p_inv for x in (a, a.transpose()) for p, p_inv in gl}
        orbit = {alpha @ x + beta for x in orbit for alpha, beta in affine}
        for _ in range(spec.k - 1):
            orbit |= {_frobenius(x) for x in orbit}
        codes = {encode_matrix(x) for x in orbit}
        assert min(codes) == code
        seen |= codes
        out.append((code, len(codes)))
    return out


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF3, 2), (GF4, 2), (GF2, 3)])
def test_orbits_match_an_enumeration_of_the_whole_group(spec, n):
    reps, sizes = _orbits(spec, n)
    assert list(zip(reps.tolist(), sizes.tolist())) == _orbits_from_scratch(spec, n)
    assert sum(sizes.tolist()) == spec.order ** (n * n)


def _generators(spec, n):
    """The automorphisms `_orbits` uses and the transpose, which it joins
    without a generator, written with ExactMatrix arithmetic."""
    ops, q = spec.ops(), spec.order
    ident = ExactMatrix.identity(spec, n)
    g = next(x for x in range(1, q) if len({_power(ops, x, e) for e in range(1, q)}) == q - 1)

    def conj(rows):
        p = ExactMatrix._from_raw(spec, rows)
        p_inv = _inverse(p)
        return lambda a: p @ a @ p_inv

    transvection = [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]
    cycle = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
    rescale = [[g if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    return [
        conj(transvection),
        conj(cycle),
        conj(rescale),
        lambda a: a.transpose(),
        lambda a: a + ident,
        lambda a: _scalar(spec, n, g) @ a,
        _frobenius,
    ]


@pytest.mark.parametrize("spec,n", [(GF2, 3), (GF3, 3), (GF4, 2)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_orbit_quantities_are_invariant_under_the_generators(spec, n, data):
    gens = _generators(spec, n)
    codes = st.integers(0, spec.order ** (n * n) - 1)
    a, b = (decode_matrix(spec, n, data.draw(codes)) for _ in range(2))
    word = data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=8))
    ga, gb = a, b
    for k in word:
        ga, gb = gens[k](ga), gens[k](gb)
    assert len(centralizer_basis(ga)) == len(centralizer_basis(a))
    assert derogatory(ga) == derogatory(a)
    want, got = distance(a, b), distance(ga, gb)
    assert (got.kind, got.value) == (want.kind, want.value)


@pytest.mark.parametrize("spec,n", [(GF2, 2), (GF3, 2), (GF4, 2), (GF5, 2), (GF2, 3)])
def test_twin_reps_pick_one_matrix_per_twin_class(spec, n):
    q = spec.order
    reps = _twin_reps(spec, n)
    assert len(reps) == (q ** (n * n - 1) - 1) // (q - 1)
    assert (reps[1:] > reps[:-1]).all()
    reps = set(reps.tolist())
    assert not reps & _scalar_codes(spec, n)
    affine = [(_scalar(spec, n, a), _scalar(spec, n, b)) for a in range(1, q) for b in range(q)]
    classes = {
        frozenset(encode_matrix(alpha @ a + beta) for alpha, beta in affine)
        for a in (decode_matrix(spec, n, c) for c in range(q ** (n * n)))
    }
    hits = [len(cls & reps) for cls in classes]
    # the q scalars form one class, which no code represents
    assert sorted(hits) == [0] + [1] * len(reps)


def test_no_twin_classes_at_n_1():
    for spec in (GF2, GF5):
        assert _twin_reps(spec, 1).tolist() == []
        assert components(spec, 1).to_json() == {"vertex_count": 0, "count": 0, "sizes": []}
