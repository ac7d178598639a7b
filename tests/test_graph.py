"""Commuting-graph oracle: codec, neighbor expansion, BFS, components,
diameter, and the restricted distance-3 search."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdist.errors import CapExceeded, FieldMismatch, ScalarVertex
from commdist.field import FieldSpec
from commdist import commute as cm
from commdist import graph as gr
from commdist import matrix
from commdist.matrix import (
    ExactMatrix,
    _code_digits,
    _projective_reps,
    _span_codes,
    lift_rows_raw,
    nullspace_raw,
    random_matrix,
    rref_raw,
)
from commdist.verify import load_fixture, load_snapshot

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
QQ = FieldSpec.rationals()


def test_codec_round_trip():
    rng = random.Random(1)
    for spec, n in [(GF2, 3), (GF3, 2), (GF4, 2)]:
        total = spec.order ** (n * n)
        for _ in range(80):
            code = rng.randrange(total)
            m = gr.decode_matrix(spec, n, code)
            assert gr.encode_matrix(m) == code
            assert gr.decode_matrix(spec, n, gr.encode_matrix(m)) == m


def test_codec_digit_convention():
    # little-endian in reading order: code 1 lands in the (0,0) entry
    m = gr.decode_matrix(GF3, 2, 1)
    assert m.to_json()["rows"] == [[1, 0], [0, 0]]
    # the next digit position is the (0,1) entry
    m = gr.decode_matrix(GF3, 2, 3)
    assert m.to_json()["rows"] == [[0, 1], [0, 0]]
    # extension-field digits enumerate coefficient vectors little-endian
    m = gr.decode_matrix(GF4, 2, 2)
    assert m.to_json()["rows"] == [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]


def test_neighbors_of_non_derogatory_vertex():
    companion = ExactMatrix(GF2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # x^3+x+1
    nbhd = list(gr.neighbors(companion))
    assert len(nbhd) == 5  # 2^3 polynomials minus two scalars minus itself


def test_neighbors_match_brute_force_scan():
    rng = random.Random(3)
    for _ in range(6):
        a = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(a):
            continue
        got = {gr.encode_matrix(m) for m in gr.neighbors(a)}
        want = set()
        for code in range(512):
            m = gr.decode_matrix(GF2, 3, code)
            if m != a and not cm.is_scalar(m) and m @ a == a @ m:
                want.add(code)
        assert got == want


def test_neighbors_include_bundled_patterns():
    c = ExactMatrix(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    nbhd = {gr.encode_matrix(m) for m in gr.neighbors(c)}
    a2 = load_fixture("ex25_A").to_field(GF2)
    b2 = load_fixture("ex25_B").to_field(GF2)
    assert gr.encode_matrix(a2) in nbhd
    assert gr.encode_matrix(b2) in nbhd


def test_neighbors_never_yield_scalars():
    rng = random.Random(5)
    for _ in range(5):
        a = random_matrix(GF3, 2, 2, rng)
        if cm.is_scalar(a):
            continue
        for m in gr.neighbors(a):
            assert not cm.is_scalar(m) and m != a


def _one_code_neighbors(spec, n, code):
    """The per-code route: one nullspace, its span, minus scalars and self."""
    basis = nullspace_raw(spec, lift_rows_raw(gr.decode_matrix(spec, n, code)))
    combos = _span_codes(spec, np.array([basis], dtype=np.int64))[0].tolist()
    scalars = gr._scalar_codes(spec, n)
    return sorted(c for c in combos if c != code and c not in scalars)


# GF(5) 3x3 lies above PREBUILD_CAP, so it takes the unmemoized block route
@pytest.mark.parametrize(
    "spec,n",
    [(GF2, 2), (GF2, 3), (GF3, 2), (GF3, 3), (FieldSpec.prime(5), 2), (FieldSpec.prime(5), 3), (GF4, 2)],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_frontier_batch_matches_one_code_at_a_time(spec, n, data):
    scalars = gr._scalar_codes(spec, n)
    vertex = st.integers(0, spec.order ** (n * n) - 1).filter(lambda c: c not in scalars)
    frontier = data.draw(st.lists(vertex, min_size=1, max_size=6, unique=True))
    got = list(gr._neighbor_lists(spec, n, frontier))
    assert got == [_one_code_neighbors(spec, n, code) for code in frontier]


def test_neighbors_over_gf257_list_the_whole_plane():
    # q > 256 leaves the uint8 tables, so the batched kernel runs int64 arithmetic modulo 257
    g257 = FieldSpec.prime(257)
    a = ExactMatrix(g257, [[1, 2], [3, 4]])
    codes = [gr.encode_matrix(m) for m in gr.neighbors(a)]
    assert len(codes) == 257**2 - 257 - 1 == 65791
    assert codes == sorted(codes)


def test_neighbors_over_large_extension_fields_list_the_whole_plane():
    # a non-scalar 2x2 centralizer is the plane F[A]: q^2 codes minus the q scalars and A
    for spec, count in [(FieldSpec.parse("gf(5^4):1,0,1,1,1"), 389999), (FieldSpec.parse("gf(31^2)"), 922559)]:
        q, a = spec.order, gr.decode_matrix(spec, 2, 12345)
        codes = next(gr._neighbor_lists(spec, 2, [12345]))
        assert len(codes) == q * q - q - 1 == count
        assert codes == sorted(codes)
        shown = list(itertools.islice(gr.neighbors(a), 3))
        assert [gr.encode_matrix(m) for m in shown] == codes[:3]
        sample = [gr.decode_matrix(spec, 2, c) for c in random.Random(q).sample(codes, 20)] + shown
        assert all(a @ m == m @ a for m in sample)
    # 31^16 codes leave int64; 13^16 codes fit, but a plane spans 13^8 > 2^24 of them
    for text, match in [("gf(31^4):1,1,0,0,1", "2\\^63"), ("gf(13^4):1,1,0,0,1", "span 815730721 exceeds 2\\^24")]:
        with pytest.raises(CapExceeded, match=match):
            next(gr.neighbors(gr.decode_matrix(FieldSpec.parse(text), 2, 12345)))


@pytest.mark.parametrize(
    "p, n, match",
    [
        (65537, 2, "2\\^63"),  # a 2-dimensional centralizer alone spans 2^32 codes
        (131, 3, "2\\^63"),  # 131^9 codes wrap int64
        (2**31 - 1, 2, "2\\^63"),  # no code fits int64
        (4099, 2, "span 16801801 exceeds 2\\^24"),  # codes fit, the span does not
    ],
)
def test_neighbors_raise_cap_exceeded_outside_int64_and_the_span_cap(p, n, match):
    a = ExactMatrix(FieldSpec.prime(p), [[1, 2, 0][:n], [3, 4, 0][:n], [0, 0, 1][:n]][:n])
    with pytest.raises(CapExceeded, match=match):
        next(gr.neighbors(a))


def test_sweep_above_the_prebuild_cap():
    # GF(4) 3x3 has 262,144 codes, so no neighbor list is kept; diag(1, 0, 0)
    # has a 5-dimensional centralizer: 4^5 codes minus four scalars and itself
    report = gr.bfs_report(ExactMatrix.diag(GF4, [1, 0, 0]), cap=1)
    assert report.frontier_sizes == [1, 1019]


def test_scalar_vertex_and_field_errors():
    with pytest.raises(ScalarVertex):
        list(gr.neighbors(ExactMatrix.identity(GF2, 3)))
    with pytest.raises(FieldMismatch):
        list(gr.neighbors(ExactMatrix(QQ, [[1, 2], [3, 4]])))
    with pytest.raises(ScalarVertex):
        gr.bfs_distance(ExactMatrix.identity(GF2, 3), ExactMatrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 0]]))


def test_bfs_two_by_two_noncommuting_is_infinite():
    e12 = ExactMatrix(GF2, [[0, 1], [0, 0]])
    e21 = ExactMatrix(GF2, [[0, 0], [1, 0]])
    assert gr.bfs_distance(e12, e21) == math.inf


def test_bfs_bundled_pair_mod_two():
    a2 = load_fixture("ex25_A").to_field(GF2)
    b2 = load_fixture("ex25_B").to_field(GF2)
    assert a2 @ b2 != b2 @ a2  # the reduction still fails to commute
    assert gr.bfs_distance(a2, b2) == 2
    d, chain = gr.bfs_path(a2, b2)
    assert d == 2 and cm.verify_chain(a2, b2, chain)


def test_bfs_symmetry_sampled():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(a) or cm.is_scalar(b):
            continue
        assert gr.bfs_distance(a, b) == gr.bfs_distance(b, a)


@pytest.mark.parametrize("spec", [GF2, GF3])
def test_bfs_consistency_ladder_exhaustive_two_by_two(spec):
    # every ordered non-scalar pair of 2x2 matrices over the field
    total = spec.order**4
    scalars = gr._scalar_codes(spec, 2)
    verts = [gr.decode_matrix(spec, 2, c) for c in range(total) if c not in scalars]
    for a in verts:
        rep = gr.bfs_report(a)
        for b in verts:
            d = rep.distance_of(b)
            assert (d <= 1) == (a == b or cm.commutes(a, b))
            assert (d <= 2) == cm.dist_le_2(a, b)


def test_bfs_consistency_ladder_sampled_mat3_gf3():
    from commdist.census import sample_codes

    total = 3**9
    checked = 0
    for pair_code in sample_codes(21, 0, 100, total * total):
        a_code, b_code = divmod(pair_code, total)
        a = gr.decode_matrix(GF3, 3, a_code)
        b = gr.decode_matrix(GF3, 3, b_code)
        if cm.is_scalar(a) or cm.is_scalar(b) or a == b:
            continue
        d = gr.bfs_distance(a, b)
        assert (d <= 1) == cm.commutes(a, b)
        assert (d <= 2) == cm.dist_le_2(a, b)
        checked += 1
    assert checked > 50


def test_bfs_radius_cap():
    a = load_fixture("ex25_A").to_field(GF2)
    b = load_fixture("ex25_B").to_field(GF2)
    assert gr.bfs_distance(a, b, cap=1) is None  # undecided at the cap
    assert gr.bfs_distance(a, b, cap=2) == 2


def test_bfs_distance_needs_one_field():
    a = load_fixture("ex25_A")
    with pytest.raises(FieldMismatch):
        gr.bfs_distance(a.to_field(GF2), a.to_field(GF3))


def test_bfs_report():
    a = load_fixture("ex25_A").to_field(GF2)
    rep = gr.bfs_report(a)
    assert rep.complete
    assert rep.distances[rep.source] == 0
    assert rep.frontier_sizes[0] == 1
    assert sum(rep.frontier_sizes) == len(rep.distances)
    rng = random.Random(13)
    for _ in range(20):
        b = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(b):
            continue
        assert rep.distance_of(b) == gr.bfs_distance(a, b)
    js = rep.to_json()
    assert js["field"] == "gf(2)" and js["complete"] is True
    huge = gr.bfs_report(a, 2**64)  # a cap past sys.maxsize
    assert huge.complete and huge.frontier_sizes == rep.frontier_sizes


@pytest.mark.parametrize("spec,n,code", [(GF2, 3, 343), (GF3, 3, 150), (FieldSpec.prime(5), 3, 1387143)])
def test_capped_report_expands_only_the_levels_it_returns(spec, n, code, monkeypatch):
    expanded = []
    real = gr._neighbor_lists

    def counting(spec, n, codes):
        expanded.extend(codes)
        return real(spec, n, codes)

    monkeypatch.setattr(gr, "_neighbor_lists", counting)
    a = gr.decode_matrix(spec, n, code)
    for cap in range(3):
        expanded.clear()
        rep = gr.bfs_report(a, cap)
        assert len(rep.frontier_sizes) == cap + 1 and not rep.complete
        assert sorted(expanded) == sorted(c for c, d in rep.distances.items() if d < cap)
        assert list(rep.distances.values()) == sorted(rep.distances.values())  # level order
        assert sum(rep.frontier_sizes) == len(rep.distances)
    if spec.order < 5:  # a full sweep of GF(5) 3x3 takes seconds
        full = gr.bfs_report(a).distances
        assert rep.distances == {c: d for c, d in full.items() if d <= 2}


def test_bfs_report_triangle_inequality_sampled():
    rng = random.Random(17)
    verts = []
    while len(verts) < 3:
        m = random_matrix(GF2, 3, 3, rng)
        if not cm.is_scalar(m):
            verts.append(m)
    u, v, w = verts
    duv = gr.bfs_distance(u, v)
    duw = gr.bfs_distance(u, w)
    dvw = gr.bfs_distance(v, w)
    if all(d != math.inf for d in (duv, duw, dvw)):
        assert duw <= duv + dvw


def test_components_and_diameter_snapshots():
    snap = load_snapshot("graph")
    for key, spec, n in [("2|gf(2)", GF2, 2), ("2|gf(3)", GF3, 2), ("3|gf(2)", GF2, 3)]:
        comp = gr.components(spec, n)
        assert comp.to_json() == snap["components"][key]
        assert gr.diameter(spec, n) == snap["diameter"][key]
    assert gr.components(GF2, 2).count > 1


def test_components_mat3_gf3_snapshot():
    snap = load_snapshot("graph")["components"]["3|gf(3)"]
    comp = gr.components(GF3, 3)
    assert comp.vertex_count == snap["vertex_count"]
    assert comp.count == snap["count"]
    sizes = sorted(comp.sizes)
    assert sizes[-1] == snap["giant"]
    assert sizes[:-1] == [snap["small_size"]] * snap["small_count"]


def _components_by_sweeps(spec, n):
    """(vertex count, sizes) from one full BFS sweep per least unseen code."""
    scalars = gr._scalar_codes(spec, n)
    seen, sizes = set(), []
    for code in range(spec.order ** (n * n)):
        if code not in seen and code not in scalars:
            reached = gr.bfs_report(gr.decode_matrix(spec, n, code)).distances
            seen.update(reached)
            sizes.append(len(reached))
    return spec.order ** (n * n) - len(scalars), sizes


# GF(3) 3x3 pins the discovery order of its 145 components, and GF(8) and
# GF(9) 2x2 check the closed form over extension fields past GF(4)
@pytest.mark.parametrize(
    "spec,n",
    [
        (GF2, 2), (GF3, 2), (GF4, 2), (FieldSpec.prime(5), 2), (GF2, 3), (GF3, 3), (FieldSpec.prime(7), 2),
        (FieldSpec.parse("gf(2^3):1,1,0,1"), 2), (FieldSpec.parse("gf(9)"), 2),
    ],
)
def test_components_match_per_start_sweeps(spec, n):
    comp = gr.components(spec, n)
    vertex_count, sizes = _components_by_sweeps(spec, n)
    assert (comp.vertex_count, comp.count, comp.sizes) == (vertex_count, len(sizes), sizes)


# the outputs of the union-find over the whole space that the closed form
# replaced, on the spaces too large for the sweep oracle
@pytest.mark.parametrize(
    "spec,n,sizes",
    [
        (GF4, 3, [204540] + [60] * 960),
        (FieldSpec.prime(5), 3, [1473120] + [120] * 4000),
        (GF2, 4, [65534]),
    ],
)
def test_components_closed_form_snapshots(spec, n, sizes):
    vertex_count = spec.order ** (n * n) - spec.order
    assert gr.components(spec, n).to_json() == {"vertex_count": vertex_count, "count": len(sizes), "sizes": sizes}


def test_components_keep_the_space_cap():
    with pytest.raises(CapExceeded):
        gr.components(FieldSpec.prime(7), 3)  # 7^9 > 2^24


@pytest.mark.parametrize(
    "spec,n", [(GF2, 2), (GF3, 2), (GF4, 2), (FieldSpec.prime(5), 2), (GF2, 3)]
)
def test_diameter_matches_a_sweep_from_every_vertex(spec, n):
    scalars = gr._scalar_codes(spec, n)
    sweeps = (gr._bfs(spec, n, c) for c in range(spec.order ** (n * n)) if c not in scalars)
    assert gr.diameter(spec, n) == max(len(list(levels)) - 1 for levels in sweeps)


# GF(3) 3x3 first: the sweeps of its first example fill the neighbor lists
# that the other examples reuse
@pytest.mark.parametrize("spec,n", [(GF3, 3), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_search_matches_one_sided_sweep(spec, n, data):
    # the oracle is a full sweep from `a`, a route that shares no code with
    # the two-sided pair search beyond `_neighbor_lists`, whose batches
    # test_frontier_batch_matches_one_code_at_a_time checks on its own
    scalars = gr._scalar_codes(spec, n)
    codes = st.integers(0, spec.order ** (n * n) - 1).filter(lambda c: c not in scalars)
    a = gr.decode_matrix(spec, n, data.draw(codes))
    b = gr.decode_matrix(spec, n, data.draw(codes))
    want = gr.bfs_report(a).distance_of(b)
    assert gr.bfs_distance(a, b) == want
    assert gr.bfs_distance(b, a) == want
    d, chain = gr.bfs_path(a, b)
    assert d == want
    if want == math.inf:
        assert chain is None
    else:
        assert len(chain) == max(d - 1, 0) and cm.verify_chain(a, b, chain)
    assert gr.bfs_path(a, b) == (d, chain)


def test_space_caps():
    g7 = FieldSpec.prime(7)
    a = ExactMatrix(g7, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    b = ExactMatrix(g7, [[2, 0, 0], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(CapExceeded):
        gr.bfs_distance(a, b)  # 7^9 > 2^24
    with pytest.raises(CapExceeded):
        gr.bfs_path(a, a)  # the cap holds before the trivial answer
    g5 = FieldSpec.prime(5)
    with pytest.raises(CapExceeded):
        gr.diameter(g5, 3)  # 5^9 > 2^20


def test_restricted_mode_matches_bfs():
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        a = random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(a) or cm.is_scalar(b):
            continue
        res = gr.restricted_distance_le_3(a, b)
        assert (res is not None) == (gr.bfs_distance(a, b) <= 3)
        if res is not None:
            c, d = res
            assert cm.verify_chain(a, b, [c, d])
        checked += 1


def _restricted_by_class_loop(a, b):
    """The restricted search as a plain loop: one nullspace of [M_C; M_B] per
    projective class C of centralizer(a)/<I>, in code order; prime fields."""
    spec, n, p = a.spec, a.nrows, a.spec.order
    basis = nullspace_raw(spec, lift_rows_raw(a))
    ident = [int(i == j) for i in range(n) for j in range(n)]
    _, pivots = rref_raw(spec, [list(r) for r in zip(ident, *basis)])
    quotient = [basis[c - 1] for c in pivots[1:]]
    d = len(quotient)
    for cs in _code_digits(p, _projective_reps(spec, d), d).tolist():
        entries = [sum(c * v[k] for c, v in zip(cs, quotient)) % p for k in range(n * n)]
        c_mat = ExactMatrix(spec, [entries[i * n : (i + 1) * n] for i in range(n)])
        for v in nullspace_raw(spec, lift_rows_raw(c_mat) + lift_rows_raw(b)):
            cand = ExactMatrix(spec, [v[i * n : (i + 1) * n] for i in range(n)])
            if not cm.is_scalar(cand):
                return c_mat, cand
    return None


@pytest.mark.parametrize("spec, n, seed", [(GF2, 3, 1), (GF3, 3, 2), (GF2, 4, 3)])
def test_restricted_mode_matches_the_class_loop(spec, n, seed, monkeypatch):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 24:
        a, b = random_matrix(spec, n, n, rng), random_matrix(spec, n, n, rng)
        if rng.random() < 0.3:  # squares include matrices with larger centralizers
            a = a @ a
        if not (cm.is_scalar(a) or cm.is_scalar(b)):
            pairs.append((a, b))
    want = [_restricted_by_class_loop(a, b) for a, b in pairs]
    assert {w is None for w in want} == {True, False}
    assert [gr.restricted_distance_le_3(a, b) for a, b in pairs] == want
    monkeypatch.setattr(matrix, "_BATCH_CELLS", 1)  # one class per block
    assert [gr.restricted_distance_le_3(a, b) for a, b in pairs] == want


@pytest.mark.parametrize("spec, seed", [(GF3, 5), (FieldSpec.parse("gf(9)"), 6)], ids=str)
def test_restricted_mode_first_hit_survives_one_class_blocks(spec, seed, monkeypatch):
    # one class per block: a first hit past the first class lies in a later block
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 16:
        a, b = random_matrix(spec, 3, 3, rng), random_matrix(spec, 3, 3, rng)
        a = a @ a if rng.random() < 0.3 else a
        if not (cm.is_scalar(a) or cm.is_scalar(b)):
            pairs.append((a, b))
    want = [gr.restricted_distance_le_3(a, b) for a, b in pairs]
    assert {w is None for w in want} == {True, False}
    monkeypatch.setattr(matrix, "_BATCH_CELLS", 1)
    assert [gr.restricted_distance_le_3(a, b) for a, b in pairs] == want


def test_restricted_mode_blocks_bundled_pair_mod_three():
    a3 = load_fixture("ex46_A").to_field(GF3)
    b3 = load_fixture("ex46_B").to_field(GF3)
    assert gr.restricted_distance_le_3(a3, b3) is None


def test_the_restricted_search_stops_at_its_first_hit(monkeypatch):
    # a companion of the irreducible x^3 + x + 1 has a component of its own, so no
    # class of its centralizer shares a non-scalar commuter with E_11; a kernel that
    # claims every class does must fail at the first class, not move on to the next
    a = ExactMatrix(GF2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    b = ExactMatrix(GF2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert gr.restricted_distance_le_3(a, b) is None
    monkeypatch.setattr(gr, "_shares_commuter", lambda spec, n, x, y: np.ones(len(y), bool))
    with pytest.raises(IndexError):
        gr.restricted_distance_le_3(a, b)


def test_bfs_fills_only_the_neighbor_lists_it_reaches():
    # a GF(2) 4x4 pair at distance 3, in a space of 2^16 codes
    a = ExactMatrix(GF2, [[1, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 1], [0, 1, 0, 0]])
    b = ExactMatrix(GF2, [[0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0]])
    assert gr.bfs_distance(a, b) == 3
    memo = gr._adjacency(GF2, 4)
    assert memo[gr.encode_matrix(a)] is not None
    assert sum(nbs is not None for nbs in memo) < 1 << 12


def test_tiny_component_is_exhausted_from_its_own_side():
    # B is conjugate to the companion of the irreducible x^3 - x - 1, so its
    # component is F[B] minus the scalars: 24 of the 19,683 codes
    a = ExactMatrix(GF3, [[1, 1, 1], [0, 0, 0], [1, 2, 1]])
    b = ExactMatrix(GF3, [[2, 1, 0], [1, 0, 1], [0, 2, 1]])
    assert a @ b != b @ a
    gr._adjacency.cache_clear()  # count only the lists this search fills
    assert gr.bfs_distance(a, b) == math.inf
    assert gr.bfs_path(b, a) == (math.inf, None)
    assert sum(nbs is not None for nbs in gr._adjacency(GF3, 3)) < 64


def test_tiny_component_over_gf5_is_settled():
    # B is the companion of x^3 + x + 1, irreducible over GF(5); the space
    # has 1,953,125 codes, so sweeping A's component would take minutes
    g5 = FieldSpec.prime(5)
    a = ExactMatrix(g5, [[3, 3, 0], [2, 4, 3], [3, 2, 3]])
    b = ExactMatrix(g5, [[0, 0, 4], [1, 0, 4], [0, 1, 0]])
    r = cm.distance(a, b)
    assert (r.kind, r.decided_by) == ("infinite", "bfs")
