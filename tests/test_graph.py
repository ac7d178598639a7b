"""Commuting-graph oracle: codec, neighbor expansion, BFS, components,
diameter, and the restricted distance-3 search."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from commdist.errors import CapExceeded, FieldMismatch, ScalarVertex
from commdist.field import FieldSpec
from commdist import commute as cm
from commdist import graph as gr
from commdist.matrix import ExactMatrix, random_matrix
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


@pytest.mark.slow
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


@pytest.mark.parametrize(
    "spec,n", [(GF2, 2), (GF3, 2), (GF4, 2), (FieldSpec.prime(5), 2), (GF2, 3)]
)
def test_components_match_per_start_sweeps(spec, n):
    comp = gr.components(spec, n)
    vertex_count, sizes = _components_by_sweeps(spec, n)
    assert (comp.vertex_count, comp.count, comp.sizes) == (vertex_count, len(sizes), sizes)


# GF(3) 3x3 first: the sweeps of its first example fill the neighbor lists
# that the other examples reuse
@pytest.mark.parametrize("spec,n", [(GF3, 3), (GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_search_matches_one_sided_sweep(spec, n, data):
    # the oracle is a full sweep from `a`, a route that shares no code with
    # the two-sided pair search beyond the neighbor lists
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


def test_restricted_mode_blocks_bundled_pair_mod_three():
    a3 = load_fixture("ex46_A").to_field(GF3)
    b3 = load_fixture("ex46_B").to_field(GF3)
    assert gr.restricted_distance_le_3(a3, b3) is None


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
