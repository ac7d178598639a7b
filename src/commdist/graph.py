"""Explicit search over the commuting graph of a full matrix ring.

Vertices are the non-scalar n x n matrices over a finite field, with an edge
between commuting pairs.  Matrices are addressed by an integer code: entries
read row-major, each entry contributing one base-q digit, least significant
first.  Neighbor expansion enumerates the centralizer of a vertex instead of
scanning the whole space, which is what makes exhaustive BFS workable at desk
scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimMismatch, FieldMismatch, ScalarVertex
from .field import FieldSpec
from .matrix import (
    DIAMETER_CAP,
    PREBUILD_CAP,
    _BATCH_CELLS,
    ExactMatrix,
    _centralizer_chunks,
    _projective_reps,
    _scalar_codes,
    _span_codes,
    decode_matrix,
    encode_matrix,
    is_scalar,
    lift_rows_raw,
    nullspace_raw,
    rref_raw,
    space_size,
    unvec,
    vec,
)

INFINITE = math.inf


# ---------------------------------------------------------------------------
# neighbor generation


def _neighbor_codes(spec: FieldSpec, n: int, code: int) -> list[int]:
    basis = nullspace_raw(spec, lift_rows_raw(decode_matrix(spec, n, code)))
    combos = _span_codes(spec, np.array([basis], dtype=np.int64))[0].tolist()
    scalars = _scalar_codes(spec, n)
    return sorted(c for c in combos if c != code and c not in scalars)


def neighbors(a: ExactMatrix):
    """Iterate the non-scalar matrices other than `a` in its centralizer."""
    if not a.spec.is_finite:
        raise FieldMismatch("the commuting graph is only enumerable over finite fields")
    if is_scalar(a):
        raise ScalarVertex("scalar matrices are not graph vertices")
    spec, n = a.spec, a.nrows
    for code in _neighbor_codes(spec, n, encode_matrix(a)):
        yield decode_matrix(spec, n, code)


# ---------------------------------------------------------------------------
# search


@functools.lru_cache(maxsize=4)
def _adjacency(spec: FieldSpec, n: int) -> list[list[int] | None]:
    """Neighbor lists of one commuting graph, filled as searches reach codes."""
    return [None] * space_size(spec, n)


def _check_vertex_pair(a: ExactMatrix, b: ExactMatrix):
    if a.spec != b.spec:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")
    if a.nrows != b.nrows or not (a.is_square and b.is_square):
        raise DimMismatch("BFS needs square matrices of one size")
    if not a.spec.is_finite:
        raise FieldMismatch("BFS requires a finite field")
    if is_scalar(a) or is_scalar(b):
        raise ScalarVertex("scalar matrices are not graph vertices")


def _neighbor_lists(spec: FieldSpec, n: int):
    """code -> neighbor codes, kept per (field, n) below PREBUILD_CAP codes."""
    if space_size(spec, n) > PREBUILD_CAP:
        return functools.partial(_neighbor_codes, spec, n)
    memo = _adjacency(spec, n)

    def lookup(code: int) -> list[int]:
        if memo[code] is None:
            memo[code] = _neighbor_codes(spec, n, code)
        return memo[code]

    return lookup


def _bfs(spec, n, source: int, radius_cap=None):
    """Full breadth-first sweep from one code.

    Returns (levels, capped): levels is a bytearray holding the BFS level of
    every code reached (255 = unreached), and capped is True when the radius
    cap stopped the sweep while the frontier was still growing.
    """
    nbs_of = _neighbor_lists(spec, n)
    levels = bytearray([255]) * space_size(spec, n)
    levels[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        if radius_cap is not None and level >= radius_cap:
            return levels, True
        level += 1
        nxt = []
        for code in frontier:
            for nb in nbs_of(code):
                if levels[nb] == 255:
                    levels[nb] = min(level, 255)
                    nxt.append(nb)
        frontier = nxt
    return levels, False


def _meet(spec, n, src: int, dst: int):
    """Shortest path between two codes, searched from both ends.

    Each step expands one whole level of the side with the smaller frontier
    (the source's side on a tie).  Until the sides meet, the distance exceeds
    the sum of their depths, so the first code both reach lies on a shortest
    path.  Returns (distance, interior codes of that path), or (INFINITE,
    None) as soon as either side exhausts its component.
    """
    nbs_of = _neighbor_lists(spec, n)
    if src == dst:
        return 0, []
    parents = ({src: None}, {dst: None})
    frontiers = [[src], [dst]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, theirs = parents[side], parents[1 - side]
        nxt = []
        for code in frontiers[side]:
            for nb in nbs_of(code):
                if nb in mine:
                    continue
                mine[nb] = code
                if nb in theirs:
                    path = [nb]
                    while (up := parents[0][path[0]]) is not None:
                        path.insert(0, up)
                    while (down := parents[1][path[-1]]) is not None:
                        path.append(down)
                    return len(path) - 1, path[1:-1]
                nxt.append(nb)
        frontiers[side] = nxt
    return INFINITE, None


def _level_sizes(levels: bytearray) -> list[int]:
    """Number of codes at each BFS level, the source's level first."""
    reached = np.frombuffer(levels, dtype=np.uint8)
    return np.bincount(reached[reached != 255]).tolist()


def bfs_distance(a: ExactMatrix, b: ExactMatrix, cap: int | None = None):
    """Exact graph distance between two non-scalar matrices.

    Returns the distance when it is at most `cap` (or no cap is given),
    INFINITE (math.inf) when `a` and `b` lie in different components, and
    None when the distance is finite but exceeds the cap.
    """
    _check_vertex_pair(a, b)
    if cap is not None and cap < 0:
        raise ValueError(f"the radius cap must be at least 0, got {cap}")
    dist, _ = _meet(a.spec, a.nrows, encode_matrix(a), encode_matrix(b))
    return None if cap is not None and cap < dist < INFINITE else dist


def bfs_path(a: ExactMatrix, b: ExactMatrix):
    """(distance, interior chain) of one shortest path; the chain is None when
    unreachable and empty for adjacent or identical vertices."""
    _check_vertex_pair(a, b)
    spec, n = a.spec, a.nrows
    dist, chain = _meet(spec, n, encode_matrix(a), encode_matrix(b))
    if chain is None:
        return INFINITE, None
    return dist, [decode_matrix(spec, n, c) for c in chain]


@dataclass
class BfsReport:
    """Full BFS sweep from one source, the regression-friendly form."""

    spec: FieldSpec
    n: int
    source: int
    cap: int | None
    complete: bool  # False when the radius cap cut the sweep short
    frontier_sizes: list[int]
    distances: dict[int, int]

    def distance_of(self, target) -> int | float | None:
        code = target if isinstance(target, int) else encode_matrix(target)
        if code in self.distances:
            return self.distances[code]
        return INFINITE if self.complete else None

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_string(),
            "n": self.n,
            "source": self.source,
            "cap": self.cap,
            "complete": self.complete,
            "frontier_sizes": self.frontier_sizes,
            "distances": {str(k): v for k, v in sorted(self.distances.items())},
        }


def bfs_report(a: ExactMatrix, cap: int | None = None) -> BfsReport:
    """Distances from `a` to every vertex it reaches within the radius cap."""
    _check_vertex_pair(a, a)
    if cap is not None and cap < 0:
        raise ValueError(f"the radius cap must be at least 0, got {cap}")
    spec, n = a.spec, a.nrows
    src = encode_matrix(a)
    levels, capped = _bfs(spec, n, src, radius_cap=cap)
    reached = {code: d for code, d in enumerate(levels) if d != 255}
    return BfsReport(spec, n, src, cap, not capped, _level_sizes(levels), reached)


@dataclass
class ComponentsReport:
    vertex_count: int
    count: int
    sizes: list[int]  # in discovery order (ascending smallest code)

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "count": self.count,
            "sizes": self.sizes,
        }


def components(spec: FieldSpec, n: int) -> ComponentsReport:
    """Connected components of the commuting graph.

    The edges from each vertex to its centralizer come chunk by chunk from
    the batched kernel and join trees of least labels, so every component is
    labelled by its least code and sizes are listed in the order that a sweep
    from each least unseen code would find them.
    """
    total = space_size(spec, n)
    scalar = np.zeros(total, dtype=bool)
    scalar[list(_scalar_codes(spec, n))] = True
    vertices = np.flatnonzero(~scalar)
    label = np.arange(total, dtype=np.int32)
    for codes, free, vecs in _centralizer_chunks(spec, n, vertices):
        dims = free.sum(1)
        for d in np.unique(dims).tolist():
            sel = dims == d
            ends, bases = codes[sel], vecs[sel][free[sel]].reshape(-1, d, n * n)
            step = max(1, _BATCH_CELLS // (spec.order**d * n * n))
            for start in range(0, len(ends), step):
                v = _span_codes(spec, bases[start : start + step])
                u = np.broadcast_to(ends[start : start + step, None], v.shape)
                keep = (u < v) & ~scalar[v]  # each edge once, from its smaller end
                _hook(label, u[keep], v[keep])
    sizes = np.bincount(label[vertices])
    sizes = sizes[sizes > 0].tolist()
    return ComponentsReport(len(vertices), len(sizes), sizes)


def _hook(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the trees of u[i] and v[i]: the larger root is hooked under the
    smaller, then pointer jumping points every code at its root again."""
    while (apart := label[u] != label[v]).any():
        lu, lv = label[u[apart]], label[v[apart]]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(up := label[label], label):
            label[:] = up


def diameter(spec: FieldSpec, n: int) -> int:
    """Largest finite eccentricity over all vertices (all-pairs BFS)."""
    total = space_size(spec, n, DIAMETER_CAP)
    scalars = _scalar_codes(spec, n)
    best = 0
    for start in range(total):
        if start not in scalars:
            levels, _ = _bfs(spec, n, start)
            best = max(best, len(_level_sizes(levels)) - 1)
    return best


# ---------------------------------------------------------------------------
# restricted mode: decide distance <= 3 for one pair without global BFS


def restricted_distance_le_3(
    a: ExactMatrix, b: ExactMatrix, class_cap: int = 1 << 20
):
    """Search for a chain a <-> C <-> D <-> B with non-scalar C, D.

    Enumerates the centralizer of `a` up to scaling and shifts by the
    identity, which suffices: commuting with D is unchanged under
    C -> u*C + v*I, so one representative per projective class of the quotient
    centralizer(a)/<I> covers every candidate.  Complete for the <=3 question;
    returns the chain (C, D) or None.
    """
    _check_vertex_pair(a, b)
    spec, n = a.spec, a.nrows
    ops = spec.ops()
    basis = nullspace_raw(spec, lift_rows_raw(a))
    ident = vec(ExactMatrix.identity(spec, n))
    # extend {vec(I)} to a basis of the centralizer: the pivot columns of
    # [vec(I) | basis] after column 0 pick the vectors that span the quotient
    _, pivots = rref_raw(spec, [list(r) for r in zip(ident, *basis)])
    quotient = [basis[c - 1] for c in pivots[1:]]
    d = len(quotient)
    q = spec.order
    classes = (q**d - 1) // (q - 1)
    if classes > class_cap:
        raise CapExceeded(f"{classes} centralizer classes exceed the cap {class_cap}")
    b_rows = lift_rows_raw(b)
    for _, coeffs in _projective_reps(spec, d):
        acc = [ops.zero] * (n * n)
        for coef, vec_ in zip(coeffs, quotient):
            if coef != ops.zero:
                acc = [ops.add(x, ops.mul(coef, y)) for x, y in zip(acc, vec_)]
        c_mat = unvec(spec, n, acc)
        c_rows = lift_rows_raw(c_mat)
        for null_vec in nullspace_raw(spec, c_rows + b_rows):
            cand = unvec(spec, n, null_vec)
            if not is_scalar(cand):
                return c_mat, cand
    return None
