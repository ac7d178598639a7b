"""Explicit search over the commuting graph of a full matrix ring.

Vertices are the non-scalar n x n matrices over a finite field, with an edge
between commuting pairs.  Matrices are addressed by an integer code: entries
read row-major, each entry contributing one base-q digit, least significant
first.  Neighbor expansion enumerates the centralizer of a vertex instead of
scanning the whole space, which is what makes exhaustive BFS workable at desk
scale.  Searches expand one whole frontier level at a time through
`_commuting_pairs`, the batched centralizer kernel that the censuses use
too.  `components` expands nothing: the components are known in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimMismatch, FieldMismatch, ScalarVertex
from .field import FieldSpec, _is_prime
from .matrix import (
    _CLASS_CAP,
    DIAMETER_CAP,
    PREBUILD_CAP,
    ExactMatrix,
    _blocks,
    _commutant,
    _commuting_pairs,
    _ff_matmul,
    _hits,
    _orbits,
    _projective_coeffs,
    _scalar_codes,
    _shares_commuter,
    decode_matrix,
    encode_matrix,
    is_scalar,
    lift_rows_raw,  # unused here: kept only for the benchmark's tracer
    space_size,
    unvec,
)

INFINITE = math.inf


# ---------------------------------------------------------------------------
# neighbor generation


def neighbors(a: ExactMatrix):
    """Iterate the non-scalar matrices other than `a` in its centralizer."""
    _check_vertex_pair(a, a)
    spec, n = a.spec, a.nrows
    for code in next(_neighbor_lists(spec, n, [encode_matrix(a)])):
        yield decode_matrix(spec, n, code)


@functools.lru_cache(maxsize=4)
def _adjacency(spec: FieldSpec, n: int) -> list[list[int] | None]:
    """Neighbor lists of one commuting graph, filled as searches reach codes."""
    return [None] * space_size(spec, n)


def _neighbor_lists(spec: FieldSpec, n: int, codes: list[int]):
    """Yield each code's sorted centralizer span minus the scalars and itself,
    in frontier order.  Below PREBUILD_CAP codes the lists are kept in
    `_adjacency` and the codes it lacks are expanded in one `_commuting_pairs`
    batch; above it, `_blocks` of spans are expanded in turn and dropped once
    yielded."""
    # codes above 2^63 would leave int64
    memo = _adjacency(spec, n) if space_size(spec, n, 1 << 63) <= PREBUILD_CAP else None
    # with the memo a level holds at most PREBUILD_CAP distinct codes, one
    # block at one cell each; a non-scalar centralizer has dimension at most
    # n^2 - 2n + 2
    for part in _blocks(len(codes), 1 if memo else spec.order ** (n * n - 2 * n + 2)):
        block = codes[part]
        lists = memo or dict.fromkeys(block)
        missing = np.array([c for c in block if lists[c] is None], np.int64)
        for ends, spans in _commuting_pairs(spec, n, missing):
            # every span holds the q scalars and its own end once
            keep = ~np.isin(spans, list(_scalar_codes(spec, n))) & (spans != ends[:, None])
            for end, nbs in zip(ends.tolist(), np.sort(spans[keep].reshape(len(ends), -1)).tolist()):
                lists[end] = nbs
        yield from map(lists.__getitem__, block)


# ---------------------------------------------------------------------------
# search


def _check_vertex_pair(a: ExactMatrix, b: ExactMatrix, cap: int | None = None):
    if a.spec != b.spec:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")
    if a.nrows != b.nrows or not (a.is_square and b.is_square):
        raise DimMismatch("BFS needs square matrices of one size")
    if not a.spec.is_finite:
        raise FieldMismatch("BFS requires a finite field")
    if is_scalar(a) or is_scalar(b):
        raise ScalarVertex("scalar matrices are not graph vertices")
    if cap is not None and cap < 0:
        raise ValueError(f"the radius cap must be at least 0, got {cap}")


def _bfs(spec, n, source: int):
    """Breadth-first sweep from one code: yield each level, its codes in
    discovery order, the source's level first; a level is expanded only when
    the caller asks for the next one."""
    seen = bytearray(space_size(spec, n))
    seen[source] = 1
    frontier = [source]
    while frontier:
        yield frontier
        nxt = []
        for nbs in _neighbor_lists(spec, n, frontier):
            for nb in nbs:
                if not seen[nb]:
                    seen[nb] = 1
                    nxt.append(nb)
        frontier = nxt


def _meet(spec, n, src: int, dst: int):
    """Shortest path between two codes, searched from both ends.

    Each step expands one whole level of the side with the smaller frontier
    (the source's side on a tie).  Until the sides meet, the distance exceeds
    the sum of their depths, so the first code both reach lies on a shortest
    path.  Returns (distance, interior codes of that path), or (INFINITE,
    None) as soon as either side exhausts its component.
    """
    space_size(spec, n)  # capped like a sweep, even for src == dst
    if src == dst:
        return 0, []
    parents = ({src: None}, {dst: None})
    frontiers = [[src], [dst]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, theirs = parents[side], parents[1 - side]
        nxt = []
        for code, nbs in zip(frontiers[side], _neighbor_lists(spec, n, frontiers[side])):
            for nb in nbs:
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


def bfs_distance(a: ExactMatrix, b: ExactMatrix, cap: int | None = None):
    """Exact graph distance between two non-scalar matrices.

    Returns the distance when it is at most `cap` (or no cap is given),
    INFINITE (math.inf) when `a` and `b` lie in different components, and
    None when the distance is finite but exceeds the cap.
    """
    _check_vertex_pair(a, b, cap)
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
    distances: dict[int, int]  # in level order; to_json sorts by code

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
    _check_vertex_pair(a, a, cap)
    spec, n = a.spec, a.nrows
    src = encode_matrix(a)
    stop = None if cap is None else min(cap + 1, space_size(spec, n))  # islice takes no stop past sys.maxsize
    levels = list(itertools.islice(_bfs(spec, n, src), stop))
    complete = cap is None or len(levels) <= cap
    distances = {code: d for d, level in enumerate(levels) for code in level}
    return BfsReport(spec, n, src, cap, complete, [len(level) for level in levels], distances)


@dataclass
class ComponentsReport:
    vertex_count: int
    count: int
    sizes: list[int]  # by least code, so a giant component comes first

    def to_json(self) -> dict:
        return asdict(self)


def components(spec: FieldSpec, n: int) -> ComponentsReport:
    """Connected components of the commuting graph, in closed form.

    At n = 2 they are the q^2 + q + 1 planes F[A] minus the scalars, as every
    non-scalar 2x2 centralizer is F[A].  For n >= 3 the graph is connected at
    composite n; at prime n the N = |GL_n(q)| / (n(q^n - 1)) copies of F_{q^n}
    minus the scalars are components of their own and the rest is one giant
    (Akbari, Bidkhori and Mohammadian, Comm. Algebra 36, 2008).  The giant
    comes first: it holds the least non-scalar code, the derogatory E_11.
    """
    q, total = spec.order, space_size(spec, n)
    if n == 1:
        sizes = []
    elif n == 2:
        sizes = [q * q - q] * (q * q + q + 1)
    elif _is_prime(n):
        fields = math.prod(q**n - q**i for i in range(n)) // (n * (q**n - 1))
        sizes = [total - q - fields * (q**n - q)] + [q**n - q] * fields
    else:
        sizes = [total - q]
    return ComponentsReport(total - q, len(sizes), sizes)


def diameter(spec: FieldSpec, n: int) -> int:
    """Largest finite eccentricity over all vertices: one BFS sweep from each
    non-scalar orbit representative, since automorphisms keep eccentricity."""
    space_size(spec, n, DIAMETER_CAP)
    scalars = _scalar_codes(spec, n)
    sweeps = (_bfs(spec, n, c) for c in _orbits(spec, n)[0].tolist() if c not in scalars)
    return max((sum(1 for _ in levels) - 1 for levels in sweeps), default=0)


# ---------------------------------------------------------------------------
# restricted mode: decide distance <= 3 for one pair without global BFS


def restricted_distance_le_3(a: ExactMatrix, b: ExactMatrix):
    """Search for a chain a <-> C <-> D <-> B with non-scalar C, D.

    Enumerates the centralizer of `a` up to scaling and shifts by the
    identity, which suffices: commuting with D is unchanged under
    C -> u*C + v*I, so one representative per projective class of the quotient
    centralizer(a)/<I> covers every candidate, in the code order of
    `_projective_coeffs` and at most _CLASS_CAP of them.  One product forms the C of a
    `_blocks` block, and `_shares_commuter` (B's powers formed once) tells which share a
    non-scalar commuter with B, from the n - 1 commutators [B^k, C] when B is nonderogatory,
    else [C^k, B], else the lifts; only the first such class gets `_commutant`.  Complete
    for the <=3 question; returns the chain (C, D) or None."""
    _check_vertex_pair(a, b)
    spec, n = a.spec, a.nrows
    basis = _commutant(a)
    # vec(I) sums the basis vectors whose free column, their last nonzero
    # entry, is diagonal, so the others and all but the last of those span the quotient
    last = max(k for k, v in enumerate(basis) if max(i for i, x in enumerate(v) if x) % (n + 1) == 0)
    quotient = np.array(basis[:last] + basis[last + 1 :])
    coeffs = _projective_coeffs(spec, len(quotient), _CLASS_CAP)

    def joint(part):  # the classes whose C shares a non-scalar commuter with b
        cs = _ff_matmul(spec, coeffs[part], quotient).reshape(-1, n, n)
        return _shares_commuter(spec, n, np.array([b.rows]), cs)

    for idx in _hits(len(coeffs), 2 * n**4, joint):  # the first hit is final: [0] raises if the kernels disagree
        c_mat = unvec(spec, n, _ff_matmul(spec, coeffs[idx : idx + 1], quotient)[0].tolist())
        return c_mat, [d for d in (unvec(spec, n, v) for v in _commutant(c_mat, b)) if not is_scalar(d)][0]
    return None
