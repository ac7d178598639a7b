"""Checks of commdist's outputs against computations made apart from it.

Nothing here imports commdist.  Arithmetic comes from ff.py (own GF(p^k)
tables, sympy ranks over QQ), brute force runs on numpy, and commuting-pair
counts come from the Feit-Fine generating function.  Each check returns a
list of problems; an empty list means the output passed.  Every reference
value is computed afresh in each run; nothing is cached on disk.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from pathlib import Path

import numpy as np

from ff import (
    Field,
    commutes,
    is_scalar,
    lift_rows,
    mat_from_json,
    matmul,
    nullspace,
    poly_no_const,
    rank,
    stack_rank,
)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "src" / "commdist" / "data" / "fixtures"


# ---------------------------------------------------------------------------
# closed forms and brute force


def gl_order(q: int, n: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


@functools.lru_cache(maxsize=None)
def feit_fine(q: int, n: int) -> int:
    """Number of commuting pairs in Mat_n(GF(q)).

    Feit and Fine (1960): sum_n P_n x^n / |GL_n(q)| equals
    prod_{i>=1} prod_{j>=0} 1/(1 - q^(1-j) x^i); the inner product is
    sum_m (q x^i)^m / prod_{k=1..m} (1 - q^-k) by the q-binomial theorem.
    """
    series = [Fraction(0)] * (n + 1)
    series[0] = Fraction(1)
    for i in range(1, n + 1):
        factor = [Fraction(0)] * (n + 1)
        denom = Fraction(1)
        for m in range(n // i + 1):
            if m:
                denom *= 1 - Fraction(1, q**m)
            factor[i * m] = Fraction(q**m) / denom
        series = [sum(series[a] * factor[d - a] for a in range(d + 1)) for d in range(n + 1)]
    value = series[n] * gl_order(q, n)
    assert value.denominator == 1
    return int(value)


def decode(F: Field, n: int, code: int):
    """Matrix of a code: row-major entries, base-q digits, least significant first."""
    digits = []
    for _ in range(n * n):
        digits.append(code % F.q)
        code //= F.q
    return [digits[i * n : (i + 1) * n] for i in range(n)]


def encode(F: Field, m) -> int:
    return sum(x * F.q**t for t, x in enumerate(v for row in m for v in row))


def _all_matrices(q: int, n: int) -> np.ndarray:
    codes = np.arange(q ** (n * n), dtype=np.int64)
    pos = q ** np.arange(n * n, dtype=np.int64)
    return ((codes[:, None] // pos[None, :]) % q).reshape(-1, n, n)


@functools.lru_cache(maxsize=None)
def gf2_n3_table() -> dict:
    """Distances, components, diameter and the distance<=2 pair count of the
    commuting graph of 3x3 matrices over GF(2), by numpy brute force."""
    mats = _all_matrices(2, 3)
    total = len(mats)
    ab = np.einsum("aij,bjk->abik", mats, mats) % 2
    comm = np.all(ab == ab.transpose(1, 0, 2, 3), axis=(2, 3))
    scalars = [0, sum(2 ** (i * 4) for i in range(3))]
    nonscalar = np.ones(total, dtype=bool)
    nonscalar[scalars] = False
    # pairs sharing a non-scalar commuter (joint centralizer beyond the scalars)
    k = comm[:, nonscalar].astype(np.int64)
    le2_pairs = int(np.count_nonzero(k @ k.T))
    adj = comm & nonscalar[:, None] & nonscalar[None, :]
    np.fill_diagonal(adj, False)
    dist = np.full((total, total), -1, dtype=np.int64)
    for s in np.flatnonzero(nonscalar):
        dist[s, s] = 0
        frontier = np.zeros(total, dtype=bool)
        frontier[s] = True
        level = 0
        while frontier.any():
            level += 1
            reach = adj[frontier].any(axis=0) & (dist[s] < 0)
            dist[s, reach] = level
            frontier = reach
    seen = np.zeros(total, dtype=bool)
    sizes = []
    for s in np.flatnonzero(nonscalar):
        if not seen[s]:
            members = dist[s] >= 0
            seen |= members
            sizes.append(int(members.sum()))
    return {
        "dist": dist,
        "components": {"vertex_count": int(nonscalar.sum()), "count": len(sizes), "sizes": sizes},
        "diameter": int(dist.max()),
        "pairs_dist_le_2": le2_pairs,
    }


@functools.lru_cache(maxsize=None)
def gf3_n3_components() -> dict:
    """Components of the GF(3) 3x3 commuting graph by union-find over the
    benchmark's own centralizers, in order of their smallest code."""
    F = Field("gf(3)")
    n, total = 3, 3**9
    scalars = {c * (1 + 3**4 + 3**8) for c in range(3)}
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pos = [3**t for t in range(9)]
    for code in range(total):
        if code in scalars:
            continue
        basis = np.array(nullspace(F, lift_rows(F, decode(F, n, code))), dtype=np.int64)
        d = len(basis)
        coeffs = (np.arange(3**d)[:, None] // 3 ** np.arange(d)[None, :]) % 3
        combos = coeffs @ basis % 3
        for c in (combos @ np.array(pos)).tolist():
            if c not in scalars:
                ra, rb = find(code), find(c)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    sizes: dict[int, int] = {}
    for code in range(total):
        if code not in scalars:
            r = find(code)
            sizes[r] = sizes.get(r, 0) + 1
    ordered = [sizes[r] for r in sorted(sizes)]
    return {"vertex_count": total - 3, "count": len(ordered), "sizes": ordered}


def philox_codes(seed: int, count: int, modulus: int) -> list[int]:
    """The documented census sampler: sample j is Philox block j of the seed."""
    from numpy.random import Philox

    raw = Philox(key=seed).random_raw(4 * count)
    return [((int(raw[4 * j]) << 64) | int(raw[4 * j + 1])) % modulus for j in range(count)]


# ---------------------------------------------------------------------------
# single results


def _chain_ok(F: Field, a, b, chain) -> bool:
    members = [a] + chain + [b]
    return all(commutes(F, x, y) for x, y in zip(members, members[1:])) and not any(
        is_scalar(c) for c in chain
    )


def _normalized(v) -> bool:
    nz = [x for x in v if x]
    return bool(nz) and nz[0] == 1


def _pc_classes(F: Field, length: int):
    out = []
    for code in range(1, F.q**length):
        v = [(code // F.q**t) % F.q for t in range(length)]
        if _normalized(v):
            out.append(v)
    return out


def pc_kinds(F: Field, a, b) -> set[str]:
    """Kinds of every normalized certificate by exhaustive scan: "chain" when
    p(A) and q(B) are both non-scalar, "scalar" when one of them is scalar."""
    n = len(a)
    classes = _pc_classes(F, n - 1)
    pa = [poly_no_const(F, a, c) for c in classes]
    qb = [poly_no_const(F, b, d) for d in classes]
    kinds = set()
    for x in pa:
        for y in qb:
            if commutes(F, x, y):
                kinds.add("scalar" if is_scalar(x) or is_scalar(y) else "chain")
    return kinds


def isolated_component(F: Field, b) -> list | None:
    """F[B] minus scalars when it is a whole component (every member's
    centralizer is F[B] itself), else None."""
    n = len(b)
    if rank(F, lift_rows(F, b)) != n * n - n:
        return None
    members = []
    powers = [[[F.one if i == j else F.zero for j in range(n)] for i in range(n)], b, matmul(F, b, b)]
    for code in range(F.q**3):
        cs = [(code // F.q**t) % F.q for t in range(3)]
        m = [[F.zero] * n for _ in range(n)]
        for c, pw in zip(cs, powers):
            m = [[F.add(x, F.mul(c, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(m, pw)]
        if is_scalar(m):
            continue
        if rank(F, lift_rows(F, m)) != n * n - n:
            return None
        members.append(m)
    return members


def check_certificate(F: Field, a, b, cert: dict):
    """(problems, p(A), q(B)) for a polynomial-commuting certificate."""
    n = len(a)
    cs = [F.from_json(x) for x in cert.get("cs", [])]
    ds = [F.from_json(x) for x in cert.get("ds", [])]
    if not (len(cs) == len(ds) == n - 1 and _normalized(cs) and _normalized(ds)):
        return ["certificate shape or normalization"], None, None
    pa, qb = poly_no_const(F, a, cs), poly_no_const(F, b, ds)
    bad = []
    if not commutes(F, pa, qb):
        bad.append("[p(A), q(B)] != 0")
    if cert.get("pa_scalar") != is_scalar(pa) or cert.get("qb_scalar") != is_scalar(qb):
        bad.append("scalar flags")
    return bad, pa, qb


def check_distance(F: Field, a, b, res: dict, table: dict | None = None) -> list[str]:
    """Problems with one distance() report; [] when it is right."""
    n = len(a)
    nsq = n * n
    kind, by = res.get("kind"), res.get("decided_by")
    wit = [mat_from_json(F, w["rows"]) for w in res.get("witness") or []]
    bad = []

    def need(cond, what):
        if not cond:
            bad.append(f"{by}: {what}")

    if by == "equal":
        need(a == b and kind == "exact" and res.get("value") == 0, "pair is not equal")
        return bad
    need(a != b, "equal pair not decided as equal")
    if by == "scalar-convention":
        need((is_scalar(a) or is_scalar(b)) and res.get("value") == 1, "no scalar side")
        return bad
    need(not is_scalar(a) and not is_scalar(b), "scalar pair beyond the conventions")
    if by == "commuting":
        need(commutes(F, a, b) and res.get("value") == 1, "pair does not commute")
        return bad
    need(not commutes(F, a, b), "commuting pair beyond distance 1")
    r = stack_rank(F, a, b)
    if by == "rank-criterion":
        need(kind == "exact" and res.get("value") == 2, "not exact(2)")
        need(len(wit) == 1 and _chain_ok(F, a, b, wit), "witness is not a common non-scalar commuter")
        need(r <= nsq - 2, f"independent rank {r} > n^2-2")
    else:
        need(r > nsq - 2, f"independent rank {r} <= n^2-2 but result is beyond 2")
    if by == "two-by-two-dichotomy":
        need(n == 2 and kind == "infinite", "not a 2x2 infinite result")
    elif by == "bfs":
        need(F.finite, "bfs over an infinite field")
        if kind == "exact":
            need(res.get("value") == len(wit) + 1 and _chain_ok(F, a, b, wit), "witness chain fails")
        else:
            need(kind == "infinite" and not wit, "bfs result is neither exact nor infinite")
    elif by in ("pc-chain", "pc-scalar-side"):
        cert_bad, pa, qb = check_certificate(F, a, b, res.get("certificate") or {})
        bad += [f"{by}: {x}" for x in cert_bad]
        if not cert_bad and by == "pc-chain":
            need(kind == "exact" and res.get("value") == 3 and wit == [pa, qb]
                 and _chain_ok(F, a, b, wit), "chain a-p(A)-q(B)-b fails")
        elif not cert_bad:
            need(kind == "bounded" and (is_scalar(pa) or is_scalar(qb)), "no scalar side")
    elif by == "pc-none":
        need(F.finite and kind == "bounded" and res.get("lower") == 3, "not bounded(3, inf)")
        need(not pc_kinds(F, a, b), "an independent scan finds a certificate")
    elif by in ("pc-unknown", "pc-cap-exceeded"):
        need(kind == "bounded" and res.get("lower") == 3 and res.get("upper") == "inf",
             "not bounded(3, inf)")
        if by == "pc-cap-exceeded":
            need("exceed" in res.get("note", ""), "note does not name the cap")
    elif by != "rank-criterion":
        bad.append(f"unknown rung {by!r}")
    if table is not None and not bad:
        d = int(table["dist"][encode(F, a), encode(F, b)])
        want = ("infinite", None) if d < 0 else ("exact", d)
        got = (kind, res.get("value"))
        need(got == want, f"brute-force table says {want}, got {got}")
    return bad


def check_dist_le_2(F: Field, a, b, res) -> list[str]:
    want = stack_rank(F, a, b) <= len(a) ** 2 - 2
    return [] if res is want else [f"dist_le_2 returned {res}, independent rank says {want}"]


# ---------------------------------------------------------------------------
# census reports


def check_census(call, res) -> tuple[list[str], bool]:
    """(problems, exact?) for one census-workload result."""
    F = Field(call.field)
    n = call.n
    if call.fn == "diameter":
        if (call.field, n) != ("gf(2)", 3):
            return [], True
        want = gf2_n3_table()["diameter"]
        return ([] if res == want else [f"diameter {res}, brute force {want}"]), True
    if call.fn == "components":
        if (call.field, n) == ("gf(2)", 3):
            want = gf2_n3_table()["components"]
        else:
            want = gf3_n3_components()
        got = {k: res.get(k) for k in want}
        return ([] if got == want else [f"components {got} != independent {want}"]), True
    value = res.get("value")
    if call.fn == "count_commuting_pairs":
        want = feit_fine(F.q, n)
        return ([] if value == want else [f"commuting pairs {value}, Feit-Fine {want}"]), True
    if call.fn == "derogatory_count":
        want = derogatory_brute(F, n)
        return ([] if value == want else [f"derogatory {value}, brute force {want}"]), True
    if call.fn == "count_dist_le_2" and "samples" not in call.kwargs:
        want = gf2_n3_table()["pairs_dist_le_2"]
        return ([] if value == want else [f"dist<=2 pairs {value}, brute force {want}"]), True
    total = F.q ** (n * n)
    samples, seed = call.kwargs["samples"], call.kwargs["seed"]
    codes = philox_codes(seed, samples, total * total)
    if call.fn == "count_dist_le_2":
        hits = 0
        for pc in codes:
            a, b = decode(F, n, pc // total), decode(F, n, pc % total)
            hits += stack_rank(F, a, b) <= n * n - 2
    else:
        hits = zi_hits(F, n, call.kwargs["i"], codes)
    got = (value or {}).get("hits"), (value or {}).get("samples")
    return ([] if got == (hits, samples) else [f"{call.fn} hits {got}, recount {(hits, samples)}"]), False


def derogatory_brute(F: Field, n: int) -> int:
    """Matrices with a dependence among I, A, ..., A^(n-1), for n = 2 or 3 over GF(p)."""
    assert F.k == 1 and n in (2, 3)
    p = F.p
    mats = _all_matrices(p, n)
    eye = np.eye(n, dtype=np.int64)
    if n == 2:
        return int(sum(np.all(mats == lam * eye, axis=(1, 2)).sum() for lam in range(p)))
    sq = np.einsum("aij,ajk->aik", mats, mats) % p
    hit = np.zeros(len(mats), dtype=bool)
    for alpha in range(p):
        for beta in range(p):
            hit |= np.all(sq == (alpha * eye + beta * mats) % p, axis=(1, 2))
        hit |= np.all(mats == alpha * eye, axis=(1, 2))
    return int(hit.sum())


def zi_hits(F: Field, n: int, i: int, codes: list[int]) -> int:
    """Sampled pairs that commute with a common rank-i idempotent (prime fields)."""
    p = F.p
    total = p ** (n * n)
    mats = _all_matrices(p, n)
    idem = mats[np.all(np.einsum("aij,ajk->aik", mats, mats) % p == mats, axis=(1, 2))]
    pool = np.array([m for m in idem if rank(F, m.tolist()) == i], dtype=np.int64)

    def commuters(code):
        m = np.array(decode(F, n, code), dtype=np.int64)
        left = np.einsum("ij,ajk->aik", m, pool) % p
        right = np.einsum("aij,jk->aik", pool, m) % p
        return np.all(left == right, axis=(1, 2))

    return sum(bool(np.any(commuters(c // total) & commuters(c % total))) for c in codes)
