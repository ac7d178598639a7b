"""Seeded inputs of the four workloads, built with the benchmark's own arithmetic.

Everything here is plain data: a matrix is a list of rows of ff raw values,
tagged with its field spec string.  The same (workload, seed, size) always
gives the same inputs.  ``size="toy"`` shrinks every list for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ff import (
    Field, identity, inverse, is_scalar, lift_rows, matadd, matmul, nullspace, rank, scale, stack_rank,
)

GF8 = "gf(2^3):1,1,0,1"
GF4 = "gf(2^2):1,1,1"
# (field, n) -> class -> how many pairs of it one pass holds.  A class is
# decided by the benchmark's own arithmetic (see _classify), so every seed
# gets the same make-up and the cost of a pass does not swing with the seed.
# "sweep" counts sweeps: one A against ten matrices B, with B drawn to the
# classes in SWEEP_MIX.
LADDER_GF_MIX = {
    ("gf(2)", 2): {"dich": 16, "d1": 4, "equal": 2, "scalar": 2},
    ("gf(3)", 2): {"dich": 16, "d1": 4, "equal": 2, "scalar": 2},
    ("gf(2)", 3): {"dist3": 10, "dist4": 10, "inf": 6, "d1": 4, "d2": 6, "sweep": 2, "equal": 2, "scalar": 2},
    ("gf(3)", 3): {"far3": 8, "far": 6, "inf-giant": 6, "inf-iso": 2, "d1": 4, "d2": 4, "sweep": 2},
    ("gf(9)", 3): {"pcnone": 40, "d1": 6, "d2": 8, "sweep": 3, "derog": 6},
    (GF8, 3): {"pcnone": 40, "d1": 6, "d2": 8, "sweep": 3, "derog": 6},
    ("gf(3)", 4): {"pcnone": 20, "d1": 6, "d2": 6, "sweep": 2, "derog": 4},
}
SWEEP_MIX = {
    ("gf(2)", 3): {"dist3": 4, "dist4": 4, "inf": 2},
    ("gf(3)", 3): {"far": 8, "inf-giant": 2},
    ("gf(9)", 3): {"pcnone": 10},
    (GF8, 3): {"pcnone": 10},
    ("gf(3)", 4): {"pcnone": 10},
}

# n -> kind -> count, for distance() calls over QQ; "le2" rows are dist_le_2()
# calls, alternately on constructed distance-2 and generic pairs, and "le2g"
# rows dist_le_2() calls on generic pairs only.  The thirty n = 3 pairs of
# similar cost hold the median call; the four n = 7 le2g calls hold the tail
# percentile.
LADDER_QQ_MIX = {
    3: {"small": 6, "large": 6, "skip": 6, "d1": 2, "d2": 6, "derog": 6, "le2": 4},
    4: {"small": 2, "large": 1, "skip": 1, "d1": 2, "d2": 2, "derog": 2, "le2": 3},
    5: {"small": 1, "skip": 1, "d1": 1, "d2": 1, "derog": 1, "le2": 2},
    6: {"skip": 1, "d1": 1, "d2": 1, "derog": 1, "le2": 1},
    7: {"skip": 2, "d1": 1, "le2g": 4},
    8: {"d1": 1, "le2": 1},
}


@dataclass(frozen=True)
class Pair:
    op: str  # "distance" | "dist_le_2"
    field: str
    a: list
    b: list
    kind: str  # how the pair was made


def _rand(F: Field, n: int, rng: random.Random):
    return [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]


def _rand_nonscalar(F: Field, n: int, rng: random.Random):
    while True:
        m = _rand(F, n, rng)
        if not is_scalar(m):
            return m


def _rand_invertible(F: Field, n: int, rng: random.Random):
    while True:
        m = _rand(F, n, rng)
        try:
            return m, inverse(F, m)
        except ZeroDivisionError:
            continue


def _poly(F: Field, c, coeffs):
    """coeffs[0]*I + coeffs[1]*C + coeffs[2]*C^2 + ..."""
    n = len(c)
    acc = scale(F, coeffs[0], identity(F, n))
    power = identity(F, n)
    for co in coeffs[1:]:
        power = matmul(F, power, c)
        acc = matadd(F, acc, scale(F, co, power))
    return acc


def _in_centralizer(F: Field, c, rng: random.Random, coeff):
    basis = nullspace(F, lift_rows(F, c))
    n = len(c)
    acc = [F.zero] * (n * n)
    for v in basis:
        t = coeff(rng)
        acc = [F.add(x, F.mul(t, y)) for x, y in zip(acc, v)]
    return [acc[i * n : (i + 1) * n] for i in range(n)]


def _hub(F: Field, n: int, rng: random.Random, rand_inv):
    """A conjugate of diag(0, ..., 0, 1): its centralizer is large."""
    p, pinv = rand_inv()
    e = [[F.one if i == j == n - 1 else F.zero for j in range(n)] for i in range(n)]
    return matmul(F, matmul(F, p, e), pinv)


def _shared_commuter_pair(F, n, rng, rand_inv, coeff, want: int):
    """A pair at distance exactly `want` (1 or 2) through a common commuter."""
    while True:
        if want == 1:
            c = _rand_nonscalar(F, n, rng) if F.finite else _rand_qq(n, rng, 5, 1)
            a = _poly(F, c, [coeff(rng) for _ in range(n)])
            b = _poly(F, c, [coeff(rng) for _ in range(n)])
        else:
            c = _hub(F, n, rng, rand_inv)
            a = _in_centralizer(F, c, rng, coeff)
            b = _in_centralizer(F, c, rng, coeff)
        if is_scalar(a) or is_scalar(b) or a == b:
            continue
        if (matmul(F, a, b) == matmul(F, b, a)) == (want == 1):
            return a, b


def _derogatory(F, n, rng, rand_inv):
    """A non-scalar matrix similar to diag(l, l, m, ...): minimal polynomial below n."""
    while True:
        vals = [rng.randrange(F.q) if F.finite else Fraction(rng.randint(-4, 4)) for _ in range(n - 1)]
        d = [[(vals[0] if i == n - 1 else vals[i]) if i == j else F.zero for j in range(n)]
             for i in range(n)]
        if is_scalar(d):
            continue
        p, pinv = rand_inv()
        return matmul(F, matmul(F, p, d), pinv)


def _isolated(F: Field, a) -> bool:
    """A 3x3 matrix with no eigenvalue in F: its characteristic polynomial is
    an irreducible cubic, F[A] is a field, and its component is F[A] minus
    the scalars (tiny), not the giant one."""
    def det3(m):
        t = [F.mul(m[0][0], F.sub(F.mul(m[1][1], m[2][2]), F.mul(m[1][2], m[2][1]))),
             F.mul(m[0][1], F.sub(F.mul(m[1][0], m[2][2]), F.mul(m[1][2], m[2][0]))),
             F.mul(m[0][2], F.sub(F.mul(m[1][0], m[2][1]), F.mul(m[1][1], m[2][0])))]
        return F.add(F.sub(t[0], t[1]), t[2])

    return all(det3([[F.sub(x, lam) if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(a)]) for lam in range(F.q))


def _classify(F: Field, n: int, a, b) -> str:
    """The class of a pair as the LADDER_GF_MIX quotas name them."""
    if a == b:
        return "equal"
    if is_scalar(a) or is_scalar(b):
        return "scalar"
    if matmul(F, a, b) == matmul(F, b, a):
        return "d1"
    if stack_rank(F, a, b) <= n * n - 2:
        return "d2"
    if n == 2:
        return "dich"
    if (F.spec, n) == ("gf(2)", 3):
        from checks import encode, gf2_n3_table

        d = int(gf2_n3_table()["dist"][encode(F, a), encode(F, b)])
        return "inf" if d < 0 else f"dist{d}"
    if (F.spec, n) == ("gf(3)", 3):
        if _isolated(F, a):
            return "inf-iso"
        return "inf-giant" if _isolated(F, b) else "far"
    from checks import pc_kinds

    kinds = pc_kinds(F, a, b)  # beyond the BFS cap: the certificates decide
    return "pc" + ("both" if len(kinds) == 2 else next(iter(kinds), "none"))


def _draw(F: Field, n: int, rng: random.Random, want: str, a=None, tries: int = 5000):
    """A uniformly random pair (or B for a given A) of class `want`, or None
    when `tries` draws found none (a given A may have no such partner)."""
    for _ in range(tries):
        x = a if a is not None else _rand(F, n, rng)
        y = _rand(F, n, rng)
        if _classify(F, n, x, y) == want:
            return x, y
    return None


def _distance3(F: Field, n: int, rng: random.Random):
    """A pair at distance exactly 3: A <-> C <-> D <-> B with C, D commuting
    and non-scalar, and a stacked-lift rank above n^2 - 2.  C and D are
    conjugates of diag(0, ..., 0, 1) and diag(1, 0, ..., 0) by one matrix."""
    def coeff(r):
        return r.randrange(F.q)

    while True:
        p, pinv = _rand_invertible(F, n, rng)
        ends = [[[F.one if i == j == k else F.zero for j in range(n)] for i in range(n)]
                for k in (n - 1, 0)]
        c, d = (matmul(F, matmul(F, p, e), pinv) for e in ends)
        a = _in_centralizer(F, c, rng, coeff)
        b = _in_centralizer(F, d, rng, coeff)
        if not (is_scalar(a) or is_scalar(b)) and stack_rank(F, a, b) > n * n - 2:
            return a, b


def _sweep(F: Field, n: int, rng: random.Random, bmix: dict, size: str):
    """One non-derogatory A (outside the tiny components) and its partners,
    drawn to `bmix`; an A without such partners is replaced."""
    while True:
        a = _rand_nonscalar(F, n, rng)
        if (n == 3 and _isolated(F, a)) or rank(F, lift_rows(F, a)) != n * n - n:
            continue
        bs = []
        for bkind, bcount in bmix.items():
            for _ in range(bcount if size != "toy" else 1):
                pair = _draw(F, n, rng, bkind, a, tries=300)
                if pair is None:
                    break
                bs.append(pair[1])
        if len(bs) == (sum(bmix.values()) if size != "toy" else len(bmix)):
            return a, bs


def ladder_gf(seed: int, size: str = "full") -> list[Pair]:
    rng = random.Random(f"ladder-gf/{seed}")
    out: list[Pair] = []
    for (spec, n), mix in LADDER_GF_MIX.items():
        F = Field(spec)

        def coeff(r, F=F):
            return r.randrange(F.q)

        def rand_inv(F=F, n=n):
            return _rand_invertible(F, n, rng)

        for kind, count in mix.items():
            if size == "toy":
                count = min(count, 1)
            for _ in range(count):
                if kind in ("d1", "d2"):
                    a, b = _shared_commuter_pair(F, n, rng, rand_inv, coeff, int(kind[1]))
                elif kind == "equal":
                    a = _rand_nonscalar(F, n, rng)
                    b = [r[:] for r in a]
                elif kind == "scalar":
                    a, b = scale(F, rng.randrange(F.q), identity(F, n)), _rand_nonscalar(F, n, rng)
                elif kind == "derog":  # only scalar-side certificates: pc-scalar-side
                    while True:
                        a = _derogatory(F, n, rng, rand_inv)
                        if _draw(F, n, rng, "pcscalar", a, tries=1) is not None:
                            break
                    b = _draw(F, n, rng, "pcscalar", a, tries=10**6)[1]
                elif kind == "far3":
                    a, b = _distance3(F, n, rng)
                elif kind == "sweep":
                    a, bs = _sweep(F, n, rng, SWEEP_MIX[spec, n], size)
                    out += [Pair("distance", spec, a, b, kind) for b in bs]
                    continue
                else:
                    a, b = _draw(F, n, rng, kind, tries=10**6)
                out.append(Pair("distance", spec, a, b, kind))
    return out


def _rand_qq(n: int, rng: random.Random, height: int, den: int | list):
    dens = den if isinstance(den, list) else list(range(1, den + 1))
    return [[Fraction(rng.randint(-height, height), rng.choice(dens)) for _ in range(n)]
            for _ in range(n)]


def _no_cert_mod3(n: int, rng: random.Random, height: int, den):
    """A generic rational pair with no certificate modulo 3, so that the
    heuristic search stops at its first prime on every seed."""
    from checks import pc_kinds

    f3 = Field("gf(3)")
    while True:
        a, b = _rand_qq(n, rng, height, den), _rand_qq(n, rng, height, den)
        red = [[[x.numerator * pow(x.denominator, -1, 3) % 3 for x in row] for row in m] for m in (a, b)]
        if not pc_kinds(f3, *red):
            return a, b


def _unimodular(n: int, rng: random.Random):
    """An integer matrix of determinant 1 with its integer inverse."""
    F = Field("qq")
    lo = [[Fraction(rng.randint(-2, 2)) if j < i else Fraction(int(i == j)) for j in range(n)]
          for i in range(n)]
    up = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(int(i == j)) for j in range(n)]
          for i in range(n)]
    p = matmul(F, lo, up)
    return p, inverse(F, p)


def ladder_qq(seed: int, size: str = "full") -> list[Pair]:
    rng = random.Random(f"ladder-qq/{seed}")
    F = Field("qq")
    out: list[Pair] = []

    def coeff(r):
        return Fraction(r.randint(-3, 3))

    le2_count = 0
    for n, mix in LADDER_QQ_MIX.items():
        if size == "toy" and n > 4:
            break

        def rand_inv(n=n):
            return _unimodular(n, rng)

        for kind, count in mix.items():
            if size == "toy":
                count = min(count, 1)
            for _ in range(count):
                if kind == "small":  # integer entries: every pc prime is usable
                    a, b = _no_cert_mod3(n, rng, 9, 1)
                elif kind == "large":  # heights near 10^6, denominators prime to 3*5*7*11
                    a, b = _no_cert_mod3(n, rng, 10**6, [1, 2, 4, 13])
                elif kind == "skip":  # denominators 3, 5 and 7 appear: those primes are skipped
                    a, b = _rand_qq(n, rng, 9, 9), _rand_qq(n, rng, 9, 9)
                    a[0][0], a[0][1], a[1][0] = Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7)
                elif kind in ("d1", "d2"):
                    a, b = _shared_commuter_pair(F, n, rng, rand_inv, coeff, int(kind[1]))
                elif kind == "derog":
                    a, b = _derogatory(F, n, rng, rand_inv), _rand_qq(n, rng, 9, 1)
                elif kind == "le2" and le2_count % 2 == 0:
                    a, b = _shared_commuter_pair(F, n, rng, rand_inv, coeff, 2)
                else:  # le2 (odd turn) and le2g: generic
                    a, b = _rand_qq(n, rng, 9, 9), _rand_qq(n, rng, 9, 9)
                le2_count += kind == "le2"
                op = "dist_le_2" if kind.startswith("le2") else "distance"
                out.append(Pair(op, "qq", a, b, kind))
    return out


@dataclass(frozen=True)
class CensusCall:
    fn: str  # a census or graph function name
    field: str
    n: int
    kwargs: dict


def census_calls(seed: int, size: str = "full") -> list[CensusCall]:
    """One cold pass of the census workload; the seed drives the sampled calls.

    The exhaustive GF(2) distance-2 count and the six sampled calls cost about
    the same and sit in the middle of the fourteen by cost, so the median call
    is one of them on every seed.
    """
    s = 1000 + seed
    if size == "toy":
        return [
            CensusCall("count_commuting_pairs", "gf(2)", 2, {}),
            CensusCall("count_commuting_pairs", GF4, 2, {}),
            CensusCall("count_dist_le_2", "gf(2)", 3, {}),
            CensusCall("count_dist_le_2", "gf(3)", 3, {"samples": 40, "seed": s}),
            CensusCall("derogatory_count", "gf(2)", 3, {}),
            CensusCall("zi_pair_census", "gf(2)", 4, {"i": 1, "samples": 20, "seed": s}),
            CensusCall("components", "gf(2)", 3, {}),
            CensusCall("diameter", "gf(2)", 3, {}),
        ]
    return [
        CensusCall("count_commuting_pairs", "gf(2)", 3, {}),
        CensusCall("count_commuting_pairs", "gf(3)", 3, {}),
        CensusCall("count_commuting_pairs", GF4, 2, {}),
        CensusCall("count_dist_le_2", "gf(2)", 3, {}),
        CensusCall("count_dist_le_2", "gf(3)", 3, {"samples": 1500, "seed": s}),
        CensusCall("count_dist_le_2", "gf(5)", 3, {"samples": 1500, "seed": s + 1}),
        CensusCall("count_dist_le_2", "gf(3)", 3, {"samples": 1500, "seed": s + 2}),
        CensusCall("count_dist_le_2", "gf(5)", 3, {"samples": 1500, "seed": s + 3}),
        CensusCall("derogatory_count", "gf(3)", 3, {}),
        CensusCall("zi_pair_census", "gf(2)", 4, {"i": 1, "samples": 1000, "seed": s + 4}),
        CensusCall("zi_pair_census", "gf(2)", 4, {"i": 2, "samples": 200, "seed": s + 5}),
        CensusCall("components", "gf(2)", 3, {}),
        CensusCall("components", "gf(3)", 3, {}),
        CensusCall("diameter", "gf(2)", 3, {}),
    ]


# The GF(5) 3x3 pairs that commute.distance sends to an unbudgeted BFS over
# 1,953,125 codes.  They do not depend on the seed: they fail every time.
# The first puts a generic A against the companion matrix of x^3 + x + 1,
# whose component is tiny, so BFS from A must exhaust the giant component;
# the second is the first pair of random.Random(2) beyond distance 2.
GF5_STUCK = [
    ([[3, 3, 0], [2, 4, 3], [3, 2, 3]], [[0, 0, 4], [1, 0, 4], [0, 1, 0]]),
    ([[0, 0, 0], [2, 1, 2], [2, 4, 1]], [[4, 0, 4], [1, 3, 3], [4, 2, 4]]),
]
CLI_TIMEOUT_S = 2.0  # per GF(5) call, in reference seconds; every other call ends well within it
QUICK_REPEATS = 2


@dataclass(frozen=True)
class CliCall:
    name: str
    argv: list
    data: dict  # what the checker needs: field and matrices as ff raw values


def _mjson(F: Field, spec: str, m) -> str:
    import json

    return json.dumps({"field": spec, "rows": [[F.to_json(x) for x in r] for r in m]})


def _companion_cubic(F: Field, c0: int, c1: int, c2: int):
    """Companion matrix of x^3 + c2 x^2 + c1 x + c0."""
    neg = F.neg_t
    return [[0, 0, neg[c0]], [1, 0, neg[c1]], [0, 1, neg[c2]]]


def cli_calls(seed: int, size: str = "full") -> list[CliCall]:
    rng = random.Random(f"cli-cold/{seed}")
    out: list[CliCall] = []
    f3 = Field("gf(3)")
    # GF(3) 3x3: A generic, B conjugate to the companion of the irreducible
    # x^3 - x - 1, so B's component is F[B] minus scalars and d(A, B) is infinite.
    p, pinv = _rand_invertible(f3, 3, rng)
    b = matmul(f3, matmul(f3, p, _companion_cubic(f3, 2, 2, 0)), pinv)
    while True:
        a = _rand_nonscalar(f3, 3, rng)
        if matmul(f3, a, b) != matmul(f3, b, a):
            break
    gf3_call = CliCall("distance-gf3-n3", ["distance", "--a", _mjson(f3, "gf(3)", a), "--b",
                                            _mjson(f3, "gf(3)", b)], {"field": "gf(3)", "a": a, "b": b})
    # GF(2) 4x4 at distance exactly 3: A <-> C <-> D <-> B with D in C's centralizer.
    f2 = Field("gf(2)")
    n = 4 if size != "toy" else 3
    while True:
        c = _rand_nonscalar(f2, n, rng)
        d = _in_centralizer(f2, c, rng, lambda r: r.randrange(2))
        a4 = _in_centralizer(f2, c, rng, lambda r: r.randrange(2))
        b4 = _in_centralizer(f2, d, rng, lambda r: r.randrange(2))
        if is_scalar(d) or d == c or is_scalar(a4) or is_scalar(b4):
            continue
        if stack_rank(f2, a4, b4) > n * n - 2:
            break
    gf2_call = CliCall(f"distance-gf2-n{n}", ["distance", "--a", _mjson(f2, "gf(2)", a4), "--b",
                                               _mjson(f2, "gf(2)", b4)], {"field": "gf(2)", "a": a4, "b": b4})
    quick = [
        CliCall("census-commuting-pairs", ["census", "--field", "gf(2)", "--n", "3", "--quantity",
                                           "commuting-pairs"], {}),
        CliCall("census-dist-le-2-sampled", ["census", "--field", "gf(3)", "--n", "3", "--quantity",
                                             "dist-le-2", "--samples", "200", "--seed", str(seed)], {}),
        CliCall("components-gf2-n3", ["components", "--field", "gf(2)", "--n", "3"], {}),
        CliCall("pc-search-gf9", ["pc-search", "--field", "gf(9)", "--a", "fixture:ex410_A",
                                  "--b", "fixture:ex410_B"], {"field": "gf(9)"}),
        CliCall("dist2-qq", ["dist2", "--field", "qq", "--a", "fixture:ex25_A", "--b",
                             "fixture:ex25_B"], {"field": "qq"}),
        CliCall("distance-qq-ex46", ["distance", "--field", "qq", "--a", "fixture:ex46_A",
                                     "--b", "fixture:ex46_B"], {"field": "qq"}),
    ]
    # Each quick call runs QUICK_REPEATS times, so the median call of a round
    # is a quick one and sits among many samples of them.
    out += quick * (QUICK_REPEATS if size != "toy" else 1)
    out.append(gf2_call)
    if size != "toy":  # the GF(3) adjacency build alone takes seconds
        out.append(gf3_call)
    f5 = Field("gf(5)")
    for i, (a5, b5) in enumerate(GF5_STUCK[: 1 if size == "toy" else None]):
        out.append(CliCall(f"distance-gf5-n3-stuck{i}", ["distance", "--a", _mjson(f5, "gf(5)", a5),
                                                         "--b", _mjson(f5, "gf(5)", b5)],
                           {"field": "gf(5)", "a": a5, "b": b5, "stuck": True}))
    return out
