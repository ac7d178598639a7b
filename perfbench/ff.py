"""Exact arithmetic of the benchmark's own, kept apart from commdist.

Inputs are generated and outputs are checked with this module, so a fault in
commdist's field or elimination code cannot hide itself.  Finite fields use
full addition and multiplication tables built here from the defining
polynomial; elements use commdist's encoding (the coefficients of 1, x, x^2,
... as base-p digits, lowest first), which is the documented JSON format.
The rationals use Fraction, and their ranks come from sympy.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Field:
    """GF(p), GF(p^k) with a given monic modulus, or the rationals."""

    def __init__(self, spec: str):
        self.spec = spec
        s = spec.replace(" ", "").lower()
        if s == "qq":
            self.q = None
            self.zero, self.one = Fraction(0), Fraction(1)
            return
        m = re.fullmatch(r"gf\((\d+)(?:\^(\d+))?\)(?::([\d,]+))?", s)
        if m is None:
            raise ValueError(f"unsupported field {spec!r}")
        p = int(m.group(1))
        k = int(m.group(2) or 1)
        if s == "gf(9)":
            p, k, modulus = 3, 2, [1, 0, 1]
        else:
            modulus = [int(c) for c in m.group(3).split(",")] if m.group(3) else [0, 1]
        self.p, self.k, self.q = p, k, p**k
        self.zero, self.one = 0, 1
        q = self.q
        digits = [[(c // p**i) % p for i in range(k)] for c in range(q)]

        def code(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        self.add_t = [[code([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
                      for a in range(q)]
        self.neg_t = [code([(-x) % p for x in digits[a]]) for a in range(q)]
        self.mul_t = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        prod[i + j] += x * y
                for d in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
                    c = prod[d] % p
                    prod[d] = 0
                    for i in range(k):
                        prod[d - k + i] -= c * modulus[i]
                self.mul_t[a][b] = code([x % p for x in prod[:k]])
        self.inv_t = [0] * q
        for a in range(1, q):
            self.inv_t[a] = next(b for b in range(1, q) if self.mul_t[a][b] == 1)

    @property
    def finite(self) -> bool:
        return self.q is not None

    def add(self, a, b):
        return a + b if self.q is None else self.add_t[a][b]

    def sub(self, a, b):
        return a - b if self.q is None else self.add_t[a][self.neg_t[b]]

    def mul(self, a, b):
        return a * b if self.q is None else self.mul_t[a][b]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.q is None else self.inv_t[a]

    # -- JSON entries (commdist's documented matrix format) -----------------

    def from_json(self, x):
        if self.q is None:
            return Fraction(x)
        if isinstance(x, list):
            return sum((int(c) % self.p) * self.p**i for i, c in enumerate(x))
        return int(x) % self.p

    def to_json(self, a):
        if self.q is None:
            return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        if self.k == 1:
            return a
        return [(a // self.p**i) % self.p for i in range(self.k)]


def mat_from_json(F: Field, rows) -> list[list]:
    return [[F.from_json(x) for x in row] for row in rows]


def mat_to_json(F: Field, m) -> list[list]:
    return [[F.to_json(x) for x in row] for row in m]


def matmul(F: Field, a, b):
    n, m = len(b), len(b[0])
    out = []
    for row in a:
        r = []
        for j in range(m):
            acc = F.zero
            for t in range(n):
                if row[t] and b[t][j]:
                    acc = F.add(acc, F.mul(row[t], b[t][j]))
            r.append(acc)
        out.append(r)
    return out


def matadd(F: Field, a, b):
    return [[F.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(F: Field, c, a):
    return [[F.mul(c, x) for x in row] for row in a]


def identity(F: Field, n: int):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def commutes(F: Field, a, b) -> bool:
    return matmul(F, a, b) == matmul(F, b, a)


def is_scalar(a) -> bool:
    n = len(a)
    return all(a[i][j] == (a[0][0] if i == j else 0) for i in range(n) for j in range(n))


def lift_rows(F: Field, a):
    """Rows of the linear map C -> AC - CA on row-major vec(C)."""
    n = len(a)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F.zero] * (n * n)
            for t in range(n):
                row[t * n + j] = F.add(row[t * n + j], a[i][t])
                row[i * n + t] = F.sub(row[i * n + t], a[t][j])
            rows.append(row)
    return rows


def echelon(F: Field, rows):
    """(reduced rows, pivot columns) by Gauss-Jordan elimination."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(F: Field, rows) -> int:
    if F.q is None:
        return qq_rank(rows)
    return len(echelon(F, rows)[1])


def qq_rank(rows) -> int:
    """Rank over the rationals, computed by sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                      (len(rows), len(rows[0])), QQ)
    return dm.rank()


def nullspace(F: Field, rows):
    red, pivots = echelon(F, rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[free] = F.one
        for i, pc in enumerate(pivots):
            if red[i][free]:
                v[pc] = F.sub(F.zero, red[i][free])
        basis.append(v)
    return basis


def inverse(F: Field, a):
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(F, n))]
    red, pivots = echelon(F, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in red]


def stack_rank(F: Field, a, b) -> int:
    """Rank of the 2n^2 x n^2 stack of the lifts of a and b."""
    return rank(F, lift_rows(F, a) + lift_rows(F, b))


def poly_no_const(F: Field, a, coeffs):
    """sum_i coeffs[i] * a^(i+1)."""
    n = len(a)
    acc = [[F.zero] * n for _ in range(n)]
    power = a
    for idx, c in enumerate(coeffs):
        if c:
            acc = matadd(F, acc, scale(F, c, power))
        if idx + 1 < len(coeffs):
            power = matmul(F, power, a)
    return acc
