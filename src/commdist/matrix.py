"""Dense exact matrices over a FieldSpec.

Entries are stored in raw form (integer codes for finite fields, Fraction for
the rationals).  Rank and nullspace go through reduced row echelon form, which
is unique, so nullspace bases are reproducible across runs and backends.  Three
elimination backends share that contract: XOR elimination on bit-packed rows
for GF(2); one numpy loop for every other finite field; and over the rationals
that loop run modulo primes below 2^31, lifted by CRT and rational
reconstruction and certified by an exact nullspace check over the integers.
`_row_ops` is the one numpy arithmetic of that loop and every batched kernel:
uint8 tables for q <= 256, int64 modulo larger primes, digit sums and exp/log
products in larger extensions.  Rational products clear each row's and
column's denominators once and take integer dot products.

This module also holds what the higher layers share: the integer codec that
enumerates Mat_n over a finite field, the lift M_A built by row slices, the
size caps, a batched kernel for the centralizers of a whole chunk of codes, one
for the pairs that share a non-scalar commuter, the one batched finite-field
product, the orbits of Mat_n under graph automorphisms, the powers of one matrix, the
commutators [A^i, B^j] of one finite-field pair and the joint commutant of single matrices.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, DimMismatch, FieldMismatch, ParseError
from .field import FieldElem, FieldSpec, _ext_tables, _is_prime, _np_tables

SIZE_CAP = 8  # all interesting content lives at n <= 4; larger inputs are mistakes
_MAX_DIM = 2 * SIZE_CAP**2  # the stacked lift [M_A; M_B] at n = SIZE_CAP; anything larger is a mistake
SPACE_CAP = 1 << 24  # codes in one enumeration of Mat_n over a finite field
_PC_CLASS_CAP = 1 << 13  # projective classes c one certificate scan visits
_CLASS_CAP = 1 << 20  # projective classes one restricted distance-3 search visits
SAMPLE_CAP = 1 << 96  # sampled pairs: 128-bit draws modulo the universe stay 2^-32 from uniform
DIAMETER_CAP = 1 << 20  # codes for a diameter: one BFS sweep per orbit representative
PREBUILD_CAP = 1 << 17  # searches keep the neighbor lists they fill below this many codes
_ZERO, _ONE = Fraction(0), Fraction(1)


class ExactMatrix:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("spec", "nrows", "ncols", "rows", "_hash")

    def __new__(cls, spec: FieldSpec, rows):
        converted = [tuple(map(spec.raw_from, row)) for row in rows]
        if converted and converted[0] and any(len(r) != len(converted[0]) for r in converted):
            raise DimMismatch("ragged rows")
        return cls._from_raw(spec, converted)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_raw(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        """Constructor for rows that already hold raw values; every constructor checks the shape here."""
        obj = object.__new__(cls)
        converted = tuple(tuple(row) for row in rows)
        if not converted or not converted[0]:
            raise DimMismatch("matrices need at least one row and one column")
        if len(converted) > _MAX_DIM or len(converted[0]) > _MAX_DIM:
            raise DimMismatch(f"dimension exceeds the {_MAX_DIM} cap")
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "nrows", len(converted))
        object.__setattr__(obj, "ncols", len(converted[0]))
        object.__setattr__(obj, "rows", converted)
        return obj

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        return cls.diag(spec, [spec.ops().one] * n)

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "ExactMatrix":
        z = spec.ops().zero
        return cls._from_raw(spec, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def diag(cls, spec: FieldSpec, entries) -> "ExactMatrix":
        ops = spec.ops()
        raws = [spec.raw_from(x) for x in entries]
        n = len(raws)
        return cls._from_raw(
            spec,
            [[raws[i] if i == j else ops.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def from_json(cls, obj) -> "ExactMatrix":
        """Build from the decoded ``{"field": spec-string, "rows": [[entry, ...], ...]}``."""
        if not isinstance(obj, dict) or not isinstance(obj.get("field"), str):
            raise ParseError("matrix JSON needs a 'field' string and 'rows'")
        if not isinstance(obj.get("rows"), list) or not all(isinstance(r, list) for r in obj["rows"]):
            raise ParseError("matrix JSON 'rows' must be a list of lists")
        return cls(FieldSpec.parse(obj["field"]), obj["rows"])

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_string(),
            "rows": [[self.spec.entry_to_json(x) for x in row] for row in self.rows],
        }

    def to_field(self, target: FieldSpec) -> "ExactMatrix":
        """Reinterpret entries in another field (e.g. reduce rationals mod p)."""
        if target == self.spec:
            return self
        rows = [[target.raw_from(_as_portable(self.spec, x)) for x in row] for row in self.rows]
        return ExactMatrix._from_raw(target, rows)

    # -- accessors ------------------------------------------------------------

    def __getitem__(self, ij) -> FieldElem:
        i, j = ij
        return FieldElem(self.spec, self.rows[i][j])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def raw_rows(self) -> list[list]:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return (
                self.spec == other.spec
                and self.nrows == other.nrows
                and self.rows == other.rows
            )
        return NotImplemented

    def __hash__(self):  # the memos key on matrices, so each is hashed once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.spec, self.rows)))
            return self._hash

    def __repr__(self):
        return f"ExactMatrix({self.spec}, {self.nrows}x{self.ncols})"

    # -- arithmetic -----------------------------------------------------------

    def _check_peer(self, other: "ExactMatrix"):
        if not isinstance(other, ExactMatrix):
            raise TypeError("expected an ExactMatrix")
        if other.spec != self.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def _entrywise(self, other: "ExactMatrix", fn, what: str) -> "ExactMatrix":
        self._check_peer(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimMismatch(f"shape mismatch in {what}")
        return ExactMatrix._from_raw(self.spec, [list(map(fn, ra, rb)) for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, self.spec.ops().add, "add")

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, self.spec.ops().sub, "sub")

    def __neg__(self) -> "ExactMatrix":
        neg = self.spec.ops().neg
        return ExactMatrix._from_raw(self.spec, [[neg(a) for a in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_peer(other)
        if self.ncols != other.nrows:
            raise DimMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        bt = list(zip(*other.rows))  # columns of other
        if self.spec.kind == "rationals":  # integer dot products, each row of A and column of B over one denominator
            (na, da), (nb, db) = (zip(*map(_cleared, m)) for m in (self.rows, bt))
            out = [[Fraction(x, d * e) for x, e in zip(r, db)] for r, d in zip(_int_products(na, nb), da)]
            return ExactMatrix._from_raw(self.spec, out)
        ops = self.spec.ops()
        add, mul, zero = ops.add, ops.mul, ops.zero
        out = []
        for ra in self.rows:
            out_row = []
            for cb in bt:
                acc = zero
                for a, b in zip(ra, cb):
                    acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix._from_raw(self.spec, out)

    def scale(self, scalar) -> "ExactMatrix":
        raw = self.spec.raw_from(scalar)
        mul = self.spec.ops().mul
        return ExactMatrix._from_raw(self.spec, [[mul(raw, a) for a in row] for row in self.rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._from_raw(self.spec, list(zip(*self.rows)))


def _cleared(row) -> tuple[list[int], int]:
    """Integers N and the least d with row = N / d, for a row of Fractions."""
    pairs = [x.as_integer_ratio() for x in row]
    den = math.lcm(*(d for _, d in pairs))
    return [num * (den // d) for num, d in pairs], den


def _int_products(rows, cols) -> list[list[int]]:
    """The integer matrix product with the given rows on the left and columns on the right."""
    return [[sum(map(operator.mul, r, c)) for c in cols] for r in rows]


def _as_portable(spec: FieldSpec, raw):
    """Raw value in a form `raw_from` of another field accepts."""
    # an extension code becomes its coefficient list
    return spec.entry_to_json(raw) if spec.kind == "extension" else raw


# ---------------------------------------------------------------------------
# vec flattening, codes and lifts


def vec(m: ExactMatrix) -> tuple:
    """Row-major flattening of a square matrix: (m_11, m_12, ..., m_nn)."""
    if not m.is_square:
        raise DimMismatch("vec flattening needs a square matrix")
    return tuple(x for row in m.rows for x in row)


def unvec(spec: FieldSpec, n: int, entries) -> ExactMatrix:
    raws = list(entries)
    if len(raws) != n * n:
        raise DimMismatch(f"expected {n * n} entries, got {len(raws)}")
    return ExactMatrix._from_raw(spec, [raws[i * n : (i + 1) * n] for i in range(n)])


def space_size(spec: FieldSpec, n: int, cap: int | None = SPACE_CAP) -> int:
    """Number q^(n^2) of codes for Mat_n over a finite field.

    Raises FieldMismatch over the rationals, DimMismatch for n < 1 and
    CapExceeded for n > SIZE_CAP or q^(n^2) > `cap` (None skips the latter).
    """
    q = spec.order
    if q is None:
        raise FieldMismatch("enumerating matrices needs a finite field")
    if n < 1:
        raise DimMismatch(f"matrix size must be at least 1, got {n}")
    if n > SIZE_CAP:  # before the power, which grows as q^(n^2)
        raise CapExceeded(f"matrix size {n} exceeds the n<={SIZE_CAP} cap")
    total = q ** (n * n)
    if cap is not None and total > cap:
        raise CapExceeded(f"state space {total} exceeds 2^{cap.bit_length() - 1}")
    return total


def encode_matrix(m: ExactMatrix) -> int:
    """Code of a square matrix over a finite field (row-major base-q digits,
    least significant first)."""
    q = m.spec.order
    if q is None:
        raise FieldMismatch("only finite-field matrices have codes")
    if not m.is_square:
        raise DimMismatch("codes are defined for square matrices")
    code = 0
    flat = [x for row in m.rows for x in row]
    for raw in reversed(flat):
        code = code * q + raw
    return code


def decode_matrix(spec: FieldSpec, n: int, code: int) -> ExactMatrix:
    q = spec.order
    if q is None:
        raise FieldMismatch("only finite fields enumerate matrices")
    total = q ** (n * n)
    if not 0 <= code < total:
        raise DimMismatch(f"code {code} out of range for n={n}, q={q}")
    digits = []
    for _ in range(n * n):
        digits.append(code % q)
        code //= q
    return ExactMatrix._from_raw(spec, [digits[i * n : (i + 1) * n] for i in range(n)])


def _scalar_codes(spec: FieldSpec, n: int) -> frozenset[int]:
    q = spec.order
    stride = sum(q ** (i * (n + 1)) for i in range(n))
    return frozenset(lam * stride for lam in range(q))


def _projective_reps(spec: FieldSpec, length: int) -> np.ndarray:
    """Codes of the coefficient vectors whose least significant nonzero
    coordinate is 1, ascending: one per projective class (first coordinate
    least significant)."""
    q = spec.order
    leads = [q**i * (1 + q * np.arange(q ** (length - i - 1), dtype=np.int64)) for i in range(length)]
    return np.sort(np.concatenate([np.zeros(0, np.int64), *leads]))


@functools.lru_cache(maxsize=16)
def _projective_coeffs(spec: FieldSpec, length: int, cap: int) -> np.ndarray:
    """The coefficient vectors of `_projective_reps`, in the same order, as a read-only
    (classes, length) array; CapExceeded above `cap` classes, which lru_cache never keeps."""
    q = spec.order
    classes = (q**length - 1) // (q - 1)
    if classes > cap:
        raise CapExceeded(f"{classes} projective classes exceed 2^{cap.bit_length() - 1}")
    out = _code_digits(q, _projective_reps(spec, length), length)
    out.flags.writeable = False
    return out


def _twin_reps(spec: FieldSpec, n: int) -> np.ndarray:
    """One code per twin class {aA + bI : a != 0} of non-scalar matrices,
    ascending: entry (0, 0) is 0 and the first nonzero entry row by row is 1.
    Twins share their centralizer, so each neighbors the others in the graph."""
    return spec.order * _projective_reps(spec, n * n - 1)


def _check_square(a: ExactMatrix, what: str = "operand"):
    if not a.is_square:
        raise DimMismatch(f"{what} must be square")
    if a.nrows > SIZE_CAP:
        raise CapExceeded(f"{what} size {a.nrows} exceeds the n<={SIZE_CAP} cap")


def is_scalar(a: ExactMatrix) -> bool:
    """True iff a equals lambda*I for some field element (zero counts)."""
    _check_square(a)
    zero = a.spec.ops().zero
    lam = a.rows[0][0]
    for i in range(a.nrows):
        for j in range(a.ncols):
            if (a.rows[i][j] != lam) if i == j else (a.rows[i][j] != zero):
                return False
    return True


def lift_rows_raw(a: ExactMatrix) -> list[list]:
    """Raw rows of M_A = A (x) I - I (x) A^T, so that M_A . vec(C) = vec(AC - CA);
    row (i,j) encodes the (i,j) entry of AC - CA: A[i] at columns (k, j), minus
    column j of A at columns (i, l), and both at their overlap (i, j)."""
    ops = a.spec.ops()
    n, rows = a.nrows, []
    neg_cols = [list(map(ops.neg, col)) for col in zip(*a.rows)]
    for i, row_i in enumerate(a.rows):
        for j in range(n):
            row = [ops.zero] * (n * n)
            row[j::n] = row_i
            row[i * n : (i + 1) * n] = neg_cols[j]
            row[i * n + j] = ops.sub(row_i[i], a.rows[j][j])
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# elimination backends (shared by rank / nullspace / solving)


def rref_raw(spec: FieldSpec, rows: list[list], rank_only=False) -> tuple[list | None, list[int]]:
    """Reduced row echelon form of raw rows.

    Returns (pivot_rows, pivot_cols): only the nonzero rows of the RREF, with
    each pivot normalized to one.  Pivot columns are scanned left to right, so
    the output is the unique RREF and independent of the backend.  With
    `rank_only`, every finite field returns (None, pivot_cols) from a forward
    echelon without back-reduction, and so do full-rank rational inputs.
    """
    if spec.kind == "prime" and spec.p == 2:
        return _rref_gf2(rows, rank_only)
    if spec.kind == "rationals":
        return _rref_rationals(rows, rank_only)
    return _rref_np(spec, rows, rank_only)


def pack_gf2(row) -> int:
    """A GF(2) row as an int with column j at bit j."""
    acc = 0
    for j, x in enumerate(row):
        if x:
            acc |= 1 << j
    return acc


def echelon_gf2(packed) -> dict[int, int]:
    """Forward echelon of packed GF(2) rows, keyed by each kept row's lowest set bit.

    A row is reduced by the kept row sharing its lowest set bit until that bit
    is new or the row vanishes, so the number of keys is the rank.
    """
    kept: dict[int, int] = {}
    for row in packed:
        while row:
            low = row & -row
            other = kept.get(low)
            if other is None:
                kept[low] = row
                break
            row ^= other
    return kept


def _rref_gf2(rows, rank_only=False):
    ncols = len(rows[0])
    kept = echelon_gf2([pack_gf2(r) for r in rows])
    if rank_only:  # the leading bits of any echelon basis are the RREF pivots
        return None, sorted(low.bit_length() - 1 for low in kept)
    pivot_mask = sum(kept)
    # back-reduction from the rightmost pivot: every row used is already clean,
    # so clearing one pivot bit never sets another
    for low in sorted(kept, reverse=True):
        row = kept[low]
        hot = row & pivot_mask & ~low
        while hot:
            bit = hot & -hot
            row ^= kept[bit]
            hot ^= bit
        kept[low] = row
    order = sorted(kept)
    out = [[(kept[low] >> j) & 1 for j in range(ncols)] for low in order]
    return out, [low.bit_length() - 1 for low in order]


_Arith = collections.namedtuple("_Arith", "dtype inv scale clear add neg mul neg_mul invs")


@functools.lru_cache(maxsize=None)
def _row_ops(spec: FieldSpec) -> _Arith:
    """The numpy arithmetic of a finite field: dtype, scalar inverse, row * s
    and rows - f[:, None] * row for `_rref_np`, then x + y, -x, x * y, -(x * y)
    and 1 / x entrywise.  q <= 256 looks up the uint8 `_np_tables`; larger
    primes reduce int64 products mod p (exact below the 2^31 cap), and larger
    extensions add base-p digits and multiply through the exp/log tables."""
    ops = spec.ops()
    if spec.order <= 256:
        add, neg, mul, inv, neg_mul = _np_tables(spec)
        # neg_mul.take(f, 0) holds the rows -f_i * x of the minus-product table
        return _Arith(
            np.uint8, ops.inv, lambda row, s: mul[s].take(row),
            lambda rows, f, row: _lookup(add, rows, neg_mul.take(f, 0).take(row, 1)),
            functools.partial(_lookup, add), neg.__getitem__, functools.partial(_lookup, mul),
            functools.partial(_lookup, neg_mul), inv.__getitem__,
        )
    if spec.kind == "prime":
        p = spec.p
        add, neg, mul = lambda x, y: (x + y) % p, lambda x: -x % p, lambda x, y: x * y % p
        scale, clear = lambda row, s: row * s % p, lambda rows, f, row: (rows - f[:, None] * row) % p

        def invs(x):  # Fermat: x^(p-2) by squaring, each product below p^2 < 2^62
            out = np.ones_like(x)
            for bit in bin(p - 2)[2:]:
                out = out * out % p * (x if bit == "1" else 1) % p
            return out
    else:  # digit i of a code x is x // p^i mod p; exp runs twice over, so a sum of logs indexes it
        t = _ext_tables(spec)
        w, exp, log = np.array(t.weights), np.array(t.exp * 2), np.array(t.log)
        add, neg, mul = (
            lambda x, y: (x[..., None] // w + y[..., None] // w) % t.p @ w,
            lambda x: -(x[..., None] // w) % t.p @ w,
            lambda x, y: np.where((x != 0) & (y != 0), exp[log[x] + log[y]], 0),
        )
        scale, clear = mul, lambda rows, f, row: add(rows, neg(mul(f[:, None], row)))
        invs = lambda x: exp[t.q - 1 - log[x]]  # 1/g^e = g^(q-1-e)
    return _Arith(np.int64, ops.inv, scale, clear, add, neg, mul, lambda x, y: neg(mul(x, y)), invs)


def _rref_np(spec: FieldSpec, rows, rank_only=False):
    """RREF of raw rows over a finite field, one pivot column at a time; with
    `rank_only`, (None, pivots) of a forward echelon that clears only below each pivot."""
    arith = _row_ops(spec)
    mat = np.array(rows, dtype=arith.dtype)
    m, n = mat.shape
    pivots = []
    r = 0
    for c in range(n):
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            mat[[r, pr]] = mat[[pr, r]]
        mat[r] = arith.scale(mat[r], arith.inv(int(mat[r, c])))
        col = mat[:, c].copy()
        col[0 if rank_only else r : r + 1] = 0  # a forward echelon leaves the rows above alone
        hot = np.nonzero(col)[0]
        if hot.size:
            mat[hot] = arith.clear(mat[hot], col[hot], mat[r])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return None if rank_only else mat[:r].tolist(), pivots


@functools.cache
def _lift_prime(i: int) -> int:
    """The i-th prime below 2^31, counting down from 2^31 - 1."""
    p = _lift_prime(i - 1) - 2 if i else 2**31 - 1
    while not _is_prime(p):
        p -= 2
    return p


def _crt(residues: list[int], moduli: list[int]) -> int:
    """The residue modulo prod(moduli) with the given residues (moduli coprime)."""
    basis, modulus = _crt_basis(tuple(moduli))
    return sum(map(operator.mul, residues, basis)) % modulus


@functools.lru_cache(maxsize=64)
def _crt_basis(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    modulus = math.prod(moduli)
    return tuple(modulus // m * pow(modulus // m, -1, m) for m in moduli), modulus


def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Smallest-height fraction a/b with a = r*b (mod m), |a|, b <= sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    (s0, t0), (s1, t1) = (m, 0), (r % m, 1)
    while s1 > bound:
        quo = s0 // s1
        (s0, t0), (s1, t1) = (s1, t1), (s0 - quo * s1, t0 - quo * t1)
    if t1 == 0 or abs(t1) > bound or math.gcd(s1, t1) != 1:
        return None
    return Fraction(s1, t1)


def _rref_rationals(rows, rank_only=False):
    # Clear denominators row by row, take the RREF modulo primes below 2^31 and
    # lift it by CRT and rational reconstruction.  A bad prime loses rank or
    # moves a pivot right, so only primes of the least key (-rank, pivots) are
    # kept.  A candidate R is accepted once M v = 0 over the integers for every
    # nullspace vector v R names: rank(M) <= rank(R) = rank(M mod p) <= rank(M).
    work = [_cleared(row)[0] for row in rows]
    ncols = len(work[0])
    # each RREF entry is a quotient of minors of at most `height` (Hadamard),
    # so good primes whose product exceeds 2 height^2 always reconstruct it
    height = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in work)
    best, kept = None, []
    for p in map(_lift_prime, itertools.count()):
        red, pivots = _rref_np(FieldSpec("prime", p=p), [[x % p for x in row] for row in work])
        if rank_only and len(pivots) == min(len(work), ncols):
            return None, pivots  # the rank modulo p never exceeds the rank over Q
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, kept = key, []
        elif key > best:
            continue
        kept.append((p, red))
        moduli = [q for q, _ in kept]
        modulus = math.prod(moduli)
        rref = [[_ONE if c == pc else _ZERO for c in range(ncols)] for pc in pivots]
        free = [c for c in range(ncols) if c not in pivots]
        # The entries share a denominator, so most lift with one product by the
        # running one, den.  Bottom rows first: with too few primes they tend to fail first.
        bound, den = math.isqrt(modulus // 2), 1
        for r, c in reversed([(r, c) for r, pc in enumerate(pivots) for c in free if c > pc]):
            x = _crt([red[r][c] for _, red in kept], moduli)
            y = (x * den + modulus // 2) % modulus - modulus // 2
            if abs(y) <= bound:
                rref[r][c] = Fraction(y, den) if y else _ZERO
                continue
            rref[r][c] = _rational_reconstruct(x, modulus)
            if rref[r][c] is None:
                break
            den = math.lcm(den, rref[r][c].denominator)
        else:  # den v is integral for each named v; check M (den v) = 0 row by row
            num = [[x.numerator * (den // x.denominator) for x in row] for row in rref]
            if all(
                sum(w[pc] * row[c] for pc, row in zip(pivots, num)) == den * w[c]
                for w in work
                for c in free
            ):
                return rref, pivots
        if modulus > 2 * height * height:
            raise RuntimeError("multimodular RREF over QQ failed past the Hadamard bound")


# ---------------------------------------------------------------------------
# rank / nullspace / powers / minimal polynomial


def rank(m: ExactMatrix) -> int:
    """Exact rank by Gaussian elimination over the matrix's field."""
    return rank_raw(m.spec, m.raw_rows())


def rank_raw(spec: FieldSpec, rows: list[list]) -> int:
    return len(rref_raw(spec, rows, rank_only=True)[1])


def nullspace_raw(spec: FieldSpec, rows: list[list]) -> list[list]:
    rref, pivots = rref_raw(spec, rows)
    n = len(rows[0])
    ops = spec.ops()
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ops.zero] * n
        v[free] = ops.one
        for i, pc in enumerate(pivots):
            coeff = rref[i][free]
            if coeff != ops.zero:
                v[pc] = ops.neg(coeff)
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# batched centralizers and spans over a finite field

_BATCH_CELLS = 1 << 18  # entries of one batched array: bounds the memory of a chunk


def _blocks(count: int, cells_per_item: int):
    """Consecutive slices covering range(count), each of at least one item and
    otherwise of at most _BATCH_CELLS cells at `cells_per_item` cells an item."""
    step = max(1, _BATCH_CELLS // cells_per_item)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _hits(count: int, cells_per_item: int, test):
    """The items i < count that pass `test`, a mask over one `_blocks` slice,
    ascending and lazily, so a caller that stops early skips later blocks."""
    for part in _blocks(count, cells_per_item):
        yield from (part.start + np.flatnonzero(test(part))).tolist()


def _code_digits(q: int, codes: np.ndarray, length: int) -> np.ndarray:
    """Base-q digits of each code, least significant first: (len(codes), length)."""
    return codes[:, None] // q ** np.arange(length, dtype=np.int64) % q


def _code_stack(spec: FieldSpec, n: int, codes) -> np.ndarray:
    """The matrices with the given codes as an (len(codes), n, n) raw array."""
    return _code_digits(spec.order, np.asarray(codes, np.int64), n * n).reshape(-1, n, n)


def _lookup(table: np.ndarray, x, y) -> np.ndarray:
    """table[x, y] for a q x q `_np_tables` table: one take at x * q + y, widened to uint16."""
    return table.take(x.astype(np.uint16) * len(table) + y)


def _lifts(spec: FieldSpec, *mats: np.ndarray) -> np.ndarray:
    """The stacked lifts [M_A; M_B; ...] of (S, n, n) raw arrays A, B, ..., as
    an (S, k n^2, n^2) array of the `_row_ops` dtype for k arrays."""
    arith, (size, n) = _row_ops(spec), mats[0].shape[:2]
    # the lifts of one stack sit next to each other, so a reshape stacks them
    mats, eye = np.stack(mats, 1).astype(arith.dtype).reshape(-1, n, n), np.eye(n, dtype=arith.dtype)
    # M_A = A (x) I - I (x) A^T, row (i, j) and column (k, l)
    lift = arith.add(np.einsum("bik,jl->bijkl", mats, eye), arith.neg(np.einsum("ik,blj->bijkl", eye, mats)))
    return lift.reshape(size, -1, n * n)


def _gauss_jordan(spec: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """Gauss-Jordan in place over an (S, rows, cols) batch of the `_row_ops`
    dtype; returns pivot_row (S, cols), -1 for a free column.  A column's
    pivot is the first unused row with a nonzero entry, and rows are never swapped."""
    arith = _row_ops(spec)
    size, rows, cols = mat.shape
    batch = np.arange(size)
    used, pivot_row = np.zeros((size, rows), bool), np.full((size, cols), -1)
    for c in range(cols):
        open_ = (mat[:, :, c] != 0) & ~used
        has = open_.any(1)
        b, r = batch[has], open_[has].argmax(1)  # the members with a pivot here
        if not len(b):
            continue
        prow = arith.mul(mat[b, r], arith.invs(mat[b, r, c])[:, None])
        factor = mat[b, :, c]
        factor[np.arange(len(b)), r] = 0
        fb, fr = np.nonzero(factor)  # only the rows with something to clear
        mat[b[fb], fr] = arith.add(mat[b[fb], fr], arith.neg_mul(factor[fb, fr][:, None], prow[fb]))
        mat[b, r] = prow
        used[b, r] = True
        pivot_row[b, c] = r
    return pivot_row


def _centralizer_chunks(spec: FieldSpec, n: int, codes):
    """Centralizer bases of many matrices at once, in chunks of bounded size.

    Gauss-Jordan runs over the lifts M_A of a whole chunk.  Yields (codes,
    free, vecs) per chunk: free[b] marks the free columns of M_A, and
    vecs[b][free[b]] is the basis nullspace_raw gives.  `codes` is an array
    or a range, which keeps a whole space from being materialized.
    """
    m = n * n
    for part in _blocks(len(codes), m * m):
        chunk = np.asarray(codes[part])
        lift = _lifts(spec, _code_stack(spec, n, chunk))
        pivot_row = _gauss_jordan(spec, lift)
        pivot = pivot_row >= 0
        # vecs[b, f, e] is minus entry f of column e's pivot row, or the identity
        rref = lift[np.arange(len(chunk))[:, None], np.maximum(pivot_row, 0)].transpose(0, 2, 1)
        yield chunk, ~pivot, np.where(pivot[:, None, :], _row_ops(spec).neg(rref), np.eye(m, dtype=lift.dtype))


def _stack_ranks(spec: FieldSpec, n: int, *mats: np.ndarray) -> np.ndarray:
    """Rank of each stacked lift [M_A; M_B; ...] for (S, n, n) raw arrays A, B,
    ..., eliminating chunks of at most _BATCH_CELLS entries at once."""
    m, k = n * n, len(mats)
    ranks = np.zeros(len(mats[0]), np.int64)
    for part in _blocks(len(ranks), k * m * m):
        ranks[part] = (_gauss_jordan(spec, _lifts(spec, *(a[part] for a in mats))) >= 0).sum(1)
    return ranks


def _shares_commuter(spec: FieldSpec, n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Which pairs (x[s], y[s]) of two (S, n, n) raw arrays share a non-scalar commuter, i.e.
    `_stack_ranks(spec, n, x, y) <= n * n - 2` at n >= 2; a (1, n, n) side pairs with every s
    and forms its powers once.  A nonderogatory X (vec I, ..., vec X^(n-1) have no free column)
    has C(X) = F[X], so that holds iff the commutators [X^k, Y], 0 < k < n, are dependent; both
    stacks keep their columns on the short axis, so `_gauss_jordan` loops n times, not n^2.  A
    derogatory X retries with the sides swapped; only two derogatory sides rank their lifts."""
    arith, todo = _row_ops(spec), np.arange(np.broadcast_shapes(x.shape, y.shape)[0])
    shares, pick = np.zeros(len(todo), bool), lambda side, rows: side if len(side) == 1 else side[rows]
    for first, second in ((x, y), (y, x)):
        a = pick(first, todo).astype(arith.dtype)
        pows = [np.broadcast_to(np.eye(n, dtype=arith.dtype), a.shape), a]
        while len(pows) < n:
            pows.append(_ff_matmul(spec, pows[-1], a))
        cyclic = (_gauss_jordan(spec, np.stack(pows, -1).reshape(len(a), n * n, n)) >= 0).all(1)
        cyclic = np.broadcast_to(cyclic, todo.shape)
        xk, yc = pick(np.stack(pows[1:], 1), cyclic), pick(second, todo[cyclic]).astype(arith.dtype)[:, None]
        comms = arith.add(_ff_matmul(spec, xk, yc), arith.neg(_ff_matmul(spec, yc, xk)))
        free = _gauss_jordan(spec, comms.reshape(len(comms), n - 1, n * n).transpose(0, 2, 1).copy()) < 0
        shares[todo[cyclic]], todo = free.any(1), todo[~cyclic]
    shares[todo] = _stack_ranks(spec, n, *np.broadcast_arrays(pick(x, todo), pick(y, todo))) <= n * n - 2
    return shares


def _ff_matmul(spec: FieldSpec, x, y) -> np.ndarray:
    """Batched product x @ y of raw-entry arrays over a finite field, with
    numpy broadcasting over the leading axes, in the `_row_ops` dtype.

    Prime fields multiply in int64 and reduce once when the inner dimension
    times (p - 1)^2 stays below 2^63.  Otherwise, as over extension fields,
    reduced `_row_ops` products are summed one index at a time, so no product
    overflows at any p below the 2^31 cap.
    """
    arith = _row_ops(spec)
    if spec.kind == "prime" and x.shape[-1] * (spec.p - 1) ** 2 < 2**63:
        return (np.asarray(x, np.int64) @ np.asarray(y, np.int64) % spec.p).astype(arith.dtype, copy=False)
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.zeros(lead + (x.shape[-2], y.shape[-1]), arith.dtype)
    for j in range(x.shape[-1]):
        out = arith.add(out, arith.mul(x[..., :, j, None], y[..., None, j, :]))
    return out


def _span_codes(spec: FieldSpec, bases: np.ndarray) -> np.ndarray:
    """Codes of every F_q-combination of each basis in a (k, d, length) array;
    combination t of the (k, q^d) result takes the base-q digits of t as
    coefficients."""
    q, d, length = spec.order, bases.shape[1], bases.shape[2]
    combos = _ff_matmul(spec, _code_digits(q, np.arange(q**d), d), bases)
    return combos @ q ** np.arange(length, dtype=np.int64)


def _commuting_pairs(spec: FieldSpec, n: int, codes):
    """Every commuting pair whose first member is among `codes`, in bounded chunks.

    Yields (ends, spans): spans[j] holds the codes of the whole centralizer of
    ends[j], scalars and ends[j] itself included, and one chunk of spans has at
    most _BATCH_CELLS matrix entries.  `codes` is an array or a range.
    CapExceeded when one centralizer holds more than SPACE_CAP codes.
    """
    for chunk, free, vecs in _centralizer_chunks(spec, n, codes):
        dims = free.sum(1)
        for d in np.flatnonzero(np.bincount(dims)).tolist():  # np.unique would import numpy.ma
            if spec.order**d > SPACE_CAP:
                raise CapExceeded(f"centralizer span {spec.order**d} exceeds 2^{SPACE_CAP.bit_length() - 1}")
            sel = dims == d
            ends, bases = chunk[sel], vecs[sel][free[sel]].reshape(-1, d, n * n)
            for part in _blocks(len(ends), spec.order**d * n * n):
                yield ends[part], _span_codes(spec, bases[part])


def _roots(label: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Roots of `codes` in the forest `label`, climbing two levels a step and
    pointing each of `codes` at its root on the way."""
    r = label[codes]
    while not np.array_equal(up := label[r], r):
        label[codes] = r = label[up]
    return r


def _hook(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the trees of u[i] and v[i], hooking the larger root under the
    smaller, so each root is its tree's least code.  Only the paths from u and
    v are walked: callers run `_roots` on every code once all pairs are in."""
    while len(u):
        ru, rv = _roots(label, u), _roots(label, v)
        apart = ru != rv
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(label, np.maximum(ru, rv), np.minimum(ru, rv))


@functools.lru_cache(maxsize=8)
def _orbits(spec: FieldSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Least code and size of each orbit of Mat_n under automorphisms of its
    commuting graph, as int64 arrays in increasing order of code; the arrays
    are memoized and shared, so callers must not write to them.

    The group is generated by conjugation with I + E_12, the n-cycle and
    diag(g, 1, ..., 1), which together give GL_n(q) for g generating F_q^*;
    A -> A + I, A -> gA and over GF(p^k) entrywise x -> x^p; the transpose
    joins no orbits, as every matrix is similar to its transpose.  Each fixes
    the scalars and maps C(A) (semi)linearly onto the centralizer of the image,
    so centralizer dimensions, distances and eccentricities are constant on
    orbits.  Every code is joined to its images in trees of least labels.
    """
    total, q, m = space_size(spec, n), spec.order, n * n
    if n == 1:  # A -> A + I alone is transitive on Mat_1
        return np.zeros(1, np.int64), np.full(1, q, np.int64)
    add, neg, mul, inv, _ = _np_tables(spec)
    eye, e12 = np.eye(n, dtype=np.uint8), np.zeros((n, n), np.uint8)
    e12[0, 1] = 1
    # g generates F_q^*: its powers g, g^2, ..., g^(q-1) are q - 1 distinct elements
    g = next(x for x in range(1, q) if len({*itertools.accumulate([x] * (q - 1), mul.item)}) == q - 1)

    def conj(p, p_inv):  # A -> P A P^-1
        return lambda a: _ff_matmul(spec, _ff_matmul(spec, p, a), p_inv)

    maps = [
        conj(eye + e12, eye + neg[1] * e12),
        conj(*(np.diag([x] + [1] * (n - 1)) for x in (g, inv[g]))),
        lambda a: np.roll(a, 1, (1, 2)), lambda a: np.where(eye, add[a, 1], a), lambda a: mul[g, a],
    ]
    if spec.kind == "extension":  # x -> x^p
        maps.append(lambda a: functools.reduce(lambda y, _: mul[y, a], range(spec.p - 1), a))
    # codes stay below SPACE_CAP = 2^24, so int32 holds them
    codes = np.arange(total, dtype=np.int32)
    chunks = [_code_stack(spec, n, codes[part]).astype(np.uint8) for part in _blocks(total, m)]
    label, weights = codes.copy(), q ** np.arange(m, dtype=np.int32)
    for f in maps:
        images = [f(c).reshape(-1, m) @ weights for c in chunks]
        _hook(label, codes, np.concatenate(images))
    reps = np.flatnonzero(_roots(label, codes) == codes)
    return reps, np.bincount(label)[reps]


class _PowerStack:
    """The powers of D = d A for one square A as raw rows, each formed once (I as 0s and 1s, raw in every
    field).  Over the rationals d clears A's denominators, so D is integral, F[D] = F[A] and the powers are
    integer products; over a finite field d = 1.  `cyclic`: vec(I), ..., vec(D^(n-1)) are independent, so A
    is nonderogatory (one rank-only elimination)."""

    def __init__(self, a: ExactMatrix):
        n = self.n = a.nrows
        if a.spec.kind == "rationals":
            flat, self.d = _cleared([x for row in a.rows for x in row])
            rows, cols = [flat[i : i + n] for i in range(0, n * n, n)], [flat[j::n] for j in range(n)]
            self._times_d = lambda p: _int_products(p, cols)
        else:
            rows, self.d = a.rows, 1
            self._times_d = lambda p: (ExactMatrix._from_raw(a.spec, p) @ a).rows
        self.spec, self.pows = a.spec, [[[int(i == j) for j in range(n)] for i in range(n)], rows]

    def upto(self, k: int) -> list:
        """[I, D, ..., D^k]; the powers formed are kept, and callers must not change them."""
        pows = self.pows
        while len(pows) <= k:
            pows = pows + [self._times_d(pows[-1])]
        self.pows = pows
        return pows[: k + 1]

    def poly(self, coeffs) -> ExactMatrix:
        """sum coeffs[i] A^(i+1) for raw coefficients: one product of the coefficient row, the identity's
        zero first, with the stacked vec(D^i); over the rationals D^i = d^i A^i scales them by 1/d^i."""
        raws = [self.spec.ops().zero, *coeffs]
        if self.spec.kind == "rationals":
            raws = [Fraction(c, self.d**i) for i, c in enumerate(raws)]
        flats = [[x for row in p for x in row] for p in self.upto(len(coeffs))]
        (row,) = (ExactMatrix._from_raw(self.spec, [raws]) @ ExactMatrix._from_raw(self.spec, flats)).rows
        return unvec(self.spec, self.n, row)

    @functools.cached_property
    def cyclic(self) -> bool:
        return rank_raw(self.spec, [[x for row in p for x in row] for p in self.upto(self.n - 1)]) == self.n


# sized for the handful of stacks one distance call asks for, not to keep them across calls
_power_stack = functools.lru_cache(maxsize=16)(_PowerStack)


@functools.lru_cache(maxsize=16)  # the one or two pairs of a distance call, not kept across calls
def _comm_grid(a: ExactMatrix, b: ExactMatrix) -> np.ndarray:
    """The commutators [A^i, B^j], 0 < i, j < n, of a finite-field pair at n >= 2 as a read-only
    (n - 1, n - 1, n, n) array of the `_row_ops` dtype: [A^i, B^j] sits at [i - 1, j - 1].  One pair
    of broadcast products forms them from the powers A^k and B^k."""
    spec, n = a.spec, a.nrows
    pows = [np.array([a.rows, b.rows], np.int64)]  # A^k and B^k for k in 1..n-1
    while len(pows) < n - 1:
        pows.append(_ff_matmul(spec, pows[-1], pows[0]))
    a_pows, b_pows = np.stack(pows, 1)
    arith, ai = _row_ops(spec), a_pows[:, None]  # ai broadcasts against b_pows
    grid = arith.add(_ff_matmul(spec, ai, b_pows), arith.neg(_ff_matmul(spec, b_pows, ai)))
    grid.flags.writeable = False
    return grid


def _commutant(a: ExactMatrix, b: ExactMatrix | None = None) -> list[list]:
    """Raw basis of the joint commutant of one or two square matrices of one field and size: the list
    `nullspace_raw` of their stacked lifts gives.  Over the rationals at n >= 2 a nonderogatory member X needs
    no lift: C(X) = F[X], so p(X) = c_0 I + sum c_k X^k commutes with the other member Y iff c is in the kernel
    of the integer columns vec([D^k, E]), 0 < k < n, for D = dX and E = eY from the power stacks (every c when
    X is alone).  The basis is the reversed RREF of vec(I) and the vec(p(D)): the nullspace's vector of a
    free column f has its last nonzero entry, a 1, at f and a 0 at every other free column, which fixes it.

    A finite-field pair (A, B) first ranks row 0 of `_comm_grid`, then column 0.  If the n - 1 matrices
    [A, B^j] are independent, B is nonderogatory (a derogatory B has q(x) = m_B(x) - m_B(0) of degree
    below n with q(B) scalar, so sum d_j [A, B^j] = [A, q(B)] = 0), so C(B) = F[B] and only the scalars
    commute with both; likewise with [A^i, B].  Otherwise the pair keeps the lift."""
    spec, n = a.spec, a.nrows
    mats = [a] if b is None else [a, b]
    if spec.is_finite and n >= 2 and b is not None:
        grid = _comm_grid(a, b).reshape(n - 1, n - 1, n * n)
        if any(rank_raw(spec, side.tolist()) == n - 1 for side in (grid[0], grid[:, 0])):
            return [[int(k % (n + 1) == 0) for k in range(n * n)]]
    for x, y in [(a, b), (b, a)][: len(mats)] if spec.kind == "rationals" and n >= 2 else ():
        stack = _power_stack(x)
        if stack.cyclic:
            pows, rows = stack.upto(n - 1), [[0] * (n - 1)]  # X alone: every c
            if y is not None:
                e = _power_stack(y).upto(1)[1]
                pe = [sum(_int_products(p, list(zip(*e))), []) for p in pows[1:]]
                ep = [sum(_int_products(e, list(zip(*p))), []) for p in pows[1:]]
                rows = [[s - t for s, t in zip(u, v)] for u, v in zip(zip(*pe), zip(*ep))]
            kernel = nullspace_raw(spec, rows)
            if not kernel:  # only the scalars
                return [[_ONE if k % (n + 1) == 0 else _ZERO for k in range(n * n)]]
            coeffs = [[1] + [0] * (n - 1)] + [[0, *c] for c in kernel]  # 0s and 1s, as in the stack's I
            span = (ExactMatrix._from_raw(spec, coeffs) @ ExactMatrix._from_raw(spec, [sum(p, []) for p in pows])).rows
            return [v[::-1] for v in reversed(rref_raw(spec, [v[::-1] for v in span])[0])]
    return nullspace_raw(spec, [row for m in mats for row in lift_rows_raw(m)])


def min_poly(m: ExactMatrix) -> list[FieldElem]:
    """Monic minimal polynomial, coefficients low-to-high.

    Found as the first linear dependence among vec(I), vec(D), ..., vec(D^n)
    for the power stack's D = d A; over the rationals m_A(x) = d^(-deg) m_D(d x).
    """
    if not m.is_square:
        raise DimMismatch("minimal polynomial needs a square matrix")
    spec, stack = m.spec, _power_stack(m)
    flats = [[x for row in p for x in row] for p in stack.upto(m.nrows)]
    # columns vec(I), ..., vec(D^n): the first nullspace vector belongs to the
    # first free column, the degree; it is one there and zero beyond it
    first = nullspace_raw(spec, [list(c) for c in zip(*flats)])[0]
    deg = max(i for i, c in enumerate(first) if c != spec.ops().zero)
    coeffs = first[: deg + 1]
    if spec.kind == "rationals":
        coeffs = [c / stack.d ** (deg - i) for i, c in enumerate(coeffs)]
    return [FieldElem(spec, c) for c in coeffs]


def random_matrix(spec: FieldSpec, nrows: int, ncols: int, rng) -> ExactMatrix:
    """Uniform random matrix over a finite field; small-height entries over Q."""
    if spec.is_finite:
        q = spec.order
        return ExactMatrix._from_raw(
            spec, [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        )
    return ExactMatrix(
        spec,
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
            for _ in range(nrows)
        ],
    )
