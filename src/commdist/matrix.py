"""Dense exact matrices over a FieldSpec.

Entries are stored in raw form (integer codes for finite fields, Fraction for
the rationals).  Rank and nullspace go through reduced row echelon form, which
is unique, so nullspace bases are reproducible across runs and backends.  Four
elimination backends share that contract: XOR elimination on bit-packed rows
for GF(2), numpy modular elimination for odd prime fields, table-driven
elimination for extension fields, and fraction-free (Bareiss) forward
elimination with a final normalization pass over the rationals.

This module also holds what the higher layers share: the integer codec that
enumerates Mat_n over a finite field, the lift M_A, the size caps, and a
batched kernel that finds the centralizers of a whole chunk of codes at once.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import CapExceeded, DimMismatch, FieldMismatch, ParseError
from .field import FieldElem, FieldSpec

_MAX_DIM = 128  # lift stacks for n = 8 are 128 x 64; anything larger is a mistake
SIZE_CAP = 8  # all interesting content lives at n <= 4; larger inputs are mistakes
SPACE_CAP = 1 << 24  # codes in one enumeration of Mat_n over a finite field
PAIR_CAP = 1 << 26  # ordered pairs in one exhaustive pair scan
DIAMETER_CAP = 1 << 20  # codes for an all-pairs BFS
PREBUILD_CAP = 1 << 17  # neighbor lists are kept below this many codes


class ExactMatrix:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows):
        converted = tuple(
            tuple(spec.raw_from(x) if not _is_raw(spec, x) else x for x in row)
            for row in rows
        )
        if not converted or not converted[0]:
            raise DimMismatch("matrices need at least one row and one column")
        ncols = len(converted[0])
        if any(len(r) != ncols for r in converted):
            raise DimMismatch("ragged rows")
        if len(converted) > _MAX_DIM or ncols > _MAX_DIM:
            raise DimMismatch(f"dimension exceeds the {_MAX_DIM} cap")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "nrows", len(converted))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_raw(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        """Trusted constructor for rows that already hold raw values."""
        obj = object.__new__(cls)
        converted = tuple(tuple(row) for row in rows)
        if len(converted) > _MAX_DIM or len(converted[0]) > _MAX_DIM:
            raise DimMismatch(f"dimension exceeds the {_MAX_DIM} cap")
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "nrows", len(converted))
        object.__setattr__(obj, "ncols", len(converted[0]))
        object.__setattr__(obj, "rows", converted)
        return obj

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        ops = spec.ops()
        return cls._from_raw(
            spec,
            [[ops.one if i == j else ops.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "ExactMatrix":
        z = spec.ops().zero
        return cls._from_raw(spec, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def diag(cls, spec: FieldSpec, entries) -> "ExactMatrix":
        ops = spec.ops()
        raws = [spec.raw_from(x) for x in entries]
        n = len(raws)
        return cls(
            spec,
            [[raws[i] if i == j else ops.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def from_json(cls, obj) -> "ExactMatrix":
        """Build from ``{"field": spec-string, "rows": [[entry, ...], ...]}``."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "field" not in obj or "rows" not in obj:
            raise ParseError("matrix JSON needs 'field' and 'rows' keys")
        spec = FieldSpec.parse(obj["field"])
        return cls(spec, obj["rows"])

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_string(),
            "rows": [[self.spec.entry_to_json(x) for x in row] for row in self.rows],
        }

    def to_field(self, target: FieldSpec) -> "ExactMatrix":
        """Reinterpret entries in another field (e.g. reduce rationals mod p)."""
        if target == self.spec:
            return self
        return ExactMatrix(
            target, [[target.raw_from(_as_portable(self.spec, x)) for x in row] for row in self.rows]
        )

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

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        return f"ExactMatrix({self.spec}, {self.nrows}x{self.ncols})"

    def pretty(self) -> str:
        cells = [[str(self.spec.entry_to_json(x)) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    # -- arithmetic -----------------------------------------------------------

    def _check_peer(self, other: "ExactMatrix"):
        if not isinstance(other, ExactMatrix):
            raise TypeError("expected an ExactMatrix")
        if other.spec != self.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_peer(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimMismatch("shape mismatch in add")
        add = self.spec.ops().add
        return ExactMatrix._from_raw(
            self.spec,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_peer(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimMismatch("shape mismatch in sub")
        sub = self.spec.ops().sub
        return ExactMatrix._from_raw(
            self.spec,
            [
                [sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "ExactMatrix":
        neg = self.spec.ops().neg
        return ExactMatrix._from_raw(self.spec, [[neg(a) for a in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_peer(other)
        if self.ncols != other.nrows:
            raise DimMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ops = self.spec.ops()
        add, mul, zero = ops.add, ops.mul, ops.zero
        bt = list(zip(*other.rows))  # columns of other
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

    def trace(self) -> FieldElem:
        if not self.is_square:
            raise DimMismatch("trace needs a square matrix")
        ops = self.spec.ops()
        acc = ops.zero
        for i in range(self.nrows):
            acc = ops.add(acc, self.rows[i][i])
        return FieldElem(self.spec, acc)


def _is_raw(spec: FieldSpec, x) -> bool:
    if spec.kind == "rationals":
        return isinstance(x, Fraction)
    if spec.kind == "extension":
        return False  # plain ints always embed as integer constants
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < spec.p


def _as_portable(spec: FieldSpec, raw):
    """Raw value in a form `raw_from` of another field accepts."""
    if spec.kind == "rationals":
        return raw
    if spec.kind == "prime":
        return raw
    # extension code -> coefficient list
    return spec.entry_to_json(raw)


def mat_op(a: ExactMatrix, b: ExactMatrix, op: str) -> ExactMatrix:
    """Dispatch add/sub/mul by name (mul is the matrix product)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a @ b
    raise ParseError(f"unknown matrix operation {op!r}")


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """AB - BA; both operands must be square of the same size and field."""
    if not (a.is_square and b.is_square and a.nrows == b.nrows):
        raise DimMismatch("commutator needs square matrices of equal size")
    return a @ b - b @ a


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with block structure (a_ij * B)."""
    a._check_peer(b)
    mul = a.spec.ops().mul
    out = []
    for i in range(a.nrows):
        for s in range(b.nrows):
            row = []
            for j in range(a.ncols):
                aij = a.rows[i][j]
                row.extend(mul(aij, x) for x in b.rows[s])
            out.append(row)
    return ExactMatrix._from_raw(a.spec, out)


def mat_vec(m: ExactMatrix, v) -> list:
    """Apply m to a vector of raw values (FieldElems are unwrapped); returns raws."""
    spec = m.spec
    raws = [x.raw if isinstance(x, FieldElem) else x for x in v]
    if len(raws) != m.ncols:
        raise DimMismatch("vector length mismatch")
    ops = spec.ops()
    out = []
    for row in m.rows:
        acc = ops.zero
        for a, x in zip(row, raws):
            acc = ops.add(acc, ops.mul(a, x))
        out.append(acc)
    return out


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
    CapExceeded above `cap` (None checks the field and size only).
    """
    q = spec.order
    if q is None:
        raise FieldMismatch("enumerating matrices needs a finite field")
    if n < 1:
        raise DimMismatch(f"matrix size must be at least 1, got {n}")
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


def _projective_reps(spec: FieldSpec, length: int) -> list[tuple[int, tuple]]:
    """Normalized coefficient vectors sorted by code (first coordinate least
    significant), i.e. the canonical enumeration order of projective classes."""
    ops = spec.ops()
    q = spec.order
    reps = []
    for lead in range(length):
        tail = length - lead - 1
        for t in range(q**tail):
            vec_ = [ops.zero] * lead + [ops.one]
            tt = t
            code = q**lead  # the leading one
            for pos in range(tail):
                digit = tt % q
                tt //= q
                vec_.append(digit)
                code += digit * q ** (lead + 1 + pos)
            reps.append((code, tuple(vec_)))
    reps.sort(key=lambda item: item[0])
    return reps


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
    row (i,j) encodes the (i,j) entry of AC - CA."""
    ops = a.spec.ops()
    n = a.nrows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ops.zero] * (n * n)
            for k in range(n):
                row[k * n + j] = ops.add(row[k * n + j], a.rows[i][k])
            for l in range(n):
                col = i * n + l
                row[col] = ops.sub(row[col], a.rows[l][j])
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# elimination backends (shared by rank / nullspace / solving)


def rref_raw(spec: FieldSpec, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of raw rows.

    Returns (pivot_rows, pivot_cols): only the nonzero rows of the RREF, with
    each pivot normalized to one.  Pivot columns are scanned left to right, so
    the output is the unique RREF and independent of the backend.
    """
    if spec.kind == "prime" and spec.p == 2:
        return _rref_gf2(rows)
    if spec.kind == "prime":
        return _rref_prime(spec.p, rows)
    if spec.kind == "rationals":
        return _rref_rationals(rows)
    return _rref_generic(spec, rows)


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


def _rref_gf2(rows):
    ncols = len(rows[0])
    kept = echelon_gf2([pack_gf2(r) for r in rows])
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


def _rref_prime(p, rows):
    mat = np.array(rows, dtype=np.int64) % p
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
        inv = pow(int(mat[r, c]), p - 2, p)
        mat[r] = mat[r] * inv % p
        col = mat[:, c].copy()
        col[r] = 0
        hot = np.nonzero(col)[0]
        if hot.size:
            mat[hot] = (mat[hot] - np.outer(col[hot], mat[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [[int(x) for x in mat[i]] for i in range(r)], pivots


def _rref_generic(spec: FieldSpec, rows):
    ops = spec.ops()
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0])
    pivots = []
    r = 0
    zero = ops.zero
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if work[i][c] != zero:
                pr = i
                break
        if pr < 0:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ops.inv(work[r][c])
        work[r] = [ops.mul(inv, x) for x in work[r]]
        prow = work[r]
        for i in range(m):
            f = work[i][c]
            if i != r and f != zero:
                work[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(work[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivots


def _rref_rationals(rows):
    # Clear denominators row by row, then run fraction-free (Bareiss) forward
    # elimination on integers; a final pass normalizes pivots to 1 and clears
    # entries above them with exact Fraction arithmetic.
    work = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        work.append([int(f * scale) for f in fracs])
    m = len(work)
    n = len(work[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if work[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        for i in range(r + 1, m):
            fi = work[i][c]
            row_i = work[i]
            prow = work[r]
            work[i] = [(piv * x - fi * y) // prev for x, y in zip(row_i, prow)]
        pivots.append(c)
        prev = piv
        r += 1
        if r == m:
            break
    # normalization pass: integer echelon rows -> unique RREF over Q
    echelon = [[Fraction(x) for x in work[i]] for i in range(r)]
    for i in range(r):
        pc = pivots[i]
        inv = 1 / echelon[i][pc]
        echelon[i] = [x * inv for x in echelon[i]]
    for i in range(r - 1, -1, -1):
        pc = pivots[i]
        for j in range(i):
            f = echelon[j][pc]
            if f:
                echelon[j] = [x - f * y for x, y in zip(echelon[j], echelon[i])]
    return echelon, pivots


# ---------------------------------------------------------------------------
# rank / nullspace / determinant / powers / minimal polynomial


def rank(m: ExactMatrix) -> int:
    """Exact rank by Gaussian elimination over the matrix's field."""
    return rank_raw(m.spec, m.raw_rows())


def rank_raw(spec: FieldSpec, rows: list[list]) -> int:
    return len(rref_raw(spec, rows)[1])


def nullspace_basis(m: ExactMatrix) -> list[tuple[FieldElem, ...]]:
    """Canonical echelon nullspace basis, one vector per free column."""
    return [
        tuple(FieldElem(m.spec, x) for x in v)
        for v in nullspace_raw(m.spec, m.raw_rows())
    ]


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


def _code_digits(q: int, codes: np.ndarray, length: int) -> np.ndarray:
    """Base-q digits of each code, least significant first: (len(codes), length)."""
    return codes[:, None] // q ** np.arange(length, dtype=np.int64) % q


@functools.lru_cache(maxsize=None)
def _np_tables(spec: FieldSpec):
    """(add, neg, mul, inv) lookup tables of a finite field as uint8 arrays;
    q <= 64 whenever a space with n >= 2 fits SPACE_CAP."""
    ops, r = spec.ops(), range(spec.order)
    table = functools.partial(np.array, dtype=np.uint8)
    add, mul = (table([[f(a, b) for b in r] for a in r]) for f in (ops.add, ops.mul))
    return add, table([ops.neg(a) for a in r]), mul, table([0] + [ops.inv(a) for a in r[1:]])


def _centralizer_chunks(spec: FieldSpec, n: int, codes):
    """Centralizer bases of many matrices at once, in chunks of bounded size.

    Gauss-Jordan runs over the lifts M_A of a whole chunk: a column's pivot is
    the first unused row with a nonzero entry, and rows are never swapped.
    Yields (codes, free, vecs) per chunk: free[b] marks the free columns of
    M_A, and vecs[b][free[b]] is the basis nullspace_raw gives.  `codes` is
    an array or a range, which keeps a whole space from being materialized.
    """
    m = n * n
    step = max(1, _BATCH_CELLS // (m * m))
    for start in range(0, len(codes), step):
        chunk = np.asarray(codes[start : start + step])
        size, batch = len(chunk), np.arange(len(chunk))
        if n == 1:  # M_A is zero
            yield chunk, np.ones((size, 1), bool), np.ones((size, 1, 1), np.uint8)
            continue
        add, neg, mul, inv = _np_tables(spec)
        a = _code_digits(spec.order, chunk, m).astype(np.uint8).reshape(size, n, n)
        eye = np.eye(n, dtype=np.uint8)
        # M_A = A (x) I - I (x) A^T, row (i, j) and column (k, l)
        lift = add[np.einsum("bik,jl->bijkl", a, eye), neg[np.einsum("ik,blj->bijkl", eye, a)]]
        lift = lift.reshape(size, m, m)
        used, pivot_row = np.zeros((size, m), bool), np.full((size, m), -1)
        for c in range(m):
            open_ = (lift[:, :, c] != 0) & ~used
            has, r = open_.any(1), open_.argmax(1)
            # a member without a pivot here gets a zero pivot row and zero factors
            prow = mul[lift[batch, r], inv[lift[batch, r, c] * has][:, None]]
            factor = lift[:, :, c] * has[:, None]
            factor[batch, r] = 0
            hb, hr = np.nonzero(factor)  # only the rows with something to clear
            lift[hb, hr] = add[lift[hb, hr], neg[mul[factor[hb, hr][:, None], prow[hb]]]]
            lift[batch[has], r[has]] = prow[has]
            used[batch[has], r[has]] = True
            pivot_row[has, c] = r[has]
        pivot = pivot_row >= 0
        # vecs[b, f, e] is minus entry f of column e's pivot row, or the identity
        rref = lift[batch[:, None], np.maximum(pivot_row, 0)].transpose(0, 2, 1)
        yield chunk, ~pivot, np.where(pivot[:, None, :], neg[rref], np.eye(m, dtype=np.uint8))


def _span_codes(spec: FieldSpec, bases: np.ndarray) -> np.ndarray:
    """Codes of every F_q-combination of each basis in a (k, d, length) array;
    combination t of the (k, q^d) result takes the base-q digits of t as
    coefficients."""
    q = spec.order
    k, d, length = bases.shape
    coeffs = _code_digits(q, np.arange(q**d), d)
    if spec.kind == "prime":
        combos = coeffs @ bases % q
    else:
        add, _, mul, _ = _np_tables(spec)
        combos = np.zeros((k, q**d, length), dtype=np.uint8)
        for i in range(d):
            combos = add[combos, mul[coeffs[None, :, i, None], bases[:, None, i, :]]]
    return combos @ q ** np.arange(length, dtype=np.int64)


def det(m: ExactMatrix) -> FieldElem:
    """Exact determinant via forward elimination."""
    if not m.is_square:
        raise DimMismatch("determinant needs a square matrix")
    spec = m.spec
    ops = spec.ops()
    work = m.raw_rows()
    n = m.nrows
    sign_flip = False
    acc = ops.one
    for c in range(n):
        pr = -1
        for i in range(c, n):
            if work[i][c] != ops.zero:
                pr = i
                break
        if pr < 0:
            return FieldElem(spec, ops.zero)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign_flip = not sign_flip
        piv = work[c][c]
        acc = ops.mul(acc, piv)
        inv = ops.inv(piv)
        for i in range(c + 1, n):
            f = ops.mul(work[i][c], inv)
            if f != ops.zero:
                work[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(work[i], work[c])]
    if sign_flip:
        acc = ops.neg(acc)
    return FieldElem(spec, acc)


def mat_pow(m: ExactMatrix, e: int) -> ExactMatrix:
    """m**e for 0 <= e <= 64 by repeated squaring."""
    if not m.is_square:
        raise DimMismatch("powers need a square matrix")
    if not 0 <= e <= 64:
        raise DimMismatch("exponent must be between 0 and 64")
    result = ExactMatrix.identity(m.spec, m.nrows)
    base = m
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def min_poly(m: ExactMatrix) -> list[FieldElem]:
    """Monic minimal polynomial, coefficients low-to-high.

    Found as the first linear dependence in the flattened power sequence
    vec(I), vec(A), vec(A^2), ...
    """
    if not m.is_square:
        raise DimMismatch("minimal polynomial needs a square matrix")
    spec = m.spec
    ops = spec.ops()
    n = m.nrows
    power = ExactMatrix.identity(spec, n)
    flats = [vec(power)]
    for _ in range(n):
        power = power @ m
        flats.append(vec(power))
    # columns vec(I), ..., vec(A^n): the first nullspace vector belongs to the
    # first free column, the degree; it is one there and zero beyond it
    first = nullspace_raw(spec, [list(c) for c in zip(*flats)])[0]
    deg = max(i for i, c in enumerate(first) if c != ops.zero)
    return [FieldElem(spec, c) for c in first[: deg + 1]]


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
