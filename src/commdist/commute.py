"""Distance-theoretic tests between square matrices.

Everything here reduces to exact linear algebra: centralizers are nullspaces
of the Kronecker-style lift M_A = A (x) I - I (x) A^T; a pair is at distance <= 2
iff it shares a non-scalar commuter, which `matrix._commutant` finds (over QQ from
the n - 1 commutators [X^k, Y] of a nonderogatory side X; over a finite field it
rules the commuter out when [A, B^j] or [A^i, B] are independent; else from the
lifts); and the distance<=3 machinery searches for polynomials p, q without
constant term and degree 1..n-1 such that p(A) and q(B) commute, reading the
commutators [A^i, B^j] of a finite-field pair from the grid the distance-2 test
formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import (
    BadWitness,
    CapExceeded,
    DimMismatch,
    DivisionByZero,
    FieldMismatch,
    ParseError,
)
from .field import FieldElem, FieldSpec
from .matrix import (
    SPACE_CAP,
    _PC_CLASS_CAP,
    ExactMatrix,
    _blocks,
    _check_classes,
    _check_square,
    _code_digits,
    _code_stack,
    _comm_grid,
    _commutant,
    _crt,
    _ff_matmul,
    _first_class,
    _gauss_jordan,
    _power_stack,
    _rational_reconstruct,
    _row_ops,
    decode_matrix,
    is_scalar,
    lift_rows_raw,
    min_poly,
    nullspace_raw,
    rank,
    rank_raw,
    space_size,
    unvec,
)

PC_PRIMES = (3, 5, 7, 11)  # moduli used by the heuristic search over Q


def _check_pair(a: ExactMatrix, b: ExactMatrix):
    _check_square(a)
    _check_square(b)
    if a.spec != b.spec:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")
    if a.nrows != b.nrows:
        raise DimMismatch(f"sizes {a.nrows} and {b.nrows} differ")


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    _check_pair(a, b)
    return a @ b == b @ a


# ---------------------------------------------------------------------------
# lifts


def lift_M(a: ExactMatrix) -> ExactMatrix:
    """A (x) I - I (x) A^T with the row-major vec ordering, so that
    M_A . vec(C) = vec(AC - CA)."""
    _check_square(a)
    return ExactMatrix._from_raw(a.spec, lift_rows_raw(a))


def stack_M(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """M_A stacked on top of M_B (2n^2 x n^2)."""
    _check_pair(a, b)
    return ExactMatrix._from_raw(a.spec, lift_rows_raw(a) + lift_rows_raw(b))


def centralizer_basis(a: ExactMatrix) -> list[ExactMatrix]:
    """Echelon basis of the space of matrices commuting with a."""
    _check_square(a)
    return [unvec(a.spec, a.nrows, v) for v in _commutant(a)]


def dist_le_2(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Rank criterion: the stacked lift has rank at most n^2 - 2.

    Equivalently the pair commutes with a common non-scalar matrix (the joint
    nullspace then exceeds the scalar line), which covers the conventions for
    scalar and equal inputs as well.  Over the rationals that is the length of
    `_commutant`; a finite-field pair ranks the lift, as a forward echelon skips back-reduction.
    """
    _check_pair(a, b)
    n = a.nrows
    if n < 2:
        raise DimMismatch("the rank criterion needs n >= 2")
    if a.spec.is_finite:
        return rank_raw(a.spec, lift_rows_raw(a) + lift_rows_raw(b)) <= n * n - 2
    return len(_commutant(a, b)) > 1


def common_nonscalar_commuter(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix | None:
    """A non-scalar matrix commuting with both, if one exists: the first of the joint commutant's basis."""
    _check_pair(a, b)
    return next((m for m in (unvec(a.spec, a.nrows, v) for v in _commutant(a, b)) if not is_scalar(m)), None)


def derogatory(a: ExactMatrix) -> bool:
    """True iff the minimal polynomial has degree below n.

    Read off the power stack, which ranks vec(I), vec(D), ..., vec(D^(n-1)) for
    D = dA once: a dependence is exactly an annihilating polynomial of degree at most n-1.
    """
    _check_square(a)
    if a.nrows < 2:
        raise DimMismatch("derogatory needs n >= 2")
    return not _power_stack(a).cyclic


# ---------------------------------------------------------------------------
# rank-i idempotent membership


@functools.lru_cache(maxsize=8)
def idempotent_pool(spec: FieldSpec, n: int) -> list[tuple[int, int]]:
    """All idempotents of Mat_n over a finite field as (code, rank), code
    order; the list is memoized and shared, so callers must not change it.

    A rank-k idempotent is E = C R for the k x n RREF R of its row space and
    the n x k C with R C = I_k, and every such pair gives one: C's rows off
    R's pivots are a free (n - k) x k block F, and its pivot rows are
    I - R_free F.  So the pool is built from every (R, F), with no pass over
    Mat_n; the caps stay those of enumerating it.
    """
    space_size(spec, n)
    q, arith, weights = spec.order, _row_ops(spec), spec.order ** np.arange(n * n, dtype=np.int64)
    pool: list[tuple[int, int]] = []
    for k in range(n + 1):
        count = q ** (k * (n - k))
        fs = _code_digits(q, np.arange(count), k * (n - k)).reshape(count, n - k, k)
        for piv in itertools.combinations(range(n), k):
            free = [c for c in range(n) if c not in piv]
            slots = [(r, c) for r, p in enumerate(piv) for c in free if c > p]  # R's entries right of a pivot
            rs = np.zeros((q ** len(slots), k, n), np.int64)
            rs[:, range(k), piv] = 1
            rs[:, [r for r, _ in slots], [c for _, c in slots]] = _code_digits(q, np.arange(len(rs)), len(slots))
            cs = np.zeros((len(rs), len(fs), n, k), arith.dtype)
            cs[:, :, free] = fs
            r_free_f = _ff_matmul(spec, rs[:, None, :, free], fs)
            cs[:, :, piv] = arith.add(np.eye(k, dtype=arith.dtype), arith.neg(r_free_f))
            codes = _ff_matmul(spec, cs, rs[:, None]).reshape(-1, n * n) @ weights
            pool += zip(codes.tolist(), itertools.repeat(k))
    return sorted(pool)


def _pool_commutes(spec: FieldSpec, pool: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """mask[s, j]: whether pool[j] commutes with mats[s], for (k, n, n) and
    (S, n, n) raw arrays; the products run in `_blocks`, and S = 0 runs one
    empty block, which gives a (0, k) mask."""
    chunks = (mats[part, None] for part in _blocks(len(mats) or 1, pool.size))
    return np.concatenate(
        [np.all(_ff_matmul(spec, x, pool) == _ff_matmul(spec, pool, x), axis=(2, 3)) for x in chunks]
    )


def zi_membership(
    a: ExactMatrix, b: ExactMatrix, i: int, witness: ExactMatrix | None = None
) -> ExactMatrix | None:
    """Search or validate a rank-i idempotent commuting with both operands.

    Without a witness this scans the whole matrix space in code order and
    returns the first hit (or None).  With a witness it checks the four
    conditions in order -- idempotent, rank, commutes with a, commutes with b
    -- and raises BadWitness naming the first one violated.
    """
    _check_pair(a, b)
    n = a.nrows
    if not 1 <= i <= n // 2:
        raise DimMismatch(f"rank {i} outside 1..floor(n/2)")
    if witness is not None:
        if witness.spec != a.spec:
            raise FieldMismatch("witness field differs")
        if witness.nrows != n or not witness.is_square:
            raise BadWitness("shape")
        if witness @ witness != witness:
            raise BadWitness("idempotent")
        if rank(witness) != i:
            raise BadWitness("rank")
        if not commutes(a, witness):
            raise BadWitness("commutes-with-first")
        if not commutes(b, witness):
            raise BadWitness("commutes-with-second")
        return witness
    codes = [code for code, r in idempotent_pool(a.spec, n) if r == i]
    pool = _code_stack(a.spec, n, codes)
    hits = np.flatnonzero(_pool_commutes(a.spec, pool, np.array([a.rows, b.rows], np.int64)).all(0))
    return decode_matrix(a.spec, n, codes[hits[0]]) if hits.size else None


# ---------------------------------------------------------------------------
# polynomial-commuting certificates


@dataclass(frozen=True)
class PcCertificate:
    """Coefficient vectors of p(x) = sum c_i x^i and q(x) = sum d_j x^j.

    Both polynomials have no constant term and degree between 1 and n-1; the
    canonical representative scales the first nonzero coordinate of each
    vector to one.
    """

    cs: tuple[FieldElem, ...]
    ds: tuple[FieldElem, ...]
    pa_scalar: bool
    qb_scalar: bool

    def to_json(self) -> dict:
        return {
            "cs": [c.to_json() for c in self.cs],
            "ds": [d.to_json() for d in self.ds],
            "pa_scalar": self.pa_scalar,
            "qb_scalar": self.qb_scalar,
        }

    @classmethod
    def from_json(cls, spec: FieldSpec, obj) -> "PcCertificate":
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), list) for k in ("cs", "ds")):
            raise ParseError("certificate JSON needs 'cs' and 'ds' lists")
        flags = [obj.get(k, False) for k in ("pa_scalar", "qb_scalar")]
        if not all(isinstance(f, bool) for f in flags):
            raise ParseError("certificate flags 'pa_scalar' and 'qb_scalar' must be JSON booleans")
        return cls(tuple(spec.elem(x) for x in obj["cs"]), tuple(spec.elem(x) for x in obj["ds"]), *flags)


@dataclass(frozen=True)
class PcSearchResult:
    """Outcome of a certificate search.

    status is "certificate" (verified), "none" (exhaustive search over a
    finite field found nothing), or "unknown" (rationals-only: the heuristic
    could neither produce nor refute a certificate).
    """

    status: str
    certificate: PcCertificate | None = None
    note: str = ""


def poly_eval_no_const(a: ExactMatrix, coeffs) -> ExactMatrix:
    """sum coeffs[i] * a^(i+1); coefficients are FieldElems or raw values."""
    return _power_stack(a).poly([c.raw if isinstance(c, FieldElem) else c for c in coeffs])


def _normalize_vector(spec: FieldSpec, raws: list) -> list | None:
    """Scale so the first nonzero coordinate becomes one; None if all zero."""
    ops = spec.ops()
    for x in raws:
        if x != ops.zero:
            inv = ops.inv(x)
            return [ops.mul(inv, y) for y in raws]
    return None


def pc_verify(a: ExactMatrix, b: ExactMatrix, cert: PcCertificate) -> bool:
    """Recheck a certificate: shape, normalization, and [p(A), q(B)] = 0."""
    _check_pair(a, b)
    n = a.nrows
    if len(cert.cs) != n - 1 or len(cert.ds) != n - 1:
        raise DimMismatch(f"certificate length must be {n - 1}")
    for raws in ([c.raw for c in cert.cs], [d.raw for d in cert.ds]):
        if _normalize_vector(a.spec, raws) != raws:
            return False
    pa = poly_eval_no_const(a, cert.cs)
    qb = poly_eval_no_const(b, cert.ds)
    if pa @ qb != qb @ pa:
        return False
    return cert.pa_scalar == is_scalar(pa) and cert.qb_scalar == is_scalar(qb)


def _exhaustive_pc(a: ExactMatrix, b: ExactMatrix) -> tuple[list, list] | None:
    """Complete projective scan over a finite field; the first hit in (c, d) order
    as raw vectors (cs, ds), or None.

    For each projective c in code order, the d with [p(A), q(B)] = 0 are the
    nullspace of L(c), whose column j is sum_i c_i vec([A^i, B^j]).
    The basis vector of its first free column f is the only solution, up to
    scaling, whose last nonzero coordinate is at f; every other has a later
    one, and codes compare the last coordinate first, so normalized it is the
    least-code d.  The commutators [A^i, B^j] are the memoized `_comm_grid`,
    which the distance-2 test of the same pair has formed already; `_first_class`
    forms L(c) for a `_blocks` block of classes with one product, and one
    `_gauss_jordan` finds those with a free column; only the first gets a nullspace.
    At most _PC_CLASS_CAP classes.
    """
    spec, n, m = a.spec, a.nrows, a.nrows**2
    _check_classes(spec, n - 1, _PC_CLASS_CAP)  # before the grid, which a scan past the cap would not use
    # row i - 1 of lmat is L(e_i) row-major: its column j - 1 is vec([A^i, B^j])
    lmat = _comm_grid(a, b).reshape(n - 1, n - 1, m).transpose(0, 2, 1).reshape(n - 1, m * (n - 1))

    def singular(block):  # the classes whose L(c) has a column without a pivot; elimination runs on a copy
        return (_gauss_jordan(spec, block.reshape(-1, m, n - 1).copy()) < 0).any(1)

    hit = _first_class(spec, lmat, _PC_CLASS_CAP, 8 * m * (n - 1), singular)  # cells of the int64 product
    if hit is None:
        return None
    return hit[0].tolist(), _normalize_vector(spec, nullspace_raw(spec, hit[1].reshape(m, n - 1).tolist())[0])


def _certificate(a: ExactMatrix, b: ExactMatrix, cs, ds) -> PcCertificate:
    """The certificate with raw coefficient vectors cs and ds, flags computed."""
    cs, ds = _elems(a.spec, cs), _elems(a.spec, ds)
    return PcCertificate(cs, ds, is_scalar(poly_eval_no_const(a, cs)), is_scalar(poly_eval_no_const(b, ds)))


def _elems(spec: FieldSpec, raws) -> tuple[FieldElem, ...]:
    return tuple(FieldElem(spec, x) for x in raws)


def _minpoly_certificate(a: ExactMatrix, b: ExactMatrix) -> PcCertificate | None:
    """The first verified certificate from the minimal polynomial m of a derogatory side X, a
    before b: deg m <= n - 1, and p(X) = m(X) - m_0 I is scalar, so it commutes with q(Y) = Y."""
    ops, n = a.spec.ops(), a.nrows
    x_vec = [ops.one] + [ops.zero] * (n - 2)
    for first, side in ((True, a), (False, b)):
        if derogatory(side):
            p_vec = _normalize_vector(a.spec, [c.raw for c in min_poly(side)][1:])
            p_vec += [ops.zero] * (n - 1 - len(p_vec))
            cert = _certificate(a, b, *((p_vec, x_vec) if first else (x_vec, p_vec)))
            if pc_verify(a, b, cert):
                return cert
    return None


def _rational_pc(a: ExactMatrix, b: ExactMatrix) -> PcSearchResult:
    cert = _minpoly_certificate(a, b)  # exact shortcut: a derogatory side gives a certificate directly
    if cert is not None:
        return PcSearchResult("certificate", cert, "annihilating-polynomial")
    per_prime: list[tuple[int, tuple[list, list]]] = []  # each prime's raw (cs, ds)
    skipped = ""  # primes whose projective scan exceeds the class cap

    def unknown(note: str) -> PcSearchResult:
        return PcSearchResult("unknown", None, note + skipped)

    for p in PC_PRIMES:
        spec_p = FieldSpec.prime(p)
        try:
            ap = a.to_field(spec_p)
            bp = b.to_field(spec_p)
        except DivisionByZero:
            continue  # a denominator vanishes mod p
        try:
            found = _exhaustive_pc(ap, bp)
        except CapExceeded as exc:
            skipped += f"; skipped modulo {p}: {exc}"
            continue
        if found is None:
            return unknown(f"no certificate modulo {p}")
        per_prime.append((p, found))
    if not per_prime:
        return unknown("no usable primes")
    moduli, vecs = zip(*per_prime)
    modulus = math.prod(moduli)
    cs, ds = (  # one coordinate's residues at a time, cs then ds
        [_rational_reconstruct(_crt(col, moduli), modulus) for col in zip(*side)] for side in zip(*vecs)
    )
    if None in cs + ds:  # else each has a coordinate that is 1 modulo some prime, so not zero
        return unknown("rational reconstruction failed")
    cs, ds = _normalize_vector(a.spec, cs), _normalize_vector(a.spec, ds)
    cert = _certificate(a, b, cs, ds)
    if pc_verify(a, b, cert):
        return PcSearchResult("certificate", cert, "reconstructed from residues")
    return unknown("reconstructed certificate failed verification")


def pc_search(a: ExactMatrix, b: ExactMatrix) -> PcSearchResult:
    """Find a polynomial-commuting certificate for the pair.

    Finite fields get a complete projective scan, so "none" is a proof that no
    certificate exists.  Over the rationals the search is heuristic (exact
    shortcut for derogatory inputs, otherwise scans modulo small primes and
    attempts rational reconstruction) and never claims "none".
    """
    _check_pair(a, b)
    if a.nrows < 3:
        raise DimMismatch("certificates are defined for n >= 3")
    if a.spec.is_finite:
        found = _exhaustive_pc(a, b)
        if found is None:
            return PcSearchResult("none", None, "exhaustive projective scan")
        return PcSearchResult("certificate", _certificate(a, b, *found), "exhaustive projective scan")
    return _rational_pc(a, b)


# ---------------------------------------------------------------------------
# the distance ladder


@dataclass
class DistanceResult:
    """Commuting distance of a pair with provenance and optional witnesses.

    kind is "exact", "infinite", or "bounded"; a bounded result carries a lower
    bound and an upper bound that may be math.inf.  The witness, when present,
    is the interior of a commuting chain from the first operand to the second.
    """

    kind: str
    value: int | None = None
    lower: int | None = None
    upper: float | int | None = None
    decided_by: str = ""
    witness: list[ExactMatrix] | None = None
    certificate: PcCertificate | None = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "exact":
            out["value"] = self.value
        if self.kind == "bounded":
            out["lower"] = self.lower
            out["upper"] = "inf" if self.upper == math.inf else self.upper
        out["decided_by"] = self.decided_by
        if self.witness is not None:
            out["witness"] = [m.to_json() for m in self.witness]
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.note:
            out["note"] = self.note
        return out


def verify_chain(a: ExactMatrix, b: ExactMatrix, chain: list[ExactMatrix]) -> bool:
    """Check that a <-> chain[0] <-> ... <-> chain[-1] <-> b is a commuting
    chain whose interior members are all non-scalar."""
    members = [a] + list(chain) + [b]
    for x, y in zip(members, members[1:]):
        if not commutes(x, y):
            return False
    return all(not is_scalar(c) for c in chain)


def distance(a: ExactMatrix, b: ExactMatrix) -> DistanceResult:
    """Decision ladder for the commuting distance of a pair.

    Equality and the scalar conventions come first, then adjacency, then the
    rank criterion for distance 2.  Beyond that, finite fields within the BFS
    cap are decided exactly by graph search; otherwise a certificate search
    settles distance 3 when both polynomial values are non-scalar, and the
    result stays a (3, inf) bound when it cannot.
    """
    _check_pair(a, b)
    n = a.nrows
    if a == b:
        return DistanceResult("exact", value=0, decided_by="equal")
    if is_scalar(a) or is_scalar(b):
        return DistanceResult("exact", value=1, decided_by="scalar-convention")
    if a @ b == b @ a:
        return DistanceResult("exact", value=1, decided_by="commuting")
    # the rank criterion and its witness: vec(I) is always a joint null vector,
    # so a non-scalar one exists iff rank <= n^2 - 2 (QQ first tries F[X], a
    # finite field the commutators [A, B^j] and [A^i, B])
    wit = common_nonscalar_commuter(a, b)
    if wit is not None:
        return DistanceResult(
            "exact", value=2, decided_by="rank-criterion", witness=[wit]
        )
    if n == 2:
        # a non-scalar 2x2 matrix commutes exactly with the polynomials in it,
        # so a chain between non-commuting pairs would collapse to adjacency
        return DistanceResult("infinite", decided_by="two-by-two-dichotomy")
    spec = a.spec
    if spec.is_finite and spec.order ** (n * n) <= SPACE_CAP:
        dist, chain = graph.bfs_path(a, b)
        if dist == math.inf:
            return DistanceResult("infinite", decided_by="bfs")
        return DistanceResult("exact", value=dist, decided_by="bfs", witness=chain)
    try:
        pc = pc_search(a, b)
    except CapExceeded as exc:
        return DistanceResult(
            "bounded", lower=3, upper=math.inf, decided_by="pc-cap-exceeded", note=str(exc)
        )
    cert = pc.certificate
    if cert is not None and not cert.pa_scalar and not cert.qb_scalar:
        pa, qb = poly_eval_no_const(a, cert.cs), poly_eval_no_const(b, cert.ds)
        return DistanceResult("exact", value=3, decided_by="pc-chain", witness=[pa, qb], certificate=cert)
    scalar_side = ("pc-scalar-side", "certificate bounds the distance only over an algebraic closure")
    rung, note = scalar_side if cert is not None else (f"pc-{pc.status}", pc.note)
    return DistanceResult("bounded", lower=3, upper=math.inf, decided_by=rung, certificate=cert, note=note)
