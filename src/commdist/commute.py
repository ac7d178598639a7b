"""Distance-theoretic tests between square matrices.

Everything here reduces to exact linear algebra: centralizers are nullspaces
of the Kronecker-style lift M_A = A (x) I - I (x) A^T, the distance<=2 test is
a rank bound on the stacked lift of a pair, and the distance<=3 machinery
searches for polynomials p, q without constant term and degree 1..n-1 such
that p(A) and q(B) commute.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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
    PAIR_CAP,
    SPACE_CAP,
    ExactMatrix,
    _check_square,
    _code_digits,
    _projective_reps,
    decode_matrix,
    is_scalar,
    lift_rows_raw,
    mat_pow,
    mat_vec,
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
    n = a.nrows
    return [
        unvec(a.spec, n, v) for v in nullspace_raw(a.spec, lift_rows_raw(a))
    ]


def dist_le_2(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Rank criterion: the stacked lift has rank at most n^2 - 2.

    Equivalently the pair commutes with a common non-scalar matrix (the joint
    nullspace then exceeds the scalar line), which covers the conventions for
    scalar and equal inputs as well.  Valid over every supported field.
    """
    _check_pair(a, b)
    n = a.nrows
    if n < 2:
        raise DimMismatch("the rank criterion needs n >= 2")
    rows = lift_rows_raw(a) + lift_rows_raw(b)
    return rank_raw(a.spec, rows) <= n * n - 2


def common_nonscalar_commuter(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix | None:
    """A non-scalar matrix commuting with both, if one exists."""
    _check_pair(a, b)
    rows = lift_rows_raw(a) + lift_rows_raw(b)
    for v in nullspace_raw(a.spec, rows):
        cand = unvec(a.spec, a.nrows, v)
        if not is_scalar(cand):
            return cand
    return None


def derogatory(a: ExactMatrix) -> bool:
    """True iff the minimal polynomial has degree below n.

    Tested as a rank bound on the n x n^2 stack of vec(I), vec(A), ...,
    vec(A^(n-1)): a dependence among those powers is exactly an annihilating
    polynomial of degree at most n-1.
    """
    _check_square(a)
    n = a.nrows
    if n < 2:
        raise DimMismatch("derogatory needs n >= 2")
    power = ExactMatrix.identity(a.spec, n)
    rows = [[x for r in power.rows for x in r]]
    for _ in range(n - 1):
        power = power @ a
        rows.append([x for r in power.rows for x in r])
    return rank_raw(a.spec, rows) <= n - 1


# ---------------------------------------------------------------------------
# rank-i idempotent membership


def idempotent_pool(spec: FieldSpec, n: int) -> list[tuple[int, int]]:
    """All idempotents of Mat_n over a finite field as (code, rank), code order."""
    space_size(spec, n)
    return _idempotent_pool_cached(spec, n)


@functools.lru_cache(maxsize=8)
def _idempotent_pool_cached(spec: FieldSpec, n: int) -> list[tuple[int, int]]:
    q = spec.order
    total = q ** (n * n)
    out: list[tuple[int, int]] = []
    if spec.kind == "prime":
        p = spec.p
        chunk = 1 << 16
        for start in range(0, total, chunk):
            codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
            mats = _code_digits(q, codes, n * n).reshape(-1, n, n)
            sq = np.einsum("aij,ajk->aik", mats, mats) % p
            hit = np.all(sq == mats, axis=(1, 2))
            for code in codes[hit]:
                m = decode_matrix(spec, n, int(code))
                out.append((int(code), rank(m)))
    else:
        for code in range(total):
            m = decode_matrix(spec, n, code)
            if m @ m == m:
                out.append((code, rank(m)))
    return out


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
    for code, r in idempotent_pool(a.spec, n):
        if r != i:
            continue
        p_mat = decode_matrix(a.spec, n, code)
        if commutes(a, p_mat) and commutes(b, p_mat):
            return p_mat
    return None


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
        if not isinstance(obj, dict) or "cs" not in obj or "ds" not in obj:
            raise ParseError("certificate JSON needs 'cs' and 'ds'")
        return cls(
            tuple(spec.elem(x) for x in obj["cs"]),
            tuple(spec.elem(x) for x in obj["ds"]),
            bool(obj.get("pa_scalar", False)),
            bool(obj.get("qb_scalar", False)),
        )


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
    spec = a.spec
    ops = spec.ops()
    acc = ExactMatrix.zeros(spec, a.nrows, a.ncols)
    power = a
    for idx, c in enumerate(coeffs):
        raw = c.raw if isinstance(c, FieldElem) else c
        if raw != ops.zero:
            scaled = ExactMatrix._from_raw(
                spec, [[ops.mul(raw, x) for x in row] for row in power.rows]
            )
            acc = acc + scaled
        if idx + 1 < len(coeffs):
            power = power @ a
    return acc


def _normalize_vector(spec: FieldSpec, raws: list) -> list | None:
    """Scale so the first nonzero coordinate becomes one; None if all zero."""
    ops = spec.ops()
    for x in raws:
        if x != ops.zero:
            inv = ops.inv(x)
            return [ops.mul(inv, y) for y in raws]
    return None


def _is_normalized(spec: FieldSpec, raws) -> bool:
    ops = spec.ops()
    for x in raws:
        if x != ops.zero:
            return x == ops.one
    return False


def pc_verify(a: ExactMatrix, b: ExactMatrix, cert: PcCertificate) -> bool:
    """Recheck a certificate: shape, normalization, and [p(A), q(B)] = 0."""
    _check_pair(a, b)
    n = a.nrows
    if len(cert.cs) != n - 1 or len(cert.ds) != n - 1:
        raise DimMismatch(f"certificate length must be {n - 1}")
    cs_raw = [c.raw for c in cert.cs]
    ds_raw = [d.raw for d in cert.ds]
    if not _is_normalized(a.spec, cs_raw) or not _is_normalized(a.spec, ds_raw):
        return False
    pa = poly_eval_no_const(a, cert.cs)
    qb = poly_eval_no_const(b, cert.ds)
    if pa @ qb != qb @ pa:
        return False
    return cert.pa_scalar == is_scalar(pa) and cert.qb_scalar == is_scalar(qb)


def _exhaustive_pc(a: ExactMatrix, b: ExactMatrix) -> PcCertificate | None:
    """Complete projective scan over a finite field; first hit in (c, d) order."""
    spec = a.spec
    ops = spec.ops()
    n = a.nrows
    q = spec.order
    classes = (q ** (n - 1) - 1) // (q - 1)
    if classes * classes > PAIR_CAP:
        raise CapExceeded(f"{classes}^2 projective pairs exceed 2^26")
    a_pows = [mat_pow(a, i) for i in range(n)]
    b_pows = [mat_pow(b, j) for j in range(n)]
    # K[i][j] = vec(A^i B^j - B^j A^i) for i, j in 1..n-1
    kflat = {}
    for i in range(1, n):
        for j in range(1, n):
            diff = a_pows[i] @ b_pows[j] - b_pows[j] @ a_pows[i]
            kflat[i, j] = [x for row in diff.rows for x in row]
    reps = _projective_reps(spec, n - 1)
    nsq = n * n
    zero = ops.zero
    for _, cs in reps:
        # columns of the linear system the d-vector must solve
        cols = []
        for j in range(1, n):
            col = [zero] * nsq
            for i in range(1, n):
                ci = cs[i - 1]
                if ci == zero:
                    continue
                kij = kflat[i, j]
                col = [ops.add(x, ops.mul(ci, y)) for x, y in zip(col, kij)]
            cols.append(col)
        rows = [list(r) for r in zip(*cols)]
        if rank_raw(spec, rows) == n - 1:
            continue  # only d = 0 solves; no certificate with this c
        lmat = ExactMatrix._from_raw(spec, rows)
        for _, ds in reps:
            out = mat_vec(lmat, ds)
            if all(x == zero for x in out):
                pa = poly_eval_no_const(a, _elems(spec, cs))
                qb = poly_eval_no_const(b, _elems(spec, ds))
                return PcCertificate(
                    _elems(spec, cs),
                    _elems(spec, ds),
                    is_scalar(pa),
                    is_scalar(qb),
                )
    return None


def _elems(spec: FieldSpec, raws) -> tuple[FieldElem, ...]:
    return tuple(FieldElem(spec, x) for x in raws)


def _minpoly_certificate(a: ExactMatrix, b: ExactMatrix, side: str) -> PcCertificate | None:
    """Certificate from an annihilating polynomial when one side is derogatory."""
    spec = a.spec
    ops = spec.ops()
    n = a.nrows
    target = a if side == "a" else b
    coeffs = [c.raw for c in min_poly(target)]
    deg = len(coeffs) - 1
    if not 1 <= deg <= n - 1:
        return None
    # drop the constant term: m(X) - m_0 I is scalar whenever m annihilates
    vec_ = coeffs[1:] + [ops.zero] * (n - 1 - deg)
    vec_ = _normalize_vector(spec, vec_)
    x_vec = [ops.one] + [ops.zero] * (n - 2)
    if side == "a":
        cs, ds = vec_, x_vec
    else:
        cs, ds = x_vec, vec_
    cert = PcCertificate(
        _elems(spec, cs),
        _elems(spec, ds),
        is_scalar(poly_eval_no_const(a, _elems(spec, cs))),
        is_scalar(poly_eval_no_const(b, _elems(spec, ds))),
    )
    return cert if pc_verify(a, b, cert) else None


def _crt(residues: list[int], moduli: list[int]) -> int:
    acc, mod = 0, 1
    for r, m in zip(residues, moduli):
        inv = pow(mod % m, -1, m)
        acc = acc + mod * ((r - acc) % m * inv % m)
        mod *= m
    return acc % mod


def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Smallest-height fraction a/b with a = r*b (mod m), |a|, b <= sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    s0, s1 = m, r % m
    t0, t1 = 0, 1
    while s1 > bound:
        quo = s0 // s1
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    a, b = s1, t1
    if b < 0:
        a, b = -a, -b
    if math.gcd(a, b) != 1:
        return None
    return Fraction(a, b)


def _rational_pc(a: ExactMatrix, b: ExactMatrix) -> PcSearchResult:
    # exact shortcut: a derogatory side yields a verified certificate directly
    for side in ("a", "b"):
        if derogatory(a if side == "a" else b):
            cert = _minpoly_certificate(a, b, side)
            if cert is not None:
                return PcSearchResult("certificate", cert, "annihilating-polynomial")
    n = a.nrows
    per_prime: list[tuple[int, PcCertificate]] = []
    skipped = ""  # primes whose projective scan exceeds the pair cap

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
            cert = _exhaustive_pc(ap, bp)
        except CapExceeded as exc:
            skipped += f"; skipped modulo {p}: {exc}"
            continue
        if cert is None:
            return unknown(f"no certificate modulo {p}")
        per_prime.append((p, cert))
    if not per_prime:
        return unknown("no usable primes")
    moduli = [p for p, _ in per_prime]
    modulus = math.prod(moduli)
    cs_f: list[Fraction] = []
    ds_f: list[Fraction] = []
    for which, out in (("cs", cs_f), ("ds", ds_f)):
        for idx in range(n - 1):
            residues = [getattr(cert, which)[idx].raw for _, cert in per_prime]
            frac = _rational_reconstruct(_crt(residues, moduli), modulus)
            if frac is None:
                return unknown("rational reconstruction failed")
            out.append(frac)
    spec = a.spec
    cs_raw = _normalize_vector(spec, [Fraction(f) for f in cs_f])
    ds_raw = _normalize_vector(spec, [Fraction(f) for f in ds_f])
    if cs_raw is None or ds_raw is None:
        return unknown("reconstructed a zero vector")
    cert = PcCertificate(
        _elems(spec, cs_raw),
        _elems(spec, ds_raw),
        is_scalar(poly_eval_no_const(a, _elems(spec, cs_raw))),
        is_scalar(poly_eval_no_const(b, _elems(spec, ds_raw))),
    )
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
        cert = _exhaustive_pc(a, b)
        if cert is None:
            return PcSearchResult("none", None, "exhaustive projective scan")
        return PcSearchResult("certificate", cert, "exhaustive projective scan")
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
    # the rank criterion and its witness from one elimination: vec(I) is always
    # a joint null vector, so a non-scalar one exists iff rank <= n^2 - 2
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
    if pc.certificate is not None and not pc.certificate.pa_scalar and not pc.certificate.qb_scalar:
        pa = poly_eval_no_const(a, pc.certificate.cs)
        qb = poly_eval_no_const(b, pc.certificate.ds)
        return DistanceResult(
            "exact",
            value=3,
            decided_by="pc-chain",
            witness=[pa, qb],
            certificate=pc.certificate,
        )
    if pc.certificate is not None:
        return DistanceResult(
            "bounded",
            lower=3,
            upper=math.inf,
            decided_by="pc-scalar-side",
            certificate=pc.certificate,
            note="certificate bounds the distance only over an algebraic closure",
        )
    if pc.status == "none":
        return DistanceResult(
            "bounded", lower=3, upper=math.inf, decided_by="pc-none", note=pc.note
        )
    return DistanceResult(
        "bounded", lower=3, upper=math.inf, decided_by="pc-unknown", note=pc.note
    )
