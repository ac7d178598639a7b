"""Exhaustive and sampled point counts over small finite matrix spaces.

Counts are exact integers when the space fits the exhaustive caps; otherwise
seeded sampling produces an estimate whose replay data (seed, sample count)
rides along in the report.  Sampling is counter-based: sample j always comes
from block j of a Philox stream, so shards are reproducible and independent of
how an index range is partitioned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np
from numpy.random import Philox

from .commute import dist_le_2, idempotent_pool
from .errors import CapExceeded, DimMismatch
from .field import FieldSpec
from .matrix import (
    PAIR_CAP,
    ExactMatrix,
    _centralizer_chunks,
    decode_matrix,
    echelon_gf2,
    lift_rows_raw,  # unused here, but the benchmark's tracer wraps census.lift_rows_raw
    pack_gf2,
    rank_raw,
    space_size,
)


@dataclass
class CensusReport:
    """One counted or estimated quantity plus everything needed to replay it."""

    field: str
    n: int
    quantity: str
    mode: dict
    value: object  # exact int, or a dict for sampled estimates
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "field": self.field,
            "n": self.n,
            "quantity": self.quantity,
            "mode": self.mode,
            "value": self.value,
        }
        out.update(self.extra)
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def sample_codes(seed: int, start: int, count: int, modulus: int) -> list[int]:
    """Counter-based uniform codes: sample j is derived from Philox block j.

    The same (seed, j) always yields the same code, so partitioning a range
    across workers cannot change the results.
    """
    if count == 0:
        return []
    bg = Philox(key=seed)
    if start:
        bg = bg.advance(start)
    raw = bg.random_raw(4 * count)
    out = []
    for idx in range(count):
        hi = int(raw[4 * idx])
        lo = int(raw[4 * idx + 1])
        out.append(((hi << 64) | lo) % modulus)
    return out


def _nullity_counts(spec: FieldSpec, n: int) -> list[int]:
    """Number of codes of Mat_n whose centralizer has each dimension 0..n^2."""
    counts = np.zeros(n * n + 1, dtype=np.int64)
    for _, free, _ in _centralizer_chunks(spec, n, range(space_size(spec, n))):
        counts += np.bincount(free.sum(1), minlength=n * n + 1)
    return counts.tolist()


def count_commuting_pairs(spec: FieldSpec, n: int) -> CensusReport:
    """|{(A, B) : AB = BA}| as the sum of centralizer sizes over all A."""
    counts = _nullity_counts(spec, n)
    return CensusReport(
        spec.to_string(),
        n,
        "pairs_dist_le_1",
        {"kind": "exhaustive"},
        sum(c * spec.order**d for d, c in enumerate(counts)),
    )


def count_dist_le_2(
    spec: FieldSpec, n: int, samples: int | None = None, seed: int = 0
) -> CensusReport:
    """Pairs whose stacked lift drops rank to n^2 - 2 or lower.

    Exhaustive when the ordered-pair space fits 2^26, else give `samples` for
    a seeded estimate.
    """
    total = space_size(spec, n, None)
    pair_total = total * total
    if samples is None:
        if pair_total > PAIR_CAP:
            raise CapExceeded(f"{pair_total} ordered pairs exceed 2^26; use sampling")
        # GF(2) bases stay bit-packed: the pair loop below is the hot spot
        gf2 = spec.kind == "prime" and spec.p == 2
        bases = []
        for _, free, vecs in _centralizer_chunks(spec, n, range(total)):
            for f, v in zip(free, vecs):
                bases.append([pack_gf2(x) for x in v[f]] if gf2 else v[f].tolist())
        count = total  # the diagonal: every pair (A, A) qualifies
        for a in range(total):
            ba = bases[a]
            da = len(ba)
            for b in range(a + 1, total):
                bb = bases[b]
                joint = ba + bb
                r = len(echelon_gf2(joint)) if gf2 else rank_raw(spec, joint)
                if da + len(bb) - r >= 2:
                    count += 2
        return CensusReport(
            spec.to_string(),
            n,
            "pairs_dist_le_2",
            {"kind": "exhaustive"},
            count,
        )
    if samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {samples}")
    hits = 0
    for pair_code in sample_codes(seed, 0, samples, pair_total):
        a_code, b_code = divmod(pair_code, total)
        a = decode_matrix(spec, n, a_code)
        b = decode_matrix(spec, n, b_code)
        if dist_le_2(a, b):
            hits += 1
    return CensusReport(
        spec.to_string(),
        n,
        "pairs_dist_le_2",
        {"kind": "sampled", "samples": samples, "seed": seed},
        _estimate(hits, samples, pair_total),
    )


def _estimate(hits: int, samples: int, universe: int) -> dict:
    frac = Fraction(hits, samples)
    p_hat = hits / samples
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
    return {
        "hits": hits,
        "samples": samples,
        "fraction": f"{frac.numerator}/{frac.denominator}",
        "scaled": str(frac * universe),
        "stderr_fraction": stderr,
    }


def derogatory_count(spec: FieldSpec, n: int) -> CensusReport:
    """Number of matrices whose minimal polynomial degree falls below n,
    i.e. whose centralizer has dimension above n."""
    q = spec.order
    space_size(spec, n)  # field and cap errors first, as for the other counts
    if n < 2:
        raise DimMismatch("derogatory needs n >= 2")
    count = sum(_nullity_counts(spec, n)[n + 1 :])
    report = CensusReport(
        spec.to_string(),
        n,
        "derogatory_count",
        {"kind": "exhaustive"},
        count,
    )
    # dimension diagnostic: derogatory matrices should thin out like q^(n^2-3)
    report.extra["ratio_to_q_pow_nsq_minus_3"] = str(Fraction(count, q ** (n * n - 3)))
    return report


def zi_pair_census(
    spec: FieldSpec, n: int, i: int, samples: int, seed: int = 0
) -> CensusReport:
    """Fraction of sampled pairs sharing a rank-i idempotent commuter.

    Every hit is cross-checked against the rank criterion; a hit that failed
    it would be a library bug, so the check raises.
    """
    if samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {samples}")
    total = space_size(spec, n, None)
    pool = [
        decode_matrix(spec, n, code)
        for code, r in idempotent_pool(spec, n)
        if r == i
    ]
    use_numpy = spec.kind == "prime" and pool
    if use_numpy:
        stack = np.array(
            [[[x for x in row] for row in m.rows] for m in pool], dtype=np.int64
        )
    hits = 0
    for pair_code in sample_codes(seed, 0, samples, total * total):
        a_code, b_code = divmod(pair_code, total)
        a = decode_matrix(spec, n, a_code)
        b = decode_matrix(spec, n, b_code)
        if use_numpy:
            hit = bool(
                np.any(
                    _commute_mask(stack, a, spec.p) & _commute_mask(stack, b, spec.p)
                )
            )
        else:
            hit = any(
                (a @ pm == pm @ a) and (b @ pm == pm @ b) for pm in pool
            )
        if hit:
            if not dist_le_2(a, b):
                raise AssertionError(
                    "idempotent witness without rank-criterion membership"
                )
            hits += 1
    report = CensusReport(
        spec.to_string(),
        n,
        f"zi_pair_count({i})",
        {"kind": "sampled", "samples": samples, "seed": seed},
        _estimate(hits, samples, total * total),
        extra={"i": i, "idempotents_of_rank_i": len(pool), "crosschecked": True},
    )
    return report


def _commute_mask(stack: np.ndarray, m: ExactMatrix, p: int) -> np.ndarray:
    arr = np.array([[x for x in row] for row in m.rows], dtype=np.int64)
    left = np.einsum("ij,ajk->aik", arr, stack) % p
    right = np.einsum("aij,jk->aik", stack, arr) % p
    return np.all(left == right, axis=(1, 2))
