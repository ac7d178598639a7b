"""Exhaustive and sampled point counts over small finite matrix spaces.

Counts are exact integers when the space fits the exhaustive caps; otherwise
seeded sampling produces an estimate whose replay data (seed, sample count)
rides along in the report.  Sampling is counter-based: sample j always comes
from block j of a Philox stream, so shards are reproducible and independent of
how an index range is partitioned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .commute import _pool_commutes, dist_le_2, idempotent_pool, zi_membership
from .errors import CapExceeded, DimMismatch
from .field import FieldSpec
from .matrix import (
    SAMPLE_CAP,
    SPACE_CAP,
    ExactMatrix,
    _blocks,
    _code_stack,
    _commuting_pairs,
    _orbits,
    _shares_commuter,
    _stack_ranks,
    _twin_reps,
    lift_rows_raw,  # like dist_le_2, unused here: kept only for the benchmark's tracer
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
        out = asdict(self)
        out.update(out.pop("extra"))
        return out


def sample_codes(seed: int, start: int, count: int, modulus: int) -> list[int]:
    """Counter-based uniform codes: sample j is derived from Philox block j.

    The same (seed, j) always yields the same code, so partitioning a range
    across workers cannot change the results.  A code is 128 random bits
    reduced modulo `modulus`, which SAMPLE_CAP bounds.
    """
    if modulus > SAMPLE_CAP:
        raise CapExceeded(f"sampling universe {modulus} exceeds 2^{SAMPLE_CAP.bit_length() - 1}")
    if not 0 <= seed < 1 << 128:  # a Philox key is 128 bits
        raise ValueError(f"the seed must satisfy 0 <= seed < 2^128, got {seed}")
    # np.random is imported on first use, so commands that never sample skip it
    raw = np.random.Philox(key=seed).advance(start).random_raw((count, 4)).tolist()
    return [(hi << 64 | lo) % modulus for hi, lo, _, _ in raw]


def _sampled_pairs(spec: FieldSpec, n: int, samples: int, seed: int):
    """`_blocks` of sampled pairs as two (k, n, n) raw arrays; SAMPLE_CAP
    keeps codes below 2^48, in int64 range."""
    total = space_size(spec, n, None)
    for part in _blocks(samples, n * n):
        codes = sample_codes(seed, part.start, part.stop - part.start, total * total)
        a_codes, b_codes = zip(*(divmod(code, total) for code in codes))
        yield _code_stack(spec, n, a_codes), _code_stack(spec, n, b_codes)


def _nullity_counts(spec: FieldSpec, n: int) -> list[int]:
    """Number of codes of Mat_n whose centralizer has each dimension 0..n^2,
    from the rank of one lift per orbit weighted by the orbit's size."""
    reps, sizes = _orbits(spec, n)
    dims = n * n - _stack_ranks(spec, n, _code_stack(spec, n, reps))
    counts = np.zeros(n * n + 1, dtype=np.int64)
    np.add.at(counts, dims, sizes)
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
    """Pairs whose stacked lift drops rank to n^2 - 2 or lower, i.e. pairs
    that commute with a common non-scalar matrix.

    Exhaustive when Mat_n fits SPACE_CAP, else give `samples` for a seeded
    estimate (at most 2^96 pairs): `_shares_commuter` decides batches of them
    from n - 1 commutators, ranking lifts only when both sides are derogatory.  The
    exhaustive count adds up, for one A per orbit weighted by its size, every B
    if A is scalar and else the union of C(C) over the non-scalar C in C(A),
    where C runs over the `_twin_reps` codes only, as twins share C(C).
    """
    total = space_size(spec, n, SPACE_CAP if samples is None else None)
    if samples is not None and samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {samples}")
    if n < 2:
        raise DimMismatch("the rank criterion needs n >= 2")
    if samples is not None:
        pairs = _sampled_pairs(spec, n, samples, seed)
        hits = sum(int(_shares_commuter(spec, n, a, b).sum()) for a, b in pairs)
        return _sampled_report(spec, n, "pairs_dist_le_2", samples, seed, hits)
    reps, sizes = _orbits(spec, n)  # the orbit of code 0 is the scalars
    twin = np.zeros(total, bool)
    twin[_twin_reps(spec, n)] = True
    count = int(sizes[0]) * total
    for ends, spans in _commuting_pairs(spec, n, reps[1:]):
        for a, span in zip(ends.tolist(), spans):
            reached = np.zeros(total, bool)
            for _, cents in _commuting_pairs(spec, n, span[twin[span]]):
                reached[cents] = True
            count += int(sizes[np.searchsorted(reps, a)]) * int(reached.sum())
    return CensusReport(spec.to_string(), n, "pairs_dist_le_2", {"kind": "exhaustive"}, count)


def _sampled_report(spec: FieldSpec, n: int, quantity: str, samples: int, seed: int, hits: int, **extra):
    """The estimate from `hits` of `samples` seeded pairs, scaled to all q^(2n^2) pairs."""
    frac, p_hat = Fraction(hits, samples), hits / samples
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
    estimate = {
        "hits": hits,
        "samples": samples,
        "fraction": f"{frac.numerator}/{frac.denominator}",
        "scaled": str(frac * spec.order ** (2 * n * n)),
        "stderr_fraction": stderr,
    }
    mode = {"kind": "sampled", "samples": samples, "seed": seed}
    return CensusReport(spec.to_string(), n, quantity, mode, estimate, extra)


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

    Such a commuter is not scalar, so only the pairs inside the rank criterion
    meet the rank-i pool (`_shares_commuter`, the commutator route of
    `count_dist_le_2`), and each hit's first common idempotent is validated
    through `zi_membership`, which raises BadWitness on a false hit.
    """
    if samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {samples}")
    space_size(spec, n, None)  # field and size errors before the rank check
    if not 1 <= i <= n // 2:
        raise DimMismatch(f"rank {i} outside 1..floor(n/2)")
    pool = _code_stack(spec, n, [code for code, r in idempotent_pool(spec, n) if r == i])
    hits = 0
    for a, b in _sampled_pairs(spec, n, samples, seed):
        near = np.flatnonzero(_shares_commuter(spec, n, a, b))
        common = _pool_commutes(spec, pool, a[near]) & _pool_commutes(spec, pool, b[near])
        hit = np.flatnonzero(common.any(1))
        for s, j in zip(near[hit].tolist(), common[hit].argmax(1).tolist()):
            x, y, e = (ExactMatrix._from_raw(spec, m.tolist()) for m in (a[s], b[s], pool[j]))
            zi_membership(x, y, i, witness=e)
        hits += len(hit)
    return _sampled_report(
        spec, n, f"zi_pair_count({i})", samples, seed, hits,
        i=i, idempotents_of_rank_i=len(pool), crosschecked=True,
    )
