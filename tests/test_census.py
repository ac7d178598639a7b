"""Point counts: exhaustive fixtures with in-suite brute-force oracles,
snapshot regressions, and deterministic counter-based sampling."""

import json
import math
from fractions import Fraction

import pytest

from commdist.errors import CapExceeded, FieldMismatch
from commdist.field import FieldSpec
from commdist import census as cs
from commdist import commute as cm
from commdist.graph import decode_matrix
from commdist.verify import load_snapshot

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
QQ = FieldSpec.rationals()


def test_commuting_pairs_tiny_field_matches_brute_force():
    mats = [decode_matrix(GF2, 2, c) for c in range(16)]
    brute = sum(1 for a in mats for b in mats if a @ b == b @ a)
    assert brute == 88
    assert cs.count_commuting_pairs(GF2, 2).value == 88


def _feit_fine(q: int, n: int) -> int:
    """Commuting pairs in Mat_n(F_q) from the Feit-Fine series (Duke Math. J.
    27, 1960): sum_n C_n x^n / |GL_n(q)| = prod_{i>=1} prod_{j>=0} 1/(1 - q^(1-j) x^i).
    Each inner product is sum_k q^k x^(ik) / ((1 - q^-1) ... (1 - q^-k))."""
    series = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        factor = [Fraction(0)] * (n + 1)
        denom = Fraction(1)
        for k in range(n // i + 1):
            if k:
                denom *= 1 - Fraction(1, q**k)
            factor[i * k] = q**k / denom
        series = [sum(series[a] * factor[b - a] for a in range(b + 1)) for b in range(n + 1)]
    return series[n] * math.prod(q**n - q**l for l in range(n))


@pytest.mark.parametrize(
    "spec,n,pairs",
    [(GF2, 2, 88), (GF3, 2, 945), (GF2, 3, 7456), (GF3, 3, 809433),
     (FieldSpec.parse("gf(2^2):1,1,1"), 2, 5056)],
)
def test_commuting_pairs_match_the_feit_fine_series(spec, n, pairs):
    assert _feit_fine(spec.order, n) == pairs
    assert cs.count_commuting_pairs(spec, n).value == pairs


def test_commuting_pairs_n1_is_q_squared():
    for spec in (GF2, GF3):
        assert cs.count_commuting_pairs(spec, 1).value == spec.order**2


def test_commuting_pairs_snapshots():
    snap = load_snapshot("census")["pairs_dist_le_1"]
    assert cs.count_commuting_pairs(GF3, 2).value == snap["2|gf(3)"]
    assert cs.count_commuting_pairs(GF2, 3).value == snap["3|gf(2)"]


def test_commuting_pairs_2x2_gf3_matches_brute_force():
    mats = [decode_matrix(GF3, 2, c) for c in range(81)]
    brute = sum(1 for a in mats for b in mats if a @ b == b @ a)
    assert brute == cs.count_commuting_pairs(GF3, 2).value == 945


def test_dist_le_2_equals_commuting_count_for_two_by_two():
    assert cs.count_dist_le_2(GF2, 2).value == 88
    assert (
        cs.count_dist_le_2(GF3, 2).value
        == cs.count_commuting_pairs(GF3, 2).value
    )


def test_dist_le_2_exhaustive_snapshot_and_bounds():
    snap = load_snapshot("census")
    count = cs.count_dist_le_2(GF2, 3).value
    assert count == snap["pairs_dist_le_2"]["3|gf(2)"]
    assert snap["pairs_dist_le_1"]["3|gf(2)"] < count < 2**18


def test_dist_le_2_containment():
    for spec, n in [(GF2, 2), (GF3, 2)]:
        assert (
            cs.count_dist_le_2(spec, n).value
            >= cs.count_commuting_pairs(spec, n).value
        )


def test_sampled_mode_is_deterministic_and_sound():
    r1 = cs.count_dist_le_2(GF2, 3, samples=300, seed=12)
    r2 = cs.count_dist_le_2(GF2, 3, samples=300, seed=12)
    assert r1.value == r2.value
    assert r1.mode == {"kind": "sampled", "samples": 300, "seed": 12}
    # recount the same sampled pairs with the pairwise library test
    hits = 0
    for pair_code in cs.sample_codes(12, 0, 300, 512 * 512):
        a_code, b_code = divmod(pair_code, 512)
        if cm.dist_le_2(decode_matrix(GF2, 3, a_code), decode_matrix(GF2, 3, b_code)):
            hits += 1
    assert r1.value["hits"] == hits


@pytest.mark.slow
def test_dist_le_2_dimension_trend_diagnostic():
    # data-level sanity only: the base-q log of the distance<=2 count should
    # sit above 14 = 2n^2 - 2n + 2 for n = 3 and shrink toward it as q grows
    import math

    exact = cs.count_dist_le_2(GF2, 3).value
    log2_count = math.log2(exact)
    sampled = cs.count_dist_le_2(GF3, 3, samples=4000, seed=14).value
    est = sampled["hits"] / sampled["samples"] * 3**18
    log3_count = math.log(est, 3)
    assert 14 < log3_count < log2_count


def test_sample_codes_partition_independent():
    whole = cs.sample_codes(99, 0, 64, 10**9)
    parts = (
        cs.sample_codes(99, 0, 10, 10**9)
        + cs.sample_codes(99, 10, 30, 10**9)
        + cs.sample_codes(99, 40, 24, 10**9)
    )
    assert whole == parts
    assert all(0 <= c < 10**9 for c in whole)


def test_derogatory_counts():
    snap = load_snapshot("census")["derogatory_count"]
    rep = cs.derogatory_count(GF2, 2)
    assert rep.value == 2  # only the scalars: non-scalar 2x2 are non-derogatory
    assert cs.derogatory_count(GF2, 3).value == snap["3|gf(2)"]
    assert "ratio_to_q_pow_nsq_minus_3" in rep.extra


@pytest.mark.slow
def test_derogatory_count_mat3_gf3():
    snap = load_snapshot("census")["derogatory_count"]
    assert cs.derogatory_count(GF3, 3).value == snap["3|gf(3)"]


def test_zi_pair_census_crosschecks():
    rep = cs.zi_pair_census(GF2, 3, 1, samples=60, seed=7)
    assert rep.extra["crosschecked"] is True
    assert rep.value["hits"] >= 1
    assert rep.value["samples"] == 60
    assert 0 <= rep.value["hits"] <= 60


@pytest.mark.slow
def test_zi_pair_census_mat4_both_ranks_nonempty():
    # rank-1 and rank-2 idempotent strata both catch sampled pairs at n = 4
    hits1 = cs.zi_pair_census(GF2, 4, 1, samples=800, seed=1).value["hits"]
    hits2 = cs.zi_pair_census(GF2, 4, 2, samples=2500, seed=2).value["hits"]
    assert hits1 > 0 and hits2 > 0


def test_report_json_lines():
    rep = cs.count_commuting_pairs(GF2, 2)
    line = rep.to_json_line()
    parsed = json.loads(line)
    assert parsed["value"] == 88
    assert parsed["quantity"] == "pairs_dist_le_1"
    # reports carry no timings, so identical calls give identical lines
    assert cs.count_commuting_pairs(GF2, 2).to_json_line() == line


def test_caps_and_field_requirements():
    g7 = FieldSpec.prime(7)
    with pytest.raises(CapExceeded):
        cs.count_commuting_pairs(g7, 3)
    with pytest.raises(CapExceeded):
        cs.count_dist_le_2(GF3, 3)  # 3^18 ordered pairs exceed 2^26 exhaustively
    with pytest.raises(FieldMismatch):
        cs.count_commuting_pairs(QQ, 2)
