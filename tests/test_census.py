"""Point counts: exhaustive fixtures with in-suite brute-force oracles,
snapshot regressions, and deterministic counter-based sampling."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import commdist
from commdist.errors import BadWitness, CapExceeded, DimMismatch, FieldMismatch
from commdist.field import FieldSpec
from commdist import census as cs
from commdist import commute as cm
from commdist import matrix
from commdist.graph import decode_matrix
from commdist.verify import load_snapshot

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
GF8 = FieldSpec.parse("gf(2^3):1,1,0,1")
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
     (FieldSpec.parse("gf(2^2):1,1,1"), 2, 5056), (GF2, 4, 2526976)],
)
def test_commuting_pairs_match_the_feit_fine_series(spec, n, pairs):
    assert _feit_fine(spec.order, n) == pairs
    assert cs.count_commuting_pairs(spec, n).value == pairs


def test_commuting_pairs_n1_is_q_squared():
    # GF(257) and GF(16777213) rank the 1 x 1 lifts in int64 batches, the rest through the tables
    for spec in (GF2, GF3, GF4, FieldSpec.prime(257)):
        assert cs.count_commuting_pairs(spec, 1).value == spec.order**2
    assert cs.count_commuting_pairs(FieldSpec.prime(16777213), 1).value == 16777213**2


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


@pytest.mark.parametrize(
    "spec", [GF2, GF3, GF4, FieldSpec.prime(5), FieldSpec.prime(7), GF8], ids=str
)
def test_dist_le_2_two_by_two_closed_form(spec):
    # at n = 2 distance <= 2 means commuting, and Feit & Fine (Duke Math. J.
    # 27, 1960) count q^3 (q^3 + q^2 - 1) commuting pairs in Mat_2(F_q)
    q = spec.order
    assert cs.count_dist_le_2(spec, 2).value == q**3 * (q**3 + q**2 - 1)


def test_exhaustive_dist_le_2_needs_n_at_least_2_after_field_and_cap_checks():
    with pytest.raises(FieldMismatch):
        cs.count_dist_le_2(QQ, 1)
    with pytest.raises(CapExceeded):
        cs.count_dist_le_2(FieldSpec.prime(16777259), 1)  # the first prime above 2^24
    with pytest.raises(DimMismatch, match="the rank criterion needs n >= 2"):
        cs.count_dist_le_2(GF2, 1)


def test_dist_le_2_exhaustive_snapshot_and_bounds():
    snap = load_snapshot("census")
    for spec in (GF2, GF3):
        key = f"3|{spec}"
        count = cs.count_dist_le_2(spec, 3).value
        assert count == snap["pairs_dist_le_2"][key]
        assert snap["pairs_dist_le_1"][key] < count < spec.order**18


# both also equal the d <= 2 part of the exact pair-distance distribution that
# one BFS sweep per orbit representative gives (ROADMAP item 3, prototype B)
@pytest.mark.parametrize("spec,n,count", [(GF4, 3, 439975936), (GF2, 4, 217405696)])
def test_exhaustive_dist_le_2_past_gf3(spec, n, count):
    assert cs.count_dist_le_2(spec, n).value == count


@pytest.mark.slow
def test_exhaustive_dist_le_2_gf5_mat3():
    assert cs.count_dist_le_2(FieldSpec.prime(5), 3).value == 9137265625


@pytest.mark.slow
def test_exhaustive_dist_le_2_matches_the_rank_criterion_per_orbit(monkeypatch):
    # each GF(3) 3x3 representative, ranked against all of Mat_3 by the
    # pairwise rank criterion, reaches exactly the B its centralizer union marks
    total = 3**9
    everything = matrix._code_stack(GF3, 3, range(total))
    reps, sizes = cs._orbits(GF3, 3)
    weighted = 0
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        a = np.broadcast_to(everything[rep], everything.shape)
        reached = int((cs._stack_ranks(GF3, 3, a, everything) <= 7).sum())
        weighted += size * reached
        if rep == 0:  # the scalar orbit reaches every B
            assert reached == total
            continue
        # the scalar orbit and this representative alone, with weight 1
        orbits = (np.array([0, rep]), np.array([3, 1]))
        monkeypatch.setattr(cs, "_orbits", lambda spec, n, orbits=orbits: orbits)
        assert cs.count_dist_le_2(GF3, 3).value == 3 * total + reached
    assert weighted == 8947017


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


def _recount(spec, n, samples, seed, hit) -> int:
    """Per-pair recount of a sampled census: how many drawn pairs satisfy hit(A, B)."""
    total = spec.order ** (n * n)
    pairs = (divmod(code, total) for code in cs.sample_codes(seed, 0, samples, total * total))
    return sum(bool(hit(decode_matrix(spec, n, x), decode_matrix(spec, n, y))) for x, y in pairs)


@pytest.mark.parametrize(
    "spec,n",
    [(GF2, 3), (GF3, 3), (GF4, 2), (GF8, 3), (GF2, 4), (FieldSpec.prime(257), 2)],
    ids=str,
)
@pytest.mark.parametrize("seed", [0, 3, 8])
def test_sampled_dist_le_2_matches_a_per_pair_recount(spec, n, seed):
    rep = cs.count_dist_le_2(spec, n, samples=150, seed=seed)
    assert rep.value["hits"] == _recount(spec, n, 150, seed, cm.dist_le_2)


@pytest.mark.parametrize(
    "field,seed,hits",
    [("gf(3)", 1001, 20), ("gf(3)", 1003, 22), ("gf(5)", 1002, 3), ("gf(5)", 1004, 3)],
)
def test_sampled_dist_le_2_keeps_the_benchmark_counts(field, seed, hits):
    # the 1,500-sample GF(3) and GF(5) 3x3 calls of the benchmark's census pass
    rep = cs.count_dist_le_2(FieldSpec.parse(field), 3, samples=1500, seed=seed)
    assert rep.value["hits"] == hits


SAMPLED_PINS = json.loads((Path(__file__).parent / "data" / "sampled_census.json").read_text())


@pytest.mark.parametrize("pin", SAMPLED_PINS, ids=lambda pin: f"{pin['fn']}-{pin['field']}-{pin['kwargs']['seed']}")
def test_sampled_census_reports_stay_byte_identical(pin):
    # the sampled dist-le-2 and zi-pairs calls of the benchmark's census pass,
    # pinned before the commutator route replaced the stacked lift ranks
    fn = getattr(cs, pin["fn"])
    report = fn(FieldSpec.parse(pin["field"]), pin["n"], **pin["kwargs"])
    assert json.dumps(report.to_json(), sort_keys=True) == pin["report"]


def test_sampled_dist_le_2_needs_n_at_least_2():
    with pytest.raises(DimMismatch, match="the rank criterion needs n >= 2"):
        cs.count_dist_le_2(GF2, 1, samples=10, seed=0)


@pytest.mark.parametrize(
    "spec,n,samples,error",
    [(GF2, 1, 0, ValueError), (GF2, 1, None, DimMismatch), (GF2, 1, 5, DimMismatch), (QQ, 3, 0, FieldMismatch)],
    ids=["samples-before-n", "exhaustive-n", "sampled-n", "field-before-samples"],
)
def test_count_dist_le_2_checks_field_then_samples_then_n_in_both_modes(spec, n, samples, error):
    # one check of each input before the exhaustive/sampled branch, in one order
    with pytest.raises(error) as err:
        cs.count_dist_le_2(spec, n, samples=samples)
    assert type(err.value) is error


def test_sampling_universes_above_2_to_the_96_are_capped():
    # 128-bit draws reduced modulo a larger universe used to decode every A
    # as the zero matrix, so these calls reported a fraction of 1/1
    for spec, n in [(FieldSpec.prime(65537), 3), (FieldSpec.prime(2147483629), 3), (GF2, 7)]:
        with pytest.raises(CapExceeded, match="sampling universe"):
            cs.count_dist_le_2(spec, n, samples=50)
    with pytest.raises(CapExceeded):
        cs.sample_codes(0, 0, 1, 2**96 + 1)
    # up to the cap the draws are unchanged, so seeded reports replay
    assert cs.sample_codes(5, 0, 3, 2**96) == [
        16399138097141313079191595592, 11029767064695396478891275231, 12176923267846507798202680999
    ]
    assert cs.count_dist_le_2(GF2, 6, samples=20, seed=1).value["samples"] == 20


@pytest.mark.slow
def test_dist_le_2_dimension_trend_diagnostic():
    # data-level sanity only: the base-q log of the exact distance<=2 count
    # sits above 14 = 2n^2 - 2n + 2 for n = 3, and the ratio to q^14 falls
    # toward 1 as q grows (2.219, 1.871, 1.639)
    counts = {q: cs.count_dist_le_2(spec, 3).value for q, spec in ((2, GF2), (3, GF3), (4, GF4))}
    assert all(math.log(c, q) > 14 for q, c in counts.items())
    ratios = [Fraction(c, q**14) for q, c in counts.items()]
    assert ratios[0] > ratios[1] > ratios[2]


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


def test_derogatory_count_needs_n_at_least_2():
    with pytest.raises(DimMismatch, match="derogatory needs n >= 2"):
        cs.derogatory_count(GF2, 1)


def test_derogatory_count_mat3_gf3():
    snap = load_snapshot("census")["derogatory_count"]
    assert cs.derogatory_count(GF3, 3).value == snap["3|gf(3)"]


def test_zi_pair_census_crosschecks():
    rep = cs.zi_pair_census(GF2, 3, 1, samples=60, seed=7)
    assert rep.extra["crosschecked"] is True
    assert rep.value["hits"] >= 1
    assert rep.value["samples"] == 60
    assert 0 <= rep.value["hits"] <= 60


def test_zi_pair_census_matches_membership_over_gf4():
    rep = cs.zi_pair_census(GF4, 2, 1, samples=200, seed=5)
    hits = 0
    for pair_code in cs.sample_codes(5, 0, 200, 256 * 256):
        a_code, b_code = divmod(pair_code, 256)
        a, b = decode_matrix(GF4, 2, a_code), decode_matrix(GF4, 2, b_code)
        wit = cm.zi_membership(a, b, 1)
        if wit is not None:
            assert cm.zi_membership(a, b, 1, witness=wit) == wit
            hits += 1
    assert rep.value["hits"] == hits > 0


@pytest.mark.parametrize("spec,n,i", [(GF2, 3, 1), (GF2, 4, 2), (GF3, 2, 1), (GF4, 2, 1)], ids=str)
@pytest.mark.parametrize("seed", [1, 4])
def test_zi_pair_census_matches_a_per_pair_recount(spec, n, i, seed):
    def hit(a, b):
        wit = cm.zi_membership(a, b, i)
        assert wit is None or cm.dist_le_2(a, b)
        return wit is not None

    rep = cs.zi_pair_census(spec, n, i, samples=100, seed=seed)
    assert rep.value["hits"] == _recount(spec, n, 100, seed, hit)


def test_zi_pair_census_raises_on_a_false_pool_hit(monkeypatch):
    # a pool mask that claims every idempotent commutes with every matrix
    # hands the witness validation an idempotent that does not
    monkeypatch.setattr(cs, "_pool_commutes", lambda spec, pool, mats: np.ones((len(mats), len(pool)), bool))
    with pytest.raises(BadWitness) as err:
        cs.zi_pair_census(GF2, 3, 1, samples=60, seed=7)
    assert err.value.condition in ("commutes-with-first", "commutes-with-second")


@pytest.mark.parametrize("spec,n,i", [(GF2, 4, 1), (GF2, 4, 2), (GF3, 3, 1), (GF4, 2, 1), (GF8, 2, 1)], ids=str)
@pytest.mark.parametrize("seed", [2, 3])
def test_zi_pair_census_rank_filter_drops_no_pool_hit(monkeypatch, spec, n, i, seed):
    # unfiltered: every sampled pair against the whole rank-i pool
    pool = matrix._code_stack(spec, n, [code for code, r in cm.idempotent_pool(spec, n) if r == i])
    want = sum(
        int((cm._pool_commutes(spec, pool, a) & cm._pool_commutes(spec, pool, b)).any(1).sum())
        for a, b in cs._sampled_pairs(spec, n, 1000, seed)
    )
    assert cs.zi_pair_census(spec, n, i, samples=1000, seed=seed).value["hits"] == want > 0
    # blocks of three pairs, many with no pair inside the rank criterion
    monkeypatch.setattr(matrix, "_BATCH_CELLS", 3 * n * n)
    assert cs.zi_pair_census(spec, n, i, samples=1000, seed=seed).value["hits"] == want


@pytest.mark.slow
def test_zi_pair_census_mat4_both_ranks_nonempty():
    # rank-1 and rank-2 idempotent strata both catch sampled pairs at n = 4
    hits1 = cs.zi_pair_census(GF2, 4, 1, samples=800, seed=1).value["hits"]
    hits2 = cs.zi_pair_census(GF2, 4, 2, samples=2500, seed=2).value["hits"]
    assert hits1 > 0 and hits2 > 0


def test_report_json_lines():
    rep = cs.count_commuting_pairs(GF2, 2)
    line = json.dumps(rep.to_json(), sort_keys=True)
    parsed = json.loads(line)
    assert parsed["value"] == 88
    assert parsed["quantity"] == "pairs_dist_le_1"
    # reports carry no timings, so identical calls give identical lines
    assert json.dumps(cs.count_commuting_pairs(GF2, 2).to_json(), sort_keys=True) == line


def test_caps_and_field_requirements():
    g7 = FieldSpec.prime(7)
    with pytest.raises(CapExceeded):
        cs.count_commuting_pairs(g7, 3)
    assert cs.count_dist_le_2(GF3, 3).value == 8947017
    with pytest.raises(CapExceeded):
        cs.count_dist_le_2(GF3, 4)  # 3^16 codes exceed 2^24 exhaustively
    with pytest.raises(FieldMismatch):
        cs.count_commuting_pairs(QQ, 2)


def test_bfs_and_exhaustive_counts_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use (numpy 2.4), 11-19 ms of every fresh process
    src = str(Path(commdist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from commdist import census, commute\n"
        "from commdist.field import FieldSpec\n"
        "from commdist.matrix import decode_matrix\n"
        "gf2 = FieldSpec.prime(2)\n"
        "assert commute.distance(decode_matrix(gf2, 3, 6), decode_matrix(gf2, 3, 10)).decided_by == 'bfs'\n"
        "assert census.count_dist_le_2(gf2, 3).to_json()['mode']['kind'] == 'exhaustive'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
