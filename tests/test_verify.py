"""The reference checks can fail: the template evaluator reads what it is
given, a wrong lift or centralizer member fails its worked example, each
mutation of a library function in a standing matrix (a broken restricted
search, certificate check, elimination kernel, distance, count or rank among
them) fails one named clause of the check that relies on it, and a check that
raises becomes a failing row."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from commdist import census, commute, graph, matrix, verify
from commdist.matrix import ExactMatrix


def _perturbed(m: ExactMatrix, i: int, j: int) -> ExactMatrix:
    rows = [list(row) for row in m.rows]
    rows[i][j] += 1
    return ExactMatrix(m.spec, rows)


def test_template_entries_are_signed_sums_of_scaled_terms():
    m = ExactMatrix(verify.GF5, [[1, 2], [3, 4]])
    raw = verify.GF5.raw_from
    assert verify._eval_template_entry("0", m) == raw(0)
    assert verify._eval_template_entry("-a21", m) == raw(-3)
    assert verify._eval_template_entry("a11-a22", m) == raw(-3)
    assert verify._eval_template_entry("1/2a11-2a12+a21", m) == raw(Fraction(1, 2) - 4 + 3)
    for bad in ("", "2", "a1", "a11x", "a110", "1/a11", "a11--a22"):
        with pytest.raises(ValueError, match="bad template entry"):
            verify._eval_template_entry(bad, m)


@pytest.mark.parametrize("side", ["ex46_A", "ex46_B"])
def test_every_entry_of_an_ex46_centralizer_member_is_checked(side):
    grid = verify._EX46_C if side == "ex46_A" else verify._EX46_D
    for member in commute.centralizer_basis(verify.load_fixture(side)):
        assert verify._misfits(grid, member, member) == 0
        for i in range(4):
            for j in range(4):
                wrong = _perturbed(member, i, j)
                assert verify._misfits(grid, wrong, wrong) > 0, (i, j)


def test_a_wrong_lift_fails_the_ex32_template(monkeypatch):
    lift = commute.lift_M
    monkeypatch.setattr(commute, "lift_M", lambda a: lift(a.transpose()))
    [result] = verify.verify_paper(["ex32-lift-template"])
    assert not result.passed
    assert int(result.actual.split(",")[0].removeprefix("mismatches=")) > 0


@pytest.mark.parametrize("side", ["ex46_A", "ex46_B"])
def test_a_perturbed_centralizer_member_fails_the_ex46_templates(monkeypatch, side):
    target = verify.load_fixture(side)
    basis = commute.centralizer_basis

    def perturbed_basis(m):
        members = basis(m)
        if m.spec == target.spec and m == target:
            members[0] = _perturbed(members[0], 1, 0)
        return members

    monkeypatch.setattr(commute, "centralizer_basis", perturbed_basis)
    [result] = verify.verify_paper(["ex46"])
    assert not result.passed
    assert "dims=(6,4), templates=False," in result.actual


def test_a_check_that_raises_is_a_failing_row(monkeypatch):
    def broken(a, b):
        raise RuntimeError("no distance today")

    monkeypatch.setattr(commute, "distance", broken)
    [result] = verify.verify_paper(["ex25-distance"])
    assert not result.passed and result.row().startswith("FAIL")
    assert (result.expected, result.actual) == ("no exception", "RuntimeError: no distance today")


def _zeroed_cs(search):
    def mutated(a, b):
        res = search(a, b)
        return replace(res, certificate=replace(res.certificate, cs=(a.spec.zero(),) * (a.nrows - 1)))

    return mutated


def _last_pivot_dropped(eliminate):
    def mutated(spec, mat):
        pivot_row = eliminate(spec, mat)
        last = pivot_row.shape[1] - 1 - (pivot_row[:, ::-1] >= 0).argmax(1)
        pivot_row[np.arange(len(pivot_row)), last] = -1
        return pivot_row

    return mutated


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _value_plus_one(fn):
    def mutated(*args):
        res = fn(*args)
        return replace(res, value=res.value + 1)

    return mutated


def _minus_one_when_tall(fn):
    return lambda spec, rows: fn(spec, rows) - (len(rows) > len(rows[0]))


# each mutation of the library breaks one clause of the named check; where another check
# fails too, the faster one is named (`rank-criterion-vs-bfs` takes seconds)
MUTATIONS = [
    ("restricted-search-finds-nothing", graph, "restricted_distance_le_3", lambda fn: lambda a, b: None,
     "ex410", "restricted=False"),
    ("pc-verify-accepts-all", commute, "pc_verify", lambda fn: lambda a, b, cert: True,
     "invariant-suites", "forged_rejected=False"),
    ("pc-search-zeroes-cs", commute, "pc_search", _zeroed_cs, "derogatory-certificates", "0/50"),
    ("gauss-jordan-drops-last-pivot", matrix, "_gauss_jordan", _last_pivot_dropped, "census-fixtures", "ccp=144"),
    ("dist-le-2-always-true", commute, "dist_le_2", lambda fn: lambda a, b: True, "ex410", "not2=False"),
    ("dist-le-2-always-false", commute, "dist_le_2", lambda fn: lambda a, b: False,
     "census-fixtures", "sample_ok=False"),
    ("centralizer-drops-a-member", commute, "centralizer_basis", lambda fn: lambda a: fn(a)[1:],
     "ex410", "dims_ok=False"),
    ("derogatory-negated", commute, "derogatory", lambda fn: lambda a: not fn(a), "ex46", "derog=False"),
    ("distance-off-by-one", commute, "distance", _value_plus_one, "ex25-distance", "d=3"),
    ("commuting-pairs-plus-one", census, "count_commuting_pairs", _value_plus_one, "census-fixtures", "ccp=89"),
    ("dist-le-2-count-plus-one", census, "count_dist_le_2", _value_plus_one, "census-fixtures", "cd2=89"),
    ("bfs-distance-plus-one", graph, "bfs_distance", _plus_one, "invariant-suites", "pc=False(27 hits)"),
    ("zi-membership-never-finds", commute, "zi_membership", lambda fn: lambda a, b, i: None,
     "invariant-suites", "zi=True(0 hits)"),
    ("diameter-plus-one", graph, "diameter", _plus_one, "graph-snapshots", "diameters=False"),
    ("min-poly-reversed", verify, "min_poly", lambda fn: lambda a: fn(a)[::-1], "ex46", "minpoly=False"),
    ("rank-raw-wrong-on-tall-matrices", verify, "rank_raw", _minus_one_when_tall,
     "invariant-suites", "ranknull=False"),
    ("stack-m-transposed", commute, "stack_M", lambda fn: lambda a, b: fn(a, b).transpose(),
     "ex32-lift-template", "dims_ok=False"),
]


@pytest.mark.parametrize(
    "module,name,mutation,check,clause", [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS]
)
def test_a_mutated_library_function_fails_its_check(monkeypatch, module, name, mutation, check, clause):
    monkeypatch.setattr(module, name, mutation(getattr(module, name)))
    [result] = verify.verify_paper([check])
    assert not result.passed and clause in result.actual.split(", ")
