"""The reference checks can fail: the template evaluator reads what it is
given, a wrong lift or centralizer member fails its worked example, a broken
restricted search, certificate check or elimination kernel fails the check
that relies on it, and a check that raises becomes a failing row."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from commdist import commute, graph, matrix, verify
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


@pytest.mark.parametrize(
    "module,name,mutation,check,clause",
    [
        (graph, "restricted_distance_le_3", lambda fn: lambda a, b: None, "ex410", "restricted=False"),
        (commute, "pc_verify", lambda fn: lambda a, b, cert: True, "invariant-suites", "forged_rejected=False"),
        (commute, "pc_search", _zeroed_cs, "derogatory-certificates", "0/50"),
        (matrix, "_gauss_jordan", _last_pivot_dropped, "census-fixtures", "ccp=144"),
    ],
    ids=[
        "restricted-search-finds-nothing", "pc-verify-accepts-all", "pc-search-zeroes-cs",
        "gauss-jordan-drops-last-pivot",
    ],
)
def test_a_mutated_library_function_fails_its_check(monkeypatch, module, name, mutation, check, clause):
    monkeypatch.setattr(module, name, mutation(getattr(module, name)))
    [result] = verify.verify_paper([check])
    assert not result.passed and clause in result.actual.split(", ")
