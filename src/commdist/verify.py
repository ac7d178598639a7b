"""Bundled reference checks: worked examples, oracle equivalences, snapshots.

Each check compares library output against an independently derived expected
value: hand-checkable matrices shipped as fixtures, brute-force recounts run
in-suite, or frozen regression snapshots.  The CLI `verify-paper` subcommand
and the acceptance test module both run this registry.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, replace
from importlib import resources

from . import census as cs
from . import commute as cm
from . import graph as gr
from .errors import ParseError
from .field import FieldSpec
from .matrix import (
    ExactMatrix,
    min_poly,
    nullspace_raw,
    random_matrix,
    rank_raw,
    rref_raw,
    vec,
)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF9 = FieldSpec.parse("gf(9)")

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?[a-z](\d)(\d)")  # an entry term: sign, coefficient, row, column

# the centralizers of the ex46 pair, written in each member's own free entries
_EX46_C = [
    ["c11", "c12", "c13", "c14"],
    ["c12+2c13", "c11-2c13", "c13", "c12+c13"],
    ["c31", "c32", "c11-c12-2c13+1/2c31-1/2c32", "c12+c13-c14+1/2c31+1/2c32"],
    ["0", "0", "0", "c11-c13-c14"],
]
_EX46_D = [
    ["d11", "d12", "0", "0"],
    ["-d12", "d11", "0", "0"],
    ["0", "0", "d33", "d34"],
    ["0", "0", "-d34", "d33"],
]


def _data(kind: str, name: str) -> dict:
    ref = resources.files("commdist").joinpath(f"data/{kind}/{name}.json")
    return json.loads(ref.read_text())


def load_fixture(name: str) -> ExactMatrix:
    """One of the bundled example matrices (ex25_A, ex46_B, ...)."""
    return ExactMatrix.from_json(_data("fixtures", name))


def load_template(name: str) -> dict:
    return _data("fixtures", name)


def load_snapshot(name: str) -> dict:
    return _data("snapshots", name)


def _eval_template_entry(expr: str, m: ExactMatrix):
    """Evaluate a signed sum of entry terms like "0", "-a21" or "c11-2c13+1/2c31" at m."""
    ops = m.spec.ops()
    if not re.fullmatch(rf"0|(?:{_TERM.pattern})+", expr):
        raise ValueError(f"bad template entry {expr!r}")
    acc = ops.zero
    for sign, coeff, i, j in _TERM.findall(expr):
        acc = ops.add(acc, ops.mul(m.spec.raw_from(sign + (coeff or "1")), m.rows[int(i) - 1][int(j) - 1]))
    return acc


def _misfits(template: list[list[str]], m: ExactMatrix, at: ExactMatrix) -> int:
    """How many entries of m differ from the template's entries evaluated at `at`."""
    return sum(m.rows[i][j] != _eval_template_entry(e, at) for i, row in enumerate(template) for j, e in enumerate(row))


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    seconds: float
    budget_s: float

    @property
    def in_budget(self) -> bool:
        return self.seconds < self.budget_s

    def row(self) -> str:
        status = "PASS" if self.passed and self.in_budget else "FAIL"
        return (
            f"{status:4} {self.name:28} {self.seconds:8.2f}s/{self.budget_s:.0f}s  "
            f"expected {self.expected} | actual {self.actual}"
        )


# ---------------------------------------------------------------------------
# the individual checks; each returns (passed, expected, actual)


def check_ex25_distance():
    a, b, c = load_fixture("ex25_A"), load_fixture("ex25_B"), load_fixture("ex25_C")
    adjacency = cm.commutes(a, c) and cm.commutes(b, c) and not cm.commutes(a, b)
    res = cm.distance(a, b)
    chain_ok = res.witness is not None and cm.verify_chain(a, b, res.witness)
    ok = adjacency and res.kind == "exact" and res.value == 2 and chain_ok
    return ok, "A<->C, B<->C, AB!=BA, d=2", f"adjacency={adjacency}, d={res.value}, chain={chain_ok}"


def check_ex32_lift_template():
    template = load_template("ex32_template")
    rng = random.Random(32)
    mismatches = 0
    for _ in range(100):
        a = random_matrix(GF5, 3, 3, rng)
        mismatches += _misfits(template["rows"], cm.lift_M(a), a)
    stacked = cm.stack_M(random_matrix(GF5, 3, 3, rng), random_matrix(GF5, 3, 3, rng))
    dims_ok = (stacked.nrows, stacked.ncols) == (18, 9)
    ok = mismatches == 0 and dims_ok
    return ok, "100 template matches, 18x9 stack", f"mismatches={mismatches}, dims_ok={dims_ok}"


def check_rank_criterion_vs_bfs():
    """Exhaustive agreement between the rank test and graph distance <= 2."""
    scalars = gr._scalar_codes(GF2, 3)
    verts = [c for c in range(512) if c not in scalars]
    mats = {c: gr.decode_matrix(GF2, 3, c) for c in verts}
    le2_cache: dict[frozenset, bool] = {}
    disagreements = 0
    pairs = 0
    for a_code in verts:
        report = gr.bfs_report(mats[a_code])
        for b_code in verts:
            pairs += 1
            key = frozenset((a_code, b_code))
            if key not in le2_cache:
                le2_cache[key] = cm.dist_le_2(mats[a_code], mats[b_code])
            if le2_cache[key] != (report.distance_of(b_code) <= 2):
                disagreements += 1
    ok = disagreements == 0 and pairs == 510 * 510
    return ok, "0 disagreements on 260100 ordered pairs", f"{disagreements} on {pairs}"


def check_two_by_two_dichotomy():
    outcomes = []
    for spec in (GF2, GF3):
        scalars = gr._scalar_codes(spec, 2)
        total = spec.order**4
        verts = [c for c in range(total) if c not in scalars]
        dist2 = 0
        reached = set()  # one reached set per component, counted by the sweeps themselves
        for code in verts:
            report = gr.bfs_report(gr.decode_matrix(spec, 2, code))
            dist2 += sum(1 for d in report.distances.values() if d == 2)
            reached.add(frozenset(report.distances))
        outcomes.append((dist2, len(reached)))
    ok = all(d == 0 and c > 1 for d, c in outcomes)
    return ok, "no distance-2 pairs, >1 component (both fields)", f"{outcomes}"


def check_ex46():
    a, b = load_fixture("ex46_A"), load_fixture("ex46_B")
    derog = cm.derogatory(a) and not cm.derogatory(b)
    za = cm.centralizer_basis(a)
    zb = cm.centralizer_basis(b)
    dims_ok = len(za) == 6 and len(zb) == 4
    template_ok = not any(_misfits(_EX46_C, c, c) for c in za) and not any(_misfits(_EX46_D, d, d) for d in zb)
    mp = [c.to_json() for c in min_poly(a)]
    minpoly_ok = mp == [0, -4, 0, 1]  # x^3 - 4x
    blocked = []
    for spec in (GF3, GF7):
        ap, bp = a.to_field(spec), b.to_field(spec)
        no_chain = (
            not cm.commutes(ap, bp)
            and not cm.dist_le_2(ap, bp)
            and gr.restricted_distance_le_3(ap, bp) is None
        )
        blocked.append(no_chain)
    a9, b9 = a.to_field(GF9), b.to_field(GF9)
    pc = cm.pc_search(a9, b9)
    cert_ok = pc.status == "certificate" and cm.pc_verify(a9, b9, pc.certificate)
    ok = derog and dims_ok and template_ok and minpoly_ok and all(blocked) and cert_ok
    return (
        ok,
        "derogatory, dims 6/4, templates, minpoly x^3-4x, d>=4 mod 3 and 7, gf(9) cert",
        f"derog={derog}, dims=({len(za)},{len(zb)}), templates={template_ok}, "
        f"minpoly={minpoly_ok}, blocked={blocked}, cert={cert_ok}",
    )


def check_ex410():
    a, b = load_fixture("ex410_A"), load_fixture("ex410_B")
    c9, d9 = load_fixture("ex410_C"), load_fixture("ex410_D")
    a9, b9 = a.to_field(GF9), b.to_field(GF9)
    nonscalar = not cm.is_scalar(c9) and not cm.is_scalar(d9)
    chain_ok = cm.verify_chain(a9, b9, [c9, d9])
    not2 = not cm.dist_le_2(a9, b9)
    res = cm.distance(a9, b9)
    d3 = res.kind == "exact" and res.value == 3 and cm.verify_chain(a9, b9, res.witness)
    found = gr.restricted_distance_le_3(a9, b9)
    restricted = found is not None and cm.verify_chain(a9, b9, list(found))
    a3, b3 = a.to_field(GF3), b.to_field(GF3)
    blocked = (
        not cm.commutes(a3, b3)
        and not cm.dist_le_2(a3, b3)
        and gr.restricted_distance_le_3(a3, b3) is None
    )
    dims_ok = len(cm.centralizer_basis(a)) == 3 and len(cm.centralizer_basis(b)) == 3
    ok = nonscalar and chain_ok and not2 and d3 and restricted and blocked and dims_ok
    return (
        ok,
        "gf(9): chain valid so d=3, restricted search finds one; gf(3): no chain so d>=4; dims 3/3 over Q",
        f"nonscalar={nonscalar}, chain={chain_ok}, not2={not2}, d3={d3}, "
        f"restricted={restricted}, blocked={blocked}, dims_ok={dims_ok}",
    )


def random_derogatory(spec: FieldSpec, n: int, rng: random.Random) -> ExactMatrix:
    """Conjugated diagonal matrix with a repeated eigenvalue in two blocks."""
    q = spec.order
    lam = rng.randrange(q)
    rest = [rng.randrange(q) for _ in range(n - 2)]
    d = ExactMatrix.diag(spec, [spec.elem_from_code(x) for x in [lam, lam] + rest])
    while True:
        p = random_matrix(spec, n, n, rng)
        if rank_raw(spec, p.raw_rows()) == n:
            break
    p_inv = _invert(p)
    return p @ d @ p_inv


def _invert(m: ExactMatrix) -> ExactMatrix:
    n = m.nrows
    ops = m.spec.ops()
    aug = [
        list(row) + [ops.one if i == j else ops.zero for j in range(n)]
        for i, row in enumerate(m.rows)
    ]
    rref, pivots = rref_raw(m.spec, aug)
    assert pivots[:n] == list(range(n)), "matrix not invertible"
    return ExactMatrix._from_raw(m.spec, [row[n:] for row in rref])


def check_derogatory_certificates():
    rng = random.Random(42)
    n = 4
    ok_count = 0
    for _ in range(50):
        a = random_derogatory(GF3, n, rng)
        b = random_matrix(GF3, n, n, rng)
        found = cm.pc_search(a, b)
        # the annihilating-polynomial certificate, built by hand
        ops = GF3.ops()
        coeffs = [c.raw for c in min_poly(a)]
        vec = coeffs[1:] + [ops.zero] * (n - len(coeffs))
        vec = cm._normalize_vector(GF3, vec)
        x_vec = [ops.one, ops.zero, ops.zero]
        cert = cm.PcCertificate(
            cm._elems(GF3, vec),
            cm._elems(GF3, x_vec),
            cm.is_scalar(cm.poly_eval_no_const(a, cm._elems(GF3, vec))),
            cm.is_scalar(cm.poly_eval_no_const(b, cm._elems(GF3, x_vec))),
        )
        if found.status == "certificate" and cm.pc_verify(a, b, found.certificate) and cm.pc_verify(a, b, cert):
            ok_count += 1
    return ok_count == 50, "50/50 derogatory pairs certified, found and built certificates verified", f"{ok_count}/50"


def check_census_fixtures():
    mats2 = [gr.decode_matrix(GF2, 2, c) for c in range(16)]
    brute = sum(1 for x in mats2 for y in mats2 if x @ y == y @ x)
    ccp22 = cs.count_commuting_pairs(GF2, 2).value
    cd22 = cs.count_dist_le_2(GF2, 2).value
    snap = load_snapshot("census")
    cd32 = cs.count_dist_le_2(GF2, 3).value
    snap_ok = cd32 == snap["pairs_dist_le_2"]["3|gf(2)"]
    ccp32 = cs.count_commuting_pairs(GF2, 3).value
    bounds_ok = ccp32 < cd32 < 2**18
    # recount a seeded 1000-pair subsample with the pairwise library test
    total = 512
    sample_ok = True
    for pair_code in cs.sample_codes(8, 0, 1000, total * total):
        a_code, b_code = divmod(pair_code, total)
        a = gr.decode_matrix(GF2, 3, a_code)
        b = gr.decode_matrix(GF2, 3, b_code)
        want = cm.dist_le_2(a, b)
        # independent recount: search the joint nullspace for a non-scalar member
        joint = cm.common_nonscalar_commuter(a, b) is not None
        if joint != want:
            sample_ok = False
    ok = brute == 88 and ccp22 == 88 and cd22 == 88 and snap_ok and bounds_ok and sample_ok
    return (
        ok,
        "88/88/88, cd2(3,2) snapshot, bounds, 1000-pair recount",
        f"brute={brute}, ccp={ccp22}, cd2={cd22}, snap_ok={snap_ok}, "
        f"bounds_ok={bounds_ok}, sample_ok={sample_ok}",
    )


def check_invariant_suites():
    rng = random.Random(9)
    lift_ok = True
    ranknull_ok = True
    for spec in (QQ, GF2, GF3, GF9):
        for _ in range(1000):
            m = random_matrix(spec, 3, 3, rng)
            c = random_matrix(spec, 3, 3, rng)
            column = ExactMatrix._from_raw(spec, [[x] for x in vec(c)])
            if (cm.lift_M(m) @ column).transpose().rows[0] != vec(m @ c - c @ m):
                lift_ok = False
        for _ in range(50):
            m = random_matrix(spec, rng.randint(1, 6), rng.randint(1, 6), rng)
            rows = m.raw_rows()
            if rank_raw(spec, rows) + len(nullspace_raw(spec, rows)) != m.ncols:
                ranknull_ok = False
    zi_ok = True
    zi_hits = 0
    for _ in range(60):
        a = random_matrix(GF2, 3, 3, rng)
        b = random_matrix(GF2, 3, 3, rng)
        if cm.is_scalar(a) or cm.is_scalar(b):
            continue
        wit = cm.zi_membership(a, b, 1)
        if wit is not None:
            zi_hits += 1
            if not cm.dist_le_2(a, b):
                zi_ok = False
    pc_ok = True
    pc_hits = 0
    forged_ok = True
    total = 3**9
    for pair_code in cs.sample_codes(11, 0, 200, total * total):
        a_code, b_code = divmod(pair_code, total)
        a = gr.decode_matrix(GF3, 3, a_code)
        b = gr.decode_matrix(GF3, 3, b_code)
        if cm.is_scalar(a) or cm.is_scalar(b):
            continue
        pc = cm.pc_search(a, b)
        if (
            pc.certificate is not None
            and not pc.certificate.pa_scalar
            and not pc.certificate.qb_scalar
        ):
            pc_hits += 1
            if not (gr.bfs_distance(a, b) <= 3):
                pc_ok = False
            # p(A) is not scalar, so a certificate that says it is must fail
            if cm.pc_verify(a, b, replace(pc.certificate, pa_scalar=True)):
                forged_ok = False
    ok = lift_ok and ranknull_ok and zi_ok and pc_ok and forged_ok and zi_hits > 0 and pc_hits > 0
    return (
        ok,
        "lift identity, rank-nullity, zi=>dist2, pc=>bfs<=3 (nonvacuous), forged pc rejected",
        f"lift={lift_ok}, ranknull={ranknull_ok}, zi={zi_ok}({zi_hits} hits), "
        f"pc={pc_ok}({pc_hits} hits), forged_rejected={forged_ok}",
    )


def check_graph_snapshots():
    snap = load_snapshot("graph")
    actual = {}
    for key, spec, n in (("2|gf(2)", GF2, 2), ("2|gf(3)", GF3, 2), ("3|gf(2)", GF2, 3)):
        comp = gr.components(spec, n)
        actual[key] = {
            "vertex_count": comp.vertex_count,
            "count": comp.count,
            "sizes": comp.sizes,
        }
    comp_ok = all(actual[k] == snap["components"][k] for k in actual)
    diam_ok = all(
        gr.diameter(spec, n) == snap["diameter"][key]
        for key, spec, n in (("2|gf(2)", GF2, 2), ("2|gf(3)", GF3, 2), ("3|gf(2)", GF2, 3))
    )
    return comp_ok and diam_ok, "components and diameters match snapshots", f"components={comp_ok}, diameters={diam_ok}"


CHECKS: list[tuple[str, float, object]] = [
    ("ex25-distance", 1.0, check_ex25_distance),
    ("ex32-lift-template", 1.0, check_ex32_lift_template),
    ("rank-criterion-vs-bfs", 60.0, check_rank_criterion_vs_bfs),
    ("two-by-two-dichotomy", 10.0, check_two_by_two_dichotomy),
    ("ex46", 120.0, check_ex46),
    ("ex410", 30.0, check_ex410),
    ("derogatory-certificates", 30.0, check_derogatory_certificates),
    ("census-fixtures", 120.0, check_census_fixtures),
    ("invariant-suites", 120.0, check_invariant_suites),
    ("graph-snapshots", 60.0, check_graph_snapshots),
]


def verify_paper(names: list[str] | None = None) -> list[CheckResult]:
    """Run the bundled reference checks (all of them by default).

    ParseError, before any check runs, if a name matches no check.
    """
    known = [name for name, _, _ in CHECKS]
    unknown = sorted(set(names or ()) - set(known))
    if unknown:
        raise ParseError(f"unknown checks {unknown}; the checks are {', '.join(known)}")
    wanted = set(names) if names else None
    results = []
    for name, budget, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, expected, actual = fn()
        except Exception as exc:  # a crash is a failing check, not a crash of the runner
            passed, expected, actual = False, "no exception", f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name, passed, expected, actual, time.perf_counter() - t0, budget)
        )
    return results
