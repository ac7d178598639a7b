"""Write the golden corpus, tests/data/golden/<name>.jsonl, from the code as it is.

Each field file holds one field's calls (or the bundled fixtures'), one JSON
object a line: an "input" line names a matrix, and every other line is one call
of `derogatory`, `min_poly`, `centralizer_basis`, `dist_le_2`,
`common_nonscalar_commuter`, `pc_search` or `distance` on named inputs with its
full output, or the error it raised; finite fields add `restricted_distance_le_3`
at n = 3, and at n = 4 below q = 8.  The inputs are drawn from fixed seeds with `random_matrix` at
n = 2..6, so `tests/test_golden.py` draws them again and compares line by line.
census.jsonl holds every census quantity, exhaustive and sampled, and
graph.jsonl `components`, `diameter`, `bfs_report` frontier sizes with a digest
of the distances, and the first `neighbors` codes over GF(2) and GF(3) at n = 2
and 3, then `bfs_report` from GF(5) and GF(2^2) sources at n = 3, spaces above
PREBUILD_CAP, each call named by its arguments.  idempotents.jsonl holds a digest of `idempotent_pool` and the
`zi_membership` search (no witness) of every rank i on the seeded pairs over
GF(2) at n = 3 and 4 and GF(3) at n = 3.  cli.jsonl holds one line per call of
`cli.main` over a fixed argv list: every subcommand, both formats, --out files
(census appends among them) and the error exits, each with its exit code, stdout,
the `error` field of stderr and the text of its --out file; paths inside the call's
temporary directory read `{tmp}`, and verify-paper's timings are masked.  The
whole corpus takes about 7 s.  Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden.py                 # rewrite every file
    PYTHONPATH=src python3 tests/make_golden.py gf3 census      # rewrite these files only
    PYTHONPATH=src python3 tests/make_golden.py --check [names] # compare, write nothing

--check prints the first differing line of each file and exits 1 on any
difference.  Rewriting the files changes the answers the corpus pins: do it only
when an answer is meant to change, and say in CHANGES.md what changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from commdist import census, cli, graph
from commdist import commute as cm
from commdist.errors import CommdistError
from commdist.field import FieldSpec
from commdist.matrix import (
    ExactMatrix,
    decode_matrix,
    encode_matrix,
    is_scalar,
    min_poly,
    random_matrix,
    rank,
    space_size,
    unvec,
    vec,
)
from commdist.verify import _invert, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FIELDS = {
    "qq": "qq", "gf2": "gf(2)", "gf3": "gf(3)", "gf5": "gf(5)", "gf4": "gf(2^2):1,1,1",
    "gf9": "gf(3^2):1,0,1", "gf8": "gf(2^3):1,1,0,1", "gf257": "gf(257)", "gf8191": "gf(8191)",
    "gf289": "gf(17^2):14,0,1",
}
FIXTURES = ("ex25_A", "ex25_B", "ex25_C", "ex410_A", "ex410_B", "ex410_C", "ex410_D", "ex46_A", "ex46_B")
SIZES = range(2, 7)


def _out(fn, *args):
    """The JSON form of fn(*args), or the library error it raises."""
    try:
        value = fn(*args)
    except CommdistError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(value, ExactMatrix):
        return value.to_json()["rows"]
    if isinstance(value, (list, tuple)):  # min_poly's elements, centralizer_basis' matrices or a chain (C, D)
        return [x.to_json()["rows"] if isinstance(x, ExactMatrix) else x.to_json() for x in value]
    if isinstance(value, cm.PcSearchResult):
        cert = value.certificate
        return {"status": value.status, "certificate": cert and cert.to_json(), "note": value.note}
    reports = (cm.DistanceResult, census.CensusReport, graph.ComponentsReport)
    return value.to_json() if isinstance(value, reports) else value


SINGLE = {"derogatory": cm.derogatory, "min_poly": min_poly, "centralizer_basis": cm.centralizer_basis}
PAIR = {
    "dist_le_2": cm.dist_le_2, "common_nonscalar_commuter": cm.common_nonscalar_commuter,
    "pc_search": cm.pc_search, "distance": cm.distance,
}
RESTRICTED = {**PAIR, "restricted_distance_le_3": graph.restricted_distance_le_3}


def _restricted_sizes(spec: FieldSpec) -> tuple[int, ...]:
    """The sizes whose pairs also get `restricted_distance_le_3`: n = 3, and n = 4 below
    q = 8, as the 4x4 pairs take about 2 s over GF(2^3) and 8 s over GF(17^2)."""
    return () if not spec.is_finite else (3, 4) if spec.order < 8 else (3,)


def _conjugate(p: ExactMatrix, entries) -> ExactMatrix:
    """P M P^-1 for the n x n matrix M with the given raw entries, row-major."""
    return p @ unvec(p.spec, p.nrows, entries) @ _invert(p)


def _matrices(spec: FieldSpec, n: int, rng: random.Random) -> dict[str, ExactMatrix]:
    """Generic, sparse, derogatory, block diagonal and scalar n x n matrices."""
    zero = spec.ops().zero

    def draw():
        return list(vec(random_matrix(spec, n, n, rng)))

    p = random_matrix(spec, n, n, rng)
    while rank(p) < n:
        p = random_matrix(spec, n, n, rng)
    lam, k = draw()[0], rng.randint(1, n - 1)
    diag = [lam, lam] + draw()[: n - 2]
    g1 = unvec(spec, n, draw())
    out = {
        "g1": g1,
        "g2": unvec(spec, n, draw()),
        "s1": unvec(spec, n, [x if rng.random() < 0.35 else zero for x in draw()]),
        "s2": unvec(spec, n, [x if rng.random() < 0.35 else zero for x in draw()]),
        "sq": g1 @ g1,
        "dg": _conjugate(p, [diag[i] if i == j else zero for i in range(n) for j in range(n)]),
        "scalar": unvec(spec, n, [lam if i == j else zero for i in range(n) for j in range(n)]),
    }
    for name in ("b1", "b2"):  # blocks of sizes k and n - k in the basis p: both commute with a projection
        out[name] = _conjugate(p, [x if (i < k) == (j < k) else zero for (i, j), x in zip(_cells(n), draw())])
    return out


def _cells(n: int):
    return [(i, j) for i in range(n) for j in range(n)]


PAIRS = [("g1", "g2"), ("s1", "g2"), ("s1", "s2"), ("dg", "g1"), ("g2", "dg"), ("b1", "b2"), ("g1", "sq"),
         ("scalar", "g2"), ("g1", "g1")]


def _dumps(lines) -> list[str]:
    return [json.dumps(line, separators=(",", ":")) for line in lines]


def _lines(mats: dict[str, ExactMatrix], pairs, pair_fns=PAIR) -> list[str]:
    out = []
    for name, m in mats.items():
        out.append({"input": name, "matrix": m.to_json()})
        out += [{"fn": fn, "args": [name], "out": _out(f, m)} for fn, f in SINGLE.items()]
    for x, y in pairs:
        out += [{"fn": fn, "args": [x, y], "out": _out(f, mats[x], mats[y])} for fn, f in pair_fns.items()]
    return _dumps(out)


def _calls(calls) -> list[str]:
    """One line per (fn, args): args are JSON values, a field string first; a graph
    helper below is named after the library function it calls."""
    return _dumps(
        {"fn": f.__name__.lstrip("_"), "args": args, "out": _out(f, FieldSpec.parse(args[0]), *args[1:])}
        for f, args in calls
    )


def _census_lines() -> list[str]:
    """Exhaustive counts where a space is small, and seeded samples of 200 pairs."""
    calls = []
    for field, sizes in (("gf(2)", (2, 3)), ("gf(3)", (2, 3)), ("gf(2^2):1,1,1", (2,)), ("gf(5)", (2,))):
        for n in sizes:
            calls += [(f, [field, n]) for f in (census.count_commuting_pairs, census.derogatory_count)]
            calls.append((census.count_dist_le_2, [field, n]))
    for field, sizes in (("gf(2)", (2, 3, 4)), ("gf(3)", (2, 3)), ("gf(2^2):1,1,1", (2, 3)), ("gf(5)", (2,))):
        for n in sizes:
            calls.append((census.count_dist_le_2, [field, n, 200, 7]))
            calls += [(census.zi_pair_census, [field, n, i, 200, 7]) for i in range(1, n // 2 + 1)]
    return _calls(calls)


def _bfs_report(spec: FieldSpec, n: int, code: int, cap):
    """Frontier sizes, `complete` and the SHA-256 of the JSON distances."""
    report = graph.bfs_report(decode_matrix(spec, n, code), cap)
    digest = hashlib.sha256(json.dumps(report.to_json()["distances"]).encode()).hexdigest()
    return {"complete": report.complete, "frontier_sizes": report.frontier_sizes, "distances_sha256": digest}


def _neighbors(spec: FieldSpec, n: int, code: int):
    """The number of neighbors of a vertex and the first ten codes `neighbors` yields."""
    codes = [encode_matrix(m) for m in graph.neighbors(decode_matrix(spec, n, code))]
    return {"count": len(codes), "first": codes[:10]}


def _graph_lines() -> list[str]:
    """Closed-form components, diameters, and from three seeded non-scalar
    sources the BFS frontier sizes (also cut at radius 2) and first neighbors;
    then sweeps over spaces above PREBUILD_CAP, whose neighbor lists are
    expanded block by block instead of kept."""
    calls = []
    for field in ("gf(2)", "gf(3)"):
        spec = FieldSpec.parse(field)
        for n in (2, 3):
            calls += [(graph.components, [field, n]), (graph.diameter, [field, n])]
            rng, codes = random.Random(f"golden/graph/{field}/{n}"), []
            while len(codes) < 3:
                code = rng.randrange(space_size(spec, n))
                codes += [] if code in codes or is_scalar(decode_matrix(spec, n, code)) else [code]
            for code in codes:
                calls += [(_bfs_report, [field, n, code, cap]) for cap in (None, 2)]
                calls.append((_neighbors, [field, n, code]))
    # GF(5) 3x3: a giant-component source cut at radius 0, 1 and 2, and the
    # companion matrix of x^3 + x + 1, whose component is one copy of GF(125)
    calls += [(_bfs_report, ["gf(5)", 3, 1387143, cap]) for cap in (0, 1, 2)]
    calls.append((_bfs_report, ["gf(5)", 3, 90850, None]))
    # GF(2^2) 3x3: a giant-component source cut at radius 2 (its full sweep
    # takes seconds), and the companion matrix of x^3 + x^2 + 1, isolated
    calls += [(_bfs_report, ["gf(2^2):1,1,1", 3, 147650, 2]), (_bfs_report, ["gf(2^2):1,1,1", 3, 82000, None])]
    return _calls(calls)


def _idempotent_pool(spec: FieldSpec, n: int):
    """The size of `idempotent_pool`, its count per rank and the SHA-256 of its (code, rank) list."""
    pool = cm.idempotent_pool(spec, n)
    ranks = [r for _, r in pool]
    digest = hashlib.sha256(json.dumps(pool, separators=(",", ":")).encode()).hexdigest()
    return {"count": len(pool), "by_rank": [ranks.count(r) for r in range(n + 1)], "sha256": digest}


def _zi_membership(spec: FieldSpec, n: int, code_a: int, code_b: int, i: int):
    return cm.zi_membership(decode_matrix(spec, n, code_a), decode_matrix(spec, n, code_b), i)


def _idempotent_lines() -> list[str]:
    """Pool digests, then the rank-i search on the seeded pairs of `_matrices`, each named by codes."""
    calls = []
    for field, n in (("gf(2)", 3), ("gf(2)", 4), ("gf(3)", 3)):
        spec = FieldSpec.parse(field)
        mats = _matrices(spec, n, random.Random(f"golden/idempotents/{field}/{n}"))
        calls.append((_idempotent_pool, [field, n]))
        for x, y in PAIRS:
            codes = [encode_matrix(mats[x]), encode_matrix(mats[y])]
            calls += [(_zi_membership, [field, n, *codes, i]) for i in range(1, n // 2 + 1)]
    return _calls(calls)


GF2_A = '{"field": "gf(2)", "rows": [[1, 1], [0, 1]]}'
GF2_B = '{"field": "gf(2)", "rows": [[0, 1], [0, 0]]}'  # A - I, so [A, B] = 0
QQ_PAIR = ["--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B"]
GF9_PAIR = ["--field", "gf(9)", "--a", "fixture:ex410_A", "--b", "fixture:ex410_B"]
GF2_DERIVED = ["--field", "gf(2)", "--n", "2"]
# `{tmp}` stands for a fresh temporary directory that holds the files below
CLI_FILES = {"a.json": GF2_A, "b.json": GF2_B, "cert.json": '{"cs": [1], "ds": [1]}'}
CLI_CALLS = [
    ["distance", *QQ_PAIR],
    ["distance", *QQ_PAIR, "--format", "table"],
    ["distance", "--a", "{tmp}/a.json", "--b", "{tmp}/b.json"],
    ["dist2", *QQ_PAIR],
    ["dist2", "--field", "gf(3)", "--a", "fixture:ex410_A", "--b", "fixture:ex410_B", "--minors",
     "--samples", "40", "--seed", "5"],
    ["dist2", *QQ_PAIR, "--minors"],
    ["centralizer", "--a", "fixture:ex46_B"],
    ["centralizer", "--field", "gf(3^3):1,2,0,1",
     "--a", '{"field": "gf(3^2):1,0,1", "rows": [[[0, 1], [2, 1]], [[1, 0], [0, 2]]]}'],
    ["derogatory", "--a", "fixture:ex46_A"],
    ["derogatory", "--a", "fixture:ex46_A", "--out", "{tmp}/report.json"],
    ["derogatory", "--a", "fixture:ex46_A", "--format", "table", "--out", "{tmp}/report.txt"],
    ["pc-search", *GF9_PAIR],
    ["pc-search", *QQ_PAIR],
    ["pc-verify", "--a", "{tmp}/a.json", "--b", "{tmp}/b.json", "--cert", "{tmp}/cert.json"],
    ["pc-verify", "--a", GF2_A, "--b", GF2_B, "--cert", '{"cs": [1], "ds": [0]}'],
    ["zi", *QQ_PAIR, "--i", "1", "--p", '{"field": "qq", "rows": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}'],
    ["zi", *QQ_PAIR, "--i", "1", "--p", '{"field": "qq", "rows": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}'],
    ["zi", "--field", "gf(2)", "--a", GF2_A, "--b", GF2_B, "--i", "1"],
    ["bfs", "--field", "gf(2)", "--a", "fixture:ex25_A"],
    ["bfs", "--field", "gf(2)", "--a", "fixture:ex25_A", "--cap", "1"],
    ["bfs", "--a", GF2_A, "--b", GF2_B],
    ["bfs", "--a", GF2_A, "--b", '{"field": "gf(2)", "rows": [[1, 0], [1, 1]]}', "--cap", "1"],
    ["bfs", "--a", '{"field": "gf(2)", "rows": [[0, 1], [0, 0]]}', "--b", '{"field": "gf(2)", "rows": [[0, 0], [1, 0]]}'],
    ["components", *GF2_DERIVED],
    ["components", *GF2_DERIVED, "--format", "table"],
    ["diameter", *GF2_DERIVED],
    ["census", *GF2_DERIVED, "--quantity", "commuting-pairs"],
    ["census", *GF2_DERIVED, "--quantity", "derogatory", "--format", "table"],
    ["census", "--field", "gf(2)", "--n", "3", "--quantity", "dist-le-2", "--samples", "50", "--seed", "4"],
    ["census", "--field", "gf(2)", "--n", "3", "--quantity", "zi-pairs", "--i", "1", "--samples", "30"],
    ["census", *GF2_DERIVED, "--quantity", "commuting-pairs", "--out", "{tmp}/census.jsonl"],
    ["census", *GF2_DERIVED, "--quantity", "dist-le-2", "--out", "{tmp}/census.jsonl"],
    ["census", *GF2_DERIVED, "--quantity", "derogatory", "--format", "table", "--out", "{tmp}/census.txt"],
    ["verify-paper", "--only", "ex25-distance"],
    ["verify-paper", "--only", "ex25-distance", "--out", "{tmp}/verify.json"],
    # input errors (exit 1) and a cap (exit 2)
    ["verify-paper", "--only", "no-such-check"],
    ["distance", "--field", "gf(6)", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B"],
    ["distance", "--a", "{tmp}/missing.json", "--b", "{tmp}/missing.json"],
    ["distance", "--a", '{"field": "gf(3)", "rows": [[1]]}', "--b", '{"field": "gf(5)", "rows": [[1]]}'],
    ["centralizer", "--a", '{"field": "gf(2)", "rows": [[1], 5]}'],
    ["centralizer", "--a", '{"field": "gf(2)", "rows": [[1]'],
    ["derogatory", "--a", '{"field": "qq", "rows": [["1e-99999999"]]}'],
    ["derogatory", "--a", "fixture:ex46_A", "--out", "{tmp}/no-dir/report.json"],
    ["pc-verify", "--a", GF2_A, "--b", GF2_B, "--cert", '{"cs": 5, "ds": [1]}'],
    ["zi", *QQ_PAIR, "--i", "1"],
    ["bfs", "--field", "gf(2)", "--a", "fixture:ex25_A", "--cap", "-1"],
    ["dist2", *QQ_PAIR, "--samples", "7"],
    ["components", "--n", "2"],
    ["census", *GF2_DERIVED, "--quantity", "zi-pairs", "--samples", "5"],
    ["census", *GF2_DERIVED, "--quantity", "derogatory", "--seed", "3"],
    ["census", "--field", "gf(7)", "--n", "3", "--quantity", "commuting-pairs"],
]


def _untimed(text: str) -> str:
    """`text` with the seconds of each verify-paper row and check masked."""
    return re.sub(r'\d+\.\d+s/|"seconds": [\d.]+', "#", text)


def _cli_lines() -> list[str]:
    """One line per call of `cli.main`: exit code, stdout, the `error` field of
    stderr and the text of the --out file, each path relative to `{tmp}`."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CLI_FILES.items():
            Path(tmp, name).write_text(text)
        for argv in CLI_CALLS:
            stdout, stderr = io.StringIO(), io.StringIO()
            args = [arg.replace("{tmp}", tmp) for arg in argv]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args)
            target = Path(args[args.index("--out") + 1]) if "--out" in args else None
            out.append({
                "argv": argv,
                "exit": code,
                "stdout": _untimed(stdout.getvalue()),
                "error": json.loads(stderr.getvalue())["error"] if stderr.getvalue() else None,
                "out": _untimed(target.read_text()) if target and target.exists() else None,
            })
    return _dumps(out)


def lines(name: str) -> list[str]:
    """The lines of golden file `name`: a key of FIELDS, "fixtures", "census", "graph", "idempotents" or "cli"."""
    if name == "fixtures":
        mats = {f: load_fixture(f) for f in FIXTURES}
        pairs = [(x, y) for x in FIXTURES for y in FIXTURES
                 if x != y and (mats[x].spec, mats[x].nrows) == (mats[y].spec, mats[y].nrows)]
        return _lines(mats, pairs)
    if name in ("census", "graph", "idempotents", "cli"):
        return {"census": _census_lines, "graph": _graph_lines, "idempotents": _idempotent_lines, "cli": _cli_lines}[name]()
    spec, out = FieldSpec.parse(FIELDS[name]), []
    for n in SIZES:
        mats = {f"n{n}_{k}": m for k, m in _matrices(spec, n, random.Random(f"golden/{name}/{n}")).items()}
        pair_fns = RESTRICTED if n in _restricted_sizes(spec) else PAIR
        out += _lines(mats, [(f"n{n}_{x}", f"n{n}_{y}") for x, y in PAIRS], pair_fns)
    return out


NAMES = [*FIELDS, "fixtures", "census", "graph", "idempotents", "cli"]


def first_difference(name: str) -> str | None:
    """Where golden file `name` and the code's lines first differ, or None."""
    path = GOLDEN / f"{name}.jsonl"
    expected, actual = path.read_text().splitlines() if path.exists() else [], lines(name)
    for i, (want, got) in enumerate(zip(expected, actual), 1):
        if want != got:
            return f"{path.name} line {i} differs\nexpected: {want}\nactual:   {got}"
    if len(actual) != len(expected):
        return f"{path.name}: {len(actual)} lines, expected {len(expected)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the golden corpus.")
    parser.add_argument("--check", action="store_true", help="compare with the files, write nothing")
    parser.add_argument("names", nargs="*", help=f"files to handle (default: all of {', '.join(NAMES)})")
    args = parser.parse_args(argv)
    names = args.names or NAMES
    if set(names) - set(NAMES):
        parser.error(f"unknown golden files: {', '.join(sorted(set(names) - set(NAMES)))}")
    if args.check:
        diffs = [d for d in map(first_difference, names) if d]
        print("\n".join(diffs) or f"{len(names)} golden files unchanged")
        return 1 if diffs else 0
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.jsonl").write_text("\n".join(lines(name)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
