"""Write the golden corpus, tests/data/golden/<name>.jsonl, from the code as it is.

Each file holds one field's calls (or the bundled fixtures'), one JSON object a
line: an "input" line names a matrix, and every other line is one call of
`derogatory`, `min_poly`, `centralizer_basis`, `dist_le_2`,
`common_nonscalar_commuter`, `pc_search` or `distance` on named inputs with its
full output, or the error it raised.  The inputs are drawn from fixed seeds
with `random_matrix` at n = 2..6, so `tests/test_golden.py` draws them again
and compares line by line.  Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden.py

Rewriting the files changes the answers the corpus pins: do it only when an
answer is meant to change, and say in CHANGES.md what changed and why.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from commdist import commute as cm
from commdist.errors import CommdistError
from commdist.field import FieldSpec
from commdist.matrix import ExactMatrix, min_poly, random_matrix, rank, unvec, vec
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
    if isinstance(value, list):  # min_poly's elements or centralizer_basis' matrices
        return [x.to_json()["rows"] if isinstance(x, ExactMatrix) else x.to_json() for x in value]
    if isinstance(value, cm.PcSearchResult):
        cert = value.certificate
        return {"status": value.status, "certificate": cert and cert.to_json(), "note": value.note}
    return value.to_json() if isinstance(value, cm.DistanceResult) else value


SINGLE = {"derogatory": cm.derogatory, "min_poly": min_poly, "centralizer_basis": cm.centralizer_basis}
PAIR = {
    "dist_le_2": cm.dist_le_2, "common_nonscalar_commuter": cm.common_nonscalar_commuter,
    "pc_search": cm.pc_search, "distance": cm.distance,
}


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


def _lines(mats: dict[str, ExactMatrix], pairs) -> list[str]:
    out = []
    for name, m in mats.items():
        out.append({"input": name, "matrix": m.to_json()})
        out += [{"fn": fn, "args": [name], "out": _out(f, m)} for fn, f in SINGLE.items()]
    for x, y in pairs:
        out += [{"fn": fn, "args": [x, y], "out": _out(f, mats[x], mats[y])} for fn, f in PAIR.items()]
    return [json.dumps(line, separators=(",", ":")) for line in out]


def lines(name: str) -> list[str]:
    """The lines of golden file `name`: a key of FIELDS, or "fixtures"."""
    if name == "fixtures":
        mats = {f: load_fixture(f) for f in FIXTURES}
        pairs = [(x, y) for x in FIXTURES for y in FIXTURES
                 if x != y and (mats[x].spec, mats[x].nrows) == (mats[y].spec, mats[y].nrows)]
        return _lines(mats, pairs)
    spec, out = FieldSpec.parse(FIELDS[name]), []
    for n in SIZES:
        mats = {f"n{n}_{k}": m for k, m in _matrices(spec, n, random.Random(f"golden/{name}/{n}")).items()}
        out += _lines(mats, [(f"n{n}_{x}", f"n{n}_{y}") for x, y in PAIRS])
    return out


NAMES = [*FIELDS, "fixtures"]


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (GOLDEN / f"{name}.jsonl").write_text("\n".join(lines(name)) + "\n")


if __name__ == "__main__":
    main()
