"""Command-line interface: parse inputs, dispatch to the library, emit reports.

Each subcommand handler returns only its answer; `main` alone adds the resolved
configuration (the flags and every input `_load_matrix` recorded) and writes the
report, so a run can be replayed from its own output.  Numeric output is exact
(integers, fraction strings, field coefficient vectors); the only floats are
standard errors of sampled estimates.  Exit codes: 0 success, 1 input error,
2 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import census as cs
from . import commute as cm
from . import graph as gr
from .errors import BadWitness, CapExceeded, CommdistError, DimMismatch, ParseError
from .field import FieldSpec
from .matrix import ExactMatrix, min_poly, rank, rank_raw, rref_raw
from .verify import load_fixture, verify_paper


def _load_matrix(args, name: str, spec: FieldSpec | None = None) -> ExactMatrix:
    """Matrix argument `name`, converted to `spec` or --field and recorded in the call's inputs."""
    if spec is None and args.field:
        spec = FieldSpec.parse(args.field)
    text = getattr(args, name)
    if text.startswith("fixture:"):
        m = load_fixture(text.split(":", 1)[1])
    else:
        m = ExactMatrix.from_json(_load_json_arg(text))
    if spec is not None and spec != m.spec:
        m = m.to_field(spec)
    args.inputs[name] = m.to_json()
    return m


def _load_json_arg(text: str):
    try:
        if text.lstrip().startswith("{"):
            return json.loads(text)
        with open(text) as fh:
            return json.load(fh)
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise ParseError("JSON nested too deeply") from exc


def _emit(report: dict, args) -> None:
    if args.format == "table":
        text = "\n".join(_table_lines(report, prefix=""))
    else:
        text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        append = args.cmd == "census"  # census logs are JSON lines, appended
        if append and args.format == "json":
            text = json.dumps(report, sort_keys=True)  # one line per appended record
        with open(args.out, "a" if append else "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _table_lines(obj, prefix: str) -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{prefix}{k}:")
                lines.extend(_table_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {json.dumps(v)}")
    else:  # a list that is not flat
        for idx, v in enumerate(obj):
            lines.append(f"{prefix}[{idx}] {json.dumps(v)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _config(args) -> dict:
    cfg = {"subcommand": args.cmd}
    for key in ("field", "n", "i", "cap", "samples", "seed", "quantity", "minors"):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    cfg.update(args.inputs)
    return cfg


def _require_field(args) -> FieldSpec:
    if not args.field:
        raise CommdistError("this subcommand needs --field")
    return FieldSpec.parse(args.field)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_distance(args) -> dict:
    a, b = _load_matrix(args, "a"), _load_matrix(args, "b")
    res = cm.distance(a, b)
    return res.to_json()


def _cmd_dist2(args) -> dict:
    if not args.minors and (args.samples, args.seed) != (None, None):
        raise CommdistError("--samples and --seed apply only with --minors")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"the sample count must be at least 1, got {args.samples}")
    a, b = _load_matrix(args, "a"), _load_matrix(args, "b")
    stacked = cm.stack_M(a, b)
    n = a.nrows
    if n < 2:
        raise DimMismatch("the rank criterion needs n >= 2")
    r = rank(stacked)
    report = {"dist_le_2": r <= n * n - 2, "rank": r, "threshold": n * n - 2}
    if args.minors:
        report["minors"] = _minors_report(stacked, r, n, args)
    return report


def _minors_report(stack: ExactMatrix, r: int, n: int, args) -> dict:
    """Sampled maximal-minor verification of the rank criterion.

    All minors of size n^2 - 1 vanish exactly when the rank drops to n^2 - 2;
    when the rank is higher, the pivot submatrix supplies a provably nonzero
    minor, so the check is decisive in both directions.
    """
    size = n * n - 1
    rng = random.Random(args.seed or 0)
    samples = 200 if args.samples is None else args.samples

    def minor_nonzero(rows, cols) -> bool:
        return rank_raw(stack.spec, [[stack.rows[i][j] for j in cols] for i in rows]) == size

    nonzero = 0
    for _ in range(samples):
        rows = sorted(rng.sample(range(stack.nrows), size))
        cols = sorted(rng.sample(range(stack.ncols), size))
        nonzero += minor_nonzero(rows, cols)
    witness_nonzero = None
    if r >= size:
        _, col_pivots = rref_raw(stack.spec, stack.raw_rows())
        _, row_pivots = rref_raw(
            stack.spec, [list(t) for t in zip(*stack.rows)]
        )
        witness_nonzero = minor_nonzero(row_pivots[:size], col_pivots[:size])
    le2 = r <= n * n - 2
    consistent = (le2 and nonzero == 0) or (not le2 and bool(witness_nonzero))
    return {
        "minor_size": size,
        "sampled": samples,
        "nonzero_sampled": nonzero,
        "pivot_minor_nonzero": witness_nonzero,
        "consistent": consistent,
    }


def _cmd_centralizer(args) -> dict:
    a = _load_matrix(args, "a")
    basis = cm.centralizer_basis(a)
    return {"dimension": len(basis), "basis": [m.to_json() for m in basis]}


def _cmd_derogatory(args) -> dict:
    a = _load_matrix(args, "a")
    return {"derogatory": cm.derogatory(a), "min_poly": [c.to_json() for c in min_poly(a)]}


def _cmd_pc_search(args) -> dict:
    a, b = _load_matrix(args, "a"), _load_matrix(args, "b")
    res = cm.pc_search(a, b)
    return {
        "status": res.status,
        "note": res.note,
        "certificate": res.certificate.to_json() if res.certificate else None,
    }


def _cmd_pc_verify(args) -> dict:
    a, b = _load_matrix(args, "a"), _load_matrix(args, "b")
    cert = cm.PcCertificate.from_json(a.spec, _load_json_arg(args.cert))
    args.inputs["cert"] = cert.to_json()
    return {"valid": cm.pc_verify(a, b, cert)}


def _cmd_zi(args) -> dict:
    a, b = _load_matrix(args, "a"), _load_matrix(args, "b")
    if args.p:
        witness = _load_matrix(args, "p", a.spec)
        try:
            cm.zi_membership(a, b, args.i, witness=witness)
        except BadWitness as exc:
            return {"valid": False, "violated": exc.condition, "_exit": 1}
        return {"valid": True, "witness": witness.to_json()}
    found = cm.zi_membership(a, b, args.i)
    return {"witness": found.to_json() if found else None}


def _cmd_bfs(args) -> dict:
    a = _load_matrix(args, "a")
    if args.b is None:
        report = gr.bfs_report(a, cap=args.cap)
        return report.to_json()
    b = _load_matrix(args, "b")
    d = gr.bfs_distance(a, b, cap=args.cap)
    if d is None:
        shown: object = "exceeds-cap"
    elif d == math.inf:
        shown = "infinite"
    else:
        shown = d
    return {"distance": shown}


def _cmd_components(args) -> dict:
    spec = _require_field(args)
    rep = gr.components(spec, args.n)
    return rep.to_json()


def _cmd_diameter(args) -> dict:
    spec = _require_field(args)
    return {"diameter": gr.diameter(spec, args.n)}


def _cmd_census(args) -> dict:
    spec = _require_field(args)
    n = args.n
    # commuting-pairs and derogatory are always exhaustive, dist-le-2 without --samples
    exhaustive = args.samples is None if args.quantity == "dist-le-2" else args.quantity != "zi-pairs"
    if exhaustive and (args.samples, args.seed) != (None, None):
        raise CommdistError(f"{args.quantity} is counted exhaustively; drop --samples and --seed")
    if args.quantity == "commuting-pairs":
        rep = cs.count_commuting_pairs(spec, n)
    elif args.quantity == "dist-le-2":
        rep = cs.count_dist_le_2(spec, n, samples=args.samples, seed=args.seed or 0)
    elif args.quantity == "derogatory":
        rep = cs.derogatory_count(spec, n)
    else:  # zi-pairs: argparse's choices admit no other quantity
        if args.i is None or args.samples is None:
            raise CommdistError("zi-pairs needs --i and --samples")
        rep = cs.zi_pair_census(spec, n, args.i, args.samples, seed=args.seed or 0)
    return rep.to_json()


def _cmd_verify_paper(args) -> dict:
    names = args.only.split(",") if args.only is not None else None
    results = verify_paper(names)
    ok = all(r.passed and r.in_budget for r in results)
    for r in results:
        print(r.row())
    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    if args.out:
        report = {
            "checks": [r.to_json() for r in results],
            "all_pass": ok,
            "config": {"subcommand": "verify-paper", "only": args.only},
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {"_exit": 0 if ok else 1}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commdist",
        description="Exact commuting-distance computations for matrices over "
        "exact fields (rationals, GF(p), GF(p^k)).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, help_, matrices=(), **extra_flags):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler, cmd=name)
        p.add_argument("--field", help="field spec: qq | gf(p) | gf(p^k)[:c0,...,ck]")
        for m in matrices:
            required = not m.endswith("?")
            m = m.rstrip("?")
            p.add_argument(
                f"--{m}",
                required=required,
                help=f"matrix {m.upper()}: JSON file path, inline JSON, or fixture:<name>",
            )
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default="json")
        for flag, kw in extra_flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kw)
        return p

    add("distance", _cmd_distance, "full decision ladder for one pair", ("a", "b"))
    add(
        "dist2",
        _cmd_dist2,
        "rank criterion for distance <= 2",
        ("a", "b"),
        minors={"action": "store_true", "help": "sampled maximal-minor verification"},
        samples={"type": int, "help": "minor sample count with --minors (default 200)"},
        seed={"type": int, "help": "sampling seed with --minors"},
    )
    add("centralizer", _cmd_centralizer, "echelon basis of the centralizer", ("a",))
    add("derogatory", _cmd_derogatory, "minimal-polynomial degree test", ("a",))
    add("pc-search", _cmd_pc_search, "polynomial-commuting certificate search", ("a", "b"))
    add(
        "pc-verify",
        _cmd_pc_verify,
        "recheck a certificate",
        ("a", "b"),
        cert={"required": True, "help": "certificate JSON (inline or file)"},
    )
    add(
        "zi",
        _cmd_zi,
        "rank-i idempotent common commuter (search or validate)",
        ("a", "b", "p?"),
        i={"type": int, "required": True, "help": "idempotent rank"},
    )
    add(
        "bfs",
        _cmd_bfs,
        "graph distance by BFS (omit --b for a full report)",
        ("a", "b?"),
        cap={"type": int, "help": "radius cap"},
    )
    add(
        "components",
        _cmd_components,
        "connected components of the commuting graph",
        (),
        n={"type": int, "required": True},
    )
    add(
        "diameter",
        _cmd_diameter,
        "largest finite eccentricity",
        (),
        n={"type": int, "required": True},
    )
    add(
        "census",
        _cmd_census,
        "exhaustive or sampled counts",
        (),
        n={"type": int, "required": True},
        quantity={
            "required": True,
            "choices": ("commuting-pairs", "dist-le-2", "derogatory", "zi-pairs"),
        },
        i={"type": int, "help": "idempotent rank for zi-pairs"},
        samples={"type": int, "help": "sample count (omit for exhaustive)"},
        seed={"type": int, "help": "sampling seed"},
    )
    add(
        "verify-paper",
        _cmd_verify_paper,
        "run the bundled reference-check suite",
        (),
        only={"help": "comma-separated check names (default: all)"},
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    args.inputs = {}  # every matrix and certificate the handler reads, by flag
    try:
        report = args.handler(args)
        exit_code = report.pop("_exit", 0)
        if args.cmd != "verify-paper":  # it prints its own rows
            report["config"] = _config(args)
            _emit(report, args)
    except CapExceeded as exc:
        print(json.dumps({"error": "cap-exceeded", "detail": str(exc)}), file=sys.stderr)
        return 2
    except (CommdistError, OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
