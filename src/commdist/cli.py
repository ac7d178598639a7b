"""Command-line interface: parse inputs, dispatch to the library, emit reports.

Every report echoes its resolved configuration so a run can be replayed from
its own output.  Numeric output is exact (integers, fraction strings, field
coefficient vectors); the only floats are standard errors of sampled
estimates.  Exit codes: 0 success, 1 input error, 2 cap exceeded.
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
from .errors import BadWitness, CapExceeded, CommdistError
from .field import FieldSpec
from .matrix import ExactMatrix, det, min_poly, rank, rref_raw
from .verify import load_fixture, verify_paper


def _load_matrix(text: str, field: FieldSpec | None) -> ExactMatrix:
    if text.startswith("fixture:"):
        m = load_fixture(text.split(":", 1)[1])
    elif text.lstrip().startswith("{"):
        m = ExactMatrix.from_json(text)
    else:
        with open(text) as fh:
            m = ExactMatrix.from_json(json.load(fh))
    if field is not None and field != m.spec:
        m = m.to_field(field)
    return m


def _load_json_arg(text: str):
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _emit(report: dict, args) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "table":
        text = "\n".join(_table_lines(report, prefix=""))
    else:
        text = json.dumps(report, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        append = getattr(args, "_append_out", False)
        if append and fmt == "json":
            text = json.dumps(report, sort_keys=True)  # one line per appended record
        with open(out, "a" if append else "w") as fh:
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
    elif isinstance(obj, list):
        for idx, v in enumerate(obj):
            lines.append(f"{prefix}[{idx}] {json.dumps(v)}")
    else:
        lines.append(f"{prefix}{json.dumps(obj)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _config(args, **inputs) -> dict:
    cfg = {"subcommand": args.cmd}
    for key in ("field", "n", "i", "cap", "samples", "seed", "quantity", "minors"):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    cfg.update(inputs)
    return cfg


def _field_arg(args) -> FieldSpec | None:
    return FieldSpec.parse(args.field) if getattr(args, "field", None) else None


def _require_field(args) -> FieldSpec:
    if not getattr(args, "field", None):
        raise CommdistError("this subcommand needs --field")
    return FieldSpec.parse(args.field)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_distance(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    b = _load_matrix(args.b, spec)
    res = cm.distance(a, b)
    report = res.to_json()
    report["config"] = _config(args, a=a.to_json(), b=b.to_json())
    return report


def _cmd_dist2(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    b = _load_matrix(args.b, spec)
    stacked = cm.stack_M(a, b)
    r = rank(stacked)
    n = a.nrows
    report = {
        "dist_le_2": r <= n * n - 2,
        "rank": r,
        "threshold": n * n - 2,
        "config": _config(args, a=a.to_json(), b=b.to_json()),
    }
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
    samples = args.samples or 200
    nonzero = 0
    zero_raw = stack.spec.ops().zero
    for _ in range(samples):
        rows = sorted(rng.sample(range(stack.nrows), size))
        cols = sorted(rng.sample(range(stack.ncols), size))
        sub = ExactMatrix._from_raw(
            stack.spec, [[stack.rows[i][j] for j in cols] for i in rows]
        )
        if det(sub).raw != zero_raw:
            nonzero += 1
    witness_nonzero = None
    if r >= size:
        _, col_pivots = rref_raw(stack.spec, stack.raw_rows())
        _, row_pivots = rref_raw(
            stack.spec, [list(t) for t in zip(*stack.rows)]
        )
        rows = row_pivots[:size]
        cols = col_pivots[:size]
        sub = ExactMatrix._from_raw(
            stack.spec, [[stack.rows[i][j] for j in cols] for i in rows]
        )
        witness_nonzero = det(sub).raw != zero_raw
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
    a = _load_matrix(args.a, _field_arg(args))
    basis = cm.centralizer_basis(a)
    return {
        "dimension": len(basis),
        "basis": [m.to_json() for m in basis],
        "config": _config(args, a=a.to_json()),
    }


def _cmd_derogatory(args) -> dict:
    a = _load_matrix(args.a, _field_arg(args))
    return {
        "derogatory": cm.derogatory(a),
        "min_poly": [c.to_json() for c in min_poly(a)],
        "config": _config(args, a=a.to_json()),
    }


def _cmd_pc_search(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    b = _load_matrix(args.b, spec)
    res = cm.pc_search(a, b)
    return {
        "status": res.status,
        "note": res.note,
        "certificate": res.certificate.to_json() if res.certificate else None,
        "config": _config(args, a=a.to_json(), b=b.to_json()),
    }


def _cmd_pc_verify(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    b = _load_matrix(args.b, spec)
    cert = cm.PcCertificate.from_json(a.spec, _load_json_arg(args.cert))
    return {
        "valid": cm.pc_verify(a, b, cert),
        "config": _config(args, a=a.to_json(), b=b.to_json(), cert=cert.to_json()),
    }


def _cmd_zi(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    b = _load_matrix(args.b, spec)
    cfg = _config(args, a=a.to_json(), b=b.to_json())
    if args.p:
        witness = _load_matrix(args.p, a.spec)
        cfg["p"] = witness.to_json()
        try:
            cm.zi_membership(a, b, args.i, witness=witness)
        except BadWitness as exc:
            return {"valid": False, "violated": exc.condition, "config": cfg, "_exit": 1}
        return {"valid": True, "witness": witness.to_json(), "config": cfg}
    found = cm.zi_membership(a, b, args.i)
    return {"witness": found.to_json() if found else None, "config": cfg}


def _cmd_bfs(args) -> dict:
    spec = _field_arg(args)
    a = _load_matrix(args.a, spec)
    if args.b is None:
        report = gr.bfs_report(a, cap=args.cap)
        out = report.to_json()
        out["config"] = _config(args, a=a.to_json())
        return out
    b = _load_matrix(args.b, spec)
    d = gr.bfs_distance(a, b, cap=args.cap)
    if d is None:
        shown: object = "exceeds-cap"
    elif d == math.inf:
        shown = "infinite"
    else:
        shown = d
    return {"distance": shown, "config": _config(args, a=a.to_json(), b=b.to_json())}


def _cmd_components(args) -> dict:
    spec = _require_field(args)
    rep = gr.components(spec, args.n)
    out = rep.to_json()
    out["config"] = _config(args)
    return out


def _cmd_diameter(args) -> dict:
    spec = _require_field(args)
    return {"diameter": gr.diameter(spec, args.n), "config": _config(args)}


def _cmd_census(args) -> dict:
    spec = _require_field(args)
    n = args.n
    exhaustive = args.quantity in ("commuting-pairs", "derogatory")
    if exhaustive and (args.samples, args.seed) != (None, None):
        raise CommdistError(f"{args.quantity} is counted exhaustively; drop --samples and --seed")
    if args.quantity == "commuting-pairs":
        rep = cs.count_commuting_pairs(spec, n)
    elif args.quantity == "dist-le-2":
        rep = cs.count_dist_le_2(spec, n, samples=args.samples, seed=args.seed or 0)
    elif args.quantity == "derogatory":
        rep = cs.derogatory_count(spec, n)
    elif args.quantity == "zi-pairs":
        if args.i is None or args.samples is None:
            raise CommdistError("zi-pairs needs --i and --samples")
        rep = cs.zi_pair_census(spec, n, args.i, args.samples, seed=args.seed or 0)
    else:
        raise CommdistError(f"unknown census quantity {args.quantity!r}")
    out = rep.to_json()
    out["config"] = _config(args)
    args._append_out = True  # census logs are JSON lines, appended
    return out


def _cmd_verify_paper(args) -> dict:
    names = args.only.split(",") if args.only else None
    results = verify_paper(names)
    ok = all(r.passed and r.in_budget for r in results)
    for r in results:
        print(r.row())
    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    if args.out:
        report = {
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "in_budget": r.in_budget,
                    "seconds": round(r.seconds, 3),
                    "expected": r.expected,
                    "actual": r.actual,
                }
                for r in results
            ],
            "all_pass": ok,
            "config": {"subcommand": "verify-paper", "only": args.only},
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {"_exit": 0 if ok else 1, "_quiet": True}


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
        samples={"type": int, "help": "minor sample count (default 200)"},
        seed={"type": int, "help": "sampling seed"},
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
    try:
        report = args.handler(args)
    except CapExceeded as exc:
        print(json.dumps({"error": "cap-exceeded", "detail": str(exc)}), file=sys.stderr)
        return 2
    except (CommdistError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    exit_code = report.pop("_exit", 0)
    quiet = report.pop("_quiet", False)
    if not quiet:
        _emit(report, args)
    return exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
