"""Self-test of the benchmark harness at toy size: no timing gate.

    python3 perfbench/selftest.py

It checks the independent checkers against known values and against a
deliberately wrong answer, then runs every workload at toy size with all
output checks on, untraced and traced, and requires a correct result that
names exactly the metrics BENCHMARK.json lists.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks
import inputs
from ff import Field, mat_to_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_checkers() -> list[str]:
    bad = []
    got = [checks.feit_fine(2, 2), checks.feit_fine(2, 3), checks.feit_fine(3, 3), checks.feit_fine(4, 2)]
    if got != [88, 7456, 809433, 5056]:
        bad.append(f"Feit-Fine gives {got}")
    table = checks.gf2_n3_table()
    if table["components"]["sizes"] != [462] + [6] * 8 or table["pairs_dist_le_2"] != 36352:
        bad.append("GF(2) 3x3 brute-force table")
    F = Field("gf(2)")
    a = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    b = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    wrong = {"kind": "exact", "value": 2, "decided_by": "rank-criterion",
             "witness": [{"field": "gf(2)", "rows": mat_to_json(F, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])}]}
    if not checks.check_distance(F, a, b, wrong, table):
        bad.append("check_distance accepted a witness that commutes with neither matrix")
    return bad


def run(workload: str, trace: int, names: set[str], stuck: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{tag}: result keys {sorted(out)}")
    if not out["correct"]:
        bad.append(f"{tag}: checks failed: {proc.stderr[-1500:]}")
    if set(out["metrics"]) != names:
        bad.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(out['metrics']) ^ names)}")
    if out["failed"] != stuck:  # one round at toy size; only the stuck GF(5) calls may fail
        bad.append(f"{tag}: {out['failed']} of {out['attempted']} failed")
    return bad


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    problems = check_checkers()
    for w in bench["workloads"]:
        stuck = sum(1 for c in inputs.cli_calls(7, "toy") if c.data.get("stuck")) if w["name"] == "cli-cold" else 0
        for trace, names in ((0, e2e), (1, layers)):
            found = run(w["name"], trace, names, stuck)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
