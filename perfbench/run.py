"""The commdist benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|toy]

Run it from the root of a checkout (it puts ``src`` on the path of the
processes it starts; the package need not be installed).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  Every time is in seconds at the reference
speed (see refclock.py); the raw seconds, the machine and the check results
go to a file under perfbench/runs/ and its path to the line before the JSON.

This process never imports commdist.  It writes the workload's inputs, starts
the worker (worker.py) or one command-line process per call (clichild.py),
and checks every output with the benchmark's own arithmetic (checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from ff import Field, mat_from_json, mat_to_json
from refclock import REF_NOMINAL_S, speed
from tracing import per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("ladder-gf", "ladder-qq", "census", "cli-cold")
END_TO_END = (
    ("setup_s", "s"),
    ("cold_pass_s", "s"),
    ("warm_ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("exact_answers", "count"),
)
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170
CLI_CALL_TIMEOUT_S = 120
LADDER_WORKERS = 2
LADDER_MIN_WARM = {"ladder-gf": 2, "ladder-qq": 1}  # warm passes per worker, at least
CENSUS_PASSES = 2  # cold passes per run, at least
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def _spawn(args: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
                          env=_env(), timeout=timeout)
    return proc, time.perf_counter() - t0


def _worker(args: list[str]) -> dict:
    proc, _ = _spawn([str(HERE / "worker.py"), *args], WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float], fewest: int) -> float:
    """The highest percentile with at least ten samples beyond it when a run
    has its fewest warm samples; fixed per workload so that runs of different
    lengths report the same percentile."""
    q = 1.0 - 10.0 / fewest
    s = sorted(samples)
    return s[min(len(s) - 1, int(q * len(s)))]


# ---------------------------------------------------------------------------
# inputs


def write_inputs(workload: str, seed: int, size: str, run_dir: Path):
    """Generate the seeded inputs; write them for the worker; return them for the checks."""
    path = run_dir / f"inputs-{workload}-{seed}-{size}-{os.getpid()}.json"
    if workload == "census":
        plain = inputs.census_calls(seed, size)
        data = {"workload": workload,
                "calls": [{"fn": c.fn, "field": c.field, "n": c.n, "kwargs": c.kwargs} for c in plain]}
    elif workload in ("ladder-gf", "ladder-qq"):
        plain = (inputs.ladder_gf if workload == "ladder-gf" else inputs.ladder_qq)(seed, size)
        fields = {p.field: Field(p.field) for p in plain}
        data = {"workload": workload, "pairs": [
            {"op": p.op,
             "a": {"field": p.field, "rows": mat_to_json(fields[p.field], p.a)},
             "b": {"field": p.field, "rows": mat_to_json(fields[p.field], p.b)}} for p in plain]}
    else:
        return inputs.cli_calls(seed, size), None
    path.write_text(json.dumps(data))
    return plain, path


def measure_setup(path: Path | None) -> tuple[float, list[float]]:
    """Median setup time at the reference speed over fresh interpreters, and the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc, wall = _spawn([str(HERE / "worker.py"), "setup"] + ([str(path)] if path else []), 120)
        if proc.returncode != 0:
            raise BenchError(f"setup exited {proc.returncode}: {proc.stderr[-2000:]}")
        d = json.loads(proc.stdout.strip().splitlines()[-1])
        r = wall - d["read_s"] - d["stolen_s"]
        raw.append(r)
        scaled.append(r * speed(d["refs"]))
    return statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# workloads


def run_ladder(workload, plain, path, seconds, trace, report) -> tuple[dict, int, int, list[str]]:
    # Several fresh worker processes share the run: a process carries a
    # speed offset of its own (memory layout, placement) that averages out.
    # A traced run uses one worker, alternating traced and untraced passes.
    workers = 1 if trace else LADDER_WORKERS
    min_warm = 2 if trace else LADDER_MIN_WARM[workload]
    runs = [_worker(["ladder", str(path), str(seconds / workers), "1" if trace else "0", str(min_warm)])
            for _ in range(workers)]
    d = runs[0]
    per_pass = d["ops_per_pass"]
    all_passes = [p for r in runs for p in [r["cold"]] + r["warm"] + r["traced"]]
    attempted = per_pass * len(all_passes)
    failed = sum(p["failed"] for p in all_passes)
    problems = []
    if len({h for r in runs for h in r["digests"]}) != 1:
        problems.append("passes over the same inputs gave different results")
    table = checks.gf2_n3_table() if workload == "ladder-gf" else None
    fields = {}
    exact = 0
    for p, res in zip(plain, d["results"]):
        F = fields.setdefault(p.field, Field(p.field))
        if isinstance(res, dict) and "error" in res:
            problems.append(f"{p.kind} pair raised {res['error']}")
            continue
        if p.op == "dist_le_2":
            bad = checks.check_dist_le_2(F, p.a, p.b, res)
        else:
            exact += res["kind"] in ("exact", "infinite")
            use = table if (p.field, len(p.a)) == ("gf(2)", 3) else None
            bad = checks.check_distance(F, p.a, p.b, res, use)
        problems += [f"{p.field} n={len(p.a)} {p.kind}: {b}" for b in bad]
    warm_passes = [p for r in runs for p in r["warm"]]
    warm = [x for p in warm_passes for x in p["scaled"]]
    warm_raw = [x for p in warm_passes for x in p["raw"]]
    report["passes"] = {"cold_raw_s": [sum(r["cold"]["raw"]) for r in runs],
                        "cold_scaled_s": [sum(r["cold"]["scaled"]) for r in runs],
                        "warm_raw_s": [sum(p["raw"]) for p in warm_passes],
                        "warm_scaled_s": [sum(p["scaled"]) for p in warm_passes],
                        "traced": len(d["traced"])}
    if trace:
        layers = _median_layers([p["layers"] for p in d["traced"]])
        for key in ("graph.bfs.first.s", "field.ops_first.s"):
            layers[key] = d["cold_layers"][key]
        untraced = statistics.median(sum(p["scaled"]) for p in d["warm"])
        traced = statistics.median(sum(p["scaled"]) for p in d["traced"])
        layers["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        report["cold_spans"] = d["cold_table"]
        return layers, attempted, failed, problems
    fewest = workers * min_warm * per_pass  # warm samples in the shortest run
    metrics = {
        "cold_pass_s": statistics.median(sum(r["cold"]["scaled"]) for r in runs),
        "warm_ops_per_s": len(warm) / sum(warm),
        "op_p50_ms": statistics.median(warm) * 1e3,
        "op_tail_ms": tail(warm, fewest) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "exact_answers": exact,
    }
    report["raw"] = {"cold_pass_s": statistics.median(sum(r["cold"]["raw"]) for r in runs),
                     "warm_ops_per_s": len(warm_raw) / sum(warm_raw),
                     "op_p50_ms": statistics.median(warm_raw) * 1e3,
                     "op_tail_ms": tail(warm_raw, fewest) * 1e3}
    return metrics, attempted, failed, problems


def _median_layers(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _check_census_pass(plain, d) -> tuple[list[str], int]:
    problems, exact = [], 0
    for call, res in zip(plain, d["results"]):
        if isinstance(res, dict) and "error" in res:
            problems.append(f"{call.fn} raised {res['error']}")
            continue
        bad, is_exact = checks.check_census(call, res)
        exact += is_exact
        problems += [f"{call.fn} {call.field} n={call.n}: {b}" for b in bad]
    return problems, exact


def _without_wall_time(results):
    return [{k: v for k, v in r.items() if k != "wall_time_s"} if isinstance(r, dict) else r
            for r in results]


def run_census(plain, path, seconds, trace, report):
    if trace:
        base = _worker(["census", str(path), "0"])
        d = _worker(["census", str(path), "1"])
        problems, _ = _check_census_pass(plain, d)
        layers = dict(d["cold_layers"])
        layers["trace.overhead_pct"] = 100.0 * (sum(d["cold"]["scaled"]) / sum(base["cold"]["scaled"]) - 1.0)
        report["cold_spans"] = d["cold_table"]
        return layers, 2 * d["ops_per_pass"], 0, problems
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < CENSUS_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(_worker(["census", str(path), "0"]))
        last = time.perf_counter() - t0
    problems, exact = _check_census_pass(plain, passes[0])
    if any(_without_wall_time(p["results"]) != _without_wall_time(passes[0]["results"]) for p in passes):
        problems.append("census passes over the same inputs gave different results")
    totals = [sum(p["cold"]["scaled"]) for p in passes]
    ops = [x for p in passes for x in p["cold"]["scaled"]]
    metrics = {
        "cold_pass_s": statistics.median(totals),
        "warm_ops_per_s": passes[0]["ops_per_pass"] / statistics.median(totals),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": statistics.median(max(p["cold"]["scaled"]) for p in passes) * 1e3,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "exact_answers": exact,
    }
    report["raw"] = {"cold_pass_s": statistics.median(sum(p["cold"]["raw"]) for p in passes),
                     "op_p50_ms": statistics.median(x for p in passes for x in p["cold"]["raw"]) * 1e3,
                     "per_call_s": [p["cold"]["raw"] for p in passes]}
    attempted = sum(p["ops_per_pass"] for p in passes)
    failed = sum(p["cold"]["failed"] for p in passes)
    return metrics, attempted, failed, problems


def cli_call(call, trace: bool) -> dict:
    timeout = inputs.CLI_TIMEOUT_S if call.data.get("stuck") else CLI_CALL_TIMEOUT_S
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "clichild.py"), repr(t_spawn), str(timeout), "1" if trace else "0",
         "--", *call.argv],
        capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=timeout + 60)
    wall = time.perf_counter() - t_spawn
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{call.name}: child exited {proc.returncode}: {proc.stderr[-2000:]}")
    info = json.loads(lines[-1][len("PERFBENCH "):])
    raw = wall - info["stolen_s"]
    info.update(name=call.name, raw_s=raw, scaled_s=raw * info["factor"], stdout=proc.stdout,
                failed=info["timeout"] or info["exit"] != 0)
    return info


def check_cli(call, info) -> tuple[list[str], bool]:
    """(problems, counts as an exact distance answer)."""
    if info["failed"]:
        return [], False
    out = json.loads(info["stdout"])
    name = call.name
    if name.startswith("census"):
        cc = inputs.CensusCall("count_commuting_pairs", "gf(2)", 3, {})
        if "dist-le-2" in name:
            argv = call.argv
            cc = inputs.CensusCall("count_dist_le_2", "gf(3)", 3, {
                "samples": int(argv[argv.index("--samples") + 1]), "seed": int(argv[argv.index("--seed") + 1])})
        return checks.check_census(cc, out)[0], False
    if name.startswith("components"):
        return checks.check_census(inputs.CensusCall("components", "gf(2)", 3, {}), out)[0], False
    F = Field(call.data["field"])
    if "a" in call.data:
        a, b = call.data["a"], call.data["b"]
    else:
        a, b = (_fixture(F, call.argv[call.argv.index(flag) + 1]) for flag in ("--a", "--b"))
    cfg = out.get("config", {})
    if mat_from_json(F, cfg.get("a", {}).get("rows", [])) != a or \
            mat_from_json(F, cfg.get("b", {}).get("rows", [])) != b:
        return ["the report does not echo its input matrices"], False
    if name.startswith("pc-search"):
        if out.get("status") != "certificate":
            return [f"pc-search status {out.get('status')}"], False
        return checks.check_certificate(F, a, b, out["certificate"])[0], False
    if name.startswith("dist2"):
        r = checks.stack_rank(F, a, b)
        n2 = len(a) ** 2
        ok = out.get("rank") == r and out.get("dist_le_2") == (r <= n2 - 2)
        return ([] if ok else [f"dist2 rank {out.get('rank')}, independent {r}"]), False
    bad = checks.check_distance(F, a, b, out)
    if name.startswith("distance-gf3"):
        comp = checks.isolated_component(F, b)
        if out.get("kind") != "infinite" or comp is None or a in comp:
            bad.append("B's component is F[B] without scalars and excludes A, so d is infinite")
    if name.startswith("distance-gf2") and out.get("value") != 3:
        bad.append("pair built at distance 3")
    return bad, out.get("kind") in ("exact", "infinite")


def _fixture(F: Field, arg: str):
    data = json.loads((checks.FIXTURES / f"{arg.split(':', 1)[1]}.json").read_text())
    return mat_from_json(F, data["rows"])


def run_cli(plain, seconds, trace, report):
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or (not trace and time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        rounds.append([cli_call(c, trace) for c in plain])
        last = time.perf_counter() - t0
    problems, exact = [], 0
    for rnd in rounds:
        for call, info in zip(plain, rnd):
            bad, is_exact = check_cli(call, info)
            problems += [f"{call.name}: {b}" for b in bad]
            exact += is_exact
    attempted = sum(len(r) for r in rounds)
    failed = sum(info["failed"] for r in rounds for info in r)
    report["calls"] = [{k: v for k, v in i.items() if k not in ("stdout", "layers", "table")}
                       for r in rounds for i in r]
    if trace:
        first = rounds[0]
        layers = {k: sum(i["layers"][k] for i in first if "layers" in i)
                  for k in next(i["layers"] for i in first if "layers" in i)}
        layers["cli.startup.s"] = sum(i["startup_s"] * i["factor"] for i in first)
        layers["cli.main.s"] = sum(i["main_s"] * i["factor"] for i in first)
        layers["cli.output_bytes"] = sum(i["output_bytes"] for i in first)
        # overhead: the quick calls once more, untraced
        quick = [k for k, c in enumerate(plain) if k == plain.index(c) and c.name.split("-")[0] in
                 ("census", "components", "pc", "dist2")]
        base = sum(cli_call(plain[k], False)["scaled_s"] for k in quick)
        layers["trace.overhead_pct"] = 100.0 * (sum(first[k]["scaled_s"] for k in quick) / base - 1.0)
        return layers, attempted + len(quick), failed, problems
    totals = [sum(i["scaled_s"] for i in r) for r in rounds]
    calls = [i["scaled_s"] for r in rounds for i in r]
    metrics = {
        "cold_pass_s": statistics.median(totals),
        "warm_ops_per_s": len(plain) / statistics.median(totals),
        "op_p50_ms": statistics.median(calls) * 1e3,
        "op_tail_ms": statistics.median(max(i["scaled_s"] for i in r) for r in rounds) * 1e3,
        "peak_rss_mb": max(i["peak_rss_mb"] for r in rounds for i in r),
        "exact_answers": exact // len(rounds),
    }
    report["raw"] = {"cold_pass_s": statistics.median(sum(i["raw_s"] for i in r) for r in rounds),
                     "op_p50_ms": statistics.median(i["raw_s"] for r in rounds for i in r) * 1e3}
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "src_lines": src_lines, "child_env": CHILD_ENV,
            "platform": platform.platform(), "ref_nominal_s": REF_NOMINAL_S}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "commdist" / "__init__.py").is_file():
        print(f"no commdist sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    run_dir = HERE / "runs"
    run_dir.mkdir(exist_ok=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "size": args.size, "machine": machine()}
    plain, path = write_inputs(args.workload, args.seed, args.size, run_dir)
    try:
        if args.workload in ("ladder-gf", "ladder-qq"):
            metrics, attempted, failed, problems = run_ladder(
                args.workload, plain, path, args.seconds, args.trace, report)
        elif args.workload == "census":
            metrics, attempted, failed, problems = run_census(plain, path, args.seconds, args.trace, report)
        else:
            metrics, attempted, failed, problems = run_cli(plain, args.seconds, args.trace, report)
        if not args.trace:
            metrics["setup_s"], report["setup_raw_s"] = measure_setup(path)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if path is not None:
            path.unlink(missing_ok=True)
    names = per_layer_names() if args.trace else END_TO_END
    if args.trace:  # layers a workload never enters (cli.* outside cli-cold) read 0
        metrics = {**{name: 0 for name, _ in names}, **metrics}
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names}}
    report.update(result=out, problems=problems)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_file = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    run_file.write_text(json.dumps(report, indent=1, default=str))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"run file: {run_file.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
