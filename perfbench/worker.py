"""The only benchmark process that imports commdist and calls it.

It runs in a fresh interpreter started by run.py and prints one JSON object:

    worker.py setup  [<inputs file>]
    worker.py ladder <inputs file> <seconds> <trace> <fewest warm passes>
    worker.py census <inputs file> <trace>

The inputs file holds the workload's matrices in commdist's JSON format; run.py
generates it from the seed.  ``setup`` imports commdist and builds the inputs
as commdist objects, and reports the time spent reading the file so that
run.py can leave it out.  ``ladder`` runs one cold pass over the fixed
list and then warm passes until the time is used.  ``census`` runs one cold
pass.  With trace 1 the passes are traced (see tracing.py) and untraced warm
passes are interleaved to measure the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refclock import RefClock  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(path: str, clock: RefClock | None = None):
    """Read a workload's inputs file (written by run.py) and make commdist objects.

    Returns (objects, seconds spent reading the file), the latter without any
    reference-loop chunks that fired meanwhile.
    """
    from commdist.field import FieldSpec
    from commdist.matrix import ExactMatrix

    s0 = clock.stolen_s if clock else 0.0
    t0 = time.perf_counter()
    data = json.loads(Path(path).read_text())
    read_s = time.perf_counter() - t0 - ((clock.stolen_s - s0) if clock else 0.0)
    if data["workload"] == "census":
        built = [(c, FieldSpec.parse(c["field"])) for c in data["calls"]]
    else:
        built = [(p["op"], ExactMatrix.from_json(p["a"]), ExactMatrix.from_json(p["b"]))
                 for p in data["pairs"]]
    return built, read_s


def _ladder_call(op, a, b):
    from commdist import commute

    if op == "distance":
        return lambda: commute.distance(a, b).to_json()
    return lambda: commute.dist_le_2(a, b)


def _census_call(call, spec):
    from commdist import census, graph

    name, n, kw = call["fn"], call["n"], dict(call["kwargs"])
    if name == "diameter":
        return lambda: graph.diameter(spec, n)
    if name == "components":
        return lambda: graph.components(spec, n).to_json()
    # looked up at call time, so that a traced pass calls the wrapper
    if name == "zi_pair_census":
        i = kw.pop("i")
        return lambda: census.zi_pair_census(spec, n, i, **kw).to_json()
    return lambda: getattr(census, name)(spec, n, **kw).to_json()


def run_pass(calls, clock: RefClock) -> dict:
    """One pass over `calls`, each timed alone, with the reference loop armed."""
    raw, spans, results = [], [], []
    failed = 0
    t0 = time.perf_counter()
    with clock:
        for call in calls:
            try:
                result, seconds, span = clock.time_op(call)
            except Exception as exc:  # a crash of the program is a failed operation
                result, seconds, span = {"error": repr(exc)}, 0.0, (t0, t0)
                failed += 1
            raw.append(seconds)
            spans.append(span)
            results.append(result)
    t1 = time.perf_counter()
    scaled = [clock.scale(r, sp) for r, sp in zip(raw, spans)]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    return {"raw": raw, "scaled": scaled, "results": results, "digest": digest, "wall": t1 - t0,
            "failed": failed, "factor": clock.speed_near(t0, t1)}


def ladder(path: str, seconds: float, trace: bool, min_warm: int) -> dict:
    built, _ = build(path)
    calls = [_ladder_call(*x) for x in built]
    clock = RefClock()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(stolen=lambda: clock.stolen_s)
        tracer.install()
    start = time.perf_counter()
    cold = run_pass(calls, clock)
    out = {"ops_per_pass": len(calls), "results": cold["results"], "cold": _summary(cold)}
    if tracer:
        tracer.uninstall()
        out["cold_layers"] = tracer.metrics(cold["factor"])
        out["cold_table"] = tracer.table(cold["factor"])
    warm, traced, last = [], [], cold["wall"]
    # Whole passes only; at least `min_warm` warm ones (and as many traced ones when tracing).
    while (len(warm) < min_warm or (trace and len(traced) < min_warm)
           or time.perf_counter() - start + last <= seconds):
        use_trace = trace and len(traced) <= len(warm) - 1
        if use_trace:
            tracer.reset()
            tracer.install()
        p = run_pass(calls, clock)
        if use_trace:
            tracer.uninstall()
            p["layers"] = tracer.metrics(p["factor"])
            traced.append(p)
        else:
            warm.append(p)
        last = p["wall"]
    out["warm"] = [_summary(p) for p in warm]
    out["traced"] = [dict(_summary(p), layers=p["layers"]) for p in traced]
    out["digests"] = [p["digest"] for p in [cold] + warm + traced]
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def census(path: str, trace: bool) -> dict:
    built, _ = build(path)
    calls = [_census_call(c, spec) for c, spec in built]
    clock = RefClock()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(stolen=lambda: clock.stolen_s)
        tracer.install()
    cold = run_pass(calls, clock)
    out = {"ops_per_pass": len(calls), "results": cold["results"], "cold": _summary(cold),
           "digests": [cold["digest"]], "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        tracer.uninstall()
        out["cold_layers"] = tracer.metrics(cold["factor"])
        out["cold_table"] = tracer.table(cold["factor"])
    return out


def _summary(p: dict) -> dict:
    return {"raw": p["raw"], "scaled": p["scaled"], "wall": p["wall"], "failed": p["failed"],
            "factor": p["factor"]}


def setup(path: str | None) -> dict:
    """Import commdist and build the inputs, with the reference loop armed."""
    clock = RefClock()
    read = []

    def work():
        import commdist  # noqa: F401

        if path:
            read.append(build(path, clock)[1])

    with clock:
        clock.time_op(work)
        while len(clock.durs) < 5:
            time.sleep(clock.interval)
    return {"read_s": sum(read), "stolen_s": clock.stolen_s, "refs": clock.durs}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        out = setup(argv[1] if len(argv) > 1 else None)
    elif mode == "ladder":
        out = ladder(argv[1], float(argv[2]), argv[3] == "1", int(argv[4]))
    elif mode == "census":
        out = census(argv[1], argv[2] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(out, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
