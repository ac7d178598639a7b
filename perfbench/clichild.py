"""One fresh `commdist` command-line call, timed from inside the process.

    clichild.py <spawned-at> <timeout-s> <trace 0|1> -- <commdist arguments...>

It imports commdist.cli and runs ``cli.main`` on the arguments, which is
what the ``commdist`` console script does, with the reference loop armed from
the first line.  The command's own output goes to stdout unchanged; the last
line of stderr is ``PERFBENCH {json}`` with the child's timings, its peak
RSS and, when traced, its per-layer spans.  A call that outlives the timeout
is interrupted and reported with ``"timeout": true``.  ``spawned-at`` is the
parent's time.perf_counter() just before it started this process (the clock
is system-wide), so interpreter start-up can be told apart.
"""

import time

T_ENTRY = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from refclock import OpTimeout, RefClock  # noqa: E402


def main() -> int:
    spawned_at, timeout, trace = float(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    clock = RefClock()
    state = {}
    buf = io.StringIO()

    def run():
        import commdist.cli as cli

        state["ready"] = time.perf_counter()
        state["stolen_at_ready"] = clock.stolen_s
        if trace:
            from tracing import Tracer

            state["tracer"] = tracer = Tracer(stolen=lambda: clock.stolen_s)
            tracer.install()
        real, sys.stdout = sys.stdout, buf
        try:
            state["main_start"] = time.perf_counter()
            state["stolen_at_main"] = clock.stolen_s
            return cli.main(argv)
        finally:
            sys.stdout = real
            state["main_end"] = time.perf_counter()
            state["stolen_at_end"] = clock.stolen_s

    with clock:
        code, raw, span = clock.time_op(run, timeout=timeout)
        while len(clock.durs) < 5:  # at least a few speed samples, even for quick calls
            time.sleep(clock.interval)
    out = buf.getvalue()
    sys.stdout.write(out)
    sys.stdout.flush()
    factor = clock.speed_near(T_ENTRY, time.perf_counter())
    info = {
        "timeout": isinstance(code, OpTimeout),
        "exit": None if isinstance(code, OpTimeout) else code,
        "factor": factor,
        "stolen_s": clock.stolen_s,
        "startup_s": (state.get("ready", span[1]) - spawned_at - state.get("stolen_at_ready", 0.0)),
        "main_s": state.get("main_end", span[1]) - state.get("main_start", span[1])
        - (state.get("stolen_at_end", 0.0) - state.get("stolen_at_main", 0.0)),
        "output_bytes": len(out.encode()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace and "tracer" in state:
        state["tracer"].uninstall()
        info["layers"] = state["tracer"].metrics(factor)
        info["table"] = state["tracer"].table(factor)
    sys.stderr.write("PERFBENCH " + json.dumps(info) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
