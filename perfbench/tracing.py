"""Spans around the public functions of commdist, recorded from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
module that holds it by name (``graph`` and ``census`` import
``lift_rows_raw`` and ``dist_le_2`` by name; ``distance()`` imports
``bfs_path`` at call time, so patching the ``graph`` attribute suffices), and
``uninstall()`` puts the originals back.  A span knows its parent, so a
layer's self time is its time minus that of the spans it caused.  Spans are
folded into per-name totals as they close, which keeps a census pass of a
few hundred thousand calls small in memory.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

RUNGS = (
    "equal",
    "scalar-convention",
    "commuting",
    "rank-criterion",
    "two-by-two-dichotomy",
    "bfs",
    "pc-chain",
    "pc-scalar-side",
    "pc-none",
    "pc-unknown",
    "pc-cap-exceeded",
)
RREF_KINDS = ("gf2", "prime", "ext", "qq")

# Per-layer metric names as BENCHMARK.json lists them.
CALL_SPANS = (
    [f"matrix.rref.{k}" for k in RREF_KINDS]
    + ["matrix.matmul", "commute.lift", "commute.dist_le_2", "commute.pc_search", "graph.bfs",
       "graph.restricted_le_3"]
)
TIME_ONLY_SPANS = (
    "commute.idempotent_pool",
    "graph.bfs.first",
    "graph.components",
    "graph.diameter",
    "census.commuting_pairs",
    "census.dist_le_2",
    "census.derogatory",
    "census.zi_pairs",
    "field.ops_first",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for name in CALL_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out.append(("matrix.rref.cells", "count"))
    for rung in RUNGS:
        out += [(f"commute.rung.{rung}.count", "count"), (f"commute.rung.{rung}.s", "s")]
    out += [(f"{name}.s", "s") for name in TIME_ONLY_SPANS]
    out += [("census.self.s", "s"), ("cli.startup.s", "s"), ("cli.main.s", "s"),
            ("cli.output_bytes", "bytes"), ("trace.overhead_pct", "%")]
    return out


def _rref_kind(spec) -> str:
    if spec.kind == "rationals":
        return "qq"
    if spec.kind == "prime":
        return "gf2" if spec.p == 2 else "prime"
    return "ext"


class Tracer:
    """Folds spans into calls, total and self seconds per name.

    ``stolen`` returns the seconds the reference loop has taken so far in
    this process; span times exclude them.
    """

    def __init__(self, stolen=lambda: 0.0):
        self.stolen = stolen
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cells = 0
        self._stack: list[list] = []  # [name, child seconds]
        self._bfs_seen: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.total.clear()
        self.self_s.clear()
        self.cells = 0

    def _span(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter() - self.stolen()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - self.stolen() - t0
                self._stack.pop()
            if after is not None:
                frame[0] = after(result, name)
            name = frame[0]
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            return result

        return wrapper

    def _patch(self, modules, attr: str, wrapper):
        for mod in modules:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def install(self):
        from commdist import census, commute, field, graph, matrix

        def fixed(name):
            return lambda args: name

        def rref_name(args):
            rows = args[1]
            self.cells += len(rows) * (len(rows[0]) if rows else 0)
            return f"matrix.rref.{_rref_kind(args[0])}"

        def bfs_name(args):
            key = (args[0].spec, args[0].nrows)
            if key in self._bfs_seen:
                return "graph.bfs"
            self._bfs_seen.add(key)
            return "graph.bfs.first"

        def rung(result, name):
            return f"commute.rung.{result.decided_by}"

        def wrap(modules, attr, name_of, after=None):
            self._patch(modules, attr, self._span(getattr(modules[0], attr), name_of, after))

        wrap([matrix], "rref_raw", rref_name)
        wrap([matrix.ExactMatrix], "__matmul__", fixed("matrix.matmul"))
        wrap([commute, graph, census], "lift_rows_raw", fixed("commute.lift"))
        wrap([commute, census], "dist_le_2", fixed("commute.dist_le_2"))
        wrap([commute], "pc_search", fixed("commute.pc_search"))
        wrap([commute, census], "idempotent_pool", fixed("commute.idempotent_pool"))
        wrap([commute], "distance", fixed("commute.distance"), rung)
        wrap([graph], "bfs_path", bfs_name)
        wrap([graph], "restricted_distance_le_3", fixed("graph.restricted_le_3"))
        wrap([graph], "components", fixed("graph.components"))
        wrap([graph], "diameter", fixed("graph.diameter"))
        wrap([census], "count_commuting_pairs", fixed("census.commuting_pairs"))
        wrap([census], "count_dist_le_2", fixed("census.dist_le_2"))
        wrap([census], "derogatory_count", fixed("census.derogatory"))
        wrap([census], "zi_pair_census", fixed("census.zi_pairs"))
        # Only cache misses of FieldSpec.ops() are timed: a fresh cache over the
        # timed constructor, with the extension tables it reads cleared as well.
        build = self._span(field._ops_for.__wrapped__, fixed("field.ops_first"))
        field._ext_tables.cache_clear()
        self._patch([field], "_ops_for", functools.lru_cache(maxsize=None)(build))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def metrics(self, factor: float) -> dict[str, float]:
        """Per-layer values; seconds are multiplied by `factor`."""
        out: dict[str, float] = {}
        for name in CALL_SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.s"] = self.total.get(name, 0.0) * factor
        out["matrix.rref.cells"] = self.cells
        for r in RUNGS:
            out[f"commute.rung.{r}.count"] = self.calls.get(f"commute.rung.{r}", 0)
            out[f"commute.rung.{r}.s"] = self.total.get(f"commute.rung.{r}", 0.0) * factor
        for name in TIME_ONLY_SPANS:
            out[f"{name}.s"] = self.total.get(name, 0.0) * factor
        out["census.self.s"] = sum(v for k, v in self.self_s.items() if k.startswith("census.")) * factor
        return out

    def table(self, factor: float) -> dict[str, dict]:
        """Every span name with calls, total and self seconds (for the run file)."""
        return {
            k: {"calls": self.calls[k], "s": self.total[k] * factor, "self_s": self.self_s[k] * factor}
            for k in sorted(self.calls)
        }
