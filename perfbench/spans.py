"""Span recorder that traces torusnodal from outside the package.

install() replaces each traced public function with a wrapper, in every
torusnodal module that bound it (harness, doubling, cli and the package
__init__ use from-imports, so patching the defining module alone would
miss their calls).  A wrapper records one span per call: an id, its
parent span, the function name, start and end on the monotonic clock, and
optional counts taken from the arguments or the result.  Spans stay in
memory; pool workers forked during a traced pass append theirs to a file
per worker process whenever a top-level call returns, and the pass reads
those files back once the pool has shut down.

A span's self time is its duration minus the durations of its children in
the same process.  Calls inside one process nest strictly, so children
never overlap each other and their sum is the part of the parent they
cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import time
from collections import defaultdict

# Stage names of the per-energy table, keyed by traced function.
STAGES = {
    "sample_grid": "sample", "extract_nodal": "extract", "sse_scan": "sse_scan",
    "build_cover": "cover", "check_theorem_1": "theorem1",
    "check_theorem_2": "theorem2", "replicate_bound_chain": "chain",
    "classify_doubling": "doubling", "lower_bound_assembly": "assembly",
    "growth_report": "growth",
}

ENERGIES = (25, 50, 65, 325, 1105)

# (metric name, unit) for every per-layer metric, in report order.
PER_LAYER = [
    ("eigenbasis.sample_grid.s", "s"),
    ("eigenbasis.grid_points", "count"),
    ("nodal.clip_to_ball.s", "s"),
    ("nodal.clip_to_ball.calls", "count"),
    ("nodal.clip_to_ball.pieces", "count"),
    ("nodal.clip_to_ball.useful_frac", "ratio"),
    ("nodal.extract_nodal.s", "s"),
    ("nodal.segments", "count"),
    ("nodal.integrate_over_nodal.s", "s"),
    ("nodal.io.s", "s"),
    ("nodal.io.bytes", "bytes"),
    ("ballstats.mass_in_ball.s", "s"),
    ("ballstats.mass_in_ball.calls", "count"),
    ("ballstats.sse_scan.s", "s"),
    ("covering.build_cover.s", "s"),
    ("covering.build_cover.calls", "count"),
    ("covering.accept_frac", "ratio"),
    ("doubling.classify_doubling.s", "s"),
    ("doubling.lower_bound_assembly.s", "s"),
    ("growth.growth_report.s", "s"),
    ("harness.run_single.s", "s"),
    *[(f"harness.run_single.E{e}.s", "s") for e in ENERGIES],
    ("harness.check_theorem_1.s", "s"),
    ("harness.check_theorem_2.s", "s"),
    ("harness.replicate_bound_chain.s", "s"),
    ("harness.control_run.s", "s"),
    ("harness.run_plan.self_s", "s"),
    ("harness.serialize.s", "s"),
    ("harness.pool.busy_frac", "ratio"),
    ("svgplot.render_svg.s", "s"),
    ("svgplot.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.count_mismatches", "count"),
]

# Counters that must repeat exactly between two traced passes of one input.
EXACT_COUNTS = (
    "eigenbasis.grid_points", "nodal.segments", "nodal.clip_to_ball.calls",
    "nodal.clip_to_ball.pieces", "ballstats.mass_in_ball.calls",
    "covering.build_cover.calls", "nodal.io.bytes", "svgplot.bytes",
    "cli.bytes_written", "trace.spans",
)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Recorder:
    """In-memory span store for one process; see the module docstring."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.root_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.base_depth = 0
        self.next_id = 0
        self.pools: list[dict] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The inherited stack stays: its top is the span that started the
        # pool, which becomes the parent of the worker's top-level spans.
        self.pid = os.getpid()
        self.spans = []
        self.pools = []
        self.base_depth = len(self.stack)

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, fn, counts=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (rec.pid, rec.next_id)
            rec.next_id += 1
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(sid)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                extra = (counts(args, kwargs, result)
                         if counts is not None and returned else None)
                rec.spans.append((sid, parent, name, t0, t1, extra))
                if rec.pid != rec.root_pid and len(rec.stack) == rec.base_depth:
                    rec._spill()

        return traced

    def pool_class(self, base):
        rec = self

        class TracedPool(base):
            """Process pool that records its wall time and its workers' CPU."""

            def __enter__(self):
                self._trace_start = (time.perf_counter(), _children_cpu())
                return super().__enter__()

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                t0, cpu0 = self._trace_start
                rec.pools.append({"wall_s": time.perf_counter() - t0,
                                  "worker_cpu_s": _children_cpu() - cpu0,
                                  "workers": self._max_workers})
                return out

        return TracedPool

    def collect(self) -> list[tuple]:
        """All spans of the pass: this process's plus every worker's."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.spill_dir)):
            if fname.startswith("spans-"):
                with open(os.path.join(self.spill_dir, fname)) as fh:
                    for line in fh:
                        sid, parent, *rest = json.loads(line)
                        spans.append((tuple(sid), tuple(parent) if parent else None,
                                      *rest))
        spans.sort(key=lambda s: (s[3], s[0]))
        return spans


def _candidates(r: float) -> int:
    from torusnodal.covering import CANDIDATE_SPACING_FACTOR
    return math.ceil(CANDIDATE_SPACING_FACTOR / r) ** 2


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# module -> [(function, counts hook or None)]
TRACED = {
    "eigenbasis": [("sample_grid", lambda a, k, res: {"grid_points": res.values.size})],
    "nodal": [
        ("extract_nodal", lambda a, k, res: {"segments": res.count}),
        ("clip_to_ball", lambda a, k, res: {"pieces": len(res[0]),
                                            "segments_in": a[0].count}),
        ("integrate_over_nodal", None),
        ("nodal_to_csv",
         lambda a, k, res: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
        ("nodal_from_csv",
         lambda a, k, res: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ],
    "ballstats": [("mass_in_ball", None), ("sse_scan", None)],
    "covering": [("build_cover", lambda a, k, res: {
        "balls": len(res.centers), "candidates": _candidates(_arg(a, k, 0, "r"))})],
    "doubling": [("classify_doubling", None), ("lower_bound_assembly", None)],
    "growth": [("growth_report", None)],
    "harness": [
        ("run_single", lambda a, k, res: {"energy": _arg(a, k, 1, "energy")}),
        ("check_theorem_1", None), ("check_theorem_2", None),
        ("replicate_bound_chain", None), ("control_run", None), ("run_plan", None),
        ("report_to_json", None), ("runs_to_csv", None),
    ],
    "svgplot": [("render_svg", lambda a, k, res: {"bytes": len(res.encode())})],
    "cli": [("main", None)],
}


def install(spill_dir: str) -> Recorder:
    """Wrap every traced function wherever torusnodal bound it."""
    import importlib
    import sys

    from torusnodal import cli, harness  # noqa: F401  (cli must be loaded to be patched)

    rec = Recorder(spill_dir)
    modules = [m for name, m in sys.modules.items()
               if name == "torusnodal" or name.startswith("torusnodal.")]
    for mod_name, funcs in TRACED.items():
        home = importlib.import_module(f"torusnodal.{mod_name}")
        for func_name, counts in funcs:
            original = getattr(home, func_name)
            wrapped = rec.wrap(func_name, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    harness.ProcessPoolExecutor = rec.pool_class(harness.ProcessPoolExecutor)
    return rec


def self_times(spans) -> dict:
    """Self seconds per span id; children are subtracted within a process."""
    child_sum: dict = defaultdict(float)
    for sid, parent, _name, t0, t1, _extra in spans:
        if parent is not None and parent[0] == sid[0]:
            child_sum[parent] += t1 - t0
    return {s[0]: (s[4] - s[3]) - child_sum[s[0]] for s in spans}


def summarize(spans, pools, root_pid: int, wall_s: float,
              bytes_written: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its per-energy stage table."""
    selfs = self_times(spans)
    by_name: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    extra: dict = defaultdict(float)
    per_energy: dict = defaultdict(float)
    for sid, _parent, name, _t0, _t1, ext in spans:
        by_name[name] += selfs[sid]
        calls[name] += 1
        if name == "run_single":
            per_energy[ext["energy"]] += selfs[sid]
        elif ext:
            for key, value in ext.items():
                extra[f"{name}.{key}"] += value

    root_self = sum(v for sid, v in selfs.items() if sid[0] == root_pid)
    pool_wall = sum(p["wall_s"] * p["workers"] for p in pools)
    pool_cpu = sum(p["worker_cpu_s"] for p in pools)

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "eigenbasis.sample_grid.s": by_name["sample_grid"],
        "eigenbasis.grid_points": extra["sample_grid.grid_points"],
        "nodal.clip_to_ball.s": by_name["clip_to_ball"],
        "nodal.clip_to_ball.calls": calls["clip_to_ball"],
        "nodal.clip_to_ball.pieces": extra["clip_to_ball.pieces"],
        "nodal.clip_to_ball.useful_frac": frac(extra["clip_to_ball.pieces"],
                                               extra["clip_to_ball.segments_in"]),
        "nodal.extract_nodal.s": by_name["extract_nodal"],
        "nodal.segments": extra["extract_nodal.segments"],
        "nodal.integrate_over_nodal.s": by_name["integrate_over_nodal"],
        "nodal.io.s": by_name["nodal_to_csv"] + by_name["nodal_from_csv"],
        "nodal.io.bytes": extra["nodal_to_csv.bytes"] + extra["nodal_from_csv.bytes"],
        "ballstats.mass_in_ball.s": by_name["mass_in_ball"],
        "ballstats.mass_in_ball.calls": calls["mass_in_ball"],
        "ballstats.sse_scan.s": by_name["sse_scan"],
        "covering.build_cover.s": by_name["build_cover"],
        "covering.build_cover.calls": calls["build_cover"],
        "covering.accept_frac": frac(extra["build_cover.balls"],
                                     extra["build_cover.candidates"]),
        "doubling.classify_doubling.s": by_name["classify_doubling"],
        "doubling.lower_bound_assembly.s": by_name["lower_bound_assembly"],
        "growth.growth_report.s": by_name["growth_report"],
        "harness.run_single.s": by_name["run_single"],
        **{f"harness.run_single.E{e}.s": per_energy[e] for e in ENERGIES},
        "harness.check_theorem_1.s": by_name["check_theorem_1"],
        "harness.check_theorem_2.s": by_name["check_theorem_2"],
        "harness.replicate_bound_chain.s": by_name["replicate_bound_chain"],
        "harness.control_run.s": by_name["control_run"],
        "harness.run_plan.self_s": by_name["run_plan"],
        "harness.serialize.s": by_name["report_to_json"] + by_name["runs_to_csv"],
        "harness.pool.busy_frac": frac(pool_cpu, pool_wall),
        "svgplot.render_svg.s": by_name["render_svg"],
        "svgplot.bytes": extra["render_svg.bytes"],
        "cli.main.self_s": by_name["main"],
        "cli.bytes_written": bytes_written,
        "trace.wall_s": wall_s,
        "trace.self_sum_frac": frac(root_self, wall_s),
        "trace.spans": len(spans),
    }
    return m, stage_table(spans)


def stage_table(spans) -> dict:
    """Seconds per stage and energy, each stage span counted in full."""
    by_id = {s[0]: s for s in spans}
    table: dict = {}
    for sid, parent, name, t0, t1, _ext in spans:
        stage = STAGES.get(name)
        if stage is None:
            continue
        # Attribute the stage to the run_single or control_run it ran under.
        energy, p = "outside_runs", parent
        while p is not None and p in by_id:
            if by_id[p][2] == "run_single":
                energy = str(by_id[p][5]["energy"])
                break
            if by_id[p][2] == "control_run":
                energy = "control"
                break
            p = by_id[p][1]
        row = table.setdefault(energy, {})
        row[stage] = row.get(stage, 0.0) + (t1 - t0)
    for sid, parent, name, t0, t1, ext in spans:
        if name == "run_single":
            row = table.setdefault(str(ext["energy"]), {})
            row["runs"] = row.get("runs", 0) + 1
    return table
