"""Per-stage memory and time of one verify run: tracemalloc peaks, seconds and ru_maxrss.

Runs harness.run_single twice, serially, at one energy and seed on the
desk plan's fields (plans/desk.json with its energies replaced by the one
asked for): once untraced in a fresh process, then under tracemalloc in
this one.  Each stage is wrapped where run_single reaches it (the names
harness bound, doubling's lower_bound_assembly inside doubling_stage, and
the CertifiedMasses band and extreme methods); for each stage the script
prints the calls made, the seconds they took in the untraced run, and the
largest traced peak of one call, above the memory traced at its start and
in total.  A stage inside another (ratios_in_band inside check_theorem_1,
lower_bound_assembly inside doubling_stage) counts in both.

The run_single line is the whole run; the last lines give two ru_maxrss: this
process's, which tracemalloc's bookkeeping inflates, and that of the
untraced run_single in a fresh process, the number to compare with a
memory target.  The seconds are wall time from time.perf_counter, summed
over a stage's calls; the fresh process pays each first call's warm-up
(the per-process area integrals, numpy's first calls).

Run: python scripts/stage_memory.py --energy 27625 --seed 0
"""

import argparse
import json
import multiprocessing
import resource
import time
import tracemalloc
from pathlib import Path

from torusnodal import doubling, harness
from torusnodal.ballstats import CertifiedMasses

DESK_PLAN = Path(__file__).resolve().parents[1] / "plans" / "desk.json"

STAGES = ("torus_integral", "sample_grid", "extract_nodal", "sse_scan", "build_cover",
          "ball_table", "check_theorem_1", "integrate_over_nodal", "check_theorem_2",
          "replicate_bound_chain", "doubling_stage", "growth_report", "render_svg")
DOUBLING_STAGES = ("lower_bound_assembly",)
METHODS = ("extreme_ratios", "ratios_in_band")


def desk_plan(energy: int) -> harness.ExperimentPlan:
    fields = json.loads(DESK_PLAN.read_text())
    fields["energies"] = [energy]
    return harness.plan_from_json(json.dumps(fields))


def wrap_stages(wrap) -> None:
    """Replace every stage by wrap(name, stage) where run_single looks it up."""
    owners = ([(harness, name) for name in STAGES] + [(doubling, name) for name in DOUBLING_STAGES]
              + [(CertifiedMasses, name) for name in METHODS])
    for owner, name in owners:
        setattr(owner, name, wrap(name, getattr(owner, name)))


class StageSeconds:
    """Wall seconds per stage, summed over its calls."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return timed


def run_untraced(energy: int, seed: int, conn) -> None:
    """One timed, untraced run_single; sends its stage seconds through conn."""
    timer = StageSeconds()
    wrap_stages(timer.wrap)
    timer.wrap("run_single", harness.run_single)(desk_plan(energy), energy, seed)
    conn.send(timer.seconds)
    conn.close()


class StagePeaks:
    """Largest (above start, total) traced peak per stage, folding nested calls outward."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.peaks: dict[str, tuple[int, int]] = {}
        self.stack: list[list[int]] = []  # per open call: [start, peak so far]

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._fold()
            start = tracemalloc.get_traced_memory()[0]
            self.stack.append([start, start])
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                _, peak = self.stack.pop()
                above, total = self.peaks.get(name, (0, 0))
                self.peaks[name] = (max(above, peak - start), max(total, peak))
                self.calls[name] = self.calls.get(name, 0) + 1
        return traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--energy", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    plan = desk_plan(args.energy)

    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=run_untraced, args=(args.energy, args.seed, sender))
    child.start()
    sender.close()
    try:
        seconds = receiver.recv()
    except EOFError:
        seconds = None
    child.join()
    if child.exitcode != 0 or seconds is None:
        raise SystemExit(f"untraced run_single exited with {child.exitcode}")
    untraced_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    stages = StagePeaks()
    wrap_stages(stages.wrap)
    tracemalloc.start()
    try:
        stages.wrap("run_single", harness.run_single)(plan, args.energy, args.seed)
    finally:
        tracemalloc.stop()

    mb = 1e6
    print(f"E={args.energy} seed={args.seed} grid={plan.grid_for(args.energy)} "
          f"(desk plan fields, serial)")
    print(f"{'stage':24s} {'calls':>5s} {'seconds':>8s} {'above start MB':>15s} {'total MB':>9s}")
    for name, (above, total) in stages.peaks.items():
        print(f"{name:24s} {stages.calls[name]:5d} {seconds[name]:8.4f} {above / mb:15.2f} "
              f"{total / mb:9.2f}")
    print(f"ru_maxrss, this traced process: "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    print(f"ru_maxrss, one untraced run_single in a fresh process: {untraced_rss:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
