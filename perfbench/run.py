"""Benchmark of the torusnodal survey: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every metric of every workload
    python3 perfbench/run.py --check-baseline   # desk plan vs its frozen verdicts

Run it from anywhere inside a checkout of the repository; it uses the
checkout's src/ and plans/ and writes under .bench_work/ at its root.

A run first times SETUP_PROBES fresh interpreters from start to ready
(setup_s, the median).  It then repeats passes of the workload until
--seconds have passed and at least two passes are done, each in a fresh
interpreter (perfbench/passrun.py), so imports and peak RSS never carry
over between passes.  With --trace 0 it reports wall_s and cpu_s of the
slowest pass of the run, the median peak_rss_mb, setup_s and ok_frac.
The slowest pass, not the median: on a shared two-core host, identical
tour passes took either 2.48-2.60 s or anything from 1.5 to 2.2 s, in
phases of tens of seconds.  The slowest pass of a run lands on the tight
slow cluster, while a mean or median follows how much of the run fell in
the fast phases.

With --trace 1 it alternates untraced and traced passes (at least one
and two) and reports the per-layer metrics of the traced passes, their
median wall time and the tracing overhead (traced minus untraced wall
time).  Two traced passes must give identical counts; any difference is
reported as nondeterminism and makes the run incorrect.

Every operation (one verify, or one tour command) is checked: exit code 0,
no gate returning FAIL, and output bytes equal to the reference.  The
reference is the committed digests.json for seed 0; for other seeds it is
the first pass of the run, and for desk-2w it is a serial desk pass.
ok_frac is the share of operations that passed these checks.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The spans of the last traced pass
are kept in .bench_work/trace-NAME-seedN.json and every run's figures in
.bench_work/result-NAME-seedN-traceT.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PASSRUN = os.path.join(HERE, "passrun.py")
WORK = os.path.join(workloads.ROOT, ".bench_work")
BASELINE = os.path.join(workloads.ROOT, "tests", "baselines", "desk_aggregates.json")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_frac", "ratio")]
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args: list[str], timeout: float) -> str:
    """Run passrun.py in its own process group; return its stdout."""
    proc = subprocess.Popen([sys.executable, PASSRUN, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass {args} exceeded {timeout:.0f} s") from None
    finally:
        # Pool workers orphaned by a crashed pass share its process group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{err}")
    return out


def setup_seconds(name: str, seed: int) -> float:
    t0 = time.perf_counter()
    out = _spawn(["--workload", name, "--seed", str(seed), "--setup"], 60.0)
    return float(out.split()[-1]) - t0


def one_pass(name: str, seed: int, pass_dir: str, trace: bool, timeout: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--dir", pass_dir]
    _spawn(args + (["--trace"] if trace else []), timeout)
    with open(os.path.join(pass_dir, "result.json")) as fh:
        return json.load(fh) | {"dir": pass_dir}


def environment(seed: int, numpy_version: str) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": sys.version.split()[0], "numpy": numpy_version, "seed": seed}
    try:
        out = subprocess.run(["lscpu", "-J"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        fields = {f["field"].rstrip(":"): f["data"] for f in json.loads(out)["lscpu"]}
    except (OSError, subprocess.SubprocessError, ValueError, KeyError):
        fields = {}
    for key in ("Model name", "L2 cache", "L3 cache"):
        env[key.lower().replace(" ", "_")] = fields.get(key, "unknown")
    return env


def check_checkout() -> None:
    for path in (os.path.join(workloads.ROOT, "src", "torusnodal", "cli.py"),
                 workloads.DESK_PLAN):
        if not os.path.isfile(path):
            raise BenchError(f"not a torusnodal checkout: {path} is missing")


class Checks:
    """Counts operations and the ones that failed a check."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result: dict) -> None:
        if self.reference is None:
            self.reference = {op["op"]: op["digests"] for op in result["ops"]}
        for op in result["ops"]:
            self.attempted += 1
            bad = []
            if op["exit"] != 0:
                bad.append(f"exit code {op['exit']}: {op.get('stdout', '')[-2000:]}")
            if op["failed_gates"]:
                bad.append(f"gates failed: {', '.join(op['failed_gates'])}")
            if self.reference.get(op["op"]) != op["digests"]:
                bad.append("output bytes differ from the reference")
            if bad:
                self.failed += 1
                self.problems.append(f"{op['op']}: {'; '.join(bad)}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    check_checkout()
    start = time.perf_counter()
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    setup = [setup_seconds(name, seed) for _ in range(SETUP_PROBES)]
    checks = Checks(workloads.committed_digests(name, seed))
    if name in workloads.SAME_OUTPUT_AS and checks.reference is None:
        checks.add(one_pass(workloads.SAME_OUTPUT_AS[name], seed,
                            os.path.join(run_dir, "reference"), False, remaining()))

    plain: list[dict] = []
    traced: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        use_trace = trace and bool(plain) and (len(traced) < 2
                                               or len(traced) <= len(plain))
        pass_dir = os.path.join(run_dir, f"pass{len(plain) + len(traced)}")
        t0 = time.perf_counter()
        result = one_pass(name, seed, pass_dir, use_trace, remaining())
        checks.add(result)
        (traced if use_trace else plain).append(result)
        took = time.perf_counter() - t0
        # Stop after the minimum passes (two untraced, or one untraced and two
        # traced) once the time is up, or when another pass would not fit.
        if len(plain) >= 2 or (trace and plain and len(traced) >= 2):
            if time.perf_counter() - loop_start >= seconds or took > remaining() - 5.0:
                break

    correct = checks.failed == 0
    if trace:
        metrics = {key: statistics.median([p["layers"][key] for p in traced])
                   for key, _unit in spans.PER_LAYER if key in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median([p["wall_s"] for p in traced])
                                       - statistics.median([p["wall_s"] for p in plain]))
        mismatched = [key for key in spans.EXACT_COUNTS
                      if len({p["layers"][key] for p in traced}) > 1]
        metrics["trace.count_mismatches"] = len(mismatched)
        if mismatched:
            correct = False
            checks.problems.append("nondeterminism: two traced passes of the same "
                                   f"input counted differently: {', '.join(mismatched)}")
        units = spans.PER_LAYER
        shutil.copy(os.path.join(traced[-1]["dir"], "trace.json"),
                    os.path.join(WORK, f"trace-{name}-seed{seed}.json"))
    else:
        metrics = {key: max(p[key] for p in plain) for key in ("wall_s", "cpu_s")}
        metrics["peak_rss_mb"] = statistics.median([p["peak_rss_mb"] for p in plain])
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_frac"] = 1.0 - checks.failed / checks.attempted
        units = END_TO_END

    out = {
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {key: {"value": int(metrics[key]) if unit in ("count", "bytes")
                          else metrics[key], "unit": unit} for key, unit in units},
    }
    record = {"workload": name, "seed": seed, "trace": trace,
              "environment": environment(seed, plain[0]["numpy"]),
              "result": out, "problems": checks.problems, "setup_s": setup,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                         | {"traced": p in traced} for p in plain + traced],
              "digests": {op["op"]: op["digests"] for op in plain[0]["ops"]}}
    with open(os.path.join(WORK, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def show(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"passes={len(record['passes'])} environment={json.dumps(record['environment'])}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for key, metric in record["result"]["metrics"].items():
        print(f"{record['workload']:8s} {key:34s} {metric['value']!r} {metric['unit']}")


def _same(got, want) -> bool:
    """Equal, except that floats may differ by last-bit rounding: they are
    compared to 1e-12 relative, far tighter than the acceptance tests' 1e-6."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


def check_baseline() -> dict:
    """The unchanged desk plan (20 seeds per energy, 2 workers) against the
    verdicts and control frozen in tests/baselines/desk_aggregates.json."""
    check_checkout()
    pass_dir = os.path.join(WORK, "baseline")
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    result = one_pass("baseline", workloads.DEFAULT_SEED, pass_dir, False, 900.0)
    checks = Checks(None)
    checks.add(result)
    with open(os.path.join(pass_dir, "out", "report.json")) as fh:
        report = json.load(fh)
    with open(BASELINE) as fh:
        frozen = json.load(fh)
    for key, want in frozen.items():
        got = report["control"] if key == "control" else report["verdicts"].get(key)
        if not _same(got, want):
            checks.problems.append(f"{key}: {got!r} != frozen {want!r}")
        elif got != want:
            print(f"# note: {key} equals the frozen value only up to last-bit rounding")
    ok = not checks.problems
    shutil.rmtree(pass_dir, ignore_errors=True)
    for problem in checks.problems:
        print(f"# problem: {problem}")
    print(f"# baseline: {len(frozen)} frozen entries, "
          f"{'all equal' if ok else 'MISMATCH'}; wall_s={result['wall_s']!r}")
    return {"correct": ok, "attempted": 1, "failed": int(not ok),
            "metrics": {"wall_s": {"value": result["wall_s"], "unit": "s"}}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-baseline", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative: it becomes the plan's base_seed")
    try:
        if args.check_baseline:
            out = check_baseline()
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        if args.workload is None:
            ap.error("--workload or --check-baseline is required")
        if args.workload == "all":
            ok = True
            for name in workloads.NAMES:
                for trace in (False, True):
                    record = run(name, args.seed, args.seconds, trace)
                    show(record)
                    ok = ok and record["result"]["correct"]
            return 0 if ok else 1
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    show(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
