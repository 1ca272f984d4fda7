"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/passrun.py --workload NAME --seed N --dir DIR [--trace]
    python3 perfbench/passrun.py --workload NAME --seed N --setup

A pass imports torusnodal, calls torusnodal.cli.main in-process for each
operation of the workload, and writes DIR/result.json: the pass's wall
seconds (the sum over its cli.main calls), CPU seconds and peak RSS of
this process and its pool workers, and per operation the exit code, failed
gates and sha256 of its stdout and of each file it wrote.  With --trace
the pass runs under the span recorder and result.json also holds the
per-layer metrics; the spans go to DIR/trace.json.

With --setup it only gets ready (imports torusnodal and validates the
workload's plan, or builds the CLI parser for the tour), prints the
monotonic clock reading at that moment, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _files(top: str) -> set[str]:
    """Files under top, except the tracer's spill directory."""
    out = set()
    for base, dirs, names in os.walk(top):
        dirs[:] = [d for d in dirs if d != "spill"]
        for n in names:
            out.add(os.path.relpath(os.path.join(base, n), top))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failed_gates(report_path: str) -> list[str]:
    with open(report_path) as fh:
        verdicts = json.load(fh)["verdicts"]
    return sorted(k for k, v in verdicts.items() if v["pass"] is False)


def get_ready(name: str, seed: int):
    """Import the package and validate the workload's input."""
    from torusnodal import cli, harness

    if name in workloads.SURVEYS:
        harness.plan_from_json(workloads.plan_text(name, seed))
    else:
        cli.build_parser()
    return cli


def run_pass(name: str, seed: int, pass_dir: str, trace: bool) -> dict:
    cli = get_ready(name, seed)
    import numpy
    os.makedirs(pass_dir)
    os.chdir(pass_dir)
    if name in workloads.SURVEYS:
        with open("plan.json", "w") as fh:
            fh.write(workloads.plan_text(name, seed))
    rec = None
    if trace:
        os.mkdir("spill")
        rec = spans.install(os.path.abspath("spill"))

    ops = []
    cpu0 = _cpu()
    for label, argv in workloads.operations(name, seed):
        before = _files(".")
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        ops.append({"op": label, "exit": code, "seconds": seconds,
                    "stdout": buf.getvalue(),
                    "files": sorted(_files(".") - before)})
    cpu_s = _cpu() - cpu0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall_s = sum(op["seconds"] for op in ops)

    bytes_written = 0
    for op in ops:
        digests = {"stdout": _sha(op["stdout"].encode())}
        for f in op["files"]:
            with open(f, "rb") as fh:
                data = fh.read()
            digests[f] = _sha(data)
            bytes_written += len(data)
        op["digests"] = digests
        op["failed_gates"] = (_failed_gates(os.path.join("out", "report.json"))
                              if op["op"] == "verify" and op["exit"] in (0, 2) else [])
        if op["exit"] == 0:
            del op["stdout"]

    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss_kb / 1024.0,
              "numpy": numpy.__version__, "ops": ops}
    if rec is not None:
        all_spans = rec.collect()
        layers, stages = spans.summarize(all_spans, rec.pools, rec.root_pid,
                                         wall_s, bytes_written)
        result["layers"] = layers
        with open("trace.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "wall_s": wall_s,
                       "stages": stages, "pools": rec.pools, "layers": layers,
                       "span_fields": ["id", "parent", "name", "start", "end", "counts"],
                       "spans": all_spans}, fh)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()
    if args.setup:
        get_ready(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0
    result = run_pass(args.workload, args.seed, args.dir, args.trace)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
