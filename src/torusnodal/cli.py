"""Command-line front door for the torus nodal-set toolkit.

Commands: modes, gen, nodal, ballstats, cover, doubling, growth, verify,
plot.  Every command is deterministic given its flags; exit code 0 means
success, 1 means an input or validation error, 2 means a verification
gate failed or none was judged.  Floating-point values are printed and
written via repr, so every number round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .ballstats import report_summary_json, report_to_csv, scale_radius, sse_scan
from .covering import build_cover, family_to_csv, family_to_json
from .doubling import (DEFAULT_A1, DEFAULT_A2, doubling_stage, report_to_json as doubling_json,
                       require_doubling_constants, require_resolved_doubling)
from .eigenbasis import (EigenfunctionSpec, enumerate_modes, random_eigenfunction,
                         require_sampling_grid, sample_grid, spec_from_json, spec_to_json)
from .errors import EmptySpectrum, TorusNodalError
from .growth import growth_report
from .harness import (ExperimentPlan, plan_from_json, report_to_json, require_threads, run_plan,
                      runs_to_csv)
from .nodal import extract_nodal, nodal_from_csv, nodal_to_csv
from .svgplot import balls_from_csv, render_svg


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract: usage problems are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, checked before any work starts."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _spec_and_grid(args) -> tuple[EigenfunctionSpec, str, int]:
    """The eigenfunction (from a spec file or energy and seed), its file stem and its grid."""
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            spec = spec_from_json(fh.read())
        stem = os.path.splitext(os.path.basename(args.spec))[0]
    elif getattr(args, "energy", None) is None:
        raise ValueError("provide either --spec FILE or --energy (with --seed)")
    else:
        spec = random_eigenfunction(args.energy, args.seed)
        stem = f"E{args.energy}_seed{args.seed}"
    # Only a missing --grid means the plan grid rule (at the class defaults);
    # require_sampling_grid rejects any grid too coarse, 0 included.
    n = args.grid if args.grid is not None else ExperimentPlan.grid_for(ExperimentPlan, spec.energy)
    return spec, stem, n


def cmd_modes(args) -> int:
    try:
        modes = enumerate_modes(args.energy)
    except EmptySpectrum:
        print(f"[modes] empty spectrum at E={args.energy}")
        return 0
    for mx, my in modes:
        print(f"{mx},{my}")
    lam = 2.0 * math.pi * math.sqrt(args.energy)
    print(f"[modes] E={args.energy} count={len(modes)} lambda={lam!r}")
    return 0


def cmd_gen(args) -> int:
    spec = random_eigenfunction(args.energy, args.seed)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"spec_E{args.energy}_seed{args.seed}.json")
    with open(path, "w") as fh:
        fh.write(spec_to_json(spec))
    print(f"[gen] wrote {path} modes={len(spec.modes)} lambda={spec.lam!r}")
    return 0


def cmd_nodal(args) -> int:
    spec, stem, n = _spec_and_grid(args)
    nodal = extract_nodal(sample_grid(spec, n))  # the field is not held past extraction
    out = _ensure_out(args.out)
    path = os.path.join(out, f"nodal_{stem}_N{n}.csv")
    nodal_to_csv(nodal, path)
    yau = nodal.total_length / spec.lam if spec.lam > 0 else float("nan")
    print(f"[nodal] wrote {path} segments={nodal.count} "
          f"total_length={nodal.total_length!r} yau_ratio={yau!r}")
    return 0


def cmd_ballstats(args) -> int:
    spec, stem, n = _spec_and_grid(args)
    rho = None if args.radius is not None else args.rho
    # The scale rule rejects lam = 0 before sampling.
    r = args.radius if rho is None else scale_radius(spec.lam, rho)
    family = sse_scan(sample_grid(spec, n), r, seed=args.seed)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"ballstats_{stem}.csv")
    report_to_csv(family, path)
    print(f"[ballstats] wrote {path}")
    print(f"[ballstats] {report_summary_json(family, rho)}")
    return 0


def cmd_cover(args) -> int:
    family = build_cover(args.radius, args.seed, probe=args.probe)
    out = _ensure_out(args.out)
    base = os.path.join(out, f"cover_r{args.radius!r}_seed{args.seed}")
    family_to_csv(family, base + ".csv")
    with open(base + ".json", "w") as fh:
        fh.write(family_to_json(family))
    print(f"[cover] wrote {base}.csv count={family.count} "
          f"overlap_max={family.overlap_max} covers={family.covers}")
    return 0


def cmd_doubling(args) -> int:
    spec, stem, n = _spec_and_grid(args)
    require_doubling_constants(args.a1, args.a2)
    require_resolved_doubling(spec.lam, args.a1, n)
    field = sample_grid(spec, n)
    nodal = extract_nodal(field)
    report, assembly = doubling_stage(field, nodal, args.a1, args.a2, args.seed)
    total_length = nodal.total_length
    del nodal  # the JSON below measures every ball, the command's memory peak
    out = _ensure_out(args.out)
    path = os.path.join(out, f"doubling_{stem}.json")
    with open(path, "w") as fh:
        fh.write(doubling_json(report))
    print(f"[doubling] wrote {path} balls={len(report.centers)} "
          f"good_fraction={report.good_fraction!r} "
          f"sign_change={report.nodal_fraction_among_good!r} "
          f"assembled_lower_bound={assembly['assembled_lower_bound']!r} "
          f"total_length={total_length!r} "
          f"a3_hat={assembly['a3_hat']!r}")
    return 0


def cmd_growth(args) -> int:
    spec, stem, n = _spec_and_grid(args)
    scale_r = scale_radius(spec.lam, args.rho)  # rejects lam = 0 before the default tau
    tau = args.tau if args.tau is not None else spec.energy ** -0.5
    require_sampling_grid(spec.energy, n)
    report = growth_report(spec, scale_r, args.delta, tau)
    obj = {"E": spec.energy, **vars(report), "c7_values": report.c7_values.tolist()}
    text = json.dumps(obj, sort_keys=True, indent=1)
    if args.out:
        out = _ensure_out(args.out)
        path = os.path.join(out, f"growth_{stem}.json")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"[growth] wrote {path}")
    print(f"[growth] c7_max={report.c7_max!r} c9_hat={report.c9_hat!r} "
          f"strip_sup={report.strip_sup!r}")
    return 0


def cmd_verify(args) -> int:
    with open(args.plan) as fh:
        plan = plan_from_json(fh.read())
    require_threads(args.threads)
    out = _ensure_out(args.out)
    report = run_plan(plan, threads=args.threads,
                      progress=(lambda msg: print(f"[verify] {msg}"))
                      if args.progress else None)
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(report_to_json(report))
    with open(os.path.join(out, "runs.csv"), "w") as fh:
        fh.write(runs_to_csv(report))
    if plan.svg:
        for run in report.runs:
            path = os.path.join(out, f"run_E{run.energy}_seed{run.seed}.svg")
            with open(path, "w") as fh:
                fh.write(run.svg)
    for name in sorted(report.verdicts):
        v = report.verdicts[name]
        status = "skip" if v["pass"] is None else ("pass" if v["pass"] else "FAIL")
        if status == "FAIL":
            # The verdict's own fields; the limits are in the plan's tolerances.
            status += " " + json.dumps({k: x for k, x in v.items() if k != "pass"},
                                       sort_keys=True)
        print(f"[verify] {name}: {status}")
    if report.control is not None:
        print(f"[verify] control in_band_fraction="
              f"{report.control['in_band_fraction']!r} (expected to fail the band)")
    print(f"[verify] wrote {os.path.join(out, 'report.json')}")
    if report.all_pass:
        print("[verify] all gates pass")
        return 0
    judged = any(v["pass"] is not None for v in report.verdicts.values())
    print("[verify] gate failure" if judged else "[verify] no gate ran")
    return 2


def cmd_plot(args) -> int:
    nodal = nodal_from_csv(args.nodal)
    centers, radius = (None, None)
    if args.balls:
        centers, radius = balls_from_csv(args.balls)
    svg = render_svg(nodal, centers, radius)
    out_path = args.out or os.path.splitext(args.nodal)[0] + ".svg"
    with open(out_path, "w") as fh:
        fh.write(svg)
    print(f"[plot] wrote {out_path} segments={nodal.count}")
    return 0


def _add_spec_source(p: _Parser) -> None:
    p.add_argument("--spec", help="eigenfunction spec JSON file")
    p.add_argument("--energy", type=int, help="energy level E (with --seed)")
    p.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    p.add_argument("--grid", type=int, default=None,
                   help="grid resolution (default max(256, 16*ceil(sqrt(E))))")


def build_parser() -> _Parser:
    parser = _Parser(prog="torusnodal",
                     description="Nodal sets of torus eigenfunctions: "
                                 "extraction, statistics, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", parents=[], help="list lattice modes at an energy")
    p.add_argument("--energy", type=int, required=True)
    p.set_defaults(handler=cmd_modes)

    p = sub.add_parser("gen", help="generate a random eigenfunction spec")
    p.add_argument("--energy", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("nodal", help="extract the nodal set to CSV")
    _add_spec_source(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_nodal)

    p = sub.add_parser("ballstats", help="ball mass statistics")
    _add_spec_source(p)
    p.add_argument("--rho", type=float, default=0.5,
                   help="scale exponent: radius = lambda**(-rho)")
    p.add_argument("--radius", type=float, default=None,
                   help="fixed radius instead of the rho scale rule")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_ballstats)

    p = sub.add_parser("cover", help="maximal disjoint-ball cover")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--probe", type=int, default=512)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_cover)

    p = sub.add_parser("doubling", help="classify doubling balls")
    _add_spec_source(p)
    p.add_argument("--a1", type=float, default=DEFAULT_A1)
    p.add_argument("--a2", type=float, default=DEFAULT_A2)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_doubling)

    p = sub.add_parser("growth", help="real and strip growth exponents")
    _add_spec_source(p)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--tau", type=float, default=None,
                   help="strip half-width (default E**-0.5)")
    p.add_argument("--out", default=None, help="output directory (optional)")
    p.set_defaults(handler=cmd_growth)

    p = sub.add_parser("verify", help="run a verification plan")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("plot", help="render a nodal CSV (and balls) to SVG")
    p.add_argument("--nodal", required=True, help="nodal CSV file")
    p.add_argument("--balls", default=None, help="cover CSV file")
    p.add_argument("--out", default=None, help="output SVG path")
    p.set_defaults(handler=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"[error] malformed JSON: line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 1
    except (TorusNodalError, ValueError, OSError, MemoryError) as exc:
        print(f"[error] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
