"""Command-line front door for the torus nodal-set toolkit.

Commands: modes, gen, nodal, ballstats, cover, doubling, growth, verify,
plot.  Every command is deterministic given its flags; exit code 0 means
success, 1 means an input or validation error, 2 means a verification
gate failed.  Floating-point values are printed and written via repr, so
every number round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .ballstats import ScaleFunction, ball_mass_scan, report_summary_json, report_to_csv, sse_scan
from .covering import build_cover, family_to_csv, family_to_json
from .doubling import DEFAULT_A1, DEFAULT_A2, OUTER_FACTOR, classify_doubling, lower_bound_assembly
from .eigenbasis import (EigenfunctionSpec, enumerate_modes, random_eigenfunction,
                         sample_grid, spec_from_json, spec_to_json)
from .errors import EmptySpectrum, TorusNodalError
from .growth import growth_report
from .harness import (ExperimentPlan, _stage_seed, plan_from_json, report_to_json, run_plan,
                      runs_to_csv)
from .nodal import extract_nodal, nodal_from_csv, nodal_to_csv
from .svgplot import balls_from_csv, render_svg


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract: usage problems are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_grid(energy: int) -> int:
    # The plan grid rule at the plan defaults, which the class attributes hold.
    return ExperimentPlan.grid_for(ExperimentPlan, energy)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _spec_from_args(args) -> tuple[EigenfunctionSpec, str]:
    """Resolve the eigenfunction source: a spec file or (energy, seed)."""
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            spec = spec_from_json(fh.read())
        stem = os.path.splitext(os.path.basename(args.spec))[0]
        return spec, stem
    if getattr(args, "energy", None) is None:
        raise ValueError("provide either --spec FILE or --energy (with --seed)")
    spec = random_eigenfunction(args.energy, args.seed)
    return spec, f"E{args.energy}_seed{args.seed}"


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
    spec, stem = _spec_from_args(args)
    n = args.grid or _default_grid(spec.energy)
    field = sample_grid(spec, n)
    nodal = extract_nodal(field)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"nodal_{stem}_N{n}.csv")
    nodal_to_csv(nodal, path)
    yau = nodal.total_length / spec.lam if spec.lam > 0 else float("nan")
    print(f"[nodal] wrote {path} segments={nodal.count} "
          f"total_length={nodal.total_length!r} yau_ratio={yau!r}")
    return 0


def cmd_ballstats(args) -> int:
    spec, stem = _spec_from_args(args)
    n = args.grid or _default_grid(spec.energy)
    field = sample_grid(spec, n)
    if args.radius is not None:
        report = ball_mass_scan(field, args.radius, seed=args.seed)
    else:
        report = sse_scan(field, ScaleFunction(args.rho), seed=args.seed)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"ballstats_{stem}.csv")
    report_to_csv(report, path)
    print(f"[ballstats] wrote {path}")
    print(f"[ballstats] {report_summary_json(report)}")
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
    spec, stem = _spec_from_args(args)
    n = args.grid or _default_grid(spec.energy)
    field = sample_grid(spec, n)
    nodal = extract_nodal(field)
    r_out = OUTER_FACTOR * args.a1 / spec.lam
    family = build_cover(r_out / 2.0, args.seed)
    report = classify_doubling(field, family.centers, a1=args.a1, a2=args.a2)
    assembly = lower_bound_assembly(report, nodal)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"doubling_{stem}.json")
    from .doubling import report_to_json as doubling_json
    with open(path, "w") as fh:
        fh.write(doubling_json(report))
    print(f"[doubling] wrote {path} balls={report.count} "
          f"good_fraction={report.good_fraction!r} "
          f"sign_change={report.nodal_fraction_among_good!r} "
          f"assembled_lower_bound={assembly['assembled_lower_bound']!r} "
          f"total_length={assembly['total_length']!r} "
          f"a3_hat={assembly['a3_hat']!r}")
    return 0


def cmd_growth(args) -> int:
    spec, stem = _spec_from_args(args)
    n = args.grid or _default_grid(spec.energy)
    field = sample_grid(spec, n)
    tau = args.tau if args.tau is not None else spec.energy ** -0.5
    scale_r = ScaleFunction(args.rho)(spec.lam)
    report = growth_report(field, scale_r, args.delta, tau)
    obj = {
        "E": spec.energy, "tau": report.tau, "mu": report.mu,
        "delta": report.delta, "c7_max": report.c7_max,
        "c7_values": [float(v) for v in report.c7_values],
        "mu_eff": report.mu_eff, "strip_sup": report.strip_sup,
        "strip_certificate": report.strip_certificate,
        "real_sup": report.real_sup, "c9_hat": report.c9_hat,
    }
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
    out = _ensure_out(args.out)
    report = run_plan(plan, threads=args.threads,
                      progress=(lambda msg: print(f"[verify] {msg}"))
                      if args.progress else None)
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(report_to_json(report))
    with open(os.path.join(out, "runs.csv"), "w") as fh:
        fh.write(runs_to_csv(report))
    if plan.svg:
        scale = plan.scale()
        for run in report.runs:
            spec = random_eigenfunction(run.energy,
                                        _stage_seed(plan, run.energy, run.seed, 0))
            field = sample_grid(spec, run.grid)
            nodal = extract_nodal(field)
            if run.degenerate:
                svg = render_svg(nodal)
            else:
                fam = build_cover(run.radius,
                                  _stage_seed(plan, run.energy, run.seed, 2))
                svg = render_svg(nodal, fam.centers, fam.radius)
            path = os.path.join(out, f"run_E{run.energy}_seed{run.seed}.svg")
            with open(path, "w") as fh:
                fh.write(svg)
    for name in sorted(report.verdicts):
        v = report.verdicts[name]
        status = "skip" if v["pass"] is None else ("pass" if v["pass"] else "FAIL")
        print(f"[verify] {name}: {status}")
    if report.control is not None:
        print(f"[verify] control in_band_fraction="
              f"{report.control['in_band_fraction']!r} (expected to fail the band)")
    print(f"[verify] wrote {os.path.join(out, 'report.json')}")
    if report.all_pass:
        print("[verify] all gates pass")
        return 0
    print("[verify] gate failure")
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
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
    except (TorusNodalError, ValueError, OSError) as exc:
        print(f"[error] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
