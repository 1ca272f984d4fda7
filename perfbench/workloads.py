"""The benchmark's workloads: the operations one pass of each performs.

A survey pass is one `torusnodal verify` on a plan made from the fields of
plans/desk.json, with the workload seed as the plan's base_seed.  The tour
pass is the README quick-tour command sequence at E=1105, with the
workload seed as every --seed value.  BENCHMARK.json says why each
workload exists.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_PLAN = os.path.join(ROOT, "plans", "desk.json")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

NAMES = ("desk", "desk-2w", "low", "tour")

# The seed whose output digests are committed in digests.json.
DEFAULT_SEED = 0

# Overrides of the desk fields, and worker count, per survey workload.  The
# desk plan's 20 seeds per energy take about 80 s serially on two cores; one
# seed per energy keeps a pass near 8 s, so several passes fit in a run.
# yau_scaling needs ten seeds per energy and is evaluated on `low` only.
SURVEYS = {
    "desk": ({"seeds_per_energy": 1}, 1),
    "desk-2w": ({"seeds_per_energy": 1}, 2),
    "low": ({"energies": [25, 50, 65], "seeds_per_energy": 10,
             "include_low_energy_control": False}, 1),
    # The unchanged desk plan; only --check-baseline runs it.
    "baseline": ({}, 2),
}

# Workloads whose outputs must equal another workload's at the same seed.
SAME_OUTPUT_AS = {"desk-2w": "desk"}

TOUR_ENERGY = 1105
TOUR_GRID = 544  # the CLI's default grid at E=1105: max(256, 16 * ceil(sqrt(E)))


def plan_text(name: str, seed: int) -> str:
    """The plan JSON a survey workload verifies."""
    with open(DESK_PLAN) as fh:
        plan = json.load(fh)
    overrides, _threads = SURVEYS[name]
    plan.update(overrides)
    if name != "baseline":
        plan["base_seed"] = seed
    return json.dumps(plan, sort_keys=True, indent=1)


def operations(name: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each command in one pass, run from the pass directory."""
    if name in SURVEYS:
        threads = SURVEYS[name][1]
        return [("verify", ["verify", "--plan", "plan.json", "--out", "out",
                            "--threads", str(threads)])]
    if name != "tour":
        raise ValueError(f"unknown workload {name!r}")
    e, s = str(TOUR_ENERGY), str(seed)
    return [
        ("modes", ["modes", "--energy", e]),
        ("gen", ["gen", "--energy", e, "--seed", s, "--out", "work/"]),
        ("nodal", ["nodal", "--spec", f"work/spec_E{e}_seed{s}.json", "--out", "work/"]),
        ("cover", ["cover", "--radius", "0.15", "--seed", s, "--out", "work/"]),
        ("plot", ["plot", "--nodal", f"work/nodal_spec_E{e}_seed{s}_N{TOUR_GRID}.csv",
                  "--balls", f"work/cover_r0.15_seed{s}.csv",
                  "--out", "work/picture.svg"]),
        ("ballstats", ["ballstats", "--energy", e, "--seed", s, "--out", "work/"]),
        ("doubling", ["doubling", "--energy", e, "--seed", s, "--out", "work/"]),
        ("growth", ["growth", "--energy", e, "--seed", s, "--out", "work/"]),
    ]


def committed_digests(name: str, seed: int) -> dict | None:
    """Per-operation output digests committed for this workload, if any."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(SAME_OUTPUT_AS.get(name, name))
