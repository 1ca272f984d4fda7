"""Calibrate the doubling core constant a1.

The classifier checks for a sign change inside B(p, a1/lam).  A disk on
which an eigenfunction keeps one sign has first Dirichlet eigenvalue at
least lam^2, which forces its radius below j01/lam with j01 = 2.4048
(the first Bessel zero).  So any a1 above j01 must give a sign change in
every ball, while smaller values may miss.  This script measures the
sign-change fraction over dense center ensembles for a ladder of a1
values and prints the observed table; the shipped default is the
smallest half-integer reaching 100 percent.

Run: python scripts/calibrate_doubling.py --energy 65 --seeds 50
"""

import argparse
import math

import numpy as np

from torusnodal.doubling import sign_changes
from torusnodal.eigenbasis import frequency, random_eigenfunction, sample_grid


def sign_change_fractions(energy: int, n_seeds: int, grid: int,
                          a1_values: list[float]) -> dict[float, tuple[int, int]]:
    lam = frequency(energy)
    tally = {a1: [0, 0] for a1 in a1_values}
    for seed in range(n_seeds):
        field = sample_grid(random_eigenfunction(energy, seed), grid)
        for a1 in a1_values:
            radius = a1 / lam
            # Dense lattice of centers (spacing <= radius) plus random extras:
            # stricter than any disjoint-ball family at the same scale.
            m = math.ceil(1.0 / radius)
            t = np.arange(m) / m
            gx, gy = np.meshgrid(t, t, indexing="ij")
            centers = np.stack([gx.ravel(), gy.ravel()], axis=-1)
            rng = np.random.default_rng(seed * 1000 + 7)
            centers = np.concatenate([centers, rng.uniform(size=(100, 2))])
            # The classifier's own probe, so a1 is calibrated on what it checks.
            changed = sign_changes(field, centers, radius)
            tally[a1][0] += int(np.sum(changed))
            tally[a1][1] += int(centers.shape[0])
    return {a1: (hit, tot) for a1, (hit, tot) in tally.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--energy", type=int, default=65)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--grid", type=int, default=256)
    args = ap.parse_args()

    a1_values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    print(f"[calibrate] E={args.energy} seeds={args.seeds} grid={args.grid}")
    table = sign_change_fractions(args.energy, args.seeds, args.grid, a1_values)
    best = None
    for a1 in a1_values:
        hit, tot = table[a1]
        frac = hit / tot
        print(f"[calibrate] a1={a1:4.1f}  sign_change={hit}/{tot}  ({100*frac:.3f}%)")
        if best is None and hit == tot:
            best = a1
    print(f"[calibrate] smallest exact a1 = {best}  (Bessel bound j01 = 2.4048)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
