"""Monte-Carlo table of the length-to-frequency ratio across energies.

Samples random eigenfunctions per energy level, extracts nodal sets, and
tabulates total_length / lambda.  The ensemble mean settles near
1/(2 sqrt(2)) = 0.3536, the universal constant for random plane waves,
and the table is the source of the 0.35 reference value used in the
regression tests.

Run: python scripts/yau_baseline.py --seeds 20
"""

import argparse
import math

import numpy as np

from torusnodal.eigenbasis import frequency, random_eigenfunction, sample_grid
from torusnodal.harness import plan_grid
from torusnodal.nodal import extract_nodal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--energies", type=int, nargs="+", default=[65, 325, 1105])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    print(f"[yau] reference 1/(2 sqrt 2) = {1.0 / (2.0 * math.sqrt(2.0)):.6f}")
    for energy in args.energies:
        lam = frequency(energy)
        n = plan_grid(energy)
        ratios = []
        for seed in range(args.seeds):
            field = sample_grid(random_eigenfunction(energy, seed), n)
            ratios.append(extract_nodal(field).total_length / lam)
        arr = np.asarray(ratios)
        print(f"[yau] E={energy:5d} N={n:4d} seeds={args.seeds}  "
              f"min={arr.min():.5f} median={np.median(arr):.5f} "
              f"max={arr.max():.5f} mean={arr.mean():.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
