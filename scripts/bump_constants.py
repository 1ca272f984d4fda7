"""Derive the frozen constants of the bump test function.

The bump is g(d / w) around (1/2, 1/2) with width w = 1/4 and
g(t) = exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside.  The registry needs
a true upper bound for the Lipschitz constant, which is max |g'| / w.
This script locates the maximum by bisection-style grid refinement and
prints the values hardcoded in harness.py.
"""

import numpy as np


def g(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def g_prime(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = g(t)[m] * (-2.0 * tm / (1.0 - tm * tm) ** 2)
    return out


def main() -> int:
    lo, hi = 0.0, 0.999999
    for _ in range(60):
        t = np.linspace(lo, hi, 200_001)
        a = np.abs(g_prime(t))
        k = int(np.argmax(a))
        step = t[1] - t[0]
        lo, hi = max(0.0, t[k] - step), min(0.999999, t[k] + step)
        if step < 1e-15:
            break
    t_star = float(0.5 * (lo + hi))
    m = float(np.abs(g_prime(np.array([t_star])))[0])
    width = 0.25
    print(f"[bump] argmax t* = {t_star!r}")
    print(f"[bump] max |g'|  = {m!r}")
    print(f"[bump] Lipschitz = max|g'| / w = {m / width!r}  (frozen as 8.69)")
    t = np.linspace(0.0, 1.0, 2_000_001)
    ring = float(np.trapezoid(g(t) * t, t))
    print(f"[bump] area integral = 2 pi w^2 * int g t dt = "
          f"{2.0 * np.pi * width ** 2 * ring!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
