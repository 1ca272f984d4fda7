"""End-to-end acceptance criteria for the survey pipeline.

Each criterion prints exactly one [acceptance] PASS/FAIL line.  The heavy
criteria share one full run of the standard survey plan (plans/desk.json)
through a module-scoped fixture; the determinism criterion runs the plan a
second time, with two pool workers, and compares serialized reports byte for
byte.
"""

import json
import math
import os

import mpmath
import numpy as np
import pytest

from torusnodal.covering import build_cover
from torusnodal.eigenbasis import (
    random_eigenfunction,
    sample_grid,
    sine_mode_spec,
)
from torusnodal.growth import complex_strip_sup, growth_report
from torusnodal.harness import plan_from_json, report_to_json, run_plan
from torusnodal.nodal import extract_nodal, integrate_over_nodal
from torusnodal.torus import wrap_delta

from conftest import constant_spec, separable_sine_spec

HERE = os.path.dirname(__file__)
PLAN_PATH = os.path.join(HERE, "..", "plans", "desk.json")
FROZEN = json.load(open(os.path.join(HERE, "baselines", "desk_aggregates.json")))


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {label}: {status} ({detail})")


@pytest.fixture(scope="module")
def desk_plan():
    return plan_from_json(open(PLAN_PATH).read())


@pytest.fixture(scope="module")
def desk_report(desk_plan):
    return run_plan(desk_plan)


# --------------------------------------------------------------------------
# 1. Single-mode fixtures: exact line count, length, and length/frequency.


def test_criterion_01_single_mode_lengths():
    details = []
    ok = True
    for k in (1, 2, 4, 8):
        n = max(256, 64 * k)
        nodal = extract_nodal(sample_grid(sine_mode_spec(k), n))
        lam = 2 * math.pi * k
        length_ok = abs(nodal.total_length - 2 * k) <= 0.005 * 2 * k
        yau = nodal.total_length / lam
        yau_ok = abs(yau - 1 / math.pi) <= 0.005 / math.pi
        ok = ok and length_ok and yau_ok
        details.append(f"k={k}: len={nodal.total_length:.6f} yau={yau:.6f}")
    _report(1, "single-mode lengths", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# 2. Separable fixture: length 4; weighted line integrals on both fixtures.


def test_criterion_02_separable_fixture():
    f = lambda pts: 1.0 + np.cos(2 * np.pi * pts[:, 0])

    sep = extract_nodal(sample_grid(separable_sine_spec(), 512))
    length_ok = abs(sep.total_length - 4.0) <= 0.005 * 4.0

    # Weighted length of the two vertical lines x in {0, 1/2}: the weight is
    # 2 on one and 0 on the other, so the single-mode fixture integrates to 2.
    line = extract_nodal(sample_grid(sine_mode_spec(1), 256))
    line_integral = integrate_over_nodal(line, f)
    line_ok = abs(line_integral - 2.0) <= 0.01 * 2.0

    # The full separable nodal set adds two horizontal unit lines where the
    # weight averages to 1, giving 4 in total; check internal consistency.
    sep_integral = integrate_over_nodal(sep, f)
    sep_ok = abs(sep_integral - 4.0) <= 0.01 * 4.0

    ok = length_ok and line_ok and sep_ok
    _report(
        2,
        "separable fixture",
        ok,
        f"len={sep.total_length:.6f} line-integral={line_integral:.6f} "
        f"full-integral={sep_integral:.6f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 3. Random ensemble draws are exactly L2-normalized on the sampling grid.


def test_criterion_03_ensemble_normalization():
    worst = 0.0
    for seed in range(20):
        field = sample_grid(random_eigenfunction(65, seed), 512)
        worst = max(worst, abs(float(np.mean(field.values**2)) - 1.0))
    ok = worst <= 1e-3
    _report(3, "ensemble normalization", ok, f"worst |mean(u^2)-1| = {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 4. Length/frequency ratio is flat across the survey energies.


def test_criterion_04_length_scaling(desk_report):
    v = desk_report.verdicts["yau_scaling"]
    frozen = FROZEN["yau_scaling"]
    stable = all(
        v["median_by_energy"][int(e)] == pytest.approx(m, rel=1e-6)
        for e, m in frozen["median_by_energy"].items()
    )
    ok = bool(v["pass"]) and v["median_drift"] <= 0.15 and v["overall_ratio"] <= 3.0
    ok = ok and stable
    _report(
        4,
        "length scaling",
        ok,
        f"medians={ {k: round(x, 6) for k, x in sorted(v['median_by_energy'].items())} } "
        f"drift={v['median_drift']:.4f} ratio={v['overall_ratio']:.4f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 5. Small-ball mass ratios sit in the band at scale; the low-frequency
#    control measured at the survey radius does not.


def test_criterion_05_mass_band_and_control(desk_report):
    sse = desk_report.verdicts["sse_band"]
    ctrl = desk_report.verdicts["control_fails_band"]
    ok = (
        bool(sse["pass"])
        and sse["pooled_fraction"] >= 0.9
        and bool(ctrl["pass"])
        and ctrl["in_band_fraction"] < 0.9
    )
    ok = ok and sse["pooled_fraction"] == pytest.approx(
        FROZEN["sse_band"]["pooled_fraction"], abs=1e-9
    )
    ok = ok and ctrl["in_band_fraction"] == pytest.approx(
        FROZEN["control_fails_band"]["in_band_fraction"], rel=1e-6
    )
    _report(
        5,
        "mass band with control",
        ok,
        f"pooled={sse['pooled_fraction']:.4f} (E={sse['energy']}) "
        f"control={ctrl['in_band_fraction']:.4f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. Per-ball density comparability: two-sided bounds with a bounded window.


def test_criterion_06_density_comparability(desk_report):
    v = desk_report.verdicts["theorem1_comparability"]
    frozen = FROZEN["theorem1_comparability"]
    ok = (
        bool(v["pass"])
        and 0.02 <= v["e1_pooled"] <= v["e2_pooled"] <= 50.0
        and v["window_observed"] <= 100.0
        and v["excluded_balls"] + v["included_balls"] > 0
    )
    ok = ok and v["e1_pooled"] == pytest.approx(frozen["e1_pooled"], rel=1e-6)
    ok = ok and v["e2_pooled"] == pytest.approx(frozen["e2_pooled"], rel=1e-6)
    ok = ok and v["excluded_balls"] == frozen["excluded_balls"]
    _report(
        6,
        "density comparability",
        ok,
        f"e1={v['e1_pooled']:.6f} e2={v['e2_pooled']:.6f} "
        f"window={v['window_observed']:.4f} "
        f"excluded={v['excluded_balls']}/{v['included_balls'] + v['excluded_balls']}",
    )
    assert ok


# --------------------------------------------------------------------------
# 7. Weighted-length comparability across the weight suite.


def test_criterion_07_weighted_comparability(desk_report):
    spread = desk_report.verdicts["theorem2_comparability"]
    unit = desk_report.verdicts["theorem2_one_equals_yau"]
    ok = bool(spread["pass"]) and spread["max_spread"] <= 10.0 and bool(unit["pass"])
    ok = ok and spread["max_spread"] == pytest.approx(
        FROZEN["theorem2_comparability"]["max_spread"], rel=1e-6
    )
    _report(
        7,
        "weighted comparability",
        ok,
        f"max_spread={spread['max_spread']:.6f} "
        f"unit-weight identity on {unit['runs_checked']} runs",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. Ball families: disjoint at half radius, covering, bounded overlap.


def test_criterion_08_covering_families():
    ok = True
    details = []
    for r, seed in ((0.07, 0), (0.12, 1), (0.2, 2)):
        fam = build_cover(r, seed=seed)
        dmin = np.inf
        for i in range(fam.count - 1):
            d = np.linalg.norm(wrap_delta(fam.centers[i + 1 :] - fam.centers[i]), axis=1)
            dmin = min(dmin, float(np.min(d)))
        fam_ok = fam.covers and dmin > r - 1e-12 and fam.overlap_max <= 16
        ok = ok and fam_ok
        details.append(f"r={r}: n={fam.count} overlap={fam.overlap_max}")
    _report(8, "covering families", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# 9. Doubling classification at the admissible survey energy.


def test_criterion_09_doubling_balls(desk_report):
    good = desk_report.verdicts["doubling_good_fraction"]
    sign = desk_report.verdicts["doubling_sign_change"]
    assembly = desk_report.verdicts["assembly_consistent"]
    ok = (
        bool(good["pass"])
        and good["min_good_fraction"] >= 0.5
        and bool(sign["pass"])
        and bool(assembly["pass"])
    )
    _report(
        9,
        "doubling balls",
        ok,
        f"min good fraction={good['min_good_fraction']:.4f} over "
        f"{good['runs_checked']} runs; min sign-change={sign['min_fraction']:.4f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 10. The two-sided bound chain holds step by step on every run.


def test_criterion_10_bound_chain(desk_report):
    v = desk_report.verdicts["chain_steps"]
    counts = v["hypothesis_met_counts"]
    # The verdict gate samples the top-energy tier; the per-run flag must
    # hold on every run in the report regardless of tier.
    ok = bool(v["pass"])
    ok = ok and v["runs_checked"] == desk_report.plan.seeds_per_energy
    per_run = [r.chain_ok for r in desk_report.runs if r.chain_ok is not None]
    ok = ok and len(per_run) == len(desk_report.runs) and all(per_run)
    # At survey scales only the unit weight meets the asymptotic smallness
    # hypothesis; the chain itself must still hold for every weight.
    ok = ok and all(c >= 1 for c in counts)
    _report(
        10,
        "bound chain",
        ok,
        f"all steps hold on {len(per_run)} runs "
        f"({v['runs_checked']} in the top-tier gate); "
        f"hypothesis met for {min(counts)}-{max(counts)} of 4 weights per run",
    )
    assert ok


# --------------------------------------------------------------------------
# 11. Growth exponents: flat profile vanishes, strip sup matches the
#     hyperbolic closed form, and the exponent scale is energy-uniform.


def test_criterion_11_growth_exponents(desk_report):
    flat = growth_report(constant_spec(), 0.1, 0.25, 0.1)
    flat_ok = flat.c9_hat == 0.0 and flat.strip_sup == 1.0

    tau = 0.1
    with mpmath.workdps(40):
        strip_expect = float(mpmath.sqrt(2) * mpmath.cosh(2 * mpmath.pi * tau))
    sampled, certificate = complex_strip_sup(sine_mode_spec(1), tau)
    strip_ok = abs(sampled - strip_expect) <= 1e-6 * strip_expect
    cert_ok = certificate >= sampled

    v = desk_report.verdicts["growth_c9_uniform"]
    uniform_ok = bool(v["pass"]) and v["ratio"] <= 2.0
    uniform_ok = uniform_ok and v["ratio"] == pytest.approx(
        FROZEN["growth_c9_uniform"]["ratio"], rel=1e-6
    )

    ok = flat_ok and strip_ok and cert_ok and uniform_ok
    _report(
        11,
        "growth exponents",
        ok,
        f"flat c9={flat.c9_hat} strip err={abs(sampled - strip_expect):.2e} "
        f"median ratio across energies={v['ratio']:.4f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 12. Full-survey determinism: a second run, through two pool workers,
# serializes byte-identically to the serial one.


def test_criterion_12_determinism(desk_plan, desk_report):
    first = report_to_json(desk_report)
    second = report_to_json(run_plan(desk_plan, threads=2))
    ok = first == second
    _report(
        12,
        "determinism",
        ok,
        f"report JSON {len(first)} bytes, 2-worker re-run identical={ok}",
    )
    assert ok


# --------------------------------------------------------------------------
# Survey-wide sanity: the full plan reports success overall.


def test_survey_overall_verdict(desk_report):
    assert desk_report.all_pass is True
    assert len(desk_report.runs) == 60
    assert desk_report.control["passes_band_gate"] is False
