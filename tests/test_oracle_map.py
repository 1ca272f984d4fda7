"""Which test checks each report.json run column, and how.

ORACLE_MAP names, for every harness._columns("report") name, the test that
checks the column's value, or the function run_single takes it from, and
what that test compares it with:

- an oracle computes the value independently: a "closed form", "mpmath",
  a "full scan" reference (every ball, point or candidate recomputed the
  slow way) or an exact "symmetry" of the torus;
- a "regression" compares it with a frozen value only.

A new report column needs an entry here, and every entry must name a test
that exists, as test_traced_names.py does for perfbench's names.
"""

import ast
import os

import pytest

from torusnodal.harness import _columns

HERE = os.path.dirname(__file__)
ORACLE_KINDS = ("closed form", "mpmath", "full scan", "symmetry")
KINDS = ORACLE_KINDS + ("regression",)

ORACLE_MAP = {
    "energy": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    "seed": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    "grid": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    "lam": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    "radius": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    # Two lines of length 1 on the sine mode; 512 segments, one per cell they cross.
    "total_length": ("test_nodal.py::test_sine_line_length_and_count", "closed form"),
    "yau_ratio": ("test_harness.py::test_run_columns_follow_their_closed_forms", "closed form"),
    "segment_count": ("test_nodal.py::test_sine_line_length_and_count", "closed form"),
    "degenerate": ("test_harness.py::test_run_single_degenerate_low_energy", "closed form"),
    # The least and greatest eigenvalues of the eigenspace's Bessel Gram forms.
    "d1": ("test_ballstats.py::test_sse_ratios_lie_in_the_eigenspace_interval", "closed form"),
    "d2": ("test_ballstats.py::test_sse_ratios_lie_in_the_eigenspace_interval", "closed form"),
    # Band decisions against the quadrature of every ball.
    "sse_fraction": (
        "test_ballstats.py::test_band_decisions_equal_the_exact_ones_at_observed_edges",
        "full scan"),
    "cover_count": ("test_covering.py::test_cover_matches_brute_force_greedy", "full scan"),
    # The depth of the closed disks at every pairwise circle intersection point.
    "overlap_max": ("test_covering.py::test_overlap_max_is_at_most_the_exact_depth", "full scan"),
    # The sine mode's normalized density 4 (2 pi)^(-3/2) in one ball.
    "e1_hat": ("test_harness.py::test_theorem1_single_mode_closed_form", "closed form"),
    "e2_hat": ("test_harness.py::test_theorem1_single_mode_closed_form", "closed form"),
    "t1_included": ("test_harness.py::test_theorem1_single_mode_closed_form", "closed form"),
    "t1_excluded": ("test_harness.py::test_theorem1_exclusion_band", "closed form"),
    # rho(one) is yau_ratio by construction; no oracle bounds bump's rho.
    "c1_hat": ("test_harness.py::test_theorem2_unit_weight_reproduces_length_ratio",
               "regression"),
    "c2_hat": ("test_harness.py::test_theorem2_unit_weight_reproduces_length_ratio",
               "regression"),
    # The half shift gives rho(cos_x) = rho(cos_y) = rho(one) for odd E.
    "rho_by_f": ("test_symmetries.py::test_half_shift_of_an_odd_energy", "symmetry"),
    "chain_ok": ("test_harness.py::test_chain_matches_per_ball_reference", "full scan"),
    # Against the chain on the 9 x 9 lattice estimator, on all 60 desk runs.
    "chain_hypothesis_met": (
        "test_harness.py::test_exact_extremes_sharpen_the_lattice_chain_on_the_desk_runs",
        "full scan"),
    "chain_e1": ("test_harness.py::test_theorem1_single_mode_closed_form", "closed form"),
    "chain_e2": ("test_harness.py::test_theorem1_single_mode_closed_form", "closed form"),
    # A flat field doubles like the area, ratio 4 <= a2.
    "good_fraction": ("test_doubling.py::test_constant_field_doubles_like_area", "closed form"),
    "good_count": (
        "test_doubling.py::test_doubling_decisions_equal_the_exact_ones_at_observed_ratios",
        "full scan"),
    "sign_change_fraction": (
        "test_doubling.py::test_sign_change_detection_tracks_distance_to_zero_line",
        "closed form"),
    "assembled_lower_bound": ("test_doubling.py::test_assembly_lengths_match_per_ball_full_scan",
                              "full scan"),
    "a3_hat": ("test_doubling.py::test_assembly_lengths_match_per_ball_full_scan", "full scan"),
    "c7_max": ("test_growth.py::test_real_doubling_exponent_single_mode_closed_form",
               "closed form"),
    # Only the constant field's c9 = 0 has a closed form.
    "c9_hat": ("test_growth.py::test_growth_report_regression", "regression"),
    "strip_sup": ("test_growth.py::test_strip_sup_single_mode_closed_form", "mpmath"),
    # Checked to dominate strip_sup, and frozen.
    "strip_certificate": ("test_growth.py::test_growth_report_regression", "regression"),
    "real_sup": ("test_growth.py::test_torus_sup_of_single_mode", "closed form"),
    "flags": ("test_doubling.py::test_run_single_runs_doubling_only_below_the_quarter",
              "closed form"),
}


def defined_tests(filename: str) -> set[str]:
    """Names of the top-level test functions of tests/filename, read without importing it."""
    with open(os.path.join(HERE, filename)) as fh:
        tree = ast.parse(fh.read(), filename=filename)
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


@pytest.mark.parametrize("column", _columns("report"))
def test_every_report_column_names_an_existing_test(column):
    assert column in ORACLE_MAP, f"report column {column!r} has no entry in ORACLE_MAP"
    node, kind = ORACLE_MAP[column]
    assert kind in KINDS, (column, kind)
    filename, _, name = node.partition("::")
    assert os.path.exists(os.path.join(HERE, filename)), node
    assert name in defined_tests(filename), f"{column}: no test {node}"


def test_the_map_names_only_report_columns():
    assert set(ORACLE_MAP) <= set(_columns("report")), set(ORACLE_MAP) - set(_columns("report"))
