"""Nodal sets of torus eigenfunctions: extraction, measure, and statistics.

Exact trigonometric eigenfunctions on the unit torus, periodic contour
extraction of their zero sets, ball-mass equidistribution statistics,
bounded-overlap coverings, doubling classification, growth exponents, and
an end-to-end verification harness with a CLI front door.
"""

from .errors import (
    BallTooLarge,
    ChainStepViolated,
    ChartExceeded,
    DivisionByNegligibleMass,
    EmptySpectrum,
    NegativeTestFunction,
    NonRealValue,
    RadiusTooLarge,
    RadiusUnderResolved,
    ResolutionTooCoarse,
    TorusNodalError,
)
from .eigenbasis import (
    EigenfunctionSpec,
    SampledField,
    constant_spec,
    enumerate_modes,
    evaluate,
    random_eigenfunction,
    sample_grid,
    separable_sine_spec,
    sine_mode_spec,
    spec_from_json,
    spec_to_json,
)
from .torus import periodic_distance, wrap_delta, wrap_point
from .nodal import (
    NodalSet,
    ball_sums,
    clip_family,
    clip_to_ball,
    extract_nodal,
    integrate_over_nodal,
    nodal_from_csv,
    nodal_to_csv,
)
from .ballstats import (
    BallMassReport,
    ScaleFunction,
    ball_mass_scan,
    ball_masses,
    default_centers,
    mass_in_ball,
    report_summary_json,
    report_to_csv,
    sse_scan,
)
from .covering import (
    BallFamily,
    build_cover,
    family_to_csv,
    family_to_json,
)
from .doubling import (
    DEFAULT_A1,
    DEFAULT_A2,
    DilatedView,
    DoublingReport,
    classify_doubling,
    dilate,
    lower_bound_assembly,
)
from .growth import (
    GrowthReport,
    StripSup,
    complex_strip_sup,
    growth_in_C_exponent,
    growth_report,
    real_doubling_exponent,
    torus_sup,
)
from .harness import (
    DEFAULT_TOLERANCES,
    TEST_FUNCTIONS,
    BallTable,
    ChainStep,
    ChainTrace,
    ExperimentPlan,
    FunctionIntegrals,
    RunResult,
    TestFunction,
    Theorem1Result,
    Theorem2Result,
    VerificationReport,
    ball_table,
    check_theorem_1,
    check_theorem_2,
    check_yau_scaling,
    control_run,
    function_integrals,
    plan_from_json,
    replicate_bound_chain,
    report_to_json,
    resolve_test_functions,
    run_plan,
    run_single,
    runs_to_csv,
    torus_integral,
)
from .svgplot import balls_from_csv, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
