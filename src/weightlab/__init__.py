"""Muckenhoupt and reverse Holder weight machinery on finite metric measure spaces.

Computes maximal operators, characteristic constants, and oscillation norms
exactly (up to floating point) on finite spaces, machine-verifies the
constant-explicit inequalities relating them, and constructs refined
two-factor weight decompositions with certificates.
"""

from .errors import (
    AsymmetricDistance,
    EmptyRadiusRange,
    InconsistentPair,
    InvalidFunction,
    InvalidParams,
    NonpositiveMeasure,
    NonpositiveWeight,
    ParseError,
    SpaceValidationError,
    TriangleViolation,
    WeightlabError,
    ZeroDistanceDistinctPoints,
)
from .factorization import (
    FactorOptions,
    FactorPair,
    FactorSearch,
    jones_factor,
    refined_jones,
    refined_transform,
    verify_factorization,
)
from .operators import (
    OperatorOutput,
    maximal,
    maximal_naive,
    minimal,
    minimal_naive,
    natural_maximal,
    natural_maximal_naive,
    natural_minimal,
    natural_minimal_naive,
)
from .report import CheckReport, Tolerances, aggregate_verdict
from .space import (
    AnnularDecayQuery,
    Ball,
    BallFamily,
    BallRef,
    FiniteMetricMeasureSpace,
    FunctionalResult,
    annular_decay_constant,
    build_space,
    doubling_constant,
    enumerate_balls,
    generate,
    load,
    save,
)
from .theorems import (
    SuiteParams,
    check_a1_characterization,
    check_commutation,
    check_converse_chain,
    check_duality,
    check_harnack,
    check_multiplier,
    check_oscillation_characterization,
    check_power_props,
    check_rhinf_characterization,
    report_unquantified,
    run_suite,
)
from .weights import (
    a1_constant,
    ainf_constant,
    ap_constant,
    blo_norm,
    bmo_norm,
    buo_norm,
    rhinf_constant,
    rhs_constant,
)

__version__ = "0.1.0"
