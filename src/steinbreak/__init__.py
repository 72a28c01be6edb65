"""Stein-rule shrinkage estimation in linear models with multiple breaks.

The package estimates break dates by global least squares, fits
unrestricted / restricted / shrinkage coefficient estimators under an
uncertain linear restriction, evaluates their asymptotic distributional
risk through noncentral chi-square moment calculus, and verifies the
underlying Gaussian quadratic-form identities by Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DivergentMoment,
    InfeasibleConfig,
    InvalidPartition,
    KTooSmall,
    MismatchedPartitions,
    NonConvergence,
    RestrictionRankDeficient,
    SegmentRankDeficient,
    SingularConstraintGram,
    SingularFactorization,
    SteinbreakError,
)
from .estimators import (
    CoefEstimate,
    PluginMatrices,
    ShrinkageFunction,
    build_plugin_matrices,
    estimate_class,
    estimate_omega,
    fit_restricted,
    fit_unrestricted,
    make_james_stein,
    make_positive_part,
    make_pretest,
    newey_west_bandwidth,
    shrinkage_estimate,
    wald_distance,
)
from .model import (
    Partition,
    RegressionData,
    Restriction,
    SegmentedDesign,
    block_restriction,
    build_design,
    load_regression_csv,
    read_series_csv,
    write_regression_csv,
)
from .risk import (
    AdrBreakdown,
    AsymptoticScaffold,
    DominanceReport,
    WeightSpec,
    adr_class,
    adr_james_stein,
    adr_positive_part,
    adr_restricted,
    adr_unrestricted,
    dominance_check,
    empirical_noncentrality,
    make_scaffold,
    make_weight,
    nc_chi2_expectation,
    nc_chi2_moment,
    random_dominant_scaffold,
    random_scaffold,
    rule_expectation,
    scaffold_at_delta,
)
from .segmentation import (
    SearchConfig,
    SegmentationResult,
    SegmentMoments,
    count_partitions,
    find_breaks_restricted,
    find_breaks_unrestricted,
    ssr_restricted,
    ssr_unrestricted,
)
from .simulation import (
    SimDesign,
    SimResult,
    break_mode,
    build_case1,
    build_case2,
    exp_decay_cov,
    histogram_rows,
    rmse_rows,
    run_monte_carlo,
    simulate_dataset,
)
from .stein_oracle import (
    GaussianSetup,
    IdentityCheck,
    VerifyEntry,
    mc_cross_identity,
    mc_quadratic_identity,
    mc_vector_identity,
    negative_control_setup,
    random_gaussian_setup,
    run_verification_suite,
    setup_from_scaffold,
)
