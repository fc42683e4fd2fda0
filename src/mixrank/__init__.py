"""mixrank: t test vs. Wilcoxon signed-rank test under contaminated-Gaussian alternatives.

The library covers the full comparison pipeline: the mixture model itself
(:mod:`mixrank.mixture`), the two test statistics with exact small-sample
null machinery (:mod:`mixrank.rank_tests`), the closed-form asymptotic
relative efficiency and its dominance region (:mod:`mixrank.efficiency`),
and a deterministic parallel Monte Carlo lab for finite-sample power,
minimal sample sizes, and the empirical efficiency oracle
(:mod:`mixrank.power`).  ``mixrank.cli`` exposes everything as reproducible
subcommands.
"""

__version__ = "0.2.0"

from .efficiency import (
    AreVariant,
    Efficacy,
    EfficiencyGrid,
    are,
    dominance_boundary,
    dominance_grid,
    efficacy_t,
    efficacy_w,
)
from .errors import (
    DataFileError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    MixrankError,
    SearchOverflowError,
    TiesUnsupportedError,
)
from .mixture import (
    MeanFunctionVariant,
    MixtureParams,
    cdf,
    moments,
    pdf,
    sample,
    xi_t,
    xi_w,
    xi_w_slope_at_null,
)
from .power import (
    EmpiricalArePoint,
    PowerEstimate,
    Probe,
    SampleSizeResult,
    SimConfig,
    SurfacePoint,
    TestKind,
    empirical_are,
    estimate_power,
    estimate_size,
    min_sample_size,
    power_ratio_surface,
)
from .rank_tests import (
    Method,
    NullPmf,
    Sample,
    Sidedness,
    TestOutcome,
    WilcoxonMode,
    exact_null_pmf,
    identity_check,
    t_statistic,
    t_test,
    u_statistic,
    wilcoxon_statistic,
    wilcoxon_test,
)

__all__ = [
    "__version__",
    "AreVariant",
    "DataFileError",
    "DegenerateSampleError",
    "DomainError",
    "Efficacy",
    "EfficiencyGrid",
    "EmpiricalArePoint",
    "InsufficientDataError",
    "MeanFunctionVariant",
    "Method",
    "MixrankError",
    "MixtureParams",
    "NullPmf",
    "PowerEstimate",
    "Probe",
    "Sample",
    "SampleSizeResult",
    "SearchOverflowError",
    "Sidedness",
    "SimConfig",
    "SurfacePoint",
    "TestKind",
    "TestOutcome",
    "TiesUnsupportedError",
    "WilcoxonMode",
    "are",
    "cdf",
    "dominance_boundary",
    "dominance_grid",
    "efficacy_t",
    "efficacy_w",
    "empirical_are",
    "estimate_power",
    "estimate_size",
    "exact_null_pmf",
    "identity_check",
    "min_sample_size",
    "moments",
    "pdf",
    "power_ratio_surface",
    "sample",
    "t_statistic",
    "t_test",
    "u_statistic",
    "wilcoxon_statistic",
    "wilcoxon_test",
    "xi_t",
    "xi_w",
    "xi_w_slope_at_null",
]
