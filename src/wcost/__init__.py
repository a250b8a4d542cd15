"""Generalized transport costs between univariate laws: estimation, variance, checks."""

from .errors import (
    DegenerateSampleError,
    HypothesisGateError,
    NonconvergenceError,
    UnsupportedCostError,
)
from .distributions import (
    Distribution,
    Exponential,
    Gaussian,
    LocationScale,
    Pareto,
    Reflected,
    Weibull,
    format_distribution,
    parse_distribution,
    reflect,
)
from .costs import (
    Cost,
    ExpPowerCost,
    LogPowerCost,
    PowerCost,
    QuantileCost,
    check_measure_property,
    parse_cost,
)
from .coupling import (
    Comonotone,
    Countermonotone,
    Coupling,
    GaussianCopula,
    Independent,
    parse_coupling,
    sample_pairs,
)
from .quadrature import QuadratureConfig
from .estimate import (
    PairedSample,
    empirical_cost,
    empirical_quantile,
    exact_cost,
    read_sample_csv,
    trimmed_empirical_cost,
    write_sample_csv,
)
from .assumptions import (
    AssumptionReport,
    CfgResult,
    ConditionStatus,
    TripleReport,
    check_cfg,
    check_fg,
    verify_triple,
)
from .variance import (
    DEFAULT_VARIANCE_CONFIG,
    VarianceResult,
    confidence_interval,
    plug_in_sigma2,
    sigma2,
    sigma2_gaussian,
    sigma2_location_scale,
    sigma2_one_sample,
    sigma2_window,
)
from .mc import (
    MCConfig,
    MCReport,
    TrimmedComparison,
    compare_trimmed,
    ks_statistic,
    replicate_seed,
    run_clt_experiment,
    run_consistency_sweep,
    write_standardized_csv,
)

__version__ = "0.1.0"
