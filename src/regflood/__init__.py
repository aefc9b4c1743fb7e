"""Regional Bayesian flood frequency analysis for peaks-over-threshold records.

The package estimates flood return levels from declustered discharge
peaks: locally (GP fits with profile or asymptotic intervals),
regionally (index flood scaling with homogeneity screening), and by a
regional Bayesian model whose prior is elicited from the other sites of
the pooling group. An evaluation harness compares the estimators on
truncated records against full-record benchmarks.
"""

__version__ = "0.1.0"

from .bayes import (
    ChainDiagnostics,
    McmcConfig,
    PosteriorChains,
    PriorProvenance,
    PriorSpec,
    QuantileSummary,
    chain_diagnostics,
    elicit_prior,
    log_posterior,
    log_prior,
    mcmc_sample,
    posterior_quantiles,
)
from .distributions import (
    GpParams,
    KappaParams,
    gp_cdf,
    gp_logpdf,
    gp_quantile,
    gp_sample,
    kappa_quantile,
    kappa_sample,
)
from .errors import (
    ContractViolationError,
    DegenerateSampleError,
    ElicitationError,
    FitError,
    InputError,
    InsufficientDataError,
    NumericalError,
    RegfloodError,
    SelectionError,
)
from .evaluation import (
    BenchmarkEntry,
    EvalConfig,
    EvalReport,
    RankScore,
    RegionTruth,
    SynthSpec,
    benchmark_pot,
    nbias_nrmse,
    rank_scores,
    run_experiment,
    synth_daily_series,
    synth_region,
    truncate_pot,
)
from .fileio import (
    RegionConfig,
    SiteEntry,
    build_region,
    load_region_config,
    read_metadata_csv,
    read_pot_json,
    read_prior_json,
    read_series_csv,
    write_metadata_csv,
    write_pot_json,
    write_prior_json,
    write_series_csv,
)
from .fit import (
    GpFit,
    gp_fit_mle,
    gp_fit_pwm,
    log_param_variances,
    profile_ci,
    quantile_variance,
    return_level,
)
from .indexflood import (
    AreaRegression,
    IndexFlood,
    StationMeta,
    at_site_index_flood,
    fit_area_regression,
    predict_index_flood,
)
from .lmoments import (
    LmomentSet,
    gp_fit_lmom,
    gp_population_lmoments,
    kappa_fit_lmom,
    regional_average_lmoments,
    sample_lmoments,
)
from .pot import (
    DischargeSeries,
    IndependenceRule,
    PotSeries,
    extract_pot,
    record_years,
    select_threshold,
)
from .regional import (
    DiscordancyReport,
    GrowthCurve,
    HeterogeneityReport,
    Region,
    RegionSite,
    classify_h1,
    discordancy,
    growth_curve,
    heterogeneity,
    index_flood_quantile,
)
