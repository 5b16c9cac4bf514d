"""Anchored indirect treatment comparison with MAIC weighting for simulated
survival trials."""

from .balance import (
    BalanceProblem,
    MaicWeights,
    TargetOutsideSupport,
    balance_report,
    center_covariates,
    effective_sample_size,
    estimate_weights,
)
from .cohortsim import (
    AggregateSummary,
    CovariateSpec,
    OutcomeModelSpec,
    TrialData,
    linear_predictor,
    simulate_covariates,
    simulate_survival,
    simulate_trial,
    summarize_aggregate,
)
from .coxph import (
    CoxFit,
    MonotoneLikelihood,
    NoEvents,
    SingularInformation,
    SurvivalSample,
    fit_cox,
    partial_loglik,
    robust_variance,
    score_and_information,
)
from .estimands import (
    EffectEstimate,
    IndirectComparison,
    ScaleMismatch,
    bucher_compare,
    conditional_effect,
    hr_ratio,
    marginal_effect,
    simulated_marginal_loghr,
)
from .harness import (
    ScenarioConfig,
    ScenarioResult,
    parse_config,
    replicate_appendix,
    run_scenario,
)
from .stochastic import (
    Bernoulli,
    Exponential,
    Normal,
    Poisson,
    RandomStream,
    Uniform01,
    draw_variates,
    seed_stream,
)

__version__ = "0.1.0"
