"""Shared builders for the appendix-style study population, and a memory probe."""

import math
import tracemalloc

from maicsim.cohortsim import CovariateSpec, OutcomeModelSpec
from maicsim.stochastic import Bernoulli, Normal, Poisson

RATE = 0.5 / 365
CENS_RATE = 0.1 / 365
B_A = math.log(0.53)


def study_A_covariates():
    return (
        CovariateSpec("Age", Normal(69.3, 5.0)),
        CovariateSpec("PLNEN", Poisson(3.4), prognostic_coef=1.0682),
        CovariateSpec("ISS", Bernoulli(0.74), prognostic_coef=-0.6651),
        CovariateSpec("Refr", Bernoulli(0.92), prognostic_coef=0.0825),
    )


def study_A_model(censoring_rate=CENS_RATE, treatment_log_hr=B_A):
    return OutcomeModelSpec(treatment_log_hr, RATE, censoring_rate,
                            study_A_covariates())


def peak_bytes(fn, *args):
    """``fn(*args)`` and the peak of what it allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
