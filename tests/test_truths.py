"""The exact marginal truths, recomputed by an independent oracle.

A univariable Cox fit of a model with prognostic covariates is misspecified,
and its coefficient converges to the root of a limiting score equation
(Struthers & Kalbfleisch, Biometrika 1986). With 1:1 allocation, constant
hazards and exponential censoring independent of the covariates, each arm's
at-risk and event densities are mixtures of exponentials over the covariate
law, so the root is a one-dimensional quadrature and a bracketed solve. The
oracle uses scipy, which the package itself never imports.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from maicsim import harness
from maicsim.cohortsim import CovariateSpec, OutcomeModelSpec
from maicsim.harness import parse_config
from maicsim.stochastic import Bernoulli, Normal, Poisson

from helpers import CENS_RATE, RATE
from test_paper_points import TRUTH_AC_S2_AGE, TRUTH_BC_S2

DEFAULT = parse_config({})
AGE = parse_config({"interaction": {"covariate": "Age", "coefficient": 0.005}})


def _law(dist):
    """Support points and probabilities of a covariate's marginal law."""
    if isinstance(dist, Bernoulli):
        return np.array([0.0, 1.0]), np.array([1 - dist.p, dist.p])
    if isinstance(dist, Poisson):
        k = np.arange(60.0)
        assert stats.poisson.sf(k[-1], dist.lam) < 1e-16, "the tail left out"
        return k, stats.poisson.pmf(k, dist.lam)
    if isinstance(dist, Normal):
        x, w = special.roots_hermitenorm(40)
        return dist.mean + dist.sd * x, w / w.sum()
    raise TypeError(f"no law for {dist!r}")


def limiting_log_hr(model: OutcomeModelSpec, population) -> float:
    """The large-sample limit of the univariable Cox treatment coefficient of
    ``model`` when the covariates follow the marginals of ``population``."""
    coefs = {c.name: c for c in model.covariates}
    # one mixture component per point of the covariates with a coefficient
    w, lp0, lp1 = np.ones(1), np.zeros(1), np.full(1, model.treatment_log_hr)
    for cov in population:
        c = coefs[cov.name]
        if c.prognostic_coef or c.interaction_coef:
            x, p = _law(cov.marginal)
            w = np.outer(w, p).ravel()
            lp0 = np.add.outer(lp0, c.prognostic_coef * x).ravel()
            lp1 = np.add.outer(lp1, (c.prognostic_coef + c.interaction_coef) * x).ravel()
    lam0, lam1 = model.baseline_rate * np.exp(lp0), model.baseline_rate * np.exp(lp1)
    cens = model.censoring_rate

    def score(beta):
        # U(beta) = int (f1 S0 - f0 S1 e^beta) / (S1 e^beta + S0) dt, over
        # u = log t, with S1 e^beta as S1 below; past t = 2e5 days every
        # subject's survival is below e^-100, and before 1e-12 days the
        # integral is below 1e-14
        def integrand(u):
            t = math.exp(u)
            e0, e1 = w * np.exp(-(lam0 + cens) * t), w * np.exp(-(lam1 + cens) * t)
            S0, S1 = e0.sum(), e1.sum() * math.exp(beta)
            return t * ((e1 @ lam1) * S0 - (e0 @ lam0) * S1) / (S1 + S0)
        return integrate.quad(integrand, math.log(1e-12), math.log(2e5),
                              epsabs=1e-15, epsrel=1e-12, limit=200)[0]

    return optimize.brentq(score, -2.0, 2.0, xtol=1e-14, rtol=1e-14)


@pytest.mark.parametrize("model, population, truth", [
    # the replication's constants: A vs C in S1 and in S2
    (DEFAULT.study_A, DEFAULT.study_A.covariates, harness.TRUTH_AC_S1),
    (DEFAULT.study_A, DEFAULT.study_B.covariates, harness.TRUTH_AC_S2),
    # the paper-point tests' constants: B vs C in S2, and A vs C in S2 under
    # the Age interaction
    (DEFAULT.study_B, DEFAULT.study_B.covariates, TRUTH_BC_S2),
    (AGE.study_A, AGE.study_B.covariates, TRUTH_AC_S2_AGE),
], ids=["AC_S1", "AC_S2", "BC_S2", "AC_S2_age"])
def test_truth_constants_are_the_limits_of_the_cox_fit(model, population, truth):
    assert limiting_log_hr(model, population) == pytest.approx(truth, abs=1e-9)


@pytest.mark.parametrize("censoring_rate", [0.0, CENS_RATE], ids=["uncensored", "censored"])
def test_truth_without_prognostic_covariates_is_the_treatment_effect(censoring_rate):
    # a covariate without a coefficient leaves the hazard ratio collapsible
    covs = (CovariateSpec("b", Bernoulli(0.5)),)
    model = OutcomeModelSpec(-0.3, RATE, censoring_rate, covs)
    assert limiting_log_hr(model, covs) == pytest.approx(-0.3, abs=1e-9)
