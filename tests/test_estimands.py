import json
import math

import numpy as np
import pytest

from maicsim.cohortsim import CovariateSpec, OutcomeModelSpec, simulate_trial
from maicsim.estimands import (
    CONDITIONAL,
    MARGINAL,
    EffectEstimate,
    ScaleMismatch,
    bucher_compare,
    conditional_effect,
    hr_ratio,
    marginal_effect,
)
from maicsim.stochastic import Bernoulli, RandomStream

from helpers import CENS_RATE, RATE, study_A_model


def est(log_hr, se=0.0, scale=MARGINAL, population=""):
    return EffectEstimate(log_hr, se, scale, population)


def test_bucher_difference_of_conditional_truths():
    cmp = bucher_compare(est(math.log(0.53)), est(math.log(0.55)))
    assert cmp.log_hr_AB == pytest.approx(math.log(0.53 / 0.55), abs=1e-12)
    assert cmp.se == 0.0


def test_bucher_equal_inputs():
    cmp = bucher_compare(est(-0.3, 0.1), est(-0.3, 0.1))
    assert cmp.log_hr_AB == 0.0


def test_bucher_variance_sum():
    cmp = bucher_compare(est(0.0, 0.1), est(0.0, 0.2))
    assert cmp.se == pytest.approx(math.sqrt(0.05), abs=1e-9)
    lo, hi = cmp.ci95
    assert hi - lo == pytest.approx(2 * 1.959964 * cmp.se, abs=1e-9)


def test_bucher_antisymmetry():
    a, b = est(-0.25, 0.05), est(-0.4, 0.07)
    assert bucher_compare(a, b).log_hr_AB == -bucher_compare(b, a).log_hr_AB


def test_scale_mismatch_rejected():
    with pytest.raises(ScaleMismatch):
        bucher_compare(est(0.0, 0.1), est(0.0, 0.1, scale=CONDITIONAL))
    with pytest.raises(ScaleMismatch):
        hr_ratio(est(0.0, 0.1, scale=CONDITIONAL), est(0.0, 0.1))


def test_hr_ratio_values():
    assert hr_ratio(est(-0.3), est(-0.3)) == pytest.approx(1.0, abs=1e-12)
    pair = (est(math.log(0.53), scale=CONDITIONAL),
            est(math.log(0.55), scale=CONDITIONAL))
    assert hr_ratio(*pair) == pytest.approx(0.53 / 0.55, abs=1e-12)


def test_effect_estimate_json_fields():
    d = json.loads(est(-0.25, 0.05, population="S1").to_json())
    assert set(d) == {"log_hr", "hr", "se", "ci95_lo", "ci95_hi", "scale",
                      "population"}
    assert d["hr"] == pytest.approx(math.exp(-0.25))
    assert d["ci95_hi"] - d["ci95_lo"] == pytest.approx(2 * 1.959964 * 0.05)


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        EffectEstimate(0.0, 0.1, "something")


def test_estimate_requires_finite_log_hr_and_se():
    for log_hr, se, match in ((0.0, -0.1, "se must"), (0.0, math.nan, "se must"),
                              (0.0, math.inf, "se must"),
                              (math.nan, 0.1, "log_hr must"),
                              (math.inf, 0.1, "log_hr must"),
                              (-math.inf, 0.0, "log_hr must")):
        with pytest.raises(ValueError, match=match):
            EffectEstimate(log_hr, se, MARGINAL)
    assert EffectEstimate(-0.3, 0.0, MARGINAL).ci95 == (-0.3, -0.3)


def test_marginal_effect_all_equal_weights_matches_unweighted():
    trial = simulate_trial(study_A_model(), 2000, RandomStream(1))
    plain = marginal_effect(trial)
    weighted = marginal_effect(trial, np.full(trial.n, 3.0))
    assert weighted.log_hr == pytest.approx(plain.log_hr, abs=1e-8)
    assert plain.scale == MARGINAL


def test_conditional_empty_adjustment_equals_marginal():
    trial = simulate_trial(study_A_model(), 2000, RandomStream(2))
    cond = conditional_effect(trial, [])
    marg = marginal_effect(trial)
    assert cond.log_hr == marg.log_hr
    assert cond.se == marg.se
    assert cond.scale == CONDITIONAL


def test_conditional_records_scale():
    trial = simulate_trial(study_A_model(), 2000, RandomStream(3))
    cond = conditional_effect(trial, ["PLNEN", "ISS", "Refr"])
    assert cond.scale == CONDITIONAL


def test_collapsible_degenerate_case():
    # without prognostic covariates the hazard ratio collapses
    covs = (CovariateSpec("b", Bernoulli(0.5)),)
    model = OutcomeModelSpec(math.log(0.7), RATE, CENS_RATE, covs)
    trial = simulate_trial(model, 2 * 10**4, RandomStream(4))
    marg = marginal_effect(trial)
    cond = conditional_effect(trial, ["b"])
    combined = math.sqrt(marg.se**2 + cond.se**2)
    assert abs(marg.log_hr - cond.log_hr) < 3 * combined
