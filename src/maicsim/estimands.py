"""Treatment-effect estimation: marginal and conditional effects, the
aggregate summary a trial publishes, and the anchored indirect comparison.

Every fit is ``coxph.fit_cox`` on the trial's one ``TimeOrder``, which returns
only a converged fit. Estimates carry their scale; combining a marginal with a
conditional one raises ScaleMismatch, since a hazard ratio is non-collapsible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cohortsim import TrialData, covariate_means
from .coxph import fit_cox

MARGINAL = "marginal"
CONDITIONAL = "conditional"

Z_975 = 1.959964  # normal 97.5% quantile for the 95% CI


class ScaleMismatch(ValueError):
    """Attempted to combine a marginal and a conditional effect estimate."""


@dataclass(frozen=True)
class EffectEstimate:
    log_hr: float
    se: float
    scale: str                  # MARGINAL or CONDITIONAL
    population: str = ""

    def __post_init__(self):
        if self.scale not in (MARGINAL, CONDITIONAL):
            raise ValueError(f"unknown scale {self.scale!r}")
        if not math.isfinite(self.log_hr):
            raise ValueError(f"log_hr must be finite, got {self.log_hr}")
        # se 0 is allowed so known truths can be expressed as estimates; the
        # comparison is false for NaN
        if not 0 <= self.se < math.inf:
            raise ValueError(f"se must be finite and non-negative, got {self.se}")

    @property
    def hr(self) -> float:
        return math.exp(self.log_hr)

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.log_hr - Z_975 * self.se, self.log_hr + Z_975 * self.se)

    def as_dict(self) -> dict:
        lo, hi = self.ci95
        return {
            "log_hr": self.log_hr,
            "hr": self.hr,
            "se": self.se,
            "ci95_lo": lo,
            "ci95_hi": hi,
            "scale": self.scale,
            "population": self.population,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


@dataclass(frozen=True)
class IndirectComparison:
    log_hr_AB: float
    se: float
    ci95: tuple[float, float]
    components: tuple[EffectEstimate, EffectEstimate]


def _require_same_scale(d_AC: EffectEstimate, d_BC: EffectEstimate):
    if d_AC.scale != d_BC.scale:
        raise ScaleMismatch(
            f"cannot combine a {d_AC.scale} estimate with a {d_BC.scale} one; "
            "marginal and conditional hazard ratios are distinct estimands")


def marginal_effect(trial: TrialData, weights: np.ndarray | None = None,
                    population: str = "") -> EffectEstimate:
    """Univariable (optionally weighted) Cox fit of outcome on treatment.

    With weights the robust sandwich standard error is reported, since the
    weighted score contributions are no longer independent unit terms.
    """
    fit = fit_cox(trial.time_order, (trial.trt,), weights)
    se = fit.se_robust[0] if weights is not None else fit.se_model[0]
    return EffectEstimate(float(fit.beta[0]), float(se), MARGINAL, population)


def conditional_effect(trial: TrialData, adjustment_set,
                       population: str = "") -> EffectEstimate:
    """Treatment coefficient of the Cox fit adjusted for the named covariates."""
    fit = fit_cox(trial.time_order, (trial.trt, *map(trial.column, adjustment_set)))
    return EffectEstimate(float(fit.beta[0]), float(fit.se_model[0]),
                          CONDITIONAL, population)


@dataclass(frozen=True)
class AggregateSummary:
    """The 'Table 1' of an aggregate-level study: covariate means plus the
    marginal treatment-effect summary. This is all of study B that an
    anchored MAIC may use."""
    covariate_names: tuple[str, ...]
    means: np.ndarray
    effect: EffectEstimate

    def mean(self, name: str) -> float:
        return float(self.means[self.covariate_names.index(name)])


def summarize_aggregate(trial: TrialData, population: str = "") -> AggregateSummary:
    """What a trial publishes: each covariate's mean, and the marginal effect
    of the unweighted univariable Cox fit with its model SE."""
    return AggregateSummary(trial.covariate_names, covariate_means(trial),
                            marginal_effect(trial, population=population))


def bucher_compare(d_AC: EffectEstimate, d_BC: EffectEstimate) -> IndirectComparison:
    """Anchored indirect comparison: difference of same-scale log hazard
    ratios with variances summed across the two independent trials."""
    _require_same_scale(d_AC, d_BC)
    log_hr = d_AC.log_hr - d_BC.log_hr
    se = math.sqrt(d_AC.se**2 + d_BC.se**2)
    return IndirectComparison(
        log_hr_AB=log_hr,
        se=se,
        ci95=(log_hr - Z_975 * se, log_hr + Z_975 * se),
        components=(d_AC, d_BC),
    )


def hr_ratio(d_AC: EffectEstimate, d_BC: EffectEstimate) -> float:
    _require_same_scale(d_AC, d_BC)
    return math.exp(d_AC.log_hr - d_BC.log_hr)
