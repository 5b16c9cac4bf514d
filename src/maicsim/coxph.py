"""Cox proportional-hazards fitting by Newton-Raphson on the partial likelihood.

Supports subject (case) weights: each subject contributes its weight to both
the event terms and the risk-set sums. Ties are handled with the Breslow
approximation; a warning is emitted when ties are present since the
data-generating process here is continuous-time and ties should not occur.
Variance comes in two flavours: model-based (inverse information) and the
Lin-Wei robust sandwich built from per-subject score residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import newton

# At a finite maximum the Newton step left after convergence is rounding
# noise (about 1e-9 or less in linear-predictor units on the benchmark's fits);
# where the likelihood only levels off (separation) it still moves some
# subject's linear predictor by about one unit, whatever the covariate's scale.
_REMAINING_STEP_BOUND = 1e-3


class CoxError(Exception):
    pass


class NoEvents(CoxError):
    pass


class SingularInformation(CoxError):
    pass


class MonotoneLikelihood(CoxError):
    """Coefficients diverging (separation); the partial likelihood has no
    finite maximizer."""


class NotConverged(CoxError):
    """Newton stopped before the partial likelihood converged."""


@dataclass(frozen=True)
class SurvivalSample:
    time: np.ndarray
    status: np.ndarray
    Z: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        status = np.asarray(self.status, dtype=float)
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if Z.shape[0] != time.shape[0]:
            Z = Z.T
        w = np.ones(time.shape[0]) if self.w is None else np.asarray(self.w, dtype=float)
        n = time.shape[0]
        if status.shape[0] != n or Z.shape[0] != n or w.shape[0] != n:
            raise ValueError("time, status, Z and w must have matching length")
        if np.any(time <= 0):
            raise ValueError("all times must be positive")
        if not np.all((status == 0) | (status == 1)):
            raise ValueError("status must be 0/1")
        if np.any(w <= 0):
            raise ValueError("all weights must be positive")
        if not np.any(status == 1):
            raise NoEvents("sample contains no events")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass
class CoxFit:
    beta: np.ndarray
    se_model: np.ndarray
    se_robust: np.ndarray
    loglik_at_solution: float
    iterations: int
    converged: bool
    score_norm: float


class _SortedSample:
    """Sample sorted by ascending time with tie-group indices precomputed."""

    def __init__(self, data: SurvivalSample):
        order = np.argsort(data.time, kind="stable")
        self.order = order
        self.t = data.time[order]
        self.d = data.status[order]
        self.z = data.Z[order]
        self.w = data.w[order]
        # risk set of t_i starts at the first index sharing its time;
        # events at t_i accumulate through the last index sharing its time
        self.first = np.searchsorted(self.t, self.t, side="left")
        self.last = np.searchsorted(self.t, self.t, side="right") - 1
        if np.any(self.first != self.last):
            warnings.warn("tied event times present; using Breslow tie handling")
        self.events = self.d == 1

    def at_risk(self, x: np.ndarray) -> np.ndarray:
        """Sums of ``x`` (along axis 0) over the risk set of each subject's time."""
        return np.cumsum(x[::-1], axis=0)[::-1][self.first]

    def events_through(self, x: np.ndarray) -> np.ndarray:
        """Sums of ``x`` (along axis 0) over the events at or before each subject's time."""
        return np.cumsum(np.where(self.events, x.T, 0.0).T, axis=0)[self.last]

    def risk_sums(self, beta: np.ndarray):
        """eta, the risk scores w exp(eta), and S0, S1 over each risk set."""
        eta = self.z @ beta
        r = self.w * np.exp(eta)
        return eta, r, self.at_risk(r), self.at_risk(r[:, None] * self.z)


def partial_loglik(beta: np.ndarray, data: SurvivalSample) -> float:
    return _score_info(_SortedSample(data), np.asarray(beta, dtype=float))[0]


def score_and_information(beta: np.ndarray, data: SurvivalSample):
    """Analytic gradient and negative Hessian of the weighted partial
    log-likelihood."""
    return _score_info(_SortedSample(data), np.asarray(beta, dtype=float))[1:]


def _score_info(s: _SortedSample, beta: np.ndarray):
    eta, r, s0, s1 = s.risk_sums(beta)
    e = s.events
    we = s.w[e]
    zbar = s1[e] / s0[e][:, None]
    loglik = float(np.sum(we * (eta[e] - np.log(s0[e]))))
    grad = (we[:, None] * (s.z[e] - zbar)).sum(axis=0)
    # sum_e w_e / S0(t_e) sum_{t_i >= t_e} r_i z_i z_i', summed by subject i instead
    g0 = s.events_through(s.w / s0)
    info = (s.z.T * (r * g0)) @ s.z - (we[:, None] * zbar).T @ zbar
    return loglik, grad, info


def fit_cox(data: SurvivalSample) -> CoxFit:
    """Damped Newton from beta = 0 on the negated partial log-likelihood."""
    s = _SortedSample(data)

    def evaluate(beta):
        loglik, grad, info = _score_info(s, beta)
        return -loglik, -grad, info

    try:
        beta, neg_loglik, neg_score, info, converged, iterations = newton.minimize(
            evaluate, data.p, lambda beta: None)
        cov_model = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(str(exc)) from exc
    remaining = np.abs(cov_model @ neg_score) * np.ptp(data.Z, axis=0)
    if converged and np.max(remaining) > _REMAINING_STEP_BOUND:
        raise MonotoneLikelihood(
            f"Newton converged {np.max(remaining):.3g} short in the linear "
            "predictor; likely separation")
    se_model = np.sqrt(np.diag(cov_model))
    return CoxFit(
        beta=beta,
        se_model=se_model,
        se_robust=np.sqrt(np.diag(_sandwich(s, beta, cov_model))),
        loglik_at_solution=-neg_loglik,
        iterations=iterations,
        converged=converged,
        score_norm=float(np.max(np.abs(neg_score))),
    )


def require_converged(fit: CoxFit) -> CoxFit:
    """``fit`` itself, or ``NotConverged`` if its Newton search stopped early."""
    if not fit.converged:
        raise NotConverged(f"Cox fit stopped unconverged after {fit.iterations} "
                           f"Newton steps (max |score| {fit.score_norm:.3g})")
    return fit


def score_residuals(beta: np.ndarray, data: SurvivalSample) -> np.ndarray:
    """Per-subject score residuals U_i (weights excluded), in input order.

    Sum_i w_i U_i equals the score, hence vanishes at the optimum.
    """
    s = _SortedSample(data)
    out = np.empty((data.n, data.p))
    out[s.order] = _residuals(s, np.asarray(beta, dtype=float))
    return out


def _residuals(s: _SortedSample, beta: np.ndarray) -> np.ndarray:
    """Score residuals in the time order of ``s``."""
    eta, _, s0, s1 = s.risk_sums(beta)
    zbar = s1 / s0[:, None]
    g0 = s.events_through(s.w / s0)
    g1 = s.events_through((s.w / s0)[:, None] * zbar)
    expeta = np.exp(eta)
    return (s.d[:, None] * (s.z - zbar)
            - expeta[:, None] * (g0[:, None] * s.z - g1))


def robust_variance(fit: CoxFit, data: SurvivalSample) -> np.ndarray:
    """Lin-Wei sandwich: inv(I) (sum_i w_i^2 U_i U_i') inv(I)."""
    s = _SortedSample(data)
    try:
        bread = np.linalg.inv(_score_info(s, fit.beta)[2])
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(str(exc)) from exc
    return _sandwich(s, fit.beta, bread)


def _sandwich(s: _SortedSample, beta: np.ndarray, bread: np.ndarray) -> np.ndarray:
    uw = s.w[:, None] * _residuals(s, beta)
    return bread @ (uw.T @ uw) @ bread
