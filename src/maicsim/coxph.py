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
from dataclasses import dataclass, field
from functools import cached_property

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


def check_outcomes(time: np.ndarray, status: np.ndarray) -> None:
    """ValueError unless every time is finite and positive, every status 0/1."""
    # comparisons with NaN are false, so each test is for the good values
    if not np.all((time > 0) & (time < np.inf)):
        raise ValueError("all times must be finite and positive")
    if not np.all((status == 0) | (status == 1)):
        raise ValueError("status must be 0/1")


def time_order(time: np.ndarray) -> np.ndarray:
    """Indices that sort ``time`` in descending order; tied subjects come in
    reverse input order, so the order is ascending stable order reversed."""
    return np.argsort(time, kind="stable")[::-1]


@dataclass(frozen=True)
class SurvivalSample:
    """Outcomes and design of one fit. ``Z`` is n x p, or one covariate as a
    vector. ``order`` is ``time_order(time)``, passed in so that every fit
    on one trial shares a single sort; a given order is checked, not
    trusted."""

    time: np.ndarray
    status: np.ndarray
    Z: np.ndarray
    w: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        status = np.asarray(self.status, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        w = np.ones(time.shape[0]) if self.w is None else np.asarray(self.w, dtype=float)
        n = time.shape[0]
        if Z.ndim != 2 or Z.shape[0] != n:
            raise ValueError(f"Z must be n x p with n = {n} rows, got shape {Z.shape}")
        if status.shape[0] != n or w.shape[0] != n:
            raise ValueError("time, status, Z and w must have matching length")
        check_outcomes(time, status)
        if not np.all(np.isfinite(Z)):
            raise ValueError("all covariate values Z must be finite")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("all weights must be finite and positive")
        if not np.any(status == 1):
            raise NoEvents("sample contains no events")
        if self.order is None:
            order = time_order(time)
        else:
            order = np.asarray(self.order)
            if (order.shape != (n,) or order.dtype.kind not in "iu"
                    or np.any(np.bincount(order, minlength=n) != 1)):
                raise ValueError("order must be a permutation of the n subjects")
            t = time[order]
            if np.any(t[1:] > t[:-1]):
                raise ValueError("order does not sort the times in descending order")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


class _SortedSample:
    """The sample in descending time order with covariates stored p x n, so
    that the risk-set sums S0 and S1 are forward cumulative sums over
    contiguous memory."""

    def __init__(self, data: SurvivalSample):
        self.order = data.order
        t = data.time[self.order]
        self.d = data.status[self.order]
        self.w = data.w[self.order]
        # gathering along the rows of a p x n copy is faster than transposing
        # a gathered n x p array
        self.z = np.ascontiguousarray(data.Z.T).take(self.order, axis=1)
        self.w_event = np.where(self.d == 1, self.w, 0.0)
        # event positions in ascending time, the order the log-likelihood sums
        self.events = np.flatnonzero(self.d)[::-1]
        # subject i's risk set runs through the last position sharing its time;
        # the events at or before its time start at the first such position
        new = t[1:] != t[:-1]
        self.first = self.last = None
        if not np.all(new):
            warnings.warn("tied event times present; using Breslow tie handling")
            group = np.concatenate(([0], np.cumsum(new)))
            bounds = np.flatnonzero(np.concatenate(([True], new, [True])))
            self.first = bounds[:-1][group]
            self.last = bounds[1:][group] - 1

    def at_risk(self, x: np.ndarray) -> np.ndarray:
        """Sums of ``x`` (along its last axis) over each subject's risk set."""
        sums = np.cumsum(x, axis=-1)
        return sums if self.last is None else sums[..., self.last]

    def events_through(self, a: np.ndarray) -> np.ndarray:
        """Sums of ``a`` (along its last axis, zero off events) over the events
        at or before each subject's time."""
        sums = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
        return sums if self.first is None else sums[..., self.first]

    def risk_sums(self, beta: np.ndarray):
        """eta, the risk scores w exp(eta), S0 and S1 over each risk set, and
        a = w / S0 at events (0 elsewhere)."""
        eta = beta @ self.z
        r = self.w * np.exp(eta)
        s0 = self.at_risk(r)
        return eta, r, s0, self.at_risk(r * self.z), self.w_event / s0


@dataclass
class CoxFit:
    beta: np.ndarray
    se_model: np.ndarray
    loglik_at_solution: float
    iterations: int
    converged: bool
    score_norm: float
    # what the sandwich needs, so that it is built only if se_robust is read
    _sorted: _SortedSample = field(repr=False, compare=False)
    _bread: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def se_robust(self) -> np.ndarray:
        """Lin-Wei robust standard errors, built on first read."""
        return np.sqrt(np.diag(robust_variance(self)))


def partial_loglik(beta: np.ndarray, data: SurvivalSample) -> float:
    return _score_info(_SortedSample(data), np.asarray(beta, dtype=float))[0]


def score_and_information(beta: np.ndarray, data: SurvivalSample):
    """Analytic gradient and negative Hessian of the weighted partial
    log-likelihood."""
    return _score_info(_SortedSample(data), np.asarray(beta, dtype=float))[1:]


def _score_info(s: _SortedSample, beta: np.ndarray):
    eta, r, s0, s1, a = s.risk_sums(beta)
    e = s.events
    loglik = float(np.sum(s.w[e] * (eta[e] - np.log(s0[e]))))
    # one p x n scratch array serves all three products. (Z - S1/S0) is
    # formed before the product: sum_e w_e z_e - S1 a would cancel two large
    # sums
    tmp = s1 / s0
    grad = np.subtract(s.z, tmp, out=tmp) @ s.w_event
    # sum_e w_e / S0(t_e) sum_{t_i >= t_e} r_i z_i z_i', summed by subject i
    # instead: G0_i sums w_e / S0(t_e) over the events up to t_i
    info = np.multiply(s.z, r * s.events_through(a), out=tmp) @ s.z.T
    info -= np.multiply(s1, a / s0, out=tmp) @ s1.T
    return loglik, grad, info


def fit_cox(data: SurvivalSample) -> CoxFit:
    """Damped Newton from beta = 0 on the negated partial log-likelihood, once
    no column of Z is constant: its information would be rounding noise."""
    spread = np.ptp(data.Z, axis=0)
    if not np.all(spread):
        raise SingularInformation(f"column {np.argmin(spread)} of the design is "
                                  "constant (column 0 is treatment)")
    s = _SortedSample(data)

    def evaluate(beta):
        loglik, grad, info = _score_info(s, beta)
        return -loglik, -grad, info

    try:
        beta, neg_loglik, neg_score, info, converged, iterations = newton.minimize(
            evaluate, data.p)
        cov_model = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(str(exc)) from exc
    remaining = np.abs(cov_model @ neg_score) * spread
    if converged and np.max(remaining) > _REMAINING_STEP_BOUND:
        raise MonotoneLikelihood(
            f"Newton converged {np.max(remaining):.3g} short in the linear "
            "predictor; likely separation")
    return CoxFit(
        beta=beta,
        se_model=np.sqrt(np.diag(cov_model)),
        loglik_at_solution=-neg_loglik,
        iterations=iterations,
        converged=converged,
        score_norm=float(np.max(np.abs(neg_score))),
        _sorted=s,
        _bread=cov_model,
    )


def require_converged(fit: CoxFit) -> CoxFit:
    """``fit`` itself, or ``NotConverged`` if its Newton search stopped early."""
    if not fit.converged:
        raise NotConverged(f"Cox fit stopped unconverged after {fit.iterations} "
                           f"Newton steps (max |score| {fit.score_norm:.3g})")
    return fit


def score_residuals(beta: np.ndarray, data: SurvivalSample) -> np.ndarray:
    """Per-subject score residuals U_i (weights excluded), n x p in input order.

    Sum_i w_i U_i equals the score, hence vanishes at the optimum.
    """
    s = _SortedSample(data)
    out = np.empty((data.n, data.p))
    out[s.order] = _residuals(s, np.asarray(beta, dtype=float)).T
    return out


def _residuals(s: _SortedSample, beta: np.ndarray) -> np.ndarray:
    """Score residuals, p x n in the time order of ``s``."""
    eta, _, s0, s1, a = s.risk_sums(beta)
    zbar = s1 / s0
    g0 = s.events_through(a)
    g1 = s.events_through(a * zbar)
    return s.d * (s.z - zbar) - np.exp(eta) * (g0 * s.z - g1)


def robust_variance(fit: CoxFit) -> np.ndarray:
    """Lin-Wei sandwich inv(I) (sum_i w_i^2 U_i U_i') inv(I), from the fit's
    own time order and inverse information."""
    uw = fit._sorted.w * _residuals(fit._sorted, fit.beta)
    return fit._bread @ (uw @ uw.T) @ fit._bread
