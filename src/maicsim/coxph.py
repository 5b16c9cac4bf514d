"""Cox proportional-hazards fitting by Newton-Raphson on the partial likelihood.

Supports subject (case) weights: each subject contributes its weight to both
the event terms and the risk-set sums. Ties are handled with the Breslow
approximation; a warning is emitted when ties are present since the
data-generating process here is continuous-time and ties should not occur.
Variance comes in two flavours: model-based (inverse information) and the
Lin-Wei robust sandwich built from per-subject score residuals.
"""

from __future__ import annotations

import threading
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


def _sort(time: np.ndarray):
    """Indices that sort ``time`` in descending order, tied subjects in reverse
    input order, and whether each time in that order differs from the next.
    Untied times have one sorting order, which the default sort finds faster
    than a stable one; only tied times are sorted again, stably."""
    order = np.argsort(time)
    t = time[order]
    new = t[1:] != t[:-1]
    if not np.all(new):
        order = np.argsort(time, kind="stable")
    return order[::-1], new[::-1]


class TimeOrder:
    """One trial's subjects in descending time order, with what every Cox fit
    on the trial reads of it: the statuses in that order, the event positions
    and the tie groups. It is built and checked once per trial and shared by
    the trial's fits, each of which adds only its design and weights
    (``_SortedSample``). A given ``order`` is checked, not trusted."""

    def __init__(self, time: np.ndarray, status: np.ndarray,
                 order: np.ndarray | None = None):
        time = np.asarray(time, dtype=float)
        status = np.asarray(status, dtype=float)
        if time.ndim != 1 or status.shape != time.shape:
            raise ValueError("time and status must be 1-D of matching length")
        check_outcomes(time, status)
        if not np.any(status == 1):
            raise NoEvents("sample contains no events")
        n = time.shape[0]
        if order is None:
            order, new = _sort(time)
        else:
            order = np.asarray(order)
            # a negative index names a subject to numpy, but not to bincount
            if (order.shape != (n,) or order.dtype.kind not in "iu"
                    or order.min() < 0
                    or np.any(np.bincount(order, minlength=n) != 1)):
                raise ValueError("order must be a permutation of the n subjects")
            t = time[order]
            if np.any(t[1:] > t[:-1]):
                raise ValueError("order does not sort the times in descending order")
            new = t[1:] != t[:-1]
        self.order = order
        self.d = status[order]
        # event positions in ascending time, the order the log-likelihood sums
        self.events = np.flatnonzero(self.d)[::-1].copy()  # np.take copies a view
        # subject i's risk set runs through the last position sharing its
        # time; the events at or before its time start at the first such
        # position, which ``first`` counts from the end, as the reversed
        # cumulative sums of ``events_through`` hold it
        self.first = self.last = None
        if not np.all(new):
            group = np.concatenate(([0], np.cumsum(new)))
            bounds = np.flatnonzero(np.concatenate(([True], new, [True])))
            self.first = n - 1 - bounds[:-1][group]
            self.last = bounds[1:][group] - 1

    # Each sum below writes its cumulative sums to ``sums`` and, with tied
    # times, gathers them into ``gathered``; it returns the result and the
    # one of the two it leaves free. ``gathered`` may be ``x`` itself. The
    # gathers clip because ``mode="raise"`` buffers its output.

    def at_risk(self, x: np.ndarray, sums: np.ndarray, gathered: np.ndarray):
        """Sums of ``x`` (along its last axis) over each subject's risk set."""
        x.cumsum(axis=-1, out=sums)
        if self.last is None:
            return sums, gathered
        sums.take(self.last, axis=-1, out=gathered, mode="clip")
        return gathered, sums

    def events_through(self, x: np.ndarray, sums: np.ndarray, gathered: np.ndarray):
        """Sums of ``x`` (along its last axis, zero off events) over the events
        at or before each subject's time."""
        x[..., ::-1].cumsum(axis=-1, out=sums)
        if self.first is None:
            return sums[..., ::-1], gathered
        sums.take(self.first, axis=-1, out=gathered, mode="clip")
        return gathered, sums


# each thread's one reused float64 array for the evaluations of ``risk_sums``
_scratch = threading.local()


def _buffers(n: int, p: int):
    """Five n-vectors and two p x n arrays, views into this thread's scratch:
    5 n + 2 p n doubles, grown to the largest fit the thread has run and
    reused by every later one. Nothing this module returns aliases it."""
    size = (5 + 2 * p) * n
    if getattr(_scratch, "buf", None) is None or _scratch.buf.size < size:
        _scratch.buf = None  # the smaller array goes before the larger is made
        _scratch.buf = np.empty(size)
    buf = _scratch.buf
    return (*buf[:5 * n].reshape(5, n), *buf[5 * n:size].reshape(2, p, n))


class _SortedSample:
    """What one fit adds to its trial's ``TimeOrder``, checked here: the
    design's p >= 1 columns gathered into p x n rows, so that the risk-set
    sums S0 and S1 are forward cumulative sums over contiguous memory, and
    the weights in that order. Unweighted (``w`` None) it keeps no weights:
    the event weights are the statuses and the risk scores exp(eta)."""

    def __init__(self, times: TimeOrder, columns, w=None):
        n = times.order.size
        columns = [np.asarray(z, dtype=float) for z in columns]
        if not columns or any(z.shape != (n,) for z in columns):
            raise ValueError(f"need p >= 1 covariate columns of n = {n} values each")
        if not all(np.all(np.isfinite(z)) for z in columns):
            raise ValueError("all covariate values Z must be finite")
        self.w, self.w_event = None, times.d
        if w is not None:
            w = np.asarray(w, dtype=float)
            if not (w.shape == (n,) and np.all((w > 0) & (w < np.inf))):
                raise ValueError("all weights must be finite and positive, one for "
                                 f"each of the n = {n} subjects")
            self.w = w[times.order]
            self.w_event = np.where(times.d == 1, self.w, 0.0)
        self.time_order = times
        if times.last is not None:
            warnings.warn("tied event times present; using Breslow tie handling")
        # one gather per column, straight into its row
        self.z = np.empty((len(columns), n))
        for column, row in zip(columns, self.z):
            column.take(times.order, out=row, mode="clip")

    def risk_sums(self, beta: np.ndarray):
        """eta, exp(eta), the risk scores r = w exp(eta), S0 and S1 over each
        risk set, a = w / S0 at events (0 elsewhere) and a free p x n array,
        all in this thread's scratch and overwritten by the next call."""
        times = self.time_order
        eta, expeta, r, v0, v1, m0, m1 = _buffers(*self.z.shape[::-1])
        np.matmul(beta, self.z, out=eta)
        np.exp(eta, out=expeta)
        if self.w is None:
            np.copyto(r, expeta)
        else:
            np.multiply(self.w, expeta, out=r)
        s0, a = times.at_risk(r, v0, v1)
        np.divide(self.w_event, s0, out=a)
        # S1 is cumulated out of place: numpy would copy an in-place cumsum
        s1, free = times.at_risk(np.multiply(r, self.z, out=m0), m1, m0)
        return eta, expeta, r, s0, s1, a, free


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


def partial_loglik(beta: np.ndarray, times: TimeOrder, columns, w=None) -> float:
    """The partial log-likelihood at ``beta``, for the arguments of ``fit_cox``."""
    return _score_info(_SortedSample(times, columns, w), np.asarray(beta, dtype=float))[0]


def score_and_information(beta: np.ndarray, times: TimeOrder, columns, w=None):
    """Analytic gradient and negative Hessian of the partial log-likelihood,
    for the arguments of ``fit_cox``."""
    return _score_info(_SortedSample(times, columns, w), np.asarray(beta, dtype=float))[1:]


def _score_info(s: _SortedSample, beta: np.ndarray):
    eta, expeta, r, s0, s1, a, tmp = s.risk_sums(beta)
    e = s.time_order.events
    # sum_e w_e (eta_e - log S0_e), in the two free n-vectors eta and expeta
    eta_e = eta.take(e, out=expeta[:e.size], mode="clip")
    terms = np.log(s0.take(e, out=eta[:e.size], mode="clip"), out=eta[:e.size])
    np.subtract(eta_e, terms, out=terms)
    if s.w is not None:
        np.multiply(s.w.take(e, out=eta_e, mode="clip"), terms, out=terms)
    loglik = float(terms.sum())
    # one p x n array serves all three products. (Z - S1/S0) is formed before
    # the product: sum_e w_e z_e - S1 a would cancel two large sums
    grad = np.subtract(s.z, np.divide(s1, s0, out=tmp), out=tmp) @ s.w_event
    # sum_e w_e / S0(t_e) sum_{t_i >= t_e} r_i z_i z_i', summed by subject i
    # instead: G0_i sums w_e / S0(t_e) over the events up to t_i
    g0, free = s.time_order.events_through(a, eta, expeta)
    rg0 = np.multiply(r, g0, out=free)
    info = np.multiply(s.z, rg0, out=tmp) @ s.z.T
    info -= np.multiply(s1, np.divide(a, s0, out=rg0), out=tmp) @ s1.T
    return loglik, grad, info


def fit_cox(times: TimeOrder, columns, w=None) -> CoxFit:
    """Cox fit of the outcomes whose ``TimeOrder`` is ``times`` (a trial's
    own, or ``TimeOrder(time, status)`` for a bare fit) on the p >= 1
    covariate vectors ``columns``, with subject weights ``w`` or none.
    Damped Newton from beta = 0 on the negated partial log-likelihood, once
    no column is constant: its information would be rounding noise."""
    s = _SortedSample(times, columns, w)
    spread = np.ptp(s.z, axis=1)
    if not np.all(spread):
        raise SingularInformation(f"column {np.argmin(spread)} of the design is "
                                  "constant (column 0 is treatment)")

    def evaluate(beta):
        loglik, grad, info = _score_info(s, beta)
        return -loglik, -grad, info

    try:
        beta, neg_loglik, neg_score, info, converged, iterations = newton.minimize(
            evaluate, s.z.shape[0])
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


def score_residuals(beta: np.ndarray, times: TimeOrder, columns, w=None) -> np.ndarray:
    """Per-subject score residuals U_i (weights excluded), n x p in input
    order, for the arguments of ``fit_cox``. Sum_i w_i U_i equals the score,
    hence vanishes at the optimum."""
    s = _SortedSample(times, columns, w)
    out = np.empty(s.z.shape[::-1])
    out[times.order] = _residuals(s, np.asarray(beta, dtype=float)).T
    return out


def _residuals(s: _SortedSample, beta: np.ndarray) -> np.ndarray:
    """Score residuals, p x n in the time order of ``s``, in a new array."""
    eta, expeta, r, s0, s1, a, zbar = s.risk_sums(beta)
    np.divide(s1, s0, out=zbar)
    times = s.time_order
    g0, _ = times.events_through(a, eta, r)
    # d (Z - zbar) - exp(eta) (G0 Z - G1), the first term in the result
    out = np.empty(zbar.shape)
    np.multiply(times.d, np.subtract(s.z, zbar, out=out), out=out)
    g1, tmp = times.events_through(np.multiply(zbar, a, out=s1), zbar, s1)
    np.subtract(np.multiply(g0, s.z, out=tmp), g1, out=tmp)
    return np.subtract(out, np.multiply(tmp, expeta, out=tmp), out=out)


def robust_variance(fit: CoxFit) -> np.ndarray:
    """Lin-Wei sandwich inv(I) (sum_i w_i^2 U_i U_i') inv(I), from the fit's
    own time order and inverse information; unweighted, w is 1."""
    w, bread = fit._sorted.w, fit._bread
    uw = _residuals(fit._sorted, fit.beta)
    if w is not None:
        # weights c w give the same sandwich; w U over a power of two s near the
        # largest weight, and the bread times s, are exact and keep (w U)^2 finite
        s = np.ldexp(1.0, np.frexp(w.max())[1])
        uw *= w
        uw /= s
        bread = bread * s
    return bread @ (uw @ uw.T) @ bread
