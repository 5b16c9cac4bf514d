"""The rules of the Newton solver: each Cholesky pivot at the start is
measured against its own diagonal entry, so no unit changes a verdict, and a
value that is not finite is a failed step."""

import warnings

import numpy as np
import pytest

from maicsim import newton
from maicsim.balance import (
    TargetOutsideSupport,
    WeightsNotConverged,
    center_covariates,
    estimate_weights,
)
from maicsim.coxph import CoxError, TimeOrder, fit_cox

UNITS = (1e-9, 1.0, 1e9)


def verdict(solve, *args) -> str:
    # a solver returns only a converged solve, and names every other outcome
    try:
        solve(*args)
        return "converged"
    except (CoxError, TargetOutsideSupport, WeightsNotConverged,
            np.linalg.LinAlgError) as exc:
        return type(exc).__name__


def quadratic(h):
    c = np.array([1.0, -2.0]) / np.sqrt(np.diag(h))
    return lambda x: (0.5 * (x - c) @ h @ (x - c), h @ (x - c), h)


@pytest.mark.parametrize("one_minus_r2, singular",
                         [(1e-12, True), (1e-11, False), (0.75, False)])
def test_pivot_rule_is_free_of_units(one_minus_r2, singular):
    # the second column's squared pivot is 1 - R^2 of its diagonal entry,
    # whatever the units; PIVOT_TOL is about 1.8e-12
    rho = np.sqrt(1 - one_minus_r2)
    for units in ([1.0, 1.0], [1e-9, 1e9], [1e9, 1e-9]):
        d = np.array(units)
        h = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(d, d)
        if singular:
            with pytest.raises(np.linalg.LinAlgError, match="collinear"):
                newton.minimize(quadratic(h), 2)
        else:
            assert newton.minimize(quadratic(h), 2)[4]


# a numpy operation that warns and gives NaN, +inf or -inf
NOT_FINITE = {"nan": lambda: np.log(np.float64(-1.0)),
              "+inf": lambda: np.exp(np.float64(1000.0)),
              "-inf": lambda: np.log(np.float64(0.0))}


@pytest.mark.parametrize("kind", sorted(NOT_FINITE))
def test_value_that_is_not_finite_is_a_failed_step(kind):
    # a quadratic bowl, whose value is not finite off the start: every step
    # and each of its halvings fails, -inf as much as NaN and +inf
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    bowl = quadratic(h)
    calls = []

    def evaluate(x):
        calls.append(x)
        f, g, hess = bowl(x)
        return (f if not np.any(x) else NOT_FINITE[kind]()), g, hess

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, f, g, hess, converged, iterations = newton.minimize(evaluate, 2)
    assert not converged and iterations == 0
    assert not np.any(x) and f == bowl(x)[0]
    assert len(calls) == newton.MAX_HALVINGS + 2
    # the trial steps halve from the full Newton step
    steps = np.array(calls[1:])
    np.testing.assert_array_equal(steps[1:], steps[:-1] / 2)


def cox_designs(rng, n):
    """Outcomes and three designs with their verdicts, the last column of each
    to be rescaled: well posed, a constant beside treatment, and an affine
    copy of treatment."""
    d = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=n)
    time = rng.exponential(1.0, n) * np.exp(-(0.5 * d + 0.3 * x))
    status = (rng.random(n) < 0.8).astype(float)
    status[0] = 1.0
    return time, status, [("converged", [d, x]),
                          ("SingularInformation", [d, np.full(n, 0.3)]),
                          ("SingularInformation", [x, d, 2 * d + 5])]


def test_cox_verdicts_do_not_depend_on_units():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(20, 501))
        time, status, designs = cox_designs(rng, n)
        for expected, cols in designs:
            for unit in UNITS:
                got = verdict(fit_cox, TimeOrder(time, status),
                              cols[:-1] + [unit * cols[-1]])
                assert got == expected, (n, len(cols), unit)


def test_weighting_verdicts_do_not_depend_on_units():
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(300):
        n, k = int(rng.integers(20, 501)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, k)) * rng.uniform(0.2, 3, k) + rng.normal(size=k)
        for j in np.flatnonzero(rng.random(k) < 0.4):
            X[:, j] = rng.random(n) < rng.uniform(0.05, 0.95)
        target = X.mean(axis=0) + rng.normal(size=k) * X.std(axis=0) * rng.uniform(0, 2)
        units = 10.0 ** rng.uniform(-9, 9, k)
        got = verdict(estimate_weights, center_covariates(X, target))
        assert verdict(estimate_weights, center_covariates(X * units, target * units)) \
            == got, (n, k, np.log10(units))
        seen.add(got)
    assert {"converged", "TargetOutsideSupport"} <= seen
