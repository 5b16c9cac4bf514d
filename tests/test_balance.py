import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maicsim import balance, newton
from maicsim.balance import (
    MaicWeights,
    TargetOutsideSupport,
    WeightsNotConverged,
    balance_report,
    center_covariates,
    effective_sample_size,
    estimate_weights,
    objective_and_gradient,
)


def random_problem(rng, n=40, k=3, shift=0.2):
    X = rng.normal(size=(n, k)) + rng.normal(scale=0.5, size=k)
    targets = X.mean(axis=0) + shift * rng.uniform(-1, 1, k)
    return center_covariates(X, targets)


def test_centering_on_own_means_gives_zero_columns():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    prob = center_covariates(X, X.mean(axis=0))
    assert np.all(np.abs(prob.mean(axis=0)) < 1e-12)


def test_centering_is_exact_subtraction():
    X = np.array([[69.3], [69.3]])
    prob = center_covariates(X, [62.1])
    assert prob[0, 0] == pytest.approx(7.2, abs=1e-12)


def test_center_dimension_mismatch():
    with pytest.raises(ValueError):
        center_covariates(np.zeros((5, 2)), [1.0, 2.0, 3.0])


def test_objective_at_zero():
    rng = np.random.default_rng(1)
    prob = random_problem(rng)
    q, g, _ = objective_and_gradient(np.zeros(prob.shape[1]), prob)
    assert q == pytest.approx(prob.shape[0], rel=1e-12)
    np.testing.assert_allclose(g, prob.sum(axis=0), rtol=1e-12)


def test_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(100):
        prob = random_problem(rng, n=15, k=2)
        alpha = rng.normal(scale=0.3, size=2)
        _, g, _ = objective_and_gradient(alpha, prob)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            qp, _, _ = objective_and_gradient(alpha + e, prob)
            qm, _, _ = objective_and_gradient(alpha - e, prob)
            fd = (qp - qm) / (2 * h)
            assert abs(g[j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_hessian_vs_finite_differences_of_gradient():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(100):
        prob = random_problem(rng, n=15, k=3)
        alpha = rng.normal(scale=0.3, size=3)
        _, _, hess = objective_and_gradient(alpha, prob)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            _, gp, _ = objective_and_gradient(alpha + e, prob)
            _, gm, _ = objective_and_gradient(alpha - e, prob)
            fd = (gp - gm) / (2 * h)
            assert np.max(np.abs(hess[:, j] - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6


def test_overflowing_step_is_halved_by_the_solver(monkeypatch):
    # the target lies next to the second row, so Newton's steps toward it
    # overshoot: two of them overflow exp and five more give a finite Q
    # above Q(0) = 5. No guard pre-empts the overflow; Newton halves each such
    # step, and no numpy warning escapes the solve
    seen = []

    def recording(alpha, Xc):
        result = objective_and_gradient(alpha, Xc)
        seen.append(result[0])
        return result

    monkeypatch.setattr(balance, "objective_and_gradient", recording)
    X = np.array([[-0.46, 0.08], [0.05, -0.55], [-4.15, -2.93], [0.2, -4.5],
                  [0.02, -0.68]])
    weights = estimate_weights(center_covariates(X, [0.05, -0.552]))
    assert weights.converged and weights.grad_norm < 1e-12
    assert seen.count(np.inf) == 2
    assert sum(5 < q < np.inf for q in seen) == 5
    assert weights.w @ X / weights.w.sum() == pytest.approx([0.05, -0.552], abs=1e-12)


def test_closed_form_two_point_instance():
    # Xc = {-1, +2}: stationarity gives 2 exp(3 a) = 1, a = -ln(2)/3
    prob = center_covariates(np.array([[-1.0], [2.0]]), [0.0])
    expected = -math.log(2) / 3
    _, g, _ = objective_and_gradient(np.array([expected]), prob)
    assert abs(g[0]) < 1e-12
    weights = estimate_weights(prob)
    assert weights.converged
    assert weights.alpha[0] == pytest.approx(expected, abs=1e-6)


def test_bfgs_quadratic_bowl():
    c = np.array([1.5, -2.0, 0.25])

    def bowl(a):
        return float(np.sum((a - c) ** 2)), 2 * (a - c), 2 * np.eye(3)

    alpha, _, _, _, converged, iterations = newton.minimize(bowl, 3)
    assert converged and iterations <= 25
    np.testing.assert_allclose(alpha, c, atol=1e-8)


def test_bfgs_stationary_start():
    def bowl(a):
        return float(np.sum(a**2)), 2 * a, 2 * np.eye(2)

    alpha, _, _, _, _, iterations = newton.minimize(bowl, 2)
    assert iterations == 0
    assert np.all(alpha == 0.0)


def test_bfgs_objective_non_increasing():
    rng = np.random.default_rng(3)
    prob = random_problem(rng)
    alpha = estimate_weights(prob).alpha
    # accepted iterates never increase Q, so the end is no worse than the start
    q_final, _, _ = objective_and_gradient(alpha, prob)
    q_start, _, _ = objective_and_gradient(np.zeros(prob.shape[1]), prob)
    assert q_final <= q_start + 1e-12


def test_weights_identity_when_targets_are_sample_means():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    prob = center_covariates(X, X.mean(axis=0))
    weights = estimate_weights(prob)
    assert weights.converged
    np.testing.assert_allclose(weights.alpha, np.zeros(3), atol=1e-6)
    np.testing.assert_allclose(weights.w, np.ones(60), atol=1e-5)
    assert weights.ess == pytest.approx(60, abs=1e-6)


def test_moment_condition_holds_at_convergence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob = random_problem(rng, n=80, k=3, shift=0.3)
        weights = estimate_weights(prob)
        assert weights.converged
        rel = np.abs(prob.T @ weights.w) / weights.w.sum()
        assert np.max(rel) <= 1e-6


def test_weight_invariant_w_equals_exp_tilt():
    rng = np.random.default_rng(6)
    prob = random_problem(rng)
    weights = estimate_weights(prob)
    np.testing.assert_array_equal(weights.w, np.exp(prob @ weights.alpha))


def test_target_outside_support():
    X = np.zeros((20, 1))  # binary covariate observed only at 0
    prob = center_covariates(X, [0.5])
    with pytest.raises(TargetOutsideSupport):
        estimate_weights(prob)


def test_target_on_hull_boundary_named():
    # at the largest x Newton drives the other weights to exactly 0, and the
    # weighted mean meets the target
    X = np.array([[-2.2], [39.1], [38.4], [-0.6]])
    with pytest.raises(TargetOutsideSupport, match="boundary of the convex hull"):
        balance.weight_to_means(X, [39.1], ["x"])
    # just inside the hull the weights are all positive
    weights, report = balance.weight_to_means(X, [39.0], ["x"])
    assert np.all(weights.w > 0) and report.ess > 0


def test_target_outside_hull_named_when_newton_stops_unconverged():
    # below every IPD value Newton moves alpha by about 1 / gap a step, so it
    # runs out of steps with a vanishing gradient, while the weighted mean
    # stays at the edge of the hull
    age = np.random.default_rng(3).normal(59.0, 1.0, size=(1000, 1))
    assert age.min() > 52.0
    with pytest.raises(TargetOutsideSupport, match="miss the target means"):
        estimate_weights(center_covariates(age, [52.0]))
    for target in (57.0, 59.0):
        weights = estimate_weights(center_covariates(age, [target]))
        assert weights.converged and weights.iterations < newton.MAX_ITERS


def test_unfinished_solve_refused_by_estimate_weights(monkeypatch):
    # a Newton that stops at the solution but reports itself unconverged: an
    # in-hull target is refused as unconverged, an out-of-hull one keeps its name
    minimize = newton.minimize
    monkeypatch.setattr(newton, "minimize", lambda *args: (
        *minimize(*args)[:4], False, newton.MAX_ITERS))
    age = np.random.default_rng(3).normal(59.0, 1.0, size=(1000, 1))
    with pytest.raises(WeightsNotConverged,
                       match=f"unconverged after {newton.MAX_ITERS} Newton steps"):
        estimate_weights(center_covariates(age, [59.0]))
    with pytest.raises(WeightsNotConverged):
        balance.weight_to_means(age, [59.0], ["Age"])
    with pytest.raises(TargetOutsideSupport, match="miss the target means"):
        estimate_weights(center_covariates(age, [52.0]))
    # nor can weights be built that say they did not converge
    with pytest.raises(TypeError):
        MaicWeights(alpha=np.zeros(1), w=np.ones(2), ess=2.0, grad_norm=0.0,
                    iterations=0, converged=False)


def test_verdict_and_solve_do_not_depend_on_covariate_units():
    # the moment condition and the Newton solve are free of each column's
    # unit; so must be the test of a target outside the hull and the test of
    # a singular Hessian
    rng = np.random.default_rng(13)
    X = np.column_stack([rng.normal(size=200), rng.integers(0, 2, 200)])
    inside = X.mean(axis=0) + np.array([0.3, 0.2])
    outside = np.array([X[:, 0].mean(), 1.2])
    # two related columns in units 10^6.8 apart give a Hessian of condition
    # about 1e16; its pivots, each against its own diagonal, stay far from 0
    x = rng.normal(size=200)
    related = np.column_stack([x, x + 0.05 * rng.normal(size=200)])
    problems = [(X, inside, outside, [[1.0, scale] for scale in (1e-7, 1e-3, 1.0, 1e4)]),
                (related, related.mean(axis=0) + 0.3, related.mean(axis=0) + [0.3, 0.6],
                 [[1.0, 1.0], [10**-3.9, 10**2.9], [10**2.9, 10**-3.9]])]
    for X, inside, outside, scales in problems:
        base = estimate_weights(center_covariates(X, inside))
        messages = set()
        for s in map(np.array, scales):
            weights = estimate_weights(center_covariates(X * s, inside * s))
            assert weights.converged
            assert weights.iterations == base.iterations
            assert weights.ess == pytest.approx(base.ess, rel=1e-9)
            with pytest.raises(TargetOutsideSupport, match="miss the target") as err:
                estimate_weights(center_covariates(X * s, outside * s))
            messages.add(str(err.value))
        assert len(messages) == 1  # the same relative gap at every scale


def test_no_covariates_rejected():
    prob = center_covariates(np.empty((10, 0)), [])
    with pytest.raises(ValueError):
        estimate_weights(prob)


def test_collinear_covariates_rejected():
    # a duplicated column leaves the Hessian singular: no unique tilt exists
    X = np.random.default_rng(10).normal(size=(50, 1))
    prob = center_covariates(np.column_stack([X, X]), [0.1, 0.1])
    with pytest.raises(ValueError, match="collinear"):
        estimate_weights(prob)


def test_too_few_subjects_rejected():
    prob = center_covariates(np.ones((2, 2)) + np.eye(2), [1.0, 1.0])
    with pytest.raises(ValueError):
        estimate_weights(prob)


def test_translation_invariance():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 2))
    targets = X.mean(axis=0) + np.array([0.2, -0.1])
    w_base = estimate_weights(center_covariates(X, targets)).w
    shifted = X.copy()
    shifted[:, 0] += 100.0
    w_shift = estimate_weights(
        center_covariates(shifted, targets + np.array([100.0, 0.0]))).w
    np.testing.assert_allclose(w_shift, w_base, atol=1e-6)


def test_ess_uniform_weights():
    assert effective_sample_size(np.full(37, 2.5)) == pytest.approx(37, abs=1e-12)


def test_ess_hand_value():
    assert effective_sample_size(np.array([1.0, 2.0, 3.0])) == \
        pytest.approx(36 / 14, abs=1e-12)


def test_ess_dominant_weight():
    assert effective_sample_size(np.array([1e6, 1.0, 1.0])) == \
        pytest.approx(1.0, abs=1e-5)


def test_ess_rejects_nonpositive():
    for w in ([1.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], []):
        with pytest.raises(ValueError, match="finite and positive"):
            effective_sample_size(np.array(w))


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
       st.integers(min_value=-900, max_value=900))
@settings(max_examples=100)
def test_ess_bounds_property(ws, power):
    w = np.array(ws)
    ess = effective_sample_size(w)
    assert 0 < ess <= len(w) * (1 + 1e-12)
    # scaled by 2^power, so far that sum(w)^2 or sum(w^2) alone would overflow
    # or underflow, the weights give the same ESS
    assert effective_sample_size(np.ldexp(w, power)) == ess
    if np.var(w) == 0:
        assert ess == pytest.approx(len(w), rel=1e-9)
    elif np.var(w) / np.mean(w) ** 2 > 1e-6:
        assert ess < len(w)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_convexity_property(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, n=12, k=2)
    a1 = rng.normal(scale=0.5, size=2)
    a2 = rng.normal(scale=0.5, size=2)
    t = rng.uniform(0.05, 0.95)
    q1, _, _ = objective_and_gradient(a1, prob)
    q2, _, _ = objective_and_gradient(a2, prob)
    qm, _, _ = objective_and_gradient(t * a1 + (1 - t) * a2, prob)
    assert qm <= t * q1 + (1 - t) * q2 + 1e-10


def test_balance_report_gaps_after_convergence():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 3))
    targets = X.mean(axis=0) + 0.15
    weights = estimate_weights(center_covariates(X, targets))
    report = balance_report(X, weights.w, targets, ["a", "b", "c"])
    assert np.all(report.abs_gaps < 1e-6)
    assert 0 < report.ess <= 100
    tsv = report.to_tsv()
    assert tsv.startswith("covariate\tipd_mean\tweighted_mean\ttarget_mean\tabs_gap")
    assert "ESS\t" in tsv


def test_balance_report_uniform_weights():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 2))
    report = balance_report(X, np.ones(30), X.mean(axis=0), ["a", "b"])
    np.testing.assert_array_equal(report.weighted_means, report.ipd_means)


def test_balance_report_empty_covariates():
    report = balance_report(np.empty((10, 0)), np.ones(10), [], [])
    assert report.covariate_names == ()
    assert report.ess == pytest.approx(10.0)
    with pytest.raises(ValueError, match="names do not match column count"):
        balance_report(np.ones((10, 2)), np.ones(10), [0.0, 0.0], ["a"])
