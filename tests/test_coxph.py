import math
import tracemalloc
import warnings

import numpy as np
import pytest

from maicsim.cohortsim import simulate_trial
from maicsim.coxph import (
    MonotoneLikelihood,
    NoEvents,
    SingularInformation,
    SurvivalSample,
    fit_cox,
    partial_loglik,
    robust_variance,
    score_and_information,
    score_residuals,
    time_order,
)
from maicsim.stochastic import RandomStream

from helpers import study_A_model


def three_subject_sample():
    # times 1 < 2 < 3, all events, single covariate (0, 1, 0)
    return SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3),
                          np.array([[0.0], [1.0], [0.0]]))


def brute_force_loglik(beta, time, status, Z, w):
    """Independent oracle: direct risk-set enumeration of the Breslow
    partial likelihood."""
    beta = np.atleast_1d(beta)
    total = 0.0
    for i in range(len(time)):
        if status[i] == 1:
            risk = time >= time[i]
            denom = np.sum(w[risk] * np.exp(Z[risk] @ beta))
            total += w[i] * (Z[i] @ beta - math.log(denom))
    return total


def brute_force_information(beta, time, status, Z, w):
    """Independent oracle: the Breslow information sum_e w_e (S2/S0 - zbar
    zbar') over events e, each risk set enumerated directly."""
    info = np.zeros((Z.shape[1], Z.shape[1]))
    for i in range(len(time)):
        if status[i] == 1:
            risk = time >= time[i]
            r = w[risk] * np.exp(Z[risk] @ beta)
            zbar = r @ Z[risk] / r.sum()
            s2 = (r[:, None] * Z[risk]).T @ Z[risk]
            info += w[i] * (s2 / r.sum() - np.outer(zbar, zbar))
    return info


def brute_force_score_and_residuals(beta, time, status, Z, w):
    """Independent oracle: the score sum_e w_e (z_e - zbar(t_e)) and each
    subject's score residual d_i (z_i - zbar(t_i)) - sum over events e with
    t_e <= t_i of w_e exp(z_i beta) / S0(t_e) (z_i - zbar(t_e)), each risk
    set enumerated directly."""
    expeta = np.exp(Z @ beta)

    def s0_zbar(t):
        risk = time >= t
        r = w[risk] * expeta[risk]
        return r.sum(), r @ Z[risk] / r.sum()

    score = np.zeros(Z.shape[1])
    resid = np.zeros(Z.shape)
    for i in range(len(time)):
        if status[i] == 1:
            score += w[i] * (Z[i] - s0_zbar(time[i])[1])
            resid[i] += Z[i] - s0_zbar(time[i])[1]
        for e in range(len(time)):
            if status[e] == 1 and time[e] <= time[i]:
                s0, zbar = s0_zbar(time[e])
                resid[i] -= w[e] * expeta[i] / s0 * (Z[i] - zbar)
    return score, resid


def random_sample(rng, n=12, p=2, weighted=True):
    time = rng.exponential(1.0, n) + 0.01
    status = (rng.random(n) < 0.7).astype(float)
    status[rng.integers(n)] = 1.0  # ensure at least one event
    Z = rng.normal(size=(n, p))
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    return SurvivalSample(time, status, Z, w)


def test_loglik_at_zero_counts_risk_sets():
    data = three_subject_sample()
    assert partial_loglik(np.zeros(1), data) == \
        pytest.approx(-(math.log(3) + math.log(2)), abs=1e-12)


def test_loglik_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        data = random_sample(rng)
        beta = rng.normal(size=2)
        expected = brute_force_loglik(beta, data.time, data.status, data.Z, data.w)
        assert partial_loglik(beta, data) == pytest.approx(expected, rel=1e-10)


def test_loglik_weight_scaling_identity():
    # scaling every weight by c rescales the log likelihood by c up to a
    # beta-free offset: l_c = c * (l - ln(c) * sum of event weights); the
    # argmax is therefore invariant while the gradient scales by exactly c
    rng = np.random.default_rng(6)
    data = random_sample(rng)
    beta = np.array([0.3, -0.2])
    base = partial_loglik(beta, data)
    grad, _ = score_and_information(beta, data)
    event_w = data.w[data.status == 1].sum()
    for c in (0.5, 2.0, 10.0):
        scaled = SurvivalSample(data.time, data.status, data.Z, c * data.w)
        expected = c * (base - math.log(c) * event_w)
        assert partial_loglik(beta, scaled) == pytest.approx(expected, rel=1e-12)
        grad_c, _ = score_and_information(beta, scaled)
        np.testing.assert_allclose(grad_c, c * grad, rtol=1e-12)


def test_loglik_constant_for_degenerate_design():
    data = SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros((3, 1)))
    assert partial_loglik(np.array([0.0]), data) == \
        pytest.approx(partial_loglik(np.array([5.0]), data), abs=1e-12)


def test_score_vs_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        data = random_sample(rng)
        beta = rng.normal(scale=0.5, size=2)
        grad, _ = score_and_information(beta, data)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (partial_loglik(beta + e, data) - partial_loglik(beta - e, data)) / (2 * h)
            assert abs(grad[j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_zero_column_gives_zero_score_and_information():
    rng = np.random.default_rng(8)
    data = random_sample(rng)
    Z = data.Z.copy()
    Z[:, 1] = 0.0
    data0 = SurvivalSample(data.time, data.status, Z, data.w)
    grad, info = score_and_information(np.array([0.2, 1.0]), data0)
    assert grad[1] == 0.0
    assert np.all(info[1, :] == 0.0) and np.all(info[:, 1] == 0.0)


def tied_samples(rng):
    """Weighted samples with tied times: one hand-made, with a tie group
    holding two events and a censoring and another holding one of each,
    then times rounded so that ties are common."""
    time = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0])
    status = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    yield SurvivalSample(time, status, rng.normal(size=(8, 3)),
                         rng.uniform(0.5, 2.0, 8))
    for _ in range(10):
        data = random_sample(rng, n=15, p=3)
        yield SurvivalSample(np.round(data.time, 1) + 0.1, data.status, data.Z,
                             data.w)


def oracle_inputs():
    """(beta, sample) pairs: 20 weighted samples, then the tied ones."""
    rng = np.random.default_rng(18)
    samples = [random_sample(rng, n=12, p=3) for _ in range(20)]
    for data in samples + list(tied_samples(rng)):
        yield rng.normal(size=3), data


@pytest.mark.filterwarnings("ignore:tied event times")
def test_information_matches_brute_force_oracle():
    for beta, data in oracle_inputs():
        _, info = score_and_information(beta, data)
        expected = brute_force_information(beta, data.time, data.status, data.Z, data.w)
        np.testing.assert_allclose(info, expected, rtol=1e-10)


@pytest.mark.filterwarnings("ignore:tied event times")
def test_score_and_residuals_match_brute_force_oracle():
    for beta, data in oracle_inputs():
        score, resid = brute_force_score_and_residuals(
            beta, data.time, data.status, data.Z, data.w)
        np.testing.assert_allclose(score_and_information(beta, data)[0], score,
                                   rtol=1e-10)
        np.testing.assert_allclose(score_residuals(beta, data), resid, rtol=1e-10)


def test_shared_time_order_is_checked():
    rng = np.random.default_rng(20)
    data = random_sample(rng, n=12, p=2)
    order = time_order(data.time)
    shared = SurvivalSample(data.time, data.status, data.Z, data.w, order)
    beta = np.array([0.3, -0.2])
    assert partial_loglik(beta, shared) == partial_loglik(beta, data)
    # the input order, which does not sort the times, an ascending order,
    # and orders that are not permutations of the subjects
    for bad in (np.arange(12), order[::-1], order[:-1], np.zeros(12, dtype=int),
                order.astype(float)):
        with pytest.raises(ValueError, match="order"):
            SurvivalSample(data.time, data.status, data.Z, data.w, bad)


def test_design_rows_must_be_subjects():
    time, status = np.array([1.0, 2.0, 3.0]), np.ones(3)
    z = np.array([0.0, 1.0, 0.0])
    assert SurvivalSample(time, status, z).Z.shape == (3, 1)
    # a p x n design is refused, not transposed
    with pytest.raises(ValueError, match="rows"):
        SurvivalSample(time, status, np.ones((2, 3)))
    with pytest.raises(ValueError, match="rows"):
        SurvivalSample(time, status, z[None, :])


def _fit_peak_bytes(data):
    tracemalloc.start()
    try:
        fit_cox(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_memory_grows_linearly_in_covariates():
    # with every array of a fit at most n x p, going from 2 to 8 covariates
    # multiplies the peak by less than 8 / 2; an n x p x p array would push
    # the ratio towards (8 / 2)**2
    rng = np.random.default_rng(19)
    n = 20_000
    time = rng.exponential(1.0, n) + 0.01
    status = (rng.random(n) < 0.7).astype(float)
    Z = rng.normal(size=(n, 8))
    small, large = (_fit_peak_bytes(SurvivalSample(time, status, Z[:, :p]))
                    for p in (2, 8))
    assert large / small < 4


def test_information_is_psd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        data = random_sample(rng, n=20, p=3)
        _, info = score_and_information(rng.normal(size=3), data)
        assert np.min(np.linalg.eigvalsh(info)) > -1e-10


def test_closed_form_three_subject_fit():
    data = three_subject_sample()
    fit = fit_cox(data)
    assert fit.converged
    assert fit.beta[0] == pytest.approx(math.log(math.sqrt(2)), abs=1e-6)
    # independent grid-search oracle on the brute-force log likelihood
    grid = np.linspace(-1.0, 1.0, 20001)
    values = [brute_force_loglik(np.array([b]), data.time, data.status,
                                 data.Z, data.w) for b in grid]
    assert grid[int(np.argmax(values))] == pytest.approx(fit.beta[0], abs=1e-4)


def test_weight_scaling_leaves_argmax_unchanged():
    rng = np.random.default_rng(10)
    data = random_sample(rng, n=60, p=2)
    base = fit_cox(data).beta
    for c in (0.5, 2.0, 10.0):
        scaled = SurvivalSample(data.time, data.status, data.Z, c * data.w)
        np.testing.assert_allclose(fit_cox(scaled).beta, base, atol=1e-7)


def test_treatment_recode_negates_coefficient():
    rng = np.random.default_rng(11)
    n = 100
    trt = (rng.random(n) < 0.5).astype(float)
    time = rng.exponential(1.0, n) * np.exp(-0.5 * trt) + 1e-3
    data = SurvivalSample(time, np.ones(n), trt[:, None])
    flipped = SurvivalSample(time, np.ones(n), (1 - trt)[:, None])
    assert fit_cox(flipped).beta[0] == pytest.approx(-fit_cox(data).beta[0], abs=1e-7)


def test_loglik_never_below_null():
    rng = np.random.default_rng(12)
    for _ in range(10):
        data = random_sample(rng, n=40, p=2)
        fit = fit_cox(data)
        assert fit.loglik_at_solution >= partial_loglik(np.zeros(2), data) - 1e-10


def test_multivariable_recovers_true_coefficients():
    trial = simulate_trial(study_A_model(), 10**5, RandomStream(77))
    Z = np.column_stack([trial.trt, trial.columns(["PLNEN", "ISS", "Refr"])])
    fit = fit_cox(SurvivalSample(trial.time, trial.status, Z))
    truth = np.array([math.log(0.53), 1.0682, -0.6651, 0.0825])
    assert np.all(np.abs(fit.beta - truth) < 4 * fit.se_model)


def test_score_residuals_sum_to_zero_at_optimum():
    rng = np.random.default_rng(13)
    data = random_sample(rng, n=80, p=2)
    fit = fit_cox(data)
    u = score_residuals(fit.beta, data)
    np.testing.assert_allclose(data.w @ u, np.zeros(2), atol=1e-8)


def test_robust_matches_model_se_when_correctly_specified():
    trial = simulate_trial(study_A_model(censoring_rate=0.0), 10**4, RandomStream(14))
    Z = np.column_stack([trial.trt, trial.columns(["PLNEN", "ISS", "Refr"])])
    fit = fit_cox(SurvivalSample(trial.time, trial.status, Z))
    ratio = fit.se_robust / fit.se_model
    assert np.all(np.abs(ratio - 1.0) < 0.1)


@pytest.mark.filterwarnings("ignore:tied event times")
def test_robust_se_vs_bootstrap():
    rng = np.random.default_rng(15)
    n = 200
    trt = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
    x = rng.normal(size=n)
    time = rng.exponential(1.0, n) * np.exp(-(0.5 * trt + 0.8 * x)) + 1e-4
    w = np.exp(0.3 * x)  # deliberately informative weights
    data = SurvivalSample(time, np.ones(n), trt[:, None], w)
    fit = fit_cox(data)
    boot = []
    for _ in range(1000):
        idx = rng.integers(0, n, n)
        sample = SurvivalSample(time[idx], np.ones(n), trt[idx][:, None], w[idx])
        boot.append(fit_cox(sample).beta[0])
    boot_se = np.std(boot, ddof=1)
    assert abs(fit.se_robust[0] - boot_se) / boot_se < 0.15


def test_no_events_rejected():
    with pytest.raises(NoEvents):
        SurvivalSample(np.array([1.0, 2.0]), np.zeros(2), np.ones((2, 1)))


def treatment_trial(rng, n):
    """Times, 0/1 statuses, a 0/1 treatment and a normal covariate x."""
    trt = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=n)
    time = rng.exponential(1.0, n) * np.exp(-(0.5 * trt + 0.3 * x))
    status = (rng.random(n) < 0.8).astype(float)
    status[0] = 1.0
    return time, status, trt, x


def test_constant_column_rejected():
    data = SurvivalSample(np.array([1.0, 2.0, 3.0]), np.ones(3), np.ones((3, 1)))
    with pytest.raises(SingularInformation):
        fit_cox(data)
    # beside treatment a constant's information is rounding noise of either
    # sign, which no pivot test can judge; it is refused by its index
    time, status, trt, _ = treatment_trial(np.random.default_rng(30), 2000)
    for c in (0.3, 1.0):
        with pytest.raises(SingularInformation, match="column 1 of the design is constant"):
            fit_cox(SurvivalSample(time, status, np.column_stack([trt, np.full(2000, c)])))


def test_affine_collinear_design_rejected():
    # the partial likelihood is blind to a constant shift, so 2d + 5 beside d
    # leaves a flat direction, not a diverging one
    rng = np.random.default_rng(31)
    for _ in range(5):
        time, status, d, x = treatment_trial(rng, 300)
        with pytest.raises(SingularInformation, match="collinear"):
            fit_cox(SurvivalSample(time, status, np.column_stack([x, d, 2 * d + 5])))


def test_fit_and_verdict_do_not_depend_on_covariate_units():
    # a covariate recorded in other units gets a coefficient in the inverse
    # units, the same Newton steps and the same verdict
    time, status, trt, x = treatment_trial(np.random.default_rng(32), 500)
    base = fit_cox(SurvivalSample(time, status, np.column_stack([trt, x])))
    for scale in (1e-9, 1.0, 1e9):
        fit = fit_cox(SurvivalSample(time, status, np.column_stack([trt, scale * x])))
        assert fit.converged and fit.iterations == base.iterations
        np.testing.assert_allclose(fit.beta * [1.0, scale], base.beta, rtol=1e-9)
        with pytest.raises(SingularInformation):  # the same refusal of a copy
            fit_cox(SurvivalSample(time, status, np.column_stack([trt, x, scale * x])))


def test_separation_detected():
    # all control events precede every treated time: beta diverges
    time = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    status = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    trt = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(MonotoneLikelihood):
        fit_cox(SurvivalSample(time, status, trt[:, None]))


def test_separation_detected_whatever_the_scale():
    # events only at z = 0, every censored subject at z = 70: the likelihood
    # levels off at beta near -0.33, far inside any bound on |beta| itself
    time = np.arange(1.0, 9.0)
    status = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    z = np.array([0.0, 0.0, 0.0, 0.0, 70.0, 70.0, 70.0, 70.0])
    with pytest.raises(MonotoneLikelihood):
        fit_cox(SurvivalSample(time, status, z[:, None]))


def test_ties_warn_and_match_oracle():
    time = np.array([1.0, 1.0, 2.0, 3.0])
    status = np.array([1.0, 1.0, 1.0, 0.0])
    Z = np.array([[0.0], [1.0], [1.0], [0.0]])
    data = SurvivalSample(time, status, Z)
    with pytest.warns(UserWarning, match="tied"):
        value = partial_loglik(np.array([0.3]), data)
    expected = brute_force_loglik(np.array([0.3]), time, status, Z, np.ones(4))
    assert value == pytest.approx(expected, rel=1e-12)


def test_robust_variance_requires_fit():
    rng = np.random.default_rng(16)
    data = random_sample(rng, n=50, p=2)
    fit = fit_cox(data)
    cov = robust_variance(fit)
    assert cov.shape == (2, 2)
    assert np.all(np.diag(cov) > 0)
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)


@pytest.mark.filterwarnings("ignore:tied event times")
def test_robust_variance_matches_brute_force_oracle():
    # inv(I) (sum_i w_i^2 U_i U_i') inv(I), with I and U from the oracles at
    # the fitted beta; every other sample has tied times
    rng = np.random.default_rng(23)
    for k in range(40):
        data = random_sample(rng, n=30, p=2)
        if k % 2:
            data = SurvivalSample(np.round(data.time, 1) + 0.1, data.status, data.Z,
                                  data.w)
        fit = fit_cox(data)
        assert fit.converged
        args = (fit.beta, data.time, data.status, data.Z, data.w)
        bread = np.linalg.inv(brute_force_information(*args))
        uw = data.w[:, None] * brute_force_score_and_residuals(*args)[1]
        expected = bread @ (uw.T @ uw) @ bread
        error = np.max(np.abs(robust_variance(fit) - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))


def test_non_finite_values_rejected():
    time, status, z = np.array([1.0, 2.0, 3.0]), np.ones(3), np.array([0.0, 1.0, 0.0])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="times"):
            SurvivalSample(np.array([1.0, bad, 3.0]), status, z)
        with pytest.raises(ValueError, match="covariate values Z"):
            SurvivalSample(time, status, np.array([0.0, bad, 0.0]))
        with pytest.raises(ValueError, match="weights"):
            SurvivalSample(time, status, z, np.array([1.0, bad, 1.0]))
