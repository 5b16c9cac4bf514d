import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maicsim import coxph
from maicsim.cohortsim import simulate_trial
from maicsim.coxph import (
    MonotoneLikelihood,
    NoEvents,
    SingularInformation,
    SurvivalSample,
    TimeOrder,
    fit_cox,
    partial_loglik,
    robust_variance,
    score_and_information,
    score_residuals,
    time_order,
)
from maicsim.stochastic import RandomStream

from helpers import peak_bytes, study_A_model


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


# times from a pool of four values tie in most draws; times from a
# continuous range almost never do
POOL_TIMES = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=40)
CONTINUOUS_TIMES = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.one_of(POOL_TIMES, CONTINUOUS_TIMES))
@example([2.0])
@example([1.0] * 7)
def test_time_order_is_reversed_stable_order(times):
    t = np.array(times)
    assert np.array_equal(time_order(t), np.argsort(t, kind="stable")[::-1])


def test_only_tied_times_are_sorted_again_stably(monkeypatch):
    # untied times have one sorting order, which the default sort finds; only
    # tied times pay for a second, stable sort
    kinds = []
    argsort = np.argsort

    def recording_argsort(*args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    rng = np.random.default_rng(40)
    time = rng.exponential(1.0, 1000) + 0.01
    status = np.ones(1000)
    assert np.unique(time).size == 1000
    TimeOrder(time, status)
    assert kinds == [None]
    kinds.clear()
    TimeOrder(np.round(time, 1) + 0.1, status)
    assert kinds == [None, "stable"]


def test_time_order_of_other_arrays_is_checked():
    rng = np.random.default_rng(41)
    data = random_sample(rng, n=12, p=2)
    shared = TimeOrder(data.time, data.status)
    beta = np.array([0.3, -0.2])
    # built on these very arrays it is taken as it is; on copies of them its
    # order is checked, and on other times refused
    for time in (data.time, data.time.copy()):
        sample = SurvivalSample(time, data.status, data.Z, data.w, shared)
        assert (sample.time_order is shared) == (time is data.time)
        assert partial_loglik(beta, sample) == partial_loglik(beta, data)
    with pytest.raises(ValueError, match="order"):
        SurvivalSample(data.time[::-1].copy(), data.status, data.Z, data.w, shared)


def test_design_columns_fit_as_the_design_array():
    # a tuple of covariate vectors is the design whose columns they are
    time, status, trt, x = treatment_trial(np.random.default_rng(42), 500)
    by_columns = fit_cox(SurvivalSample(time, status, (trt, x)))
    by_array = fit_cox(SurvivalSample(time, status, np.column_stack([trt, x])))
    for key in ("beta", "se_model", "se_robust", "loglik_at_solution"):
        assert np.array_equal(getattr(by_columns, key), getattr(by_array, key))
    with pytest.raises(SingularInformation, match="column 1 of the design is constant"):
        fit_cox(SurvivalSample(time, status, (trt, np.full(500, 0.3))))
    with pytest.raises(ValueError, match="rows"):
        SurvivalSample(time, status, (trt, x[:-1]))


def test_design_rows_must_be_subjects():
    time, status = np.array([1.0, 2.0, 3.0]), np.ones(3)
    z = np.array([0.0, 1.0, 0.0])
    assert SurvivalSample(time, status, z).Z.shape == (3, 1)
    # a p x n design is refused, not transposed
    with pytest.raises(ValueError, match="rows"):
        SurvivalSample(time, status, np.ones((2, 3)))
    with pytest.raises(ValueError, match="rows"):
        SurvivalSample(time, status, z[None, :])


def in_new_thread(fn, *args):
    """``fn(*args)`` run in a thread of its own, whose Cox scratch starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def test_fit_memory_grows_linearly_in_covariates():
    # with every array of a fit at most n x p, going from 2 to 8 covariates
    # multiplies the peak by less than 8 / 2; an n x p x p array would push
    # the ratio towards (8 / 2)**2
    rng = np.random.default_rng(19)
    n = 20_000
    time = rng.exponential(1.0, n) + 0.01
    status = (rng.random(n) < 0.7).astype(float)
    Z = rng.normal(size=(n, 8))
    # each fit in a new thread pays for its own scratch, whatever ran before
    small, large = (peak_bytes(in_new_thread, fit_cox,
                               SurvivalSample(time, status, Z[:, :p]))[1]
                    for p in (2, 8))
    assert large / small < 4


class AllocatingKernel:
    """The risk-set evaluation with every step allocating its result. The
    scratch kernel makes the same operations in the same order, so it must
    equal this bit for bit."""

    def __init__(self, data):
        self.order = data.order
        t = data.time[self.order]
        self.d = data.status[self.order]
        self.w = data.w[self.order]
        self.z = np.ascontiguousarray(data.Z.T).take(self.order, axis=1)
        self.w_event = np.where(self.d == 1, self.w, 0.0)
        self.events = np.flatnonzero(self.d)[::-1]
        new = t[1:] != t[:-1]
        self.first = self.last = None
        if not np.all(new):
            group = np.concatenate(([0], np.cumsum(new)))
            bounds = np.flatnonzero(np.concatenate(([True], new, [True])))
            self.first = bounds[:-1][group]
            self.last = bounds[1:][group] - 1

    def at_risk(self, x):
        sums = np.cumsum(x, axis=-1)
        return sums if self.last is None else sums[..., self.last]

    def events_through(self, a):
        sums = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
        return sums if self.first is None else sums[..., self.first]

    def risk_sums(self, beta):
        eta = beta @ self.z
        r = self.w * np.exp(eta)
        s0 = self.at_risk(r)
        return eta, r, s0, self.at_risk(r * self.z), self.w_event / s0

    def score_info(self, beta):
        eta, r, s0, s1, a = self.risk_sums(beta)
        e = self.events
        loglik = float(np.sum(self.w[e] * (eta[e] - np.log(s0[e]))))
        tmp = s1 / s0
        grad = np.subtract(self.z, tmp, out=tmp) @ self.w_event
        info = np.multiply(self.z, r * self.events_through(a), out=tmp) @ self.z.T
        info -= np.multiply(s1, a / s0, out=tmp) @ s1.T
        return loglik, grad, info

    def residuals(self, beta):
        """Score residuals, n x p in input order."""
        eta, _, s0, s1, a = self.risk_sums(beta)
        zbar = s1 / s0
        g0 = self.events_through(a)
        g1 = self.events_through(a * zbar)
        out = np.empty((self.z.shape[1], self.z.shape[0]))
        out[self.order] = (self.d * (self.z - zbar) - np.exp(eta) * (g0 * self.z - g1)).T
        return out


@pytest.mark.filterwarnings("ignore:tied event times")
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_scratch_kernel_matches_allocating_kernel_bitwise(p, weighted, tied):
    rng = np.random.default_rng(100 * p + 10 * weighted + tied)
    # a larger fit first, so that this one runs in a used, larger scratch;
    # an odd n puts the scratch's rows at odd offsets
    fit_cox(random_sample(rng, n=2001, p=p + 1))
    data = random_sample(rng, n=1001, p=p, weighted=weighted)
    if tied:
        data = SurvivalSample(np.ceil(10 * data.time) / 10, data.status, data.Z, data.w)
    ref = AllocatingKernel(data)
    assert (ref.first is not None) == tied
    for beta in (np.zeros(p), rng.normal(scale=0.5, size=p)):
        loglik, grad, info = ref.score_info(beta)
        assert partial_loglik(beta, data) == loglik
        got_grad, got_info = score_and_information(beta, data)
        assert np.array_equal(got_grad, grad)
        assert np.array_equal(got_info, info)
        assert np.array_equal(score_residuals(beta, data), ref.residuals(beta))


def test_warm_score_evaluation_allocates_less_than_one_vector():
    rng = np.random.default_rng(23)
    n, p = 20_000, 4
    s = coxph._SortedSample(random_sample(rng, n=n, p=p))
    beta = rng.normal(scale=0.1, size=p)
    coxph._score_info(s, beta)  # sizes this thread's scratch
    _, peak = peak_bytes(coxph._score_info, s, beta)
    assert peak < 8 * n


@pytest.mark.filterwarnings("ignore:tied event times")
@pytest.mark.parametrize("tied", [False, True])
def test_warm_evaluations_allocate_nothing_of_length_n(tied):
    # with tied times the p x n arrays are subject-major, where one ufunc call
    # over such an array and an n-vector would buffer
    rng = np.random.default_rng(24)
    n, p = 20_000, 4
    data = random_sample(rng, n=n, p=p)
    if tied:
        data = SurvivalSample(np.ceil(10 * data.time) / 10, data.status, data.Z)
    s = coxph._SortedSample(data)
    assert (s.time_order.last is not None) == tied
    beta = rng.normal(scale=0.1, size=p)
    coxph._score_info(s, beta)  # sizes this thread's scratch
    assert peak_bytes(coxph._score_info, s, beta)[1] < 4096
    # the residuals are returned in a new p x n array, and nothing else
    assert peak_bytes(coxph._residuals, s, beta)[1] < 8 * n * p + 4096


def test_fit_results_do_not_alias_the_scratch():
    rng = np.random.default_rng(29)
    data = random_sample(rng, n=500, p=2)
    at_once = fit_cox(data)
    at_once_se = at_once.se_robust
    late = fit_cox(data)
    kept = {k: np.copy(getattr(late, k)) for k in ("beta", "se_model")}
    # a second, larger fit grows this thread's scratch and overwrites it
    fit_cox(random_sample(rng, n=5000, p=3))
    assert np.array_equal(late.se_robust, at_once_se)
    for k, value in kept.items():
        assert np.array_equal(getattr(late, k), value)


def _fit_summary(data):
    fit = fit_cox(data)
    return fit.beta, fit.se_model, fit.se_robust, fit.loglik_at_solution


def test_concurrent_fits_equal_sequential_ones():
    # each thread has its own scratch; four threads on two cores, two per
    # sample, fit at the same time as each other. One covariate at n = 5000
    # keeps every BLAS call of these fits single-threaded
    rng = np.random.default_rng(31)
    samples = [random_sample(rng, n=2000, p=3), random_sample(rng, n=5000, p=1)]
    want = [_fit_summary(data) for data in samples]
    barrier = threading.Barrier(4)

    def fit_after_barrier(data):
        barrier.wait(timeout=60)
        return [_fit_summary(data) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fit_after_barrier, samples[k % 2]) for k in range(4)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, runs in enumerate(got):
        for run in runs:
            for value, expected in zip(run, want[k % 2]):
                assert np.array_equal(value, expected)


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
    base = fit_cox(data)
    # the robust SE too: at 1e-300 the squared weights underflow to 0, at
    # 1e200 they overflow, unless the sandwich takes the scale out first
    for c in (0.5, 2.0, 10.0, 1e-300, 1e200):
        scaled = fit_cox(SurvivalSample(data.time, data.status, data.Z, c * data.w))
        np.testing.assert_allclose(scaled.beta, base.beta, atol=1e-7)
        np.testing.assert_allclose(scaled.se_robust, base.se_robust, rtol=1e-10)


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
