import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
    TimeOrder,
    fit_cox,
    partial_loglik,
    robust_variance,
    score_and_information,
    score_residuals,
)
from maicsim.stochastic import RandomStream

from helpers import peak_bytes, study_A_model


@dataclass(frozen=True)
class Sample:
    """Outcomes, an n x p design and subject weights (None: unweighted), as
    the oracles read them, and ``args``, the arguments of a fit on them."""

    time: np.ndarray
    status: np.ndarray
    Z: np.ndarray
    w: np.ndarray | None = None

    @property
    def args(self):
        return TimeOrder(self.time, self.status), tuple(self.Z.T), self.w


def three_subject_sample():
    # times 1 < 2 < 3, all events, single covariate (0, 1, 0)
    return Sample(np.array([1.0, 2.0, 3.0]), np.ones(3),
                  np.array([[0.0], [1.0], [0.0]]))


def unit_weights(w, time):
    """The oracles' weights: ``w``, or 1 for every subject of an unweighted
    sample."""
    return np.ones(len(time)) if w is None else w


def brute_force_loglik(beta, time, status, Z, w):
    """Independent oracle: direct risk-set enumeration of the Breslow
    partial likelihood."""
    beta = np.atleast_1d(beta)
    w = unit_weights(w, time)
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
    w = unit_weights(w, time)
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
    w = unit_weights(w, time)
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
    return Sample(time, status, Z, w)


def test_loglik_at_zero_counts_risk_sets():
    data = three_subject_sample()
    assert partial_loglik(np.zeros(1), *data.args) == \
        pytest.approx(-(math.log(3) + math.log(2)), abs=1e-12)


def test_loglik_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        data = random_sample(rng)
        beta = rng.normal(size=2)
        expected = brute_force_loglik(beta, data.time, data.status, data.Z, data.w)
        assert partial_loglik(beta, *data.args) == pytest.approx(expected, rel=1e-10)


def test_loglik_weight_scaling_identity():
    # scaling every weight by c rescales the log likelihood by c up to a
    # beta-free offset: l_c = c * (l - ln(c) * sum of event weights); the
    # argmax is therefore invariant while the gradient scales by exactly c
    rng = np.random.default_rng(6)
    data = random_sample(rng)
    beta = np.array([0.3, -0.2])
    base = partial_loglik(beta, *data.args)
    grad, _ = score_and_information(beta, *data.args)
    event_w = data.w[data.status == 1].sum()
    for c in (0.5, 2.0, 10.0):
        scaled = replace(data, w=c * data.w)
        expected = c * (base - math.log(c) * event_w)
        assert partial_loglik(beta, *scaled.args) == pytest.approx(expected, rel=1e-12)
        grad_c, _ = score_and_information(beta, *scaled.args)
        np.testing.assert_allclose(grad_c, c * grad, rtol=1e-12)


def test_loglik_constant_for_degenerate_design():
    times = TimeOrder(np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert partial_loglik(np.array([0.0]), times, [np.zeros(3)]) == \
        pytest.approx(partial_loglik(np.array([5.0]), times, [np.zeros(3)]), abs=1e-12)


def test_score_vs_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        data = random_sample(rng)
        beta = rng.normal(scale=0.5, size=2)
        args = data.args
        grad, _ = score_and_information(beta, *args)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (partial_loglik(beta + e, *args) - partial_loglik(beta - e, *args)) / (2 * h)
            assert abs(grad[j] - fd) / max(1.0, abs(fd)) < 1e-6


def test_zero_column_gives_zero_score_and_information():
    rng = np.random.default_rng(8)
    data = random_sample(rng)
    Z = data.Z.copy()
    Z[:, 1] = 0.0
    grad, info = score_and_information(np.array([0.2, 1.0]), *replace(data, Z=Z).args)
    assert grad[1] == 0.0
    assert np.all(info[1, :] == 0.0) and np.all(info[:, 1] == 0.0)


def tied_samples(rng):
    """Weighted samples with tied times: one hand-made, with a tie group
    holding two events and a censoring and another holding one of each,
    then times rounded so that ties are common."""
    time = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0])
    status = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    yield Sample(time, status, rng.normal(size=(8, 3)), rng.uniform(0.5, 2.0, 8))
    for _ in range(10):
        data = random_sample(rng, n=15, p=3)
        yield replace(data, time=np.round(data.time, 1) + 0.1)


def oracle_inputs():
    """(beta, sample) pairs: 20 weighted samples, then the tied ones."""
    rng = np.random.default_rng(18)
    samples = [random_sample(rng, n=12, p=3) for _ in range(20)]
    for data in samples + list(tied_samples(rng)):
        yield rng.normal(size=3), data


@pytest.mark.filterwarnings("ignore:tied event times")
def test_information_matches_brute_force_oracle():
    for beta, data in oracle_inputs():
        _, info = score_and_information(beta, *data.args)
        expected = brute_force_information(beta, data.time, data.status, data.Z, data.w)
        np.testing.assert_allclose(info, expected, rtol=1e-10)


@pytest.mark.filterwarnings("ignore:tied event times")
def test_score_and_residuals_match_brute_force_oracle():
    for beta, data in oracle_inputs():
        score, resid = brute_force_score_and_residuals(
            beta, data.time, data.status, data.Z, data.w)
        np.testing.assert_allclose(score_and_information(beta, *data.args)[0], score,
                                   rtol=1e-10)
        np.testing.assert_allclose(score_residuals(beta, *data.args), resid, rtol=1e-10)


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
    order = TimeOrder(t, np.ones_like(t)).order
    assert np.array_equal(order, np.argsort(t, kind="stable")[::-1])


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
    shared, columns, w = data.args
    # a fit takes the trial's TimeOrder as it is
    assert coxph._SortedSample(shared, columns, w).time_order is shared


def test_design_columns_fit_as_the_design_array():
    # covariate vectors fit as the columns of the design they make, whether
    # they are arrays of their own or strided views of an n x p array
    time, status, trt, x = treatment_trial(np.random.default_rng(42), 500)
    times = TimeOrder(time, status)
    by_columns = fit_cox(times, (trt, x))
    by_array = fit_cox(times, tuple(np.column_stack([trt, x]).T))
    for key in ("beta", "se_model", "loglik_at_solution"):
        assert np.array_equal(getattr(by_columns, key), getattr(by_array, key))
    with pytest.raises(SingularInformation, match="column 1 of the design is constant"):
        fit_cox(times, (trt, np.full(500, 0.3)))
    with pytest.raises(ValueError, match="covariate columns of n = 500"):
        fit_cox(times, (trt, x[:-1]))


def test_design_rows_must_be_subjects():
    times = TimeOrder(np.array([1.0, 2.0, 3.0]), np.ones(3))
    z = np.array([0.0, 1.0, 0.0])
    assert coxph._SortedSample(times, [z]).z.shape == (1, 3)
    # every column holds one value per subject: no column at all, an n x 1
    # or 1 x n array as one column, and a column of another length are
    # refused, not reshaped
    for columns in ([], [z[:, None]], [z[None, :]], [z, z[:2]], [np.ones((2, 3))]):
        with pytest.raises(ValueError, match="covariate columns of n = 3"):
            fit_cox(times, columns)
    with pytest.raises(ValueError, match="weights .* the n = 3 subjects"):
        fit_cox(times, [z], np.ones(2))
    # and every subject has one time and one status
    for time, status in ((np.ones((3, 1)), np.ones((3, 1))), (np.ones(3), np.ones(2))):
        with pytest.raises(ValueError, match="1-D of matching length"):
            TimeOrder(time, status)


def test_fit_memory_grows_linearly_in_covariates():
    # with every array of a fit at most n x p, going from 2 to 8 covariates
    # multiplies the peak by less than 8 / 2; an n x p x p array would push
    # the ratio towards (8 / 2)**2
    rng = np.random.default_rng(19)
    n = 20_000
    time = rng.exponential(1.0, n) + 0.01
    status = (rng.random(n) < 0.7).astype(float)
    Z = rng.normal(size=(n, 8))
    times = TimeOrder(time, status)
    # each fit pays for its own scratch, whatever ran before
    small, large = (peak_bytes(fit_cox, times, tuple(Z[:, :p].T))[1] for p in (2, 8))
    assert large / small < 4


class AllocatingKernel:
    """The risk-set evaluation with every step allocating its result. The
    scratch kernel makes the same operations in the same order, so it must
    equal this bit for bit."""

    def __init__(self, data):
        # an unweighted fit is one with weights of 1, bit for bit
        self.order = TimeOrder(data.time, data.status).order
        t = data.time[self.order]
        self.d = data.status[self.order]
        self.w = unit_weights(data.w, data.time)[self.order]
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
        return sums if self.last is None else sums.take(self.last, axis=-1)

    def events_through(self, a):
        sums = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
        return sums if self.first is None else sums.take(self.first, axis=-1)

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
@pytest.mark.parametrize("tied", [False, True, "pair"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_scratch_kernel_matches_allocating_kernel_bitwise(p, weighted, tied):
    rng = np.random.default_rng(100 * p + 10 * weighted + (2 if tied == "pair" else tied))
    # a larger fit first, which must leave nothing that this one reads;
    # an odd n puts the scratch's rows at odd offsets
    fit_cox(*random_sample(rng, n=2001, p=p + 1).args)
    data = random_sample(rng, n=1001, p=p, weighted=weighted)
    if tied == "pair":
        # one tied pair of events among distinct times
        time, events = data.time.copy(), np.flatnonzero(data.status)
        time[events[1]] = time[events[0]]
        data = replace(data, time=time)
    elif tied:
        data = replace(data, time=np.ceil(10 * data.time) / 10)
    ref = AllocatingKernel(data)
    assert (ref.first is not None) == bool(tied)
    args = data.args
    assert (args[2] is None) == (not weighted)
    for beta in (np.zeros(p), rng.normal(scale=0.5, size=p)):
        loglik, grad, info = ref.score_info(beta)
        assert partial_loglik(beta, *args) == loglik
        got_grad, got_info = score_and_information(beta, *args)
        assert np.array_equal(got_grad, grad)
        assert np.array_equal(got_info, info)
        assert np.array_equal(score_residuals(beta, *args), ref.residuals(beta))


@pytest.mark.filterwarnings("ignore:tied event times")
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("p", [1, 4])
def test_unweighted_fit_equals_fit_with_unit_weights_bitwise(p, tied):
    # an unweighted fit keeps the scalar weight 1.0 and no weight vector;
    # every product by it is exact
    rng = np.random.default_rng(50 + 10 * p + tied)
    data = random_sample(rng, n=801, p=p, weighted=False)
    if tied:
        data = replace(data, time=np.ceil(10 * data.time) / 10)
    times, columns, _ = data.args
    assert (times.ties is not None) == tied
    assert coxph._SortedSample(times, columns).w == 1.0
    assert coxph._SortedSample(times, columns, np.ones(801)).w.shape == (801,)
    unweighted = fit_cox(times, columns)
    weighted = fit_cox(times, columns, np.ones(801))
    # only a weighted fit builds the sandwich
    assert unweighted.se_robust is None and weighted.se_robust.shape == (p,)
    for key in ("beta", "se_model", "loglik_at_solution", "iterations"):
        assert np.array_equal(getattr(unweighted, key), getattr(weighted, key))


def test_a_tie_costs_memory_of_the_tied_positions_only():
    # n distinct times but one tied pair, every subject an event: the order,
    # statuses and event positions take 3 x 8n, and the tie adds O(1), not
    # an n-length map per risk-set sum
    n = 100_000
    time = np.arange(1.0, n + 1)
    time[1] = time[0]
    status = np.ones(n)
    tracemalloc.start()
    try:
        times = TimeOrder(time, status)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert times.ties is not None
    assert held < 4 * 8 * n


def test_warm_score_evaluation_allocates_less_than_one_vector():
    rng = np.random.default_rng(23)
    n, p = 20_000, 4
    s = coxph._SortedSample(*random_sample(rng, n=n, p=p).args)
    beta = rng.normal(scale=0.1, size=p)
    coxph._score_info(s, beta)  # warms numpy; s made its scratch already
    _, peak = peak_bytes(coxph._score_info, s, beta)
    assert peak < 8 * n


@pytest.mark.filterwarnings("ignore:tied event times")
@pytest.mark.parametrize("tied", [False, True])
def test_warm_evaluations_allocate_nothing_of_length_n(tied):
    # with tied times the risk-set sums are gathered into the scratch, not
    # into new arrays; unweighted, the risk scores are exp(eta) times the
    # scalar 1.0, not times a weight vector
    rng = np.random.default_rng(24)
    n, p = 20_000, 4
    for weighted in (False, True):
        data = random_sample(rng, n=n, p=p, weighted=weighted)
        if tied:
            data = replace(data, time=np.ceil(10 * data.time) / 10)
        s = coxph._SortedSample(*data.args)
        assert (s.time_order.ties is not None) == tied
        assert np.shape(s.w) == ((n,) if weighted else ())
        beta = rng.normal(scale=0.1, size=p)
        coxph._score_info(s, beta)  # warms numpy; s made its scratch already
        assert peak_bytes(coxph._score_info, s, beta)[1] < 4096
        # the residuals are returned in a new p x n array, and nothing else
        assert peak_bytes(coxph._residuals, s, beta)[1] < 8 * n * p + 4096


@pytest.mark.filterwarnings("ignore:tied event times")
@pytest.mark.parametrize("tied", [False, True])
def test_fit_results_do_not_alias_the_scratch(tied):
    rng = np.random.default_rng(29)
    data = random_sample(rng, n=500, p=2)
    if tied:
        data = replace(data, time=np.ceil(10 * data.time) / 10)
    assert (data.args[0].ties is not None) == tied
    at_once = fit_cox(*data.args)
    at_once_se = at_once.se_robust
    late = fit_cox(*data.args)
    kept = {k: np.copy(getattr(late, k)) for k in ("beta", "se_model")}
    # a second, larger fit, in a scratch of its own, must change none of them
    fit_cox(*random_sample(rng, n=5000, p=3).args)
    assert np.array_equal(late.se_robust, at_once_se)
    for k, value in kept.items():
        assert np.array_equal(getattr(late, k), value)


@pytest.mark.parametrize("weighted", [False, True])
def test_kept_fit_holds_nothing_of_length_n(weighted):
    # a fit keeps what it reports, not its sample, scratch or bread: the
    # sandwich of a weighted fit is built before fit_cox returns
    rng = np.random.default_rng(41)
    n = 20_000
    args = random_sample(rng, n=n, p=4, weighted=weighted).args
    fit_cox(*args)  # warms numpy, outside the trace
    tracemalloc.start()
    try:
        fit = fit_cox(*args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * n
    assert fit.converged and (fit.se_robust is not None) == weighted


def _fit_summary(data):
    fit = fit_cox(*data.args)
    return fit.beta, fit.se_model, fit.se_robust, fit.loglik_at_solution


def test_concurrent_fits_equal_sequential_ones():
    # each fit has its own scratch; four threads on two cores, two per
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
        _, info = score_and_information(rng.normal(size=3), *data.args)
        assert np.min(np.linalg.eigvalsh(info)) > -1e-10


def test_closed_form_three_subject_fit():
    data = three_subject_sample()
    fit = fit_cox(*data.args)
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
    base = fit_cox(*data.args)
    # the robust SE too: at 1e-300 the squared weights underflow to 0, at
    # 1e200 they overflow, unless the sandwich takes the scale out first
    for c in (0.5, 2.0, 10.0, 1e-300, 1e200):
        scaled = fit_cox(*replace(data, w=c * data.w).args)
        np.testing.assert_allclose(scaled.beta, base.beta, atol=1e-7)
        np.testing.assert_allclose(scaled.se_robust, base.se_robust, rtol=1e-10)


def test_treatment_recode_negates_coefficient():
    rng = np.random.default_rng(11)
    n = 100
    trt = (rng.random(n) < 0.5).astype(float)
    time = rng.exponential(1.0, n) * np.exp(-0.5 * trt) + 1e-3
    times = TimeOrder(time, np.ones(n))
    assert fit_cox(times, [1 - trt]).beta[0] == \
        pytest.approx(-fit_cox(times, [trt]).beta[0], abs=1e-7)


def test_loglik_never_below_null():
    rng = np.random.default_rng(12)
    for _ in range(10):
        args = random_sample(rng, n=40, p=2).args
        fit = fit_cox(*args)
        assert fit.loglik_at_solution >= partial_loglik(np.zeros(2), *args) - 1e-10


def test_multivariable_recovers_true_coefficients():
    trial = simulate_trial(study_A_model(), 10**5, RandomStream(77))
    fit = fit_cox(trial.time_order,
                  (trial.trt, *map(trial.column, ["PLNEN", "ISS", "Refr"])))
    truth = np.array([math.log(0.53), 1.0682, -0.6651, 0.0825])
    assert np.all(np.abs(fit.beta - truth) < 4 * fit.se_model)


def test_score_residuals_sum_to_zero_at_optimum():
    rng = np.random.default_rng(13)
    data = random_sample(rng, n=80, p=2)
    fit = fit_cox(*data.args)
    u = score_residuals(fit.beta, *data.args)
    np.testing.assert_allclose(data.w @ u, np.zeros(2), atol=1e-8)


def test_robust_matches_model_se_when_correctly_specified():
    trial = simulate_trial(study_A_model(censoring_rate=0.0), 10**4, RandomStream(14))
    fit = fit_cox(trial.time_order,
                  (trial.trt, *map(trial.column, ["PLNEN", "ISS", "Refr"])),
                  np.ones(trial.n))
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
    fit = fit_cox(TimeOrder(time, np.ones(n)), [trt], w)
    boot = []
    for _ in range(1000):
        idx = rng.integers(0, n, n)
        boot.append(fit_cox(TimeOrder(time[idx], np.ones(n)), [trt[idx]], w[idx]).beta[0])
    boot_se = np.std(boot, ddof=1)
    assert abs(fit.se_robust[0] - boot_se) / boot_se < 0.15


def test_no_events_rejected():
    with pytest.raises(NoEvents):
        TimeOrder(np.array([1.0, 2.0]), np.zeros(2))


def treatment_trial(rng, n):
    """Times, 0/1 statuses, a 0/1 treatment and a normal covariate x."""
    trt = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=n)
    time = rng.exponential(1.0, n) * np.exp(-(0.5 * trt + 0.3 * x))
    status = (rng.random(n) < 0.8).astype(float)
    status[0] = 1.0
    return time, status, trt, x


def test_constant_column_rejected():
    with pytest.raises(SingularInformation):
        fit_cox(TimeOrder(np.array([1.0, 2.0, 3.0]), np.ones(3)), [np.ones(3)])
    # beside treatment a constant's information is rounding noise of either
    # sign, which no pivot test can judge; it is refused by its index
    time, status, trt, _ = treatment_trial(np.random.default_rng(30), 2000)
    for c in (0.3, 1.0):
        with pytest.raises(SingularInformation, match="column 1 of the design is constant"):
            fit_cox(TimeOrder(time, status), (trt, np.full(2000, c)))


def test_affine_collinear_design_rejected():
    # the partial likelihood is blind to a constant shift, so 2d + 5 beside d
    # leaves a flat direction, not a diverging one
    rng = np.random.default_rng(31)
    for _ in range(5):
        time, status, d, x = treatment_trial(rng, 300)
        with pytest.raises(SingularInformation, match="collinear"):
            fit_cox(TimeOrder(time, status), (x, d, 2 * d + 5))


def test_fit_and_verdict_do_not_depend_on_covariate_units():
    # a covariate recorded in other units gets a coefficient in the inverse
    # units, the same Newton steps and the same verdict
    time, status, trt, x = treatment_trial(np.random.default_rng(32), 500)
    times = TimeOrder(time, status)
    base = fit_cox(times, (trt, x))
    for scale in (1e-9, 1.0, 1e9):
        fit = fit_cox(times, (trt, scale * x))
        assert fit.converged and fit.iterations == base.iterations
        np.testing.assert_allclose(fit.beta * [1.0, scale], base.beta, rtol=1e-9)
        with pytest.raises(SingularInformation):  # the same refusal of a copy
            fit_cox(times, (trt, x, scale * x))


def test_separation_detected():
    # all control events precede every treated time: beta diverges
    time = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    status = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    trt = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(MonotoneLikelihood):
        fit_cox(TimeOrder(time, status), [trt])


def test_separation_detected_whatever_the_scale():
    # events only at z = 0, every censored subject at z = 70: the likelihood
    # levels off at beta near -0.33, far inside any bound on |beta| itself
    time = np.arange(1.0, 9.0)
    status = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    z = np.array([0.0, 0.0, 0.0, 0.0, 70.0, 70.0, 70.0, 70.0])
    with pytest.raises(MonotoneLikelihood):
        fit_cox(TimeOrder(time, status), [z])


def test_ties_warn_and_match_oracle():
    time = np.array([1.0, 1.0, 2.0, 3.0])
    status = np.array([1.0, 1.0, 1.0, 0.0])
    Z = np.array([[0.0], [1.0], [1.0], [0.0]])
    with pytest.warns(UserWarning, match="tied"):
        value = partial_loglik(np.array([0.3]), TimeOrder(time, status), tuple(Z.T))
    expected = brute_force_loglik(np.array([0.3]), time, status, Z, np.ones(4))
    assert value == pytest.approx(expected, rel=1e-12)


def sandwich(fit, data):
    """The robust variance of ``fit``, a fit on ``data``, from its beta."""
    bread = np.linalg.inv(score_and_information(fit.beta, *data.args)[1])
    return robust_variance(coxph._SortedSample(*data.args), fit.beta, bread)


def test_robust_variance_requires_fit():
    rng = np.random.default_rng(16)
    data = random_sample(rng, n=50, p=2)
    fit = fit_cox(*data.args)
    cov = sandwich(fit, data)
    assert np.array_equal(np.sqrt(np.diag(cov)), fit.se_robust)
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
            data = replace(data, time=np.round(data.time, 1) + 0.1)
        fit = fit_cox(*data.args)
        assert fit.converged
        args = (fit.beta, data.time, data.status, data.Z, data.w)
        bread = np.linalg.inv(brute_force_information(*args))
        uw = data.w[:, None] * brute_force_score_and_residuals(*args)[1]
        expected = bread @ (uw.T @ uw) @ bread
        error = np.max(np.abs(sandwich(fit, data) - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))


def test_non_finite_values_rejected():
    status, z = np.ones(3), np.array([0.0, 1.0, 0.0])
    times = TimeOrder(np.array([1.0, 2.0, 3.0]), status)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="times"):
            TimeOrder(np.array([1.0, bad, 3.0]), status)
        with pytest.raises(ValueError, match="covariate values Z"):
            fit_cox(times, [np.array([0.0, bad, 0.0])])
        with pytest.raises(ValueError, match="weights"):
            fit_cox(times, [z], np.array([1.0, bad, 1.0]))
    for bad in (np.nan, 2.0, -1.0):
        with pytest.raises(ValueError, match="status must be 0/1"):
            TimeOrder(np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, 0.0]))
