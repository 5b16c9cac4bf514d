import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from maicsim.cohortsim import (
    CovariateSpec,
    OutcomeModelSpec,
    TrialData,
    latent_event_times,
    linear_predictor,
    simulate_covariates,
    simulate_survival,
    simulate_trial,
    summarize_aggregate,
    trial_from_csv,
    trial_to_csv,
)
from maicsim.estimands import marginal_effect
from maicsim.stochastic import Bernoulli, Normal, Poisson, seed_stream

from helpers import B_A, CENS_RATE, RATE, study_A_covariates, study_A_model


def small_trial(seed=3, n=400):
    return simulate_trial(study_A_model(), n, seed_stream(seed))


def test_study_A_covariate_means():
    X = simulate_covariates(study_A_covariates(), 10**5, seed_stream(555))
    means = X.mean(axis=0)
    assert means[0] == pytest.approx(69.3, abs=0.05)
    assert means[1] == pytest.approx(3.4, abs=0.05)
    assert means[2] == pytest.approx(0.74, abs=0.01)
    assert means[3] == pytest.approx(0.92, abs=0.01)


def test_single_subject_shape():
    X = simulate_covariates(study_A_covariates(), 1, seed_stream(0))
    assert X.shape == (1, 4)


def test_degenerate_bernoulli_all_ones():
    X = simulate_covariates([CovariateSpec("c", Bernoulli(1.0))], 500, seed_stream(0))
    assert np.all(X == 1.0)


def test_duplicate_names_rejected():
    specs = [CovariateSpec("a", Bernoulli(0.5)), CovariateSpec("a", Bernoulli(0.5))]
    with pytest.raises(ValueError):
        simulate_covariates(specs, 10, seed_stream(0))


def test_linear_predictor_zero_model():
    covs = tuple(CovariateSpec(c.name, c.marginal) for c in study_A_covariates())
    model = OutcomeModelSpec(0.0, RATE, 0.0, covs)
    X = np.random.default_rng(0).normal(size=(20, 4))
    lp = linear_predictor(X, np.ones(20), model)
    assert np.all(lp == 0.0)


def test_linear_predictor_hand_value():
    # plnen=3, iss=1, refr=1, treated, no interactions:
    # 1.0682*3 - 0.6651 + 0.0825 + ln(0.53) = 1.9871217
    covs = study_A_covariates()[1:]  # PLNEN, ISS, Refr
    model = OutcomeModelSpec(B_A, RATE, CENS_RATE, covs)
    lp = linear_predictor(np.array([[3.0, 1.0, 1.0]]), np.array([1.0]), model)
    assert lp[0] == pytest.approx(1.9871217276, abs=1e-9)


def test_interaction_adds_exact_term():
    covs = (CovariateSpec("Age", Normal(69.3, 5.0), interaction_coef=0.005),
            *study_A_covariates()[1:])
    model_int = OutcomeModelSpec(B_A, RATE, CENS_RATE, covs)
    model_base = study_A_model()
    x = np.array([[65.0, 3.0, 1.0, 1.0]])
    trt = np.array([1.0])
    gap = linear_predictor(x, trt, model_int) - linear_predictor(x, trt, model_base)
    assert gap[0] == pytest.approx(0.325, abs=1e-12)
    # untreated subjects are unaffected
    gap0 = (linear_predictor(x, np.zeros(1), model_int)
            - linear_predictor(x, np.zeros(1), model_base))
    assert gap0[0] == 0.0


def test_linear_predictor_dimension_mismatch():
    with pytest.raises(ValueError):
        linear_predictor(np.zeros((5, 2)), np.zeros(5), study_A_model())


def test_latent_time_inverse_transform():
    assert latent_event_times(np.array([0.5]), np.array([0.0]), 1.0)[0] == \
        pytest.approx(math.log(2), abs=1e-12)


def test_mean_latent_time():
    model = study_A_model(censoring_rate=0.0)
    time, status = simulate_survival(np.zeros(10**6), model, seed_stream(21))
    assert np.all(status == 1)
    assert time.mean() == pytest.approx(730.0, abs=3.0)


def test_censored_fraction_competing_exponentials():
    # P(censor first) = cens / (cens + event) = 1/6 at LP = 0
    model = study_A_model()
    _, status = simulate_survival(np.zeros(10**6), model, seed_stream(22))
    assert (status == 0).mean() == pytest.approx(1 / 6, abs=0.002)


def test_censored_fraction_by_lp_stratum():
    model = study_A_model()
    for lp in (0.0, 1.0):
        _, status = simulate_survival(np.full(2 * 10**5, lp), model, seed_stream(23))
        expected = CENS_RATE / (CENS_RATE + RATE * math.exp(lp))
        se = math.sqrt(expected * (1 - expected) / status.size)
        assert abs((status == 0).mean() - expected) < 4 * se


def test_conditional_survival_law_ks():
    lp = 0.3
    model = study_A_model(censoring_rate=0.0)
    time, _ = simulate_survival(np.full(10**5, lp), model, seed_stream(24))
    scale = 1.0 / (RATE * math.exp(lp))
    assert stats.kstest(time, "expon", args=(0, scale)).pvalue > 0.001


def test_trial_allocation():
    trial = simulate_trial(study_A_model(), 10**5, seed_stream(555))
    assert trial.trt.sum() == 5 * 10**4
    assert trial.n == 10**5
    assert np.all(trial.trt[: 5 * 10**4] == 1)


def test_trial_minimal_n():
    trial = simulate_trial(study_A_model(), 2, seed_stream(0))
    assert trial.trt.tolist() == [1.0, 0.0]


def test_trial_odd_n_rejected():
    with pytest.raises(ValueError):
        simulate_trial(study_A_model(), 11, seed_stream(0))


def test_exchangeable_arms_without_treatment_effect():
    # covariate-free null model: the two arms' event times share a law
    model = OutcomeModelSpec(0.0, RATE, 0.0, ())
    trial = simulate_trial(model, 2 * 10**4, seed_stream(31))
    treated = trial.time[trial.trt == 1]
    control = trial.time[trial.trt == 0]
    assert stats.ks_2samp(treated, control).pvalue > 0.001


def test_randomization_balance():
    trial = simulate_trial(study_A_model(), 10**5, seed_stream(32))
    t, c = trial.trt == 1, trial.trt == 0
    for k in range(trial.X.shape[1]):
        col = trial.X[:, k]
        gap = abs(col[t].mean() - col[c].mean())
        se = math.sqrt(col[t].var() / t.sum() + col[c].var() / c.sum())
        assert gap < 4 * se


def test_summarize_aggregate_means_and_loghr():
    trial = small_trial(n=4000)
    summary = summarize_aggregate(trial)
    assert summary.mean("Age") == pytest.approx(trial.column("Age").mean(), abs=1e-12)
    est = marginal_effect(trial)
    assert summary.log_hr == pytest.approx(est.log_hr, abs=1e-12)
    assert summary.se == pytest.approx(est.se, abs=1e-12)


def test_summarize_constant_covariate_exact():
    covs = (CovariateSpec("c", Bernoulli(1.0)),)
    model = OutcomeModelSpec(0.0, RATE, 0.0, covs)
    trial = simulate_trial(model, 200, seed_stream(4))
    assert summarize_aggregate(trial).mean("c") == 1.0


def test_study_B_age_mean():
    covs = (CovariateSpec("Age", Normal(62.1, 5.0)),)
    X = simulate_covariates(covs, 10**5, seed_stream(42))
    assert X[:, 0].mean() == pytest.approx(62.1, abs=0.05)


def test_csv_round_trip():
    trial = small_trial(n=50)
    text = trial_to_csv(trial)
    header = text.splitlines()[0]
    assert header == "subject_id,Age,PLNEN,ISS,Refr,trt,time,status"
    back = trial_from_csv(text)
    assert back.covariate_names == trial.covariate_names
    np.testing.assert_allclose(back.X, trial.X, rtol=1e-9)
    np.testing.assert_allclose(back.time, trial.time, rtol=1e-9)
    assert np.array_equal(back.trt, trial.trt)
    assert np.array_equal(back.status, trial.status)


def loop_to_csv(trial):
    """Reference writer: one csv.writer row per subject."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject_id", *trial.covariate_names, "trt", "time", "status"])
    for i in range(trial.n):
        writer.writerow([i, *(f"{v:.10g}" for v in trial.X[i]), int(trial.trt[i]),
                         f"{trial.time[i]:.10g}", int(trial.status[i])])
    return buf.getvalue()


def loop_from_csv(text):
    """Reference reader: float() on every field after the subject id."""
    rows = list(csv.reader(io.StringIO(text)))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def test_csv_round_trip_extreme_values():
    extremes = [1e-300, 5e-324, 1e21, -0.0, 0.1 + 0.2, 123456789012.0]
    X = np.array([extremes, extremes[::-1]]).T
    time = np.array([1e-300, 5e-324, 1e21, 7.0, 0.1 + 0.2, 123456789012.0])
    trial = TrialData(("a", "b"), X, np.array([1.0, 0, 1, 0, 1, 0]), time,
                      np.array([1.0, 1, 0, 1, 0, 1]))
    for t in (trial, small_trial(n=50)):
        text = trial_to_csv(t)
        assert text == loop_to_csv(t)
        back = trial_from_csv(text)
        want = loop_from_csv(text)
        assert want.tobytes() == np.array(
            [[float(f"{v:.10g}") for v in row]
             for row in np.column_stack([t.X, t.trt, t.time, t.status])]).tobytes()
        got = np.column_stack([back.X, back.trt, back.time, back.status])
        assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included


def _peak_bytes(fn, *args):
    """``fn(*args)`` and the peak of what it allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# whole-column lists of Python floats, or a StringIO (4 bytes a character),
# would take either call past its bound
def test_csv_write_memory_is_a_small_multiple_of_the_text():
    text, peak = _peak_bytes(trial_to_csv, small_trial(n=50_000, seed=27))
    assert peak < 4 * len(text)


def test_csv_read_memory_is_a_small_multiple_of_the_text():
    text = trial_to_csv(small_trial(n=50_000, seed=27))
    _, peak = _peak_bytes(trial_from_csv, text)
    assert peak < 5 * len(text)


def test_csv_malformed_rows_rejected():
    text = trial_to_csv(small_trial(n=50))
    header, first, rest = text.split("\n", 2)
    short = first.rsplit(",", 1)[0]
    for bad in (short, first + ",1", first.replace(",", ",abc,", 1)):
        with pytest.raises(ValueError):
            trial_from_csv("\n".join([header, bad, rest]))
    # every row one field short of the header
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()[1:]]
    with pytest.raises(ValueError, match="fields"):
        trial_from_csv("\n".join([header, *rows]) + "\n")


def test_csv_empty_text_rejected():
    with pytest.raises(ValueError, match="empty"):
        trial_from_csv("")


def test_csv_header_only_rejected():
    header = trial_to_csv(small_trial(n=50)).splitlines()[0]
    with pytest.raises(ValueError, match="no subject rows"):
        trial_from_csv(header + "\n")


def test_trial_data_validation():
    with pytest.raises(ValueError):
        TrialData(("a",), np.ones((3, 1)), np.array([1.0, 0.0, 0.0]),
                  np.array([1.0, -1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TrialData(("a",), np.ones((3, 1)), np.array([1.0, 0.0, 2.0]),
                  np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))


def test_non_finite_values_rejected():
    # NaN compares false with everything, so "time <= 0" let it through
    trt, status = np.array([1.0, 0.0, 0.0]), np.ones(3)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="times"):
            TrialData(("a",), np.ones((3, 1)), trt, np.array([1.0, bad, 2.0]), status)
        with pytest.raises(ValueError, match="covariate values X"):
            TrialData(("a",), np.array([[1.0], [bad], [0.0]]), trt,
                      np.array([1.0, 3.0, 2.0]), status)
