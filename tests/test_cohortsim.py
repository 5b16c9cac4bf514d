import csv
import io
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from maicsim.cohortsim import (
    CovariateSpec,
    OutcomeModelSpec,
    TrialData,
    linear_predictor,
    simulate_covariates,
    simulate_survival,
    simulate_trial,
    trial_from_csv,
    trial_to_csv,
    with_outcomes,
    write_trial_csv,
)
from maicsim.estimands import marginal_effect, summarize_aggregate
from maicsim.stochastic import Bernoulli, Normal, Poisson, RandomStream

from helpers import B_A, CENS_RATE, RATE, peak_bytes, study_A_covariates, study_A_model


def small_trial(seed=3, n=400):
    return simulate_trial(study_A_model(), n, RandomStream(seed))


def test_study_A_covariate_means():
    X = simulate_covariates(study_A_covariates(), 10**5, RandomStream(555))
    means = X.mean(axis=0)
    assert means[0] == pytest.approx(69.3, abs=0.05)
    assert means[1] == pytest.approx(3.4, abs=0.05)
    assert means[2] == pytest.approx(0.74, abs=0.01)
    assert means[3] == pytest.approx(0.92, abs=0.01)


def test_single_subject_shape():
    X = simulate_covariates(study_A_covariates(), 1, RandomStream(0))
    assert X.shape == (1, 4)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            simulate_covariates(study_A_covariates(), n, RandomStream(0))


def test_degenerate_bernoulli_all_ones():
    X = simulate_covariates([CovariateSpec("c", Bernoulli(1.0))], 500, RandomStream(0))
    assert np.all(X == 1.0)


def test_duplicate_names_rejected():
    specs = [CovariateSpec("a", Bernoulli(0.5)), CovariateSpec("a", Bernoulli(0.5))]
    with pytest.raises(ValueError, match=r"duplicate covariate names: \['a', 'a'\]"):
        OutcomeModelSpec(0.0, RATE, 0.0, specs)


def test_out_of_range_rates_rejected():
    for rate in (0.0, -RATE):
        with pytest.raises(ValueError, match="baseline_rate must be positive"):
            OutcomeModelSpec(0.0, rate, 0.0, ())
    with pytest.raises(ValueError, match="censoring_rate must be non-negative"):
        OutcomeModelSpec(0.0, RATE, -CENS_RATE, ())


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


def test_mean_latent_time():
    model = study_A_model(censoring_rate=0.0)
    time, status = simulate_survival(np.zeros(10**6), model, RandomStream(21))
    assert np.all(status == 1)
    assert time.mean() == pytest.approx(730.0, abs=3.0)


def test_censored_fraction_competing_exponentials():
    # P(censor first) = cens / (cens + event) = 1/6 at LP = 0
    model = study_A_model()
    _, status = simulate_survival(np.zeros(10**6), model, RandomStream(22))
    assert (status == 0).mean() == pytest.approx(1 / 6, abs=0.002)


def test_censored_fraction_by_lp_stratum():
    model = study_A_model()
    for lp in (0.0, 1.0):
        _, status = simulate_survival(np.full(2 * 10**5, lp), model, RandomStream(23))
        expected = CENS_RATE / (CENS_RATE + RATE * math.exp(lp))
        se = math.sqrt(expected * (1 - expected) / status.size)
        assert abs((status == 0).mean() - expected) < 4 * se


def test_conditional_survival_law_ks():
    lp = 0.3
    model = study_A_model(censoring_rate=0.0)
    time, _ = simulate_survival(np.full(10**5, lp), model, RandomStream(24))
    scale = 1.0 / (RATE * math.exp(lp))
    assert stats.kstest(time, "expon", args=(0, scale)).pvalue > 0.001


def test_trial_allocation():
    trial = simulate_trial(study_A_model(), 10**5, RandomStream(555))
    assert trial.trt.sum() == 5 * 10**4
    assert trial.n == 10**5
    assert np.all(trial.trt[: 5 * 10**4] == 1)


def test_trial_minimal_n():
    trial = simulate_trial(study_A_model(), 2, RandomStream(0))
    assert trial.trt.tolist() == [1.0, 0.0]


def test_trial_is_covariates_then_outcomes():
    # simulate_trial is exactly the covariate draw followed by with_outcomes
    model = study_A_model()
    first, second = RandomStream(8), RandomStream(8)
    trial = simulate_trial(model, 1000, first)
    X = simulate_covariates(model.covariates, 1000, second)
    again = with_outcomes(model, X, trial.trt, second)
    assert again.covariate_names == trial.covariate_names
    for a, b in ((again.X, trial.X), (again.trt, trial.trt),
                 (again.time, trial.time), (again.status, trial.status)):
        assert np.array_equal(a, b)
    assert second.draw_count == first.draw_count


def test_trial_odd_n_rejected():
    with pytest.raises(ValueError):
        simulate_trial(study_A_model(), 11, RandomStream(0))


def test_exchangeable_arms_without_treatment_effect():
    # covariate-free null model: the two arms' event times share a law
    model = OutcomeModelSpec(0.0, RATE, 0.0, ())
    trial = simulate_trial(model, 2 * 10**4, RandomStream(31))
    treated = trial.time[trial.trt == 1]
    control = trial.time[trial.trt == 0]
    assert stats.ks_2samp(treated, control).pvalue > 0.001


def test_randomization_balance():
    trial = simulate_trial(study_A_model(), 10**5, RandomStream(32))
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
    assert summary.effect.log_hr == pytest.approx(est.log_hr, abs=1e-12)
    assert summary.effect.se == pytest.approx(est.se, abs=1e-12)


def test_summarize_constant_covariate_exact():
    covs = (CovariateSpec("c", Bernoulli(1.0)),)
    model = OutcomeModelSpec(0.0, RATE, 0.0, covs)
    trial = simulate_trial(model, 200, RandomStream(4))
    assert summarize_aggregate(trial).mean("c") == 1.0


def test_study_B_age_mean():
    covs = (CovariateSpec("Age", Normal(62.1, 5.0)),)
    X = simulate_covariates(covs, 10**5, RandomStream(42))
    assert X[:, 0].mean() == pytest.approx(62.1, abs=0.05)


def test_csv_round_trip():
    trial = small_trial(n=50)
    text = trial_to_csv(trial)
    header = text.splitlines()[0]
    assert header == "subject_id,Age,PLNEN,ISS,Refr,trt,time,status"
    back = trial_from_csv(io.BytesIO(text.encode()))
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
        back = trial_from_csv(io.BytesIO(text.encode()))
        want = loop_from_csv(text)
        assert want.tobytes() == np.array(
            [[float(f"{v:.10g}") for v in row]
             for row in np.column_stack([t.X, t.trt, t.time, t.status])]).tobytes()
        got = np.column_stack([back.X, back.trt, back.time, back.status])
        assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included


# whole-column lists of Python floats, or a StringIO (4 bytes a character),
# would take either call past its bound
def test_csv_write_memory_is_a_small_multiple_of_the_text():
    text, peak = peak_bytes(trial_to_csv, small_trial(n=50_000, seed=27))
    assert peak < 4 * len(text)


def test_csv_write_memory_does_not_grow_with_n(tmp_path):
    # written to the file a block at a time: no whole text, no bytes copy
    def peak(n):
        trial = small_trial(n=n, seed=27)
        with open(tmp_path / f"trial_{n}.csv", "w") as f:
            return peak_bytes(write_trial_csv, trial, f)[1]

    assert peak(65_536) <= 1.5 * peak(16_384)


def test_write_trial_csv_is_the_text_of_trial_to_csv():
    # one row, one block of rows and one row past it, and many blocks
    big = small_trial(n=20_000)
    for n in (1, 1_024, 1_025, 20_000):
        trial = TrialData(big.covariate_names, big.X[:n], big.trt[:n], big.time[:n],
                          big.status[:n])
        buf = io.StringIO()
        write_trial_csv(trial, buf)
        assert buf.getvalue() == trial_to_csv(trial) == loop_to_csv(trial), n


def test_csv_read_memory_is_a_small_multiple_of_the_text():
    text = trial_to_csv(small_trial(n=50_000, seed=27))
    _, peak = peak_bytes(trial_from_csv, io.BytesIO(text.encode()))
    assert peak < 5 * len(text)


def test_csv_malformed_rows_rejected():
    text = trial_to_csv(small_trial(n=50))
    header, first, rest = text.split("\n", 2)
    short = first.rsplit(",", 1)[0]
    for bad in (short, first + ",1", first.replace(",", ",abc,", 1)):
        with pytest.raises(ValueError):
            trial_from_csv(io.BytesIO("\n".join([header, bad, rest]).encode()))
    # every row one field short of the header
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()[1:]]
    with pytest.raises(ValueError, match="fields"):
        trial_from_csv(io.BytesIO(("\n".join([header, *rows]) + "\n").encode()))
    # a header that does not start with subject_id or end with trt, time, status
    for bad in (header.replace("subject_id", "id"), header.replace("trt,time", "time,trt"),
                header + ",extra"):
        with pytest.raises(ValueError, match="unrecognized trial CSV header"):
            trial_from_csv(io.BytesIO("\n".join([bad, first, rest]).encode()))
    # a header that names Age twice would leave the second Age column unread
    twice = text.replace("PLNEN", "Age", 1)
    with pytest.raises(ValueError, match="duplicate covariate names"):
        trial_from_csv(io.BytesIO(twice.encode()))


def test_csv_empty_text_rejected():
    with pytest.raises(ValueError, match="empty"):
        trial_from_csv(io.BytesIO(b""))


def test_csv_header_only_rejected():
    header = trial_to_csv(small_trial(n=50)).splitlines()[0]
    # found before numpy's loadtxt, which would warn on a body without rows
    for body in ("", "\n", "\n \n\t\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no subject rows"):
                trial_from_csv(io.BytesIO((header + "\n" + body).encode()))


def test_trial_data_validation():
    with pytest.raises(ValueError):
        TrialData(("a",), np.ones((3, 1)), np.array([1.0, 0.0, 0.0]),
                  np.array([1.0, -1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TrialData(("a",), np.ones((3, 1)), np.array([1.0, 0.0, 2.0]),
                  np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    # one column of X per name, at least one row, and 1-D outcome vectors
    trt, time, status = np.array([1.0, 0.0, 0.0]), np.ones(3), np.ones(3)
    for names, X in ((("a", "b"), np.ones((3, 1))), (("a",), np.ones((3, 2))),
                     (("a",), np.ones(3)), (("a",), np.ones((3, 1, 1))),
                     (("a",), np.ones((0, 1)))):
        with pytest.raises(ValueError, match="X must be n x"):
            TrialData(names, X, trt[:len(X)], time[:len(X)], status[:len(X)])
    X = np.ones((3, 1))
    for bad in (np.ones((3, 1)), np.ones(2), np.ones(4), np.ones((1, 3))):
        for args in ((bad, time, status), (trt, bad, status), (trt, time, bad)):
            with pytest.raises(ValueError, match="1-D with the 3 rows of X"):
                TrialData(("a",), X, *args)
    trial = TrialData(("a", "b"), np.ones((3, 2)), trt, time, status)
    assert trial.n == 3 and trial.column("b").shape == (3,)
    assert TrialData((), np.empty((3, 0)), trt, time, status).n == 3


def test_only_keeps_the_named_covariates_in_arrays_of_its_own():
    trial = small_trial(n=50)
    kept = trial.only(["Refr", "Age"])
    assert kept.covariate_names == ("Refr", "Age")
    assert kept.X.tobytes() == trial.columns(["Refr", "Age"]).tobytes()
    for name in ("trt", "time", "status"):
        assert getattr(kept, name).tobytes() == getattr(trial, name).tobytes()
    for name in ("X", "trt", "time", "status"):
        assert not np.shares_memory(getattr(kept, name), getattr(trial, name)), name
    with pytest.raises(KeyError) as info:
        trial.only(["Age", "Nope"])
    assert info.value.args == ("no covariate named 'Nope'",)
    none = trial.only(())
    assert none.covariate_names == () and none.X.shape == (50, 0) and none.n == 50


def test_non_finite_values_rejected():
    # NaN compares false with everything, so "time <= 0" let it through
    trt, status = np.array([1.0, 0.0, 0.0]), np.ones(3)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="times"):
            TrialData(("a",), np.ones((3, 1)), trt, np.array([1.0, bad, 2.0]), status)
        with pytest.raises(ValueError, match="covariate values X"):
            TrialData(("a",), np.array([[1.0], [bad], [0.0]]), trt,
                      np.array([1.0, 3.0, 2.0]), status)
