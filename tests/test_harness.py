import codecs
import importlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maicsim
from maicsim import balance, cli, cohortsim, coxph, estimands, harness, newton, stochastic
from maicsim.balance import (
    TargetOutsideSupport,
    WeightsNotConverged,
    center_covariates,
    estimate_weights,
)
from maicsim.cohortsim import covariate_means, trial_from_csv
from maicsim.estimands import marginal_effect, summarize_aggregate
from maicsim.harness import (
    ConfigError,
    ScenarioConfig,
    StageError,
    parse_config,
    replicate_appendix,
    run_scenario,
    simulate_studies,
)
from maicsim.stochastic import Normal, Poisson

SMALL = {"n": 2000, "seed": 11}


def test_empty_document_yields_appendix_defaults():
    cfg = parse_config("")
    assert cfg.seed == 555
    assert cfg.n == 100_000
    assert cfg.study_A.covariate_names == ("Age", "PLNEN", "ISS", "Refr")
    assert cfg.study_A.treatment_log_hr == pytest.approx(math.log(0.53))
    assert cfg.study_B.treatment_log_hr == pytest.approx(math.log(0.55))
    assert cfg.study_A.baseline_rate == pytest.approx(0.5 / 365)
    assert cfg.study_A.censoring_rate == pytest.approx(0.1 / 365)
    plnen = cfg.study_A.covariates[1]
    assert isinstance(plnen.marginal, Poisson)
    assert plnen.prognostic_coef == pytest.approx(1.0682)
    age_B = cfg.study_B.covariates[0]
    assert isinstance(age_B.marginal, Normal) and age_B.marginal.mean == 62.1
    assert cfg.balance_set == ("PLNEN", "ISS", "Refr")
    for study in (cfg.study_A, cfg.study_B):
        assert [c.interaction_coef for c in study.covariates] == [0.0] * 4


def test_package_exports_only_the_entry_points():
    # submodules are attributes of the package once imported; they are not
    # exports
    public = {name for name, value in vars(maicsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"ScenarioConfig", "ScenarioResult", "parse_config",
                      "replicate_appendix", "run_scenario"}
    assert maicsim.__version__


def test_readme_names_resolve():
    # every `module.name` the README cites is in that module, so that a
    # rename or deletion in src/ cannot leave the README naming what is gone
    readme = (Path(maicsim.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    modules = "coxph|cohortsim|balance|estimands|harness|newton|stochastic|cli"
    names = set(re.findall(rf"`((?:{modules})(?:\.\w+)+)", readme))
    assert len(names) >= 20, sorted(names)
    for name in sorted(names):
        value = importlib.import_module(f"maicsim.{name.split('.')[0]}")
        for attr in name.split(".")[1:]:
            assert hasattr(value, attr), f"README names {name}, which is not in maicsim"
            value = getattr(value, attr)


def test_unknown_top_level_field():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config('{"bogus": 1}')
    with pytest.raises(ConfigError, match="outputs"):
        parse_config('{"outputs": {"dir": "out"}}')


def test_unknown_nested_field_names_path():
    with pytest.raises(ConfigError, match="study_A.unknown_rate"):
        parse_config('{"study_A": {"unknown_rate": 1.0}}')


# study B with Age, ISS and Refr but no PLNEN
STUDY_B_WITHOUT_PLNEN = {"covariates": [
    {"name": "Age", "dist": {"kind": "normal", "mean": 62.1, "sd": 5.0}},
    {"name": "ISS", "dist": {"kind": "bernoulli", "p": 0.77}},
    {"name": "Refr", "dist": {"kind": "bernoulli", "p": 0.92}}]}


def test_undeclared_balance_covariate():
    # each of these used to pass parsing and fail only at the weights stage
    for doc in ({"balance_set": ["Nope"]},
                {"study_B": STUDY_B_WITHOUT_PLNEN},
                {"balance_set": ["PLNEN", "PLNEN"]},
                {"balance_set": []}):
        with pytest.raises(ConfigError, match="balance_set") as info:
            parse_config(doc)
        assert info.value.path == "balance_set"
    assert parse_config({"study_B": STUDY_B_WITHOUT_PLNEN,
                         "balance_set": ["ISS"]}).balance_set == ("ISS",)


def test_undeclared_interaction_covariate():
    for covariate, study_B in (("Nope", {}), ("PLNEN", STUDY_B_WITHOUT_PLNEN)):
        doc = {"interaction": {"covariate": covariate, "coefficient": 0.1},
               "balance_set": ["ISS"], "study_B": study_B}
        with pytest.raises(ConfigError, match="interaction") as info:
            parse_config(doc)
        assert info.value.path == "interaction.covariate"


def test_missing_dist_field():
    doc = {"study_A": {"covariates": [{"name": "x", "dist": {"kind": "normal",
                                                             "mean": 1.0}}]}}
    with pytest.raises(ConfigError, match="sd"):
        parse_config(doc)


def test_invalid_parameter_reported_with_path():
    doc = {"study_A": {"baseline_rate": -1.0}}
    with pytest.raises(ConfigError, match="study_A"):
        parse_config(doc)
    # lambdas whose exp(-lambda) underflows would hang the Poisson sampler
    for lam in ("1000", "Infinity"):
        text = ('{"study_B": {"covariates": [{"name": "PLNEN", '
                '"dist": {"kind": "poisson", "lam": %s}}]}}' % lam)
        with pytest.raises(ConfigError, match=r"study_B\.covariates\[0\]\.dist"):
            parse_config(text)
    for seed in (-1, 2**64, 5.9, "abc", "5", None, True):
        with pytest.raises(ConfigError, match="seed") as info:
            parse_config({"seed": seed})
        assert info.value.path == "seed"
    assert parse_config({"seed": 5.0}).seed == 5
    # a wrong JSON type is a ConfigError naming its field, never a bare
    # TypeError, ValueError or AttributeError, and never coerced
    normal = {"kind": "normal", "mean": None, "sd": 1.0}
    for doc, path in (
            ({"study_A": {"covariates": [{"name": "x", "dist": normal}]}},
             "study_A.covariates[0].dist.mean"),
            ({"study_A": {"covariates": [{"name": "x", "dist": {"kind": "uniform01"},
                                          "prognostic_coef": "x"}]}},
             "study_A.covariates[0].prognostic_coef"),
            ({"study_A": {"treatment_log_hr": None}}, "study_A.treatment_log_hr"),
            ({"study_B": {"treatment_log_hr": True}}, "study_B.treatment_log_hr"),
            # and every number is finite as a double
            ({"study_A": {"treatment_log_hr": math.nan}}, "study_A.treatment_log_hr"),
            ({"study_B": {"censoring_rate": math.inf}}, "study_B.censoring_rate"),
            ({"study_A": {"baseline_rate": 10**400}}, "study_A.baseline_rate"),
            ({"interaction": {"covariate": "Age", "coefficient": -math.inf}},
             "interaction.coefficient"),
            ({"study_A": {"covariates": [{"name": "x", "dist": {
                "kind": "bernoulli", "p": True}}]}}, "study_A.covariates[0].dist.p"),
            ({"interaction": {"covariate": "Age", "coefficient": "x"}},
             "interaction.coefficient"),
            ({"interaction": {"covariate": 7, "coefficient": 0.1}},
             "interaction.covariate"),
            ({"study_A": []}, "study_A"),
            ({"study_A": {"covariates": {"name": "x"}}}, "study_A.covariates"),
            ({"study_A": {"covariates": ["x"]}}, "study_A.covariates[0]"),
            ({"study_A": {"covariates": [{"name": "x", "dist": "normal"}]}},
             "study_A.covariates[0].dist"),
            ({"study_A": {"covariates": [{"name": "x", "dist": {"kind": []}}]}},
             "study_A.covariates[0].dist.kind"),
            ({"study_A": {"covariates": [{"name": 7, "dist": {"kind": "uniform01"}}]}},
             "study_A.covariates[0].name"),
            ({"balance_set": "PLNEN"}, "balance_set"),
            ({"balance_set": [1]}, "balance_set"),
            ({"interaction": [1]}, "interaction")):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == path, (doc, info.value)
    for text in ("[]", "1", "null"):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            parse_config(text)
    # names become CSV header fields and --balance-set entries
    for name in ("", "a,b", 'a"b', "a\nb", "a\rb"):
        doc = {"study_A": {"covariates": [
            {"name": "Age", "dist": {"kind": "uniform01"}},
            {"name": name, "dist": {"kind": "uniform01"}}]}}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == "study_A.covariates[1].name"


def test_odd_n_rejected():
    for text in ('{"n": 1001}', '{"n": 2000.5}', '{"n": "abc"}', '{"n": "2000"}',
                 '{"n": NaN}', '{"n": Infinity}'):
        with pytest.raises(ConfigError, match="n") as info:
            parse_config(text)
        assert info.value.path == "n"
    assert parse_config('{"n": 2000.0}').n == 2000


def test_replicate_appendix_arguments_checked_when_parsed():
    # these used to fail only in the simulate stage
    for kwargs, path in (({"n": 3}, "n"), ({"n": -4}, "n"), ({"seed": -1}, "seed")):
        with pytest.raises(ConfigError) as info:
            replicate_appendix(**kwargs)
        assert info.value.path == path


def test_interaction_parsing():
    cfg = parse_config('{"interaction": {"covariate": "Age", "coefficient": 0.005}}')
    # written into both studies' specs, which is all the simulator reads
    for study in (cfg.study_A, cfg.study_B):
        assert [c.interaction_coef for c in study.covariates] == [0.005, 0, 0, 0]


def test_scenario_internal_consistency():
    result = run_scenario(parse_config(SMALL))
    assert result.bucher.log_hr_AB == pytest.approx(
        result.maic_AC_S2.log_hr - result.marginal_BC_S2.log_hr, abs=1e-12)
    assert result.bucher.se == pytest.approx(
        math.sqrt(result.maic_AC_S2.se**2 + result.marginal_BC_S2.se**2), abs=1e-12)
    assert result.hr_ratio_marginal == pytest.approx(
        result.maic_AC_S2.hr / result.marginal_BC_S2.hr, rel=1e-9)
    assert result.hr_ratio_conditional == pytest.approx(
        result.conditional_AC_S1.hr / result.conditional_BC_S2.hr, rel=1e-9)
    assert 0 < result.ess < result.config.n
    assert result.maic_AC_S2.scale == "marginal"
    assert result.conditional_AC_S1.scale == "conditional"


def test_scenario_determinism():
    cfg = parse_config(SMALL)
    assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()


def test_scenario_without_censoring_completes():
    doc = dict(SMALL)
    doc["study_A"] = {"censoring_rate": 0.0}
    doc["study_B"] = {"censoring_rate": 0.0}
    result = run_scenario(parse_config(doc))
    assert np.isfinite(result.maic_AC_S2.log_hr)


def _covariate(name, dist, coef=1.0):
    return st.fixed_dictionaries({"name": st.just(name), "dist": dist,
                                  "prognostic_coef": st.floats(-coef, coef)})


def _study(age_mean):
    """A study over the default covariates with every parameter drawn."""
    bernoulli = st.fixed_dictionaries({"kind": st.just("bernoulli"),
                                       "p": st.floats(0.05, 0.95)})
    return st.fixed_dictionaries({
        "treatment_log_hr": st.floats(-1.0, 1.0),
        "baseline_rate": st.floats(5e-4, 1e-2),
        "censoring_rate": st.floats(0.0, 2e-3),
        "covariates": st.tuples(
            _covariate("Age", st.fixed_dictionaries({
                "kind": st.just("normal"), "sd": st.floats(1.0, 10.0),
                "mean": st.floats(age_mean - 10, age_mean + 10)}), coef=0.05),
            _covariate("PLNEN", st.fixed_dictionaries({
                "kind": st.just("poisson"), "lam": st.floats(0.5, 8.0)})),
            _covariate("ISS", bernoulli),
            _covariate("Refr", bernoulli)).map(list),
    })


NAMES = ("Age", "PLNEN", "ISS", "Refr")
CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**64 - 1),
    "n": st.integers(50, 500).map(lambda k: 2 * k),
    "study_A": _study(69.3),
    "study_B": _study(62.1),
    "balance_set": st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True),
}, optional={"interaction": st.fixed_dictionaries({
    "covariate": st.sampled_from(NAMES), "coefficient": st.floats(-0.05, 0.05)})})


def _no_constant(token):
    raise AssertionError(f"non-finite number {token} in the scenario JSON")


@given(CONFIGS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_parsed_configs_give_finite_numbers_or_a_stage_error(doc):
    # about two thirds of these examples complete; the rest fail in the
    # weights stage (study B's Age mean outside study A's range) or in a fit
    # that a covariate separates
    cfg = parse_config(doc)
    start = time.perf_counter()
    try:
        result = run_scenario(cfg)
    except StageError as exc:
        # a numpy RuntimeWarning, raised as an error under the pytest
        # settings, is a numeric defect and not a refused input
        assert not isinstance(exc.__cause__, Warning), exc
    else:
        # json.loads hands NaN, Infinity and -Infinity to parse_constant
        json.loads(result.to_json(), parse_constant=_no_constant)
    assert time.perf_counter() - start < 10.0


def _covariates(*entries):
    return {"study_A": {"covariates": list(entries)}}


UNIFORM = {"kind": "uniform01"}


@pytest.mark.parametrize("doc, path, text", [
    ({"interaction": {"covariate": "Age"}}, "interaction.coefficient",
     "missing required field"),
    ({"interaction": {"coefficient": 0.1}}, "interaction.covariate",
     "missing required field"),
    (_covariates({"dist": UNIFORM}), "study_A.covariates[0].name",
     "missing required field"),
    (_covariates({"name": "x"}), "study_A.covariates[0].dist", "missing required field"),
    (_covariates({"name": "x", "dist": {"mean": 1.0}}), "study_A.covariates[0].dist.kind",
     "missing required field"),
    (_covariates({"name": "x", "dist": {"kind": "poisson"}}),
     "study_A.covariates[0].dist.lam", "missing required field"),
    (_covariates({"name": "x", "dist": UNIFORM, "coef": 1.0}),
     "study_A.covariates[0].coef", "unknown field"),
    (_covariates({"name": "x", "dist": {"kind": "normal", "mean": 0.0, "sd": 1.0,
                                        "lam": 1.0}}),
     "study_A.covariates[0].dist.lam", "unknown field"),
    ({"interaction": {"covariate": "Age", "coefficient": 0.1, "study": "A"}},
     "interaction.study", "unknown field"),
    ({"study_A": {"censoring_rate": -1.0}}, "study_A",
     "censoring_rate must be non-negative"),
])
def test_parser_errors_name_their_path(doc, path, text):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.path == path
    assert str(info.value) == f"{path}: {text}"


def test_scenario_config_checks_its_own_n_and_seed():
    # a config built without the parser is held to the parser's rules
    for kwargs, path in (({"n": 3}, "n"), ({"n": 0}, "n"),
                         ({"seed": -1}, "seed"), ({"seed": 2**64}, "seed")):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**kwargs)
        assert info.value.path == path


@pytest.mark.parametrize("kwargs, message", [
    ({"n": "4"}, "n: must be an integer, got '4'"),
    ({"n": 2000.0}, "n: must be an integer, got 2000.0"),
    ({"n": True}, "n: must be an integer, got True"),
    ({"seed": None}, "seed: must be an integer, got None"),
    ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
    ({"seed": False}, "seed: must be an integer, got False"),
    ({"balance_set": "PLNEN"}, "balance_set: must be a JSON list, got 'PLNEN'"),
    ({"balance_set": ["PLNEN", 1]}, "balance_set: must be a string, got 1"),
])
def test_scenario_config_checks_its_own_types(kwargs, message):
    # built without the parser, a wrong type is refused, not truncated or
    # split into characters
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(**kwargs)
    assert str(info.value) == message


def test_scenario_config_takes_numpy_integers_and_a_list():
    cfg = ScenarioConfig(n=np.int64(2000), seed=np.uint64(11), balance_set=["PLNEN"])
    assert (type(cfg.n), type(cfg.seed), cfg.balance_set) == (int, int, ("PLNEN",))
    assert cfg == parse_config({"n": 2000, "seed": 11, "balance_set": ["PLNEN"]})


KINDS = ("uniform01", "normal", "poisson", "bernoulli", "exponential")
KEYS = ("seed", "n", "study_A", "study_B", "balance_set", "interaction",
        "treatment_log_hr", "baseline_rate", "censoring_rate", "covariates", "name",
        "dist", "prognostic_coef", "interaction_coef", "kind", "mean", "sd", "lam",
        "p", "rate", "covariate", "coefficient")
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.floats(),
                   st.text(max_size=3), st.sampled_from(KINDS + NAMES))
DOCUMENTS = st.dictionaries(st.sampled_from(KEYS), st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5), max_leaves=20),
    max_size=6)


@given(DOCUMENTS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_config_returns_a_config_or_raises_config_error(doc):
    # any other exception would be a wrong JSON type that no rule names
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


def test_replicate_report_determinism_and_schema():
    a = replicate_appendix(seed=5, n=2000)
    b = replicate_appendix(seed=5, n=2000)
    assert a.to_json() == b.to_json()
    parsed = json.loads(a.to_json(), parse_constant=_no_constant)
    assert {"quantity", "ours", "paper", "tol", "pass"} == set(parsed["rows"][0])
    quantities = [r["quantity"] for r in parsed["rows"]]
    assert "marginal_hr_AC_S1" in quantities
    assert "maic_hr_scenario4" in quantities


def _fail_on_call(fn, call):
    """``fn``, except that its ``call``-th call raises TargetOutsideSupport."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise TargetOutsideSupport(f"forced failure of call {call}")
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("owner, name, call, stage", [
    (harness, "with_outcomes", 1, "simulate_A_interaction"),
    (harness, "with_outcomes", 2, "simulate_B_interaction"),
    # the first weighting is scenario 1's, in run_scenario's own stage
    (balance, "weight_to_means", 1, "weights"),
    (balance, "weight_to_means", 2, "weights_scenario2"),
    (balance, "weight_to_means", 3, "weights_scenario3"),
    # weights_scenario4: test_replicate_appendix_failure_names_its_stage
    (estimands, "simulated_marginal_loghr", 1, "truth_S1"),
    (estimands, "simulated_marginal_loghr", 2, "truth_S2"),
])
def test_replicate_appendix_names_each_stage(monkeypatch, owner, name, call, stage):
    monkeypatch.setattr(owner, name, _fail_on_call(getattr(owner, name), call))
    with pytest.raises(StageError) as info:
        replicate_appendix(seed=5, n=2000)
    assert info.value.stage == stage
    assert isinstance(info.value.__cause__, TargetOutsideSupport)


def test_replicate_appendix_failure_names_its_stage(monkeypatch, capsys):
    weight_to_means = balance.weight_to_means

    def refuse_age_alone(X, targets, names):
        if list(names) == ["Age"]:
            raise TargetOutsideSupport("Age alone is refused")
        return weight_to_means(X, targets, names)

    monkeypatch.setattr(balance, "weight_to_means", refuse_age_alone)
    with pytest.raises(StageError) as info:
        replicate_appendix(seed=5, n=2000)
    assert info.value.stage == "weights_scenario4"
    assert isinstance(info.value.__cause__, TargetOutsideSupport)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["replicate-appendix", "--seed", "5", "--n", "2000"])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err == ("maicsim replicate-appendix: pipeline stage 'weights_scenario4' "
                   "failed: Age alone is refused\n")


def test_each_trial_sorted_once_and_sandwich_built_for_weighted_fits(monkeypatch):
    # every fit on a trial shares its one time order, and only a weighted
    # fit builds the sandwich: the MAIC fits
    counts = {"sorts": 0, "sandwiches": 0}
    argsort, sandwich = np.argsort, coxph.robust_variance

    def counting_argsort(*args, **kwargs):
        counts["sorts"] += 1
        return argsort(*args, **kwargs)

    def counting_sandwich(*args):
        counts["sandwiches"] += 1
        return sandwich(*args)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    monkeypatch.setattr(coxph, "robust_variance", counting_sandwich)
    run_scenario(parse_config(SMALL))
    assert counts == {"sorts": 2, "sandwiches": 1}
    counts.update(sorts=0, sandwiches=0)
    replicate_appendix(seed=5, n=2000)
    # trials A, B, A with the interaction, and the two truth cohorts;
    # MAIC scenarios 1-4
    assert counts == {"sorts": 5, "sandwiches": 4}

    trial_A, _ = simulate_studies(parse_config(SMALL))
    w = np.random.default_rng(21).uniform(0.5, 2.0, trial_A.n)
    args = (trial_A.time_order, [trial_A.trt], w)
    counts.update(sandwiches=0)
    assert coxph.fit_cox(*args[:2]).se_robust is None and counts["sandwiches"] == 0
    fit = coxph.fit_cox(*args)
    assert counts["sandwiches"] == 1
    bread = np.linalg.inv(coxph.score_and_information(fit.beta, *args)[1])
    assert np.array_equal(fit.se_robust, np.sqrt(np.diag(
        coxph.robust_variance(coxph._SortedSample(*args), fit.beta, bread))))


def test_each_trial_prepared_once_and_fits_equal_fresh_ones(monkeypatch):
    # the time order, statuses, events and ties of a trial are built once and
    # shared by its fits, which equal fits that share nothing bit for bit
    built = []
    init = coxph.TimeOrder.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(coxph.TimeOrder, "__init__", counting_init)
    cfg = parse_config(SMALL)
    result = run_scenario(cfg)
    assert len(built) == 2
    built.clear()
    replicate_appendix(seed=5, n=2000)
    assert len(built) == 5
    monkeypatch.undo()

    trial_A, trial_B = simulate_studies(cfg)
    names = list(cfg.balance_set)
    means_B = dict(zip(trial_B.covariate_names, covariate_means(trial_B)))
    weights, _ = balance.weight_to_means(trial_A.columns(names),
                                         [means_B[name] for name in names], names)

    def fresh(trial, adjustment_set=(), w=None):
        Z = np.column_stack([trial.trt, *map(trial.column, adjustment_set)])
        fit = coxph.fit_cox(coxph.TimeOrder(trial.time, trial.status), tuple(Z.T), w)
        se = fit.se_model if w is None else fit.se_robust
        return fit.beta[0], se[0]

    prognostic = {study: [c.name for c in model.covariates if c.prognostic_coef]
                  for study, model in (("A", cfg.study_A), ("B", cfg.study_B))}
    expected = {
        "marginal_AC_S1": fresh(trial_A),
        "conditional_AC_S1": fresh(trial_A, prognostic["A"]),
        "marginal_BC_S2": fresh(trial_B),
        "conditional_BC_S2": fresh(trial_B, prognostic["B"]),
        "maic_AC_S2": fresh(trial_A, w=weights.w),
    }
    for key, (log_hr, se) in expected.items():
        estimate = getattr(result, key)
        assert (estimate.log_hr, estimate.se) == (log_hr, se), key


def test_scenario_keeps_no_cox_scratch_once_it_returns():
    # each Cox fit owns its scratch and frees it with the fit, so a scenario
    # holds nothing of length n once it returns but what its result holds,
    # in a new thread as in the one that ran scenarios before
    n = 20_000
    cfg = parse_config({"n": n})
    run_scenario(cfg)  # imports and numpy's caches, outside the trace

    def held_after_scenario():
        tracemalloc.start()
        try:
            result = run_scenario(cfg)
            return result, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    with ThreadPoolExecutor(max_workers=1) as pool:
        result, held = pool.submit(held_after_scenario).result(timeout=120)
    assert result.config.n == n and held < 8 * n


def test_stage_annotation_on_failure():
    doc = dict(SMALL)
    doc["balance_set"] = ["Age"]
    doc["study_A"] = {"covariates": [
        {"name": "Age", "dist": {"kind": "bernoulli", "p": 0.0}}]}
    doc["study_B"] = {"covariates": [
        {"name": "Age", "dist": {"kind": "bernoulli", "p": 0.9}}]}
    with pytest.raises(RuntimeError, match="pipeline stage 'weights' failed") as info:
        run_scenario(parse_config(doc))
    assert isinstance(info.value, StageError)
    assert info.value.stage == "weights"
    assert isinstance(info.value.__cause__, TargetOutsideSupport)


@pytest.mark.parametrize("n, seed, stage, cause", [
    # Newton steps that overflow exp or leave a risk set's sum 0, refused
    # until no halving is left
    (100, 93, "fit_conditional_B", coxph.NotConverged),
    (100, 113, "fit_conditional_A", coxph.NotConverged),
    # a negative model variance at the last iterate
    (50, 1394, "fit_conditional_B", coxph.SingularInformation),
])
def test_small_sample_fit_failures_are_cox_errors(n, seed, stage, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StageError) as info:
            run_scenario(parse_config({"n": n, "seed": seed}))
    assert info.value.stage == stage
    assert type(info.value.__cause__) is cause


def test_no_small_sample_scenario_fails_on_a_warning():
    # at n = 50 about 5 % of seeds fail, each on a refusal the pipeline
    # names; no numpy warning, raised as an error, is the cause of any
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(1, 501):
            try:
                run_scenario(parse_config({"n": 50, "seed": seed}))
            except StageError as exc:
                failed += 1
                assert isinstance(exc.__cause__, (coxph.CoxError, TargetOutsideSupport,
                                                  WeightsNotConverged)), (seed, exc)
    assert 0 < failed < 50


def _constant_refr(p):
    """A config whose study A has the default covariates, but Refr always p."""
    covariates = [
        {"name": "Age", "dist": {"kind": "normal", "mean": 69.3, "sd": 5.0}},
        {"name": "PLNEN", "dist": {"kind": "poisson", "lam": 3.4},
         "prognostic_coef": 1.0682},
        {"name": "ISS", "dist": {"kind": "bernoulli", "p": 0.74},
         "prognostic_coef": -0.6651},
        {"name": "Refr", "dist": {"kind": "bernoulli", "p": p},
         "prognostic_coef": 0.0825}]
    return {"n": 5000, "seed": 11, "study_A": {"covariates": covariates}}


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_constant_covariate_fails_the_conditional_fit(p):
    # a Refr of all 0 or all 1 cannot be adjusted for, whichever value it is
    with pytest.raises(StageError) as info:
        run_scenario(parse_config(_constant_refr(p)))
    assert info.value.stage == "fit_conditional_A"
    assert isinstance(info.value.__cause__, coxph.SingularInformation)
    assert "column 3 of the design is constant" in str(info.value)


@pytest.mark.parametrize("coef, censoring_rate",
                         [(-300.0, 0.0), (-300.0, 0.1 / 365), (300.0, 0.0)])
def test_hazard_out_of_range_fails_in_simulation(coef, censoring_rate):
    # exp(coef * PLNEN) under- or overflows for most subjects, so their latent
    # times are inf or 0; with censoring they would all be silently censored
    covariates = [
        {"name": "Age", "dist": {"kind": "normal", "mean": 69.3, "sd": 9.0}},
        {"name": "PLNEN", "dist": {"kind": "poisson", "lam": 3.4},
         "prognostic_coef": coef},
        {"name": "ISS", "dist": {"kind": "bernoulli", "p": 0.74}},
        {"name": "Refr", "dist": {"kind": "bernoulli", "p": 0.92},
         "prognostic_coef": 0.5}]
    doc = {"n": 200, "seed": 11, "study_A": {
        "censoring_rate": censoring_rate, "covariates": covariates}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StageError, match="under- or overflows") as info:
            run_scenario(parse_config(doc))
    assert info.value.stage == "simulate_A"
    assert isinstance(info.value.__cause__, ValueError)
    assert "non-zero coefficients: PLNEN, Refr" in str(info.value)


@pytest.mark.parametrize("dist, coef, refused", [
    ({"kind": "bernoulli", "p": 0.74}, 800.0, True),
    ({"kind": "bernoulli", "p": 0.74}, -800.0, True),
    ({"kind": "uniform01"}, 800.0, True),
    # p = 0 draws only 0, so its coefficient never reaches the hazard
    ({"kind": "bernoulli", "p": 0.0}, 800.0, False),

    ({"kind": "bernoulli", "p": 0.74}, 700.0, False),
])
def test_bounded_hazard_out_of_range_refused_when_parsed(monkeypatch, dist, coef, refused):
    def no_draws(self, n):
        raise AssertionError("parse_config drew from a stream")

    monkeypatch.setattr(stochastic.RandomStream, "uniforms", no_draws)
    covariates = [{"name": "ISS", "dist": dist, "prognostic_coef": coef},
                  {"name": "Age", "dist": {"kind": "normal", "mean": 69.3, "sd": 9.0}}]
    doc = {"study_B": {"covariates": covariates}, "balance_set": ["ISS"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not refused:
            parse_config(doc)
            return
        with pytest.raises(ConfigError, match="under- or overflows at the extreme draws") as info:
            parse_config(doc)
    assert info.value.path == "study_B"
    assert "non-zero coefficients: ISS" in str(info.value)


def test_overflowing_linear_predictor_refused_without_warning():
    # at ISS = Refr = 1 the control arm's linear predictor is inf and the
    # treated arm's inf - inf = NaN
    bern = {"kind": "bernoulli", "p": 0.5}
    covariates = [{"name": name, "dist": bern, "prognostic_coef": 1.7e308,
                   "interaction_coef": -1.7e308} for name in ("ISS", "Refr")]
    doc = {"study_A": {"covariates": covariates}, "balance_set": ["ISS"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="at the extreme draws") as info:
            parse_config(doc)
    assert info.value.path == "study_A"


def test_unconverged_solvers_fail_loudly(monkeypatch, tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with monkeypatch.context() as patch:
        # the weight solve alone reports itself unconverged at its own solution
        minimize = newton.minimize
        patch.setattr(balance, "newton", types.SimpleNamespace(
            minimize=lambda *args: (*minimize(*args)[:4], False, newton.MAX_ITERS)))
        with pytest.raises(StageError) as info:
            run_scenario(parse_config(SMALL))
        assert info.value.stage == "weights"
        assert isinstance(info.value.__cause__, WeightsNotConverged)
    monkeypatch.setattr(newton, "MAX_ITERS", 1)
    _, trial_B = simulate_studies(parse_config(SMALL))
    # the fit refuses its own unfinished solve, inside the pipeline or not
    with pytest.raises(coxph.NotConverged, match="unconverged after 1 Newton steps"):
        coxph.fit_cox(coxph.TimeOrder(trial_B.time, trial_B.status), [trial_B.trt])
    with pytest.raises(StageError) as info:
        run_scenario(parse_config(SMALL))
    assert info.value.stage == "summarize_B"
    assert isinstance(info.value.__cause__, coxph.NotConverged)
    with pytest.raises(SystemExit) as info:
        cli.main(["weights", "--ipd", str(out / "study_A.csv"),
                  "--targets", str(out / "targets.json"),
                  "--balance-set", "PLNEN,ISS,Refr"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["fit", "--data", str(out / "study_A.csv")])
    assert info.value.code == 1


def test_every_cox_fit_of_a_scenario_is_made_in_estimands(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return coxph.fit_cox(*args)

    def refused(*args):
        raise AssertionError("the simulator fits no model")

    monkeypatch.setattr(cohortsim, "fit_cox", refused)
    monkeypatch.setattr(estimands, "fit_cox", counted)
    run_scenario(parse_config(SMALL))
    # study B's published effect, the marginal and conditional fits in each
    # study and the weighted MAIC fit
    assert len(calls) == 5


def test_commands_that_draw_nothing_do_not_load_scipy(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    weights = str(tmp_path / "w.csv")
    commands = [
        [],
        ["weights", "--ipd", str(out / "study_A.csv"), "--targets",
         str(out / "targets.json"), "--balance-set", "PLNEN,ISS,Refr", "--out", weights],
        ["fit", "--data", str(out / "study_A.csv"), "--weights", weights],
    ]
    src = str(Path(maicsim.__file__).parent.parent)
    for argv in commands:
        code = ("import sys, maicsim.cli\n"
                f"argv = {argv!r}\n"
                "if argv: maicsim.cli.main(argv)\n"
                "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_commands_that_draw_do_not_load_scipy(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    code = ("import sys, maicsim.cli\n"
            f"maicsim.cli.main(['simulate', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'data')!r}])\n"
            f"maicsim.cli.main(['scenario', '--config', {str(config)!r}])\n"
            "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
    src = str(Path(maicsim.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_input_failures_are_one_line_messages(tmp_path: Path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"n": 3}')
    data = tmp_path / "study_A.csv"
    data.write_text("subject_id,x,trt,time,status\n0,1,0,abc,1\n1,0,1,2.5,1\n")
    good = tmp_path / "good.csv"
    good.write_text("subject_id,x,trt,time,status\n0,1,0,1.5,1\n1,0,1,2.5,1\n")
    targets = tmp_path / "targets.json"
    targets.write_text('{"Nope": 1.0}')
    x_targets = tmp_path / "x_targets.json"
    x_targets.write_text('{"x": 0.5}')
    weights = tmp_path / "weights.csv"
    weights.write_text("weight\n1\n1\n")
    missing = str(tmp_path / "missing")

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    # (argv, a fragment the message must hold)
    cases = [(["scenario", "--config", str(config)], "n: must be a positive even"),
             (["fit", "--data", str(data)], ""),
             # a covariate the CSV lacks (KeyError)
             (["fit", "--data", str(good), "--adjust", "Nope"], "Nope"),
             (["weights", "--ipd", str(good), "--targets", str(targets),
               "--balance-set", "Nope"], "Nope"),
             # input files that do not exist (OSError)
             (["fit", "--data", missing], ""),
             (["weights", "--ipd", missing, "--targets", str(targets),
               "--balance-set", "Nope"], ""),
             (["weights", "--ipd", str(good), "--targets", missing,
               "--balance-set", "Nope"], ""),
             (["simulate", "--config", missing, "--out", str(tmp_path / "out")], ""),
             (["scenario", "--config", missing], ""),
             # a target the file lacks, and weights with adjustment
             (["weights", "--ipd", str(good), "--targets", str(x_targets),
               "--balance-set", "x,Nope"], "no target mean for covariate(s): Nope"),
             (["fit", "--data", str(good), "--weights", str(weights),
               "--adjust", "x"], "not supported"),
             # --seed and --n are checked when the config is parsed
             (["replicate-appendix", "--n", "3"], "n: must be a positive even"),
             (["replicate-appendix", "--n", "-4"], "n: must be a positive even"),
             (["replicate-appendix", "--seed", "-1"], "seed: must lie in")]
    # name lists follow the config's balance_set rule
    rule = "must name at least one covariate, none twice and none empty"
    for names in (",", "x,x", "x,,y"):
        cases.append((["weights", "--ipd", str(good), "--targets", str(x_targets),
                       "--balance-set", names], f"--balance-set: {rule}"))
    for names in (",", "", "x,x"):
        cases.append((["fit", "--data", str(good), "--adjust", names],
                      f"--adjust: {rule}"))
    # non-finite times, covariates and weights
    for bad in ("inf", "nan"):
        csv = write(f"time_{bad}.csv", "subject_id,x,trt,time,status\n"
                    f"0,1,0,{bad},1\n1,0,1,2.5,1\n")
        cases.append((["fit", "--data", csv], "times must be finite"))
        csv = write(f"x_{bad}.csv", "subject_id,x,trt,time,status\n"
                    f"0,{bad},0,1.5,1\n1,0,1,2.5,1\n")
        cases.append((["fit", "--data", csv, "--adjust", "x"], "values X must be finite"))
        cases.append((["weights", "--ipd", csv, "--targets", str(x_targets),
                       "--balance-set", "x"], "values X must be finite"))
        w = write(f"w_{bad}.csv", f"weight\n1\n{bad}\n")
        cases.append((["fit", "--data", str(good), "--weights", w],
                      "weights must be finite"))
    # an empty weights file, and one without one weight for each of the 2 subjects
    for i, (text, fragment) in enumerate((
            ("weight\n", "weights file holds no weights"),
            ("", "weights file holds no weights"),
            ("1\n1\n1\n", "weights file has 3 rows of 1 fields, not 2 rows"),
            ("1,1\n1,1\n", "weights file has 2 rows of 2 fields, not 2 rows"))):
        cases.append((["fit", "--data", str(good), "--weights",
                       write(f"weights_{i}.csv", text)], fragment))
    # each target must be a finite JSON number in a JSON object
    for i, text in enumerate(('{"x": null}', '{"x": true}', '{"x": NaN}',
                              '{"x": Infinity}', '{"x": "0.5"}', '{"x": 1e400}')):
        t = write(f"targets_{i}.json", text)
        cases.append((["weights", "--ipd", str(good), "--targets", t,
                       "--balance-set", "x"], "targets.x: must be a finite number"))
    cases.append((["weights", "--ipd", str(good), "--targets",
                   write("targets_list.json", "[0.5]"), "--balance-set", "x"],
                  "targets: must be a JSON object, got [0.5]"))
    # a header that names a covariate twice
    twice = write("age_twice.csv", "subject_id,Age,Age,trt,time,status\n"
                  "0,60,70,0,1.5,1\n1,65,75,1,2.5,1\n")
    cases.append((["weights", "--ipd", twice, "--targets",
                   write("age_targets.json", '{"Age": 65.0}'), "--balance-set", "Age"],
                  "duplicate covariate names: ['Age', 'Age']"))
    cases.append((["fit", "--data", twice], "duplicate covariate names"))
    # a target on the boundary of the IPD's convex hull: the largest x
    hull = write("hull.csv", "subject_id,x,trt,time,status\n0,-2.2,0,1.5,1\n"
                 "1,39.1,1,2.5,1\n2,38.4,0,3.5,1\n3,-0.6,1,4.5,1\n")
    cases.append((["weights", "--ipd", hull, "--targets",
                   write("hull_targets.json", '{"x": 39.1}'), "--balance-set", "x"],
                  "boundary of the convex hull"))
    # a status other than 0/1, and a header without subject_id
    status2 = write("status2.csv", "subject_id,x,trt,time,status\n0,1,0,1.5,2\n1,0,1,2.5,1\n")
    cases.append((["fit", "--data", status2], "status must be 0/1"))
    no_id = write("no_id.csv", "id,x,trt,time,status\n0,1,0,1.5,1\n1,0,1,2.5,1\n")
    cases.append((["weights", "--ipd", no_id, "--targets", str(x_targets),
                   "--balance-set", "x"], "unrecognized trial CSV header"))
    # a covariate with one value in every row
    refr = write("refr.json", json.dumps(_constant_refr(1.0)))
    assert cli.main(["simulate", "--config", refr, "--out", str(tmp_path / "refr")]) == 0
    cases.append((["fit", "--data", str(tmp_path / "refr" / "study_A.csv"),
                   "--adjust", "ISS,Refr"], "column 2 of the design is constant"))

    def check(argv, fragment, code, stderr):
        assert code == 1, (argv, stderr)
        assert "Traceback" not in stderr
        assert stderr.startswith(f"maicsim {argv[0]}: "), stderr
        assert stderr.count("\n") == 1, stderr
        assert "\"" not in stderr, stderr
        assert fragment in stderr, (argv, stderr)

    # one case through the console entry point; every case in process, where
    # a warning, which would print extra lines of stderr, is an error
    src = str(Path(maicsim.__file__).parent.parent)
    argv, fragment = cases[0]
    proc = subprocess.run([sys.executable, "-m", "maicsim.cli", *argv],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    check(argv, fragment, proc.returncode, proc.stderr)
    for argv, fragment in cases:
        capsys.readouterr()
        with warnings.catch_warnings(), pytest.raises(SystemExit) as info:
            warnings.simplefilter("error")
            cli.main(argv)
        check(argv, fragment, info.value.code, capsys.readouterr().err)


def test_cli_simulate_weights_fit(tmp_path: Path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "study_A.csv").exists()
    assert (out / "study_B.csv").exists()
    targets = json.loads((out / "targets.json").read_text())
    assert set(targets) == {"Age", "PLNEN", "ISS", "Refr"}
    # the CLI's targets are study B's published means, bit for bit
    _, trial_B = simulate_studies(parse_config(SMALL))
    summary_B = summarize_aggregate(trial_B)
    assert [targets[name] for name in summary_B.covariate_names] == \
        summary_B.means.tolist()

    wfile = tmp_path / "weights.csv"
    capsys.readouterr()
    assert cli.main(["weights", "--ipd", str(out / "study_A.csv"),
                     "--targets", str(out / "targets.json"),
                     "--balance-set", "PLNEN,ISS,Refr",
                     "--out", str(wfile)]) == 0
    balance_table = capsys.readouterr().out
    # the weights file: a "weight" header, then one %.10g value per line
    names = ["PLNEN", "ISS", "Refr"]
    with open(out / "study_A.csv", "rb") as f:
        trial_A = trial_from_csv(f)
    w = estimate_weights(center_covariates(
        trial_A.columns(names), [targets[nm] for nm in names])).w
    lines = ["weight"] + [f"{v:.10g}" for v in w]
    assert wfile.read_text() == "\n".join(lines) + "\n"

    capsys.readouterr()
    assert cli.main(["fit", "--data", str(out / "study_A.csv"),
                     "--weights", str(wfile)]) == 0
    read_back = np.array([float(v) for v in lines[1:]])
    fitted = marginal_effect(trial_A, read_back).to_json() + "\n"
    assert capsys.readouterr().out == fitted
    assert cli.main(["fit", "--data", str(out / "study_A.csv"),
                     "--adjust", "PLNEN,ISS,Refr"]) == 0

    # each file read may start with a UTF-8 byte-order mark, and means the same
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in (config, out / "study_A.csv", out / "targets.json", wfile):
        (bom / path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    (bom / "no_header.csv").write_bytes(
        codecs.BOM_UTF8 + wfile.read_bytes().removeprefix(b"weight\n"))
    assert cli.main(["simulate", "--config", str(bom / "config.json"),
                     "--out", str(bom / "data")]) == 0
    assert (bom / "data" / "study_A.csv").read_bytes() == (out / "study_A.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["weights", "--ipd", str(bom / "study_A.csv"),
                     "--targets", str(bom / "targets.json"),
                     "--balance-set", "PLNEN,ISS,Refr",
                     "--out", str(bom / "weights_out.csv")]) == 0
    assert capsys.readouterr().out == balance_table
    assert (bom / "weights_out.csv").read_bytes() == wfile.read_bytes()
    for weights in ("weights.csv", "no_header.csv"):
        assert cli.main(["fit", "--data", str(bom / "study_A.csv"),
                         "--weights", str(bom / weights)]) == 0
        assert capsys.readouterr().out == fitted


def test_cli_files_are_utf8_under_an_ascii_locale(tmp_path: Path):
    # a covariate name outside ASCII passes through the config, the CSV
    # header and targets.json, whatever the locale; balancing on ISS keeps
    # standard output ASCII
    def covariates(p):
        return [{"name": "\u00c2ge", "dist": {"kind": "normal", "mean": 65.0, "sd": 5.0}},
                {"name": "ISS", "dist": {"kind": "bernoulli", "p": p},
                 "prognostic_coef": -0.6651}]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "balance_set": ["ISS"],
                                  "study_A": {"covariates": covariates(0.74)},
                                  "study_B": {"covariates": covariates(0.8)}},
                                 ensure_ascii=False), encoding="utf-8")
    data, weights = tmp_path / "data", tmp_path / "weights.csv"
    commands = [["simulate", "--config", str(config), "--out", str(data)],
                ["weights", "--ipd", str(data / "study_A.csv"), "--targets",
                 str(data / "targets.json"), "--balance-set", "ISS", "--out", str(weights)],
                ["fit", "--data", str(data / "study_A.csv"), "--weights", str(weights)]]
    code = ("import codecs, locale, sys, maicsim.cli\n"
            "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'\n"
            "sys.exit(maicsim.cli.main(sys.argv[1:]))\n")
    env = {"PYTHONPATH": str(Path(maicsim.__file__).parent.parent),
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
    header = (data / "study_A.csv").read_bytes().split(b"\n", 1)[0]
    assert header == "subject_id,\u00c2ge,ISS,trt,time,status".encode()
    assert list(json.loads((data / "targets.json").read_text())) == ["\u00c2ge", "ISS"]
    assert json.loads(proc.stdout)["scale"] == "marginal"


def test_cli_fit_and_weights_free_the_file_table(tmp_path: Path, monkeypatch):
    # the loadtxt table of every column is dead once the solve or the fit
    # starts; each keeps only the columns it reads
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    tables, alive = [], []

    def read_rows(*args):
        table = read(*args)
        tables.append(weakref.ref(table))
        return table

    def solver(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            alive.append((name, tables[0]() is not None))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    read = cohortsim.read_rows
    monkeypatch.setattr(cohortsim, "read_rows", read_rows)
    solver(balance, "estimate_weights")
    solver(estimands, "fit_cox")
    data, wfile = str(out / "study_A.csv"), str(tmp_path / "weights.csv")
    for argv, expected in (
            (["weights", "--ipd", data, "--targets", str(out / "targets.json"),
              "--balance-set", "ISS,Refr", "--out", wfile], ("estimate_weights", False)),
            (["fit", "--data", data, "--weights", wfile], ("fit_cox", False)),
            (["fit", "--data", data, "--adjust", "Refr"], ("fit_cox", False))):
        tables.clear()
        alive.clear()
        assert cli.main(argv) == 0
        assert alive == [expected], argv


def test_cli_warnings_are_one_line(tmp_path: Path):
    # subjects 0 and 1 tie at 1.5; the warning names neither file nor line
    data = tmp_path / "tied.csv"
    data.write_text("subject_id,x,trt,time,status\n0,1,0,1.5,1\n1,0,1,1.5,1\n"
                    "2,1,1,2.5,0\n3,0,0,3.0,1\n4,1,0,0.5,1\n5,0,1,4.0,1\n"
                    "6,1,1,2.0,1\n7,0,0,3.5,0\n")
    src = str(Path(maicsim.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "maicsim.cli", "fit", "--data", str(data)],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scale"] == "marginal"
    assert proc.stderr == ("maicsim fit: warning: tied event times present; "
                           "using Breslow tie handling\n")


def test_cli_simulate_frees_study_A_before_drawing_study_B(tmp_path: Path, monkeypatch):
    # the command writes each trial and drops it before the next is drawn,
    # so it never holds both
    refs, alive = [], []

    def simulate_trial(*args):
        alive.append([ref() is not None for ref in refs])
        trial = cohortsim.simulate_trial(*args)
        refs.append(weakref.ref(trial.X))
        return trial

    monkeypatch.setattr(harness, "simulate_trial", simulate_trial)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert alive == [[], [False]]


def test_cli_simulate_writes_the_trials_to_ten_digits(tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for name, trial in zip(("study_A.csv", "study_B.csv"),
                           simulate_studies(parse_config(SMALL))):
        with open(out / name, "rb") as f:
            back = trial_from_csv(f)
        assert back.covariate_names == trial.covariate_names
        values = np.column_stack([trial.X, trial.trt, trial.time, trial.status])
        want = np.array([float(f"{v:.10g}") for v in values.ravel()])
        got = np.column_stack([back.X, back.trt, back.time, back.status])
        assert got.tobytes() == want.reshape(values.shape).tobytes()


def test_cli_scenario_runs(capsys, tmp_path: Path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    assert cli.main(["scenario", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    parsed = json.loads(captured.out)
    assert "maic_AC_S2" in parsed


def test_cli_replicate_writes_reports(tmp_path: Path):
    # tiny n: tolerance rows may fail, but the report must still be written
    # and the exit code reflect the outcome
    code = cli.main(["replicate-appendix", "--seed", "1", "--n", "2000",
                     "--out", str(tmp_path)])
    report = json.loads((tmp_path / "replication.json").read_text())
    assert (tmp_path / "replication.tsv").exists()
    assert code == (0 if report["all_pass"] else 1)
