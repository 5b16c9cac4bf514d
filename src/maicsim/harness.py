"""Scenario configuration and the end-to-end replication pipeline.

A scenario simulates two randomized trials against a shared comparator,
reduces study B to its published aggregates (an ``AggregateSummary``),
estimates moment-matching weights that match study A's IPD to study B's
means on the chosen balance set, fits the weighted univariable Cox model, and
assembles marginal/conditional effect estimates plus the anchored comparison.
``replicate_appendix`` runs the four canonical scenarios through the same
core, and checks every headline quantity, with the exact true marginal
effects, against its reference value within tolerance bands (an exact match
is impossible because the reference values came from a different stream).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

from . import balance, estimands, stochastic
from .cohortsim import (CovariateSpec, OutcomeModelSpec, TrialData, check_hazard_range,
                        simulate_trial, with_outcomes)
from .estimands import AggregateSummary, EffectEstimate, IndirectComparison, summarize_aggregate
from .stochastic import Bernoulli, DistributionSpec, Normal, Poisson, RandomStream

DEFAULT_SEED = 555
DEFAULT_N = 100_000

B_A = math.log(0.53)
B_B = math.log(0.55)
B_PLNEN = 1.0682
B_ISS = -0.6651
B_REFR = 0.0825
BASELINE_RATE = 0.5 / 365
CENSORING_RATE = 0.1 / 365


def _default_study(treatment_log_hr: float, age_mean: float,
                   iss_p: float) -> OutcomeModelSpec:
    """A default study; the two differ in the treatment effect, the mean of
    Age (the effect modifier of scenarios 3-4) and the ISS proportion."""
    return OutcomeModelSpec(
        treatment_log_hr=treatment_log_hr,
        baseline_rate=BASELINE_RATE,
        censoring_rate=CENSORING_RATE,
        covariates=(
            CovariateSpec("Age", Normal(age_mean, 5.0)),
            CovariateSpec("PLNEN", Poisson(3.4), prognostic_coef=B_PLNEN),
            CovariateSpec("ISS", Bernoulli(iss_p), prognostic_coef=B_ISS),
            CovariateSpec("Refr", Bernoulli(0.92), prognostic_coef=B_REFR),
        ),
    )


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = DEFAULT_SEED
    n: int = DEFAULT_N
    study_A: OutcomeModelSpec = _default_study(B_A, 69.3, 0.74)
    study_B: OutcomeModelSpec = _default_study(B_B, 62.1, 0.77)
    balance_set: tuple[str, ...] = ("PLNEN", "ISS", "Refr")

    def __post_init__(self):
        for key in ("n", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(key, f"must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError("n", f"must be a positive even integer, got {self.n}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"must lie in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "balance_set", _name_list(self.balance_set, "balance_set"))
        # MAIC needs each balance covariate in study A's IPD and in study B's
        # published means
        for name in self.balance_set:
            _require_declared(name, "balance_set", self.study_A, self.study_B)
        # a hazard out of range is refused here where the draws are bounded
        for path in ("study_A", "study_B"):
            _spec(check_hazard_range, path, model=getattr(self, path))


def _name_list(names, path: str) -> tuple[str, ...]:
    """``names`` as a tuple, if it is a list of strings naming at least one
    covariate, none twice and none empty: the rule for every list of names."""
    names = tuple(_typed(name, str, path) for name in _typed(names, _LIST, path))
    if not names or "" in names or len(set(names)) != len(names):
        raise ConfigError(path, "must name at least one covariate, none twice "
                          f"and none empty; got {names}")
    return names


def _require_declared(name: str, path: str, study_A: OutcomeModelSpec,
                      study_B: OutcomeModelSpec):
    for study, model in (("study_A", study_A), ("study_B", study_B)):
        if name not in model.covariate_names:
            raise ConfigError(path, f"{name!r} is not a declared covariate of {study}")


# a list may come as a tuple when the config is built in Python
_LIST = (list, tuple)
_JSON_TYPES = {dict: "a JSON object", _LIST: "a JSON list", str: "a string"}


def _typed(value, json_type, path: str):
    """``value`` itself, if it is of ``json_type``: dict, _LIST or str."""
    if not isinstance(value, json_type):
        raise ConfigError(path, f"must be {_JSON_TYPES[json_type]}, got {value!r}")
    return value


class _Repeats(dict):
    """A JSON object that gives its field ``repeated`` more than once."""


def _unique(pairs) -> dict:
    """``json.loads``'s ``object_pairs_hook``: marks an object that gives a
    field twice, for ``_object`` to refuse under the object's path."""
    d = dict(pairs)
    if len(d) < len(pairs):
        keys = [key for key, _ in pairs]
        d = _Repeats(d)
        d.repeated = next(key for key in d if keys.count(key) > 1)
    return d


def _object(d, allowed, path: str, required=()) -> dict:
    """``d`` itself, if it is a JSON object that gives no field twice, none
    outside ``allowed`` and each in ``required``."""
    if isinstance(_typed(d, dict, path), _Repeats):
        raise ConfigError(f"{path}.{d.repeated}" if path else d.repeated, "field given twice")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return d


def _number(d: dict, key: str, default: float | None, path: str) -> float:
    value = d.get(key, default)
    # the last test is false for NaN, and exact for an integer beyond a double
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path}.{key}", f"must be a finite number, got {value!r}")
    return float(value)


def _spec(make, path: str, **params):
    """``make(**params)``, with a ValueError from its own checks reported at
    ``path``."""
    try:
        return make(**params)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# kind -> spec class; its dataclass fields are the kind's parameters
_DISTS = {"uniform01": stochastic.Uniform01, "normal": Normal, "poisson": Poisson,
          "bernoulli": Bernoulli, "exponential": stochastic.Exponential}


def _parse_dist(d, path: str) -> DistributionSpec:
    # any field is allowed until the kind says which are
    kind = _object(d, d, path, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _DISTS:
        raise ConfigError(f"{path}.kind", f"unknown distribution kind {kind!r}")
    params = [f.name for f in fields(_DISTS[kind])]
    _object(d, ("kind", *params), path, params)
    return _spec(_DISTS[kind], path, **{p: _number(d, p, None, path) for p in params})


_RATES = ("treatment_log_hr", "baseline_rate", "censoring_rate")


def _parse_study(d, default: OutcomeModelSpec, path: str) -> OutcomeModelSpec:
    _object(d, (*_RATES, "covariates"), path)
    covariates = default.covariates
    if "covariates" in d:
        covariates = []
        for i, cd in enumerate(_typed(d["covariates"], _LIST, f"{path}.covariates")):
            cpath = f"{path}.covariates[{i}]"
            _object(cd, ("name", "dist", "prognostic_coef", "interaction_coef"),
                    cpath, ("name", "dist"))
            name = _typed(cd["name"], str, f"{cpath}.name")
            # names become CSV header fields and --balance-set entries
            if not name or any(c in name for c in ',"\n\r'):
                raise ConfigError(f"{cpath}.name", "must be non-empty, without "
                                  f"commas, quotes or line breaks; got {name!r}")
            covariates.append(CovariateSpec(
                name=name,
                marginal=_parse_dist(cd["dist"], f"{cpath}.dist"),
                prognostic_coef=_number(cd, "prognostic_coef", 0.0, cpath),
                interaction_coef=_number(cd, "interaction_coef", 0.0, cpath),
            ))
    rates = {key: _number(d, key, getattr(default, key), path) for key in _RATES}
    return _spec(OutcomeModelSpec, path, covariates=tuple(covariates), **rates)


def _integer(d: dict, key: str, default: int):
    # an integral float such as 2000.0 is its integer; ScenarioConfig checks the rest
    value = d.get(key, default)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_config(document: str | dict) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration, applying the
    canonical defaults for anything omitted. An empty document yields the
    full default parameterization. An ``interaction`` is written into the
    covariate specs of both studies."""
    if isinstance(document, str):
        document = json.loads(document, object_pairs_hook=_unique) if document.strip() else {}
    d = _object(document, ("seed", "n", "study_A", "study_B", "balance_set",
                           "interaction"), "")
    study_A = _parse_study(d.get("study_A", {}), ScenarioConfig.study_A, "study_A")
    study_B = _parse_study(d.get("study_B", {}), ScenarioConfig.study_B, "study_B")
    if d.get("interaction") is not None:
        keys = ("covariate", "coefficient")
        idict = _object(d["interaction"], keys, "interaction", keys)
        name = _typed(idict["covariate"], str, "interaction.covariate")
        coef = _number(idict, "coefficient", None, "interaction")
        # the interaction modifies both studies' outcomes
        _require_declared(name, "interaction.covariate", study_A, study_B)
        study_A = _with_interaction(study_A, name, coef)
        study_B = _with_interaction(study_B, name, coef)
    return ScenarioConfig(
        n=_integer(d, "n", DEFAULT_N),
        seed=_integer(d, "seed", DEFAULT_SEED),
        study_A=study_A,
        study_B=study_B,
        balance_set=d.get("balance_set", ScenarioConfig.balance_set),
    )


def _with_interaction(model: OutcomeModelSpec, name: str,
                      coef: float) -> OutcomeModelSpec:
    return replace(model, covariates=tuple(
        replace(c, interaction_coef=coef) if c.name == name else c
        for c in model.covariates))


def _prognostic_set(model: OutcomeModelSpec) -> list[str]:
    return [c.name for c in model.covariates if c.prognostic_coef != 0.0]


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    marginal_AC_S1: EffectEstimate
    conditional_AC_S1: EffectEstimate
    marginal_BC_S2: EffectEstimate
    conditional_BC_S2: EffectEstimate
    maic_AC_S2: EffectEstimate
    ess: float
    hr_ratio_marginal: float
    hr_ratio_conditional: float
    bucher: IndirectComparison
    balance: balance.BalanceReport

    def to_json(self) -> str:
        estimates = ("marginal_AC_S1", "conditional_AC_S1", "marginal_BC_S2",
                     "conditional_BC_S2", "maic_AC_S2")
        return json.dumps({
            **{name: getattr(self, name).as_dict() for name in estimates},
            "ess": self.ess,
            "hr_ratio_marginal": self.hr_ratio_marginal,
            "hr_ratio_conditional": self.hr_ratio_conditional,
            "bucher": {
                "log_hr_AB": self.bucher.log_hr_AB,
                "se": self.bucher.se,
                "ci95_lo": self.bucher.ci95[0],
                "ci95_hi": self.bucher.ci95[1],
            },
        }, indent=2, allow_nan=False) + "\n"


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it and ``__cause__`` holds
    the original exception."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def simulate_studies(cfg: ScenarioConfig, stream: RandomStream | None = None
                     ) -> Iterator[TrialData]:
    """Yields study A's and then study B's IPD under ``cfg``, drawn from ``stream``
    (by default a fresh stream seeded with ``cfg.seed``). Study B is drawn only
    when it is asked for, so that a caller can free one study before it works on
    the other: the CLI's ``simulate`` frees study A, and the pipeline frees
    study B."""
    if stream is None:
        stream = RandomStream(cfg.seed)
    yield _stage("simulate_A", simulate_trial, cfg.study_A, cfg.n, stream)
    yield _stage("simulate_B", simulate_trial, cfg.study_B, cfg.n, stream)


def _maic_estimate(trial_A: TrialData, summary_B: AggregateSummary, balance_set):
    """Weight study A's IPD to study B's published means on ``balance_set``
    and fit the weighted marginal model in study B's population."""
    names = list(balance_set)
    targets = [summary_B.mean(name) for name in names]
    weights, report = balance.weight_to_means(trial_A.columns(names), targets, names)
    est = estimands.marginal_effect(trial_A, weights.w, population="S2")
    return est, weights, report


def _reduce_B(trial_B: TrialData, cfg: ScenarioConfig
              ) -> tuple[AggregateSummary, EffectEstimate]:
    """Study B's published aggregates, and its conditional effect, which only
    the simulation knows; study B's IPD is dropped when this returns."""
    summary_B = _stage("summarize_B", summarize_aggregate, trial_B, "S2")
    conditional_BC = _stage("fit_conditional_B", estimands.conditional_effect,
                            trial_B, _prognostic_set(cfg.study_B), population="S2")
    return summary_B, conditional_BC


def _run_core(cfg: ScenarioConfig, stream: RandomStream):
    """simulate A and B -> reduce B to its aggregates -> fit A -> weight A to
    B's means -> compare. Study A's stages see study B only as its
    ``AggregateSummary`` and its conditional effect.

    Returns the result with study A's trial and study B's summary, for
    callers that go on to further scenarios on the same data."""
    studies = simulate_studies(cfg, stream)
    trial_A = next(studies)
    summary_B, conditional_BC = _reduce_B(next(studies), cfg)
    marginal_AC = _stage("fit_marginal_A", estimands.marginal_effect,
                         trial_A, population="S1")
    marginal_BC = summary_B.effect
    conditional_AC = _stage("fit_conditional_A", estimands.conditional_effect,
                            trial_A, _prognostic_set(cfg.study_A), population="S1")
    maic, weights, report = _stage("weights", _maic_estimate,
                                   trial_A, summary_B, cfg.balance_set)
    result = ScenarioResult(
        config=cfg,
        marginal_AC_S1=marginal_AC,
        conditional_AC_S1=conditional_AC,
        marginal_BC_S2=marginal_BC,
        conditional_BC_S2=conditional_BC,
        maic_AC_S2=maic,
        ess=weights.ess,
        hr_ratio_marginal=estimands.hr_ratio(maic, marginal_BC),
        hr_ratio_conditional=estimands.hr_ratio(conditional_AC, conditional_BC),
        bucher=estimands.bucher_compare(maic, marginal_BC),
        balance=report,
    )
    return result, trial_A, summary_B


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """One scenario on a fresh stream seeded with ``cfg.seed``."""
    return _run_core(cfg, RandomStream(cfg.seed))[0]


TRUE_MARGINAL_LOG_HR = math.log(0.76)
CONDITIONAL_HR_RATIO = 0.53 / 0.55
# The exact true marginal log HRs of study A's model in S1's and S2's covariate
# law: the limits of the univariable Cox fit (Struthers & Kalbfleisch,
# Biometrika 1986), by quadrature; tests/test_truths.py recomputes them
TRUTH_AC_S1 = -0.28351876631201356
TRUTH_AC_S2 = -0.28382617703167984


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    ours: float
    paper: float | None
    tol: tuple[float, float]  # inclusive [lo, hi] bounds on ours

    @property
    def passed(self) -> bool:
        return self.tol[0] <= self.ours <= self.tol[1]


@dataclass(frozen=True)
class ReplicationReport:
    seed: int
    n: int
    rows: tuple[ReportRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> str:
        return json.dumps({
            "note": ("reference values come from a different random-number "
                     "stream; agreement is asserted within tolerance bands, "
                     "not exactly"),
            "seed": self.seed,
            "n": self.n,
            "rows": [
                # an open bound is null: strict JSON has no Infinity
                {"quantity": r.quantity, "ours": r.ours, "paper": r.paper,
                 "tol": [b if math.isfinite(b) else None for b in r.tol], "pass": r.passed}
                for r in self.rows
            ],
            "all_pass": self.all_pass,
        }, indent=2, allow_nan=False) + "\n"

    def to_tsv(self) -> str:
        lines = ["quantity\tours\tpaper\ttol_lo\ttol_hi\tpass"]
        for r in self.rows:
            paper = "" if r.paper is None else f"{r.paper:.7g}"
            lines.append("\t".join([
                r.quantity, f"{r.ours:.7g}", paper,
                f"{r.tol[0]:.7g}", f"{r.tol[1]:.7g}",
                "pass" if r.passed else "FAIL",
            ]))
        return "\n".join(lines) + "\n"


# The replication's quantities in report order: (name, its value on one run,
# its paper value or None, its inclusive [lo, hi] band). A run is passed as
# (s1, m): scenario 1's result and m[k] = MAIC's (estimate, ESS) in scenario
# k = 1-4.
_TRUTH_BAND = (TRUE_MARGINAL_LOG_HR - 0.02, TRUE_MARGINAL_LOG_HR + 0.02)
QUANTITIES = (
    ("marginal_hr_AC_S1", lambda s1, m: s1.marginal_AC_S1.hr, 0.7575748, (0.747, 0.768)),
    ("marginal_hr_BC_S2", lambda s1, m: s1.marginal_BC_S2.hr, 0.7697989, (0.760, 0.780)),
    ("conditional_hr_AC_S1", lambda s1, m: s1.conditional_AC_S1.hr, 0.5294677,
     (0.522, 0.538)),
    ("conditional_hr_BC_S2", lambda s1, m: s1.conditional_BC_S2.hr, 0.5500948,
     (0.542, 0.558)),
    ("maic_hr_scenario1", lambda s1, m: m[1][0].hr, 0.7575572, (0.747, 0.768)),
    ("maic_hr_scenario2", lambda s1, m: m[2][0].hr, 0.7575059, (0.747, 0.768)),
    ("marginal_hr_ratio", lambda s1, m: s1.hr_ratio_marginal, 0.9840976, (0.974, 0.994)),
    ("conditional_hr_ratio", lambda s1, m: s1.hr_ratio_conditional,
     CONDITIONAL_HR_RATIO, (0.944, 0.984)),
    ("noncollapsibility_gap",
     lambda s1, m: abs(s1.hr_ratio_marginal - CONDITIONAL_HR_RATIO), None, (0.01, math.inf)),
    ("maic_hr_scenario3", lambda s1, m: m[3][0].hr, 0.8765244, (0.864, 0.889)),
    ("maic_hr_scenario4", lambda s1, m: m[4][0].hr, 0.8769922, (0.864, 0.889)),
    ("scenario3_vs_scenario4_gap", lambda s1, m: abs(m[3][0].hr - m[4][0].hr),
     abs(0.8765244 - 0.8769922), (0.0, 0.006)),
    ("true_marginal_loghr_AC_S1", lambda s1, m: TRUTH_AC_S1, TRUE_MARGINAL_LOG_HR, _TRUTH_BAND),
    ("true_marginal_loghr_AC_S2", lambda s1, m: TRUTH_AC_S2, TRUE_MARGINAL_LOG_HR, _TRUTH_BAND),
    ("true_effect_gap", lambda s1, m: abs(TRUTH_AC_S1 - TRUTH_AC_S2), 0.0, (0.0, 0.02)),
    ("scenario1_balance_gap_max", lambda s1, m: float(s1.balance.abs_gaps.max()),
     None, (0.0, 1e-6)),
    ("scenario1_ess_fraction", lambda s1, m: s1.ess / s1.config.n, None, (0.0, 1.0 - 1e-12)),
    ("ess_scenario2_minus_scenario1", lambda s1, m: m[2][1] - s1.ess, None, (0.0, math.inf)),
    ("ess_scenario1_minus_scenario3", lambda s1, m: s1.ess - m[3][1], None, (0.0, math.inf)),
    ("maic_vs_naive_gap_in_combined_se",
     lambda s1, m: abs(m[1][0].log_hr - s1.marginal_AC_S1.log_hr)
     / math.sqrt(m[1][0].se**2 + s1.marginal_AC_S1.se**2), None, (0.0, 3.0)),
)


def replicate_appendix(seed: int = DEFAULT_SEED, n: int = DEFAULT_N) -> ReplicationReport:
    """Run the four canonical scenarios and evaluate each entry of
    ``QUANTITIES`` on that run."""
    cfg = parse_config({"seed": seed, "n": n})
    stream = RandomStream(cfg.seed)
    s1, trial_A, summary_B = _run_core(cfg, stream)

    # scenarios 3 and 4: same covariates, study A's outcomes re-simulated with
    # an age-by-treatment interaction
    trial_A3 = _stage("simulate_A_interaction", with_outcomes,
                      _with_interaction(cfg.study_A, "Age", 0.005),
                      trial_A.X, trial_A.trt, stream)

    # scenarios 2-4 weight a study-A trial on a balance set to scenario 1's
    # study-B summary
    maic = {1: (s1.maic_AC_S2, s1.ess)}
    for k, trial, names in ((2, trial_A, ["PLNEN"]), (3, trial_A3, [*cfg.balance_set, "Age"]),
                            (4, trial_A3, ["Age"])):
        est, w, _ = _stage(f"weights_scenario{k}", _maic_estimate, trial, summary_B, names)
        maic[k] = (est, w.ess)
    return ReplicationReport(seed=cfg.seed, n=cfg.n, rows=tuple(
        ReportRow(name, value(s1, maic), paper, tol)
        for name, value, paper, tol in QUANTITIES))
