"""Simulation of randomized trial cohorts with exponential survival outcomes,
and their CSV files.

Covariates are drawn independently from named marginal distributions, the
linear predictor follows a proportional-hazards outcome model with optional
treatment-by-covariate interactions, and event times are generated by
inverse-transform of the conditional exponential law, with independent
exponential censoring. Nothing here fits a model; ``estimands`` does.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# fit_cox is unused here; the benchmark's hooks still patch this module's name
from .coxph import TimeOrder, check_outcomes, fit_cox  # noqa: F401
from .stochastic import (UNIFORM_RANGE, DistributionSpec, RandomStream, draw_variates,
                         drawn_range, exponential_inverse)


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    marginal: DistributionSpec
    prognostic_coef: float = 0.0    # log hazard per unit
    interaction_coef: float = 0.0   # log hazard per unit, treated arm only


@dataclass(frozen=True)
class OutcomeModelSpec:
    treatment_log_hr: float
    baseline_rate: float        # events per day
    censoring_rate: float       # per day; 0 disables censoring
    covariates: tuple[CovariateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.baseline_rate > 0:
            raise ValueError("baseline_rate must be positive")
        if self.censoring_rate < 0:
            raise ValueError("censoring_rate must be non-negative")
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate covariate names: {names}")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)


@dataclass(frozen=True)
class TrialData:
    covariate_names: tuple[str, ...]
    X: np.ndarray       # n x K raw covariate values
    trt: np.ndarray     # 0/1
    time: np.ndarray    # days, > 0
    status: np.ndarray  # 1 event, 0 censored

    def __post_init__(self):
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ValueError(f"duplicate covariate names: {list(self.covariate_names)}")
        K = len(self.covariate_names)
        if self.X.ndim != 2 or self.X.shape[1] != K or self.X.shape[0] < 1:
            raise ValueError(f"X must be n x {K}, one column per covariate name "
                             f"and n >= 1, got shape {self.X.shape}")
        n = self.X.shape[0]
        if any(a.shape != (n,) for a in (self.trt, self.time, self.status)):
            raise ValueError(f"trt, time and status must be 1-D with the {n} rows of X")
        if not np.isfinite(self.X).all():
            raise ValueError("all covariate values X must be finite")
        check_outcomes(self.time, self.status)
        if not ((self.trt == 0) | (self.trt == 1)).all():
            raise ValueError("trt must be 0/1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @cached_property
    def time_order(self) -> TimeOrder:
        """The times' ``coxph.TimeOrder``: sorted and checked once, and shared
        by every Cox fit on this trial."""
        return TimeOrder(self.time, self.status)

    def _index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise KeyError(f"no covariate named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self._index(name)]

    def only(self, names) -> TrialData:
        """This trial with only the named covariates, in that order, in arrays
        of its own, so that whatever this trial's arrays view can be freed."""
        names = tuple(names)
        X = np.take(self.X, [self._index(nm) for nm in names], axis=1)
        return TrialData(names, X, self.trt.copy(), self.time.copy(), self.status.copy())

    def columns(self, names) -> np.ndarray:
        return np.column_stack([self.column(nm) for nm in names])


def simulate_covariates(specs, n: int, stream: RandomStream) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    specs = list(specs)
    if not specs:
        return np.empty((n, 0))
    return np.column_stack([draw_variates(stream, s.marginal, n) for s in specs])


def linear_predictor(X: np.ndarray, trt: np.ndarray, model: OutcomeModelSpec) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.covariates):
        raise ValueError(
            f"design has {X.shape[1]} columns but model declares "
            f"{len(model.covariates)} covariates")
    b = np.array([c.prognostic_coef for c in model.covariates])
    b_int = np.array([c.interaction_coef for c in model.covariates])
    trt = np.asarray(trt, dtype=float)
    return X @ b + (model.treatment_log_hr + X @ b_int) * trt


def _hazard_range_error(model: OutcomeModelSpec, where: str) -> ValueError:
    names = [c.name for c in model.covariates if c.prognostic_coef or c.interaction_coef]
    return ValueError(
        f"the event hazard baseline_rate * exp(linear predictor) under- or "
        f"overflows {where}; covariates with non-zero coefficients: "
        f"{', '.join(names) or 'none'}")


def check_hazard_range(model: OutcomeModelSpec) -> None:
    """ValueError if a latent event time can be 0 or inf, tested before any
    draw where every covariate with a coefficient has bounded draws: at the
    stream's extreme uniforms and each arm's extreme linear predictors.
    Otherwise ``simulate_survival`` tests the times it draws."""
    ranges = []
    for c in model.covariates:
        bounds = drawn_range(c.marginal)
        if bounds is None and (c.prognostic_coef or c.interaction_coef):
            return
        ranges.append(bounds or (0.0, 0.0))
    lo, hi = np.array(ranges).reshape(-1, 2).T
    b = np.array([c.prognostic_coef for c in model.covariates])
    b_int = np.array([c.interaction_coef for c in model.covariates])
    # coefficients near the double range may overflow, and inf - inf is NaN,
    # which fails the test below as 0 and inf do
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows = []
        for arm in (0.0, 1.0):
            up = b + arm * b_int > 0
            rows += [np.where(up, lo, hi), np.where(up, hi, lo)]
        lp = linear_predictor(np.array(rows).reshape(4, -1), [0.0, 0.0, 1.0, 1.0], model)
        t = exponential_inverse(np.array(UNIFORM_RANGE)[:, None],
                                model.baseline_rate * np.exp(lp))
        if not np.all((t > 0) & (t < np.inf)):
            raise _hazard_range_error(model, "at the extreme draws")


def simulate_survival(lp: np.ndarray, model: OutcomeModelSpec, stream: RandomStream):
    lp = np.asarray(lp, dtype=float)
    n = lp.shape[0]
    # a hazard that under- or overflows gives latent times of inf or 0, which
    # are refused below; a censoring time past the largest double is inf,
    # which is right: that subject is never censored
    with np.errstate(over="ignore", divide="ignore"):
        tlat = exponential_inverse(stream.uniforms(n), model.baseline_rate * np.exp(lp))
        bad = np.count_nonzero(~((tlat > 0) & (tlat < np.inf)))
        if bad:
            raise _hazard_range_error(model, f"for {bad} of {n} subjects")
        if model.censoring_rate == 0:
            return tlat, np.ones(n)
        cens = exponential_inverse(stream.uniforms(n), model.censoring_rate)
    time = np.minimum(tlat, cens)
    status = (tlat <= cens).astype(float)
    return time, status


def simulate_trial(model: OutcomeModelSpec, n: int, stream: RandomStream) -> TrialData:
    """One 1:1 randomized trial: first n/2 subjects treated."""
    if n % 2 != 0:
        raise ValueError(f"n must be even for 1:1 allocation, got {n}")
    trt = np.concatenate([np.ones(n // 2), np.zeros(n - n // 2)])
    return with_outcomes(model, simulate_covariates(model.covariates, n, stream),
                         trt, stream)


def with_outcomes(model: OutcomeModelSpec, X: np.ndarray, trt: np.ndarray,
                  stream: RandomStream) -> TrialData:
    """Subjects X in arms trt, with outcomes under ``model`` drawn from ``stream``."""
    time, status = simulate_survival(linear_predictor(X, trt, model), model, stream)
    return TrialData(model.covariate_names, X, trt, time, status)


def covariate_means(trial: TrialData) -> np.ndarray:
    """Each covariate's mean, summed column by column for every caller."""
    return np.array([trial.X[:, k].mean() for k in range(trial.X.shape[1])])


# rows are formatted a block at a time, so only one block's values are ever
# held as Python objects; 1024 rows write about as fast as 8192 do at
# n = 1e5, and hold an eighth of the objects
_BLOCK_ROWS = 1024


def format_rows(fmt: str, columns) -> Iterator[str]:
    """``fmt % row`` for each row of the equal-length ``columns``, 1-D arrays
    or ranges, joined a block of rows at a time."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        blocks = (col[lo:lo + _BLOCK_ROWS] for col in columns)
        rows = zip(*(b if isinstance(b, range) else b.tolist() for b in blocks))
        yield "".join(fmt % row for row in rows)


def write_trial_csv(trial: TrialData, f) -> None:
    """Write ``trial`` as CSV to the open text file ``f``, a block of rows at
    a time, so neither the whole text nor an array of subject ids is held."""
    csv.writer(f, lineterminator="\n").writerow(
        ["subject_id", *trial.covariate_names, "trt", "time", "status"])
    # "%.10g" % v is the text of f"{v:.10g}"; "%d" truncates as int() does
    fmt = "%d," + "%.10g," * trial.X.shape[1] + "%d,%.10g,%d\n"
    columns = [range(trial.n), *trial.X.T, trial.trt, trial.time, trial.status]
    f.writelines(format_rows(fmt, columns))


def trial_to_csv(trial: TrialData) -> str:
    buf = io.StringIO()
    write_trial_csv(trial, buf)
    return buf.getvalue()


def read_rows(f, if_empty: str) -> np.ndarray:
    """The comma-separated numbers of the open binary file ``f`` from its
    position on, a row per line; ValueError(``if_empty``) if there is none."""
    # loadtxt warns on a body without rows, so find the first one and go back
    body = f.tell()
    while not (line := f.readline()).strip():
        if not line:
            raise ValueError(if_empty)
    f.seek(body)
    # numpy's C parser raises ValueError on a ragged row or a non-number, and
    # takes the file a line at a time
    return np.loadtxt(f, delimiter=",", comments=None, ndmin=2)


def trial_from_csv(f) -> TrialData:
    """The trial in the open binary CSV file ``f``, read from its position."""
    head = f.readline()
    if not head:
        raise ValueError("trial CSV is empty")
    table = read_rows(f, "trial CSV has a header but no subject rows")
    # a leading UTF-8 byte-order mark is not part of the first name
    header = next(csv.reader([head.decode("utf-8-sig")]), [])
    if header[:1] != ["subject_id"] or header[-3:] != ["trt", "time", "status"]:
        raise ValueError("unrecognized trial CSV header")
    names = tuple(header[1:-3])
    if table.shape[1] != len(header):
        raise ValueError(f"trial CSV rows have {table.shape[1]} fields but the "
                         f"header names {len(header)}")
    return TrialData(names, table[:, 1:-3], table[:, -3], table[:, -2], table[:, -1])
