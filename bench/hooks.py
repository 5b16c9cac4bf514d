"""Counters and spans around maicsim's public functions, recorded from outside.

Each wrapped name is patched where its callers look it up, because the
package binds names at import: ``estimands`` and ``cohortsim`` both hold
their own reference to ``coxph.fit_cox``, ``harness`` holds one to
``cohortsim.simulate_trial``, and so on. The patches are undone on exit.

Counters and solver outcomes are always recorded: failure accounting needs
``CoxFit.converged`` and ``MaicWeights.converged``, which the pipeline does
not return, and the determinism check compares counters between passes. A
counter costs one dictionary update per call and reads no clock. Spans
(name, start, end, parent, pass, tag) are recorded only while ``spans_on``
is true.
"""

from __future__ import annotations

import time
from collections import Counter

# the operations whose outcome failure accounting counts, besides CLI commands
OPERATIONS = ("coxph.fit_cox", "balance.estimate_weights")


class Hooks:
    def __init__(self, maicsim_modules: dict):
        self.m = maicsim_modules
        self.spans_on = False
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.new_pass(0)

    def new_pass(self, pass_id: int):
        """Start counting a fresh pass; counters and outcomes are per pass."""
        self.pass_id = pass_id
        self.counts: Counter = Counter()
        self.outcomes: list[dict] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        m = self.m
        stochastic, cohortsim, coxph = m["stochastic"], m["cohortsim"], m["coxph"]
        balance, estimands, harness = m["balance"], m["estimands"], m["harness"]

        def draws(args, kwargs, result):
            self.counts["draws"] += int(args[1] if len(args) > 1 else kwargs["n"])

        def sort(args, kwargs, result):
            self.counts["sorts"] += 1

        def fit(args, kwargs, result):
            self.counts["sorts"] += 1
            self.outcomes.append({"op": "fit_cox", "converged": bool(result.converged),
                                  "iterations": int(result.iterations),
                                  "norm": float(result.score_norm)})

        def weights(args, kwargs, result):
            self.outcomes.append({"op": "estimate_weights",
                                  "converged": bool(result.converged),
                                  "iterations": int(result.iterations),
                                  "norm": float(result.grad_norm),
                                  "ess_fraction": float(result.ess / len(result.w))})

        def trials(args, kwargs, result):
            self.counts["trials"] += 1

        def csv_bytes(args, kwargs, result):
            self.counts["csv_bytes"] += len(result.encode())

        targets = [
            (stochastic.RandomStream, "uniforms", "stochastic.uniforms", draws),
            (harness, "simulate_trial", "cohortsim.simulate_trial", trials),
            (cohortsim, "simulate_trial", "cohortsim.simulate_trial", trials),
            (cohortsim, "trial_to_csv", "cohortsim.trial_to_csv", csv_bytes),
            (cohortsim, "trial_from_csv", "cohortsim.trial_from_csv", None),
            (estimands, "fit_cox", "coxph.fit_cox", fit),
            (cohortsim, "fit_cox", "coxph.fit_cox", fit),
            (coxph, "robust_variance", "coxph.robust_variance", None),
            (coxph, "score_and_information", "coxph.score_and_information", sort),
            (coxph, "score_residuals", "coxph.score_residuals", sort),
            (coxph, "partial_loglik", "coxph.partial_loglik", sort),
            (balance, "center_covariates", "balance.center_covariates", None),
            (balance, "estimate_weights", "balance.estimate_weights", weights),
            (balance, "balance_report", "balance.balance_report", None),
            (estimands, "marginal_effect", "estimands.marginal_effect", None),
            (estimands, "conditional_effect", "estimands.conditional_effect", None),
            (estimands, "hr_ratio", "estimands.hr_ratio", None),
            (estimands, "bucher_compare", "estimands.bucher_compare", None),
            (harness, "run_scenario", "harness.run_scenario", None),
            (harness, "parse_config", "harness.parse_config", None),
        ]
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        # one BFGS evaluation is a few microseconds at small n: count, no span
        original = balance.objective_and_gradient
        self._patches.append((balance, "objective_and_gradient", original))

        def objective(*args, **kwargs):
            self.counts["bfgs_evals"] += 1
            return original(*args, **kwargs)

        balance.objective_and_gradient = objective
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            if not self.spans_on:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self._raised(name, exc)
                    raise
                if count is not None:
                    count(args, kwargs, result)
                return result
            return self.span(name, fn, args, kwargs, count)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, args=(), kwargs=None, count=None, tag=""):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.pass_id, tag))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            self._raised(name, exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id, tag)
        if count is not None:
            count(args, kwargs or {}, result)
        return result

    def _raised(self, name, exc):
        # only solver operations are counted; the caller sees everything else
        if name in OPERATIONS:
            self.outcomes.append({"op": name.split(".")[1],
                                  "raised": type(exc).__name__, "converged": False})


def pass_counters(counts, outcomes) -> dict:
    """Exact work counters of one pass, from its counts and solver outcomes."""
    fits = [o for o in outcomes if o["op"] == "fit_cox" and "raised" not in o]
    ws = [o for o in outcomes if o["op"] == "estimate_weights" and "raised" not in o]
    trials = counts["trials"]
    return {
        "stochastic.draws": counts["draws"],
        "coxph.fit_cox_calls": sum(o["op"] == "fit_cox" for o in outcomes),
        "coxph.newton_iters": sum(o["iterations"] for o in fits),
        "coxph.newton_iters_max": max((o["iterations"] for o in fits), default=0),
        "coxph.unconverged": sum(not o["converged"] for o in fits),
        "coxph.score_norm_max": max((o["norm"] for o in fits), default=0.0),
        "coxph.sorts": counts["sorts"],
        "coxph.sorts_per_trial": counts["sorts"] / trials if trials else 0.0,
        "cohortsim.csv_bytes": counts["csv_bytes"],
        "balance.bfgs_iters": sum(o["iterations"] for o in ws),
        "balance.bfgs_evals": counts["bfgs_evals"],
        "balance.evals_per_iter": (counts["bfgs_evals"]
                                   / max(1, sum(o["iterations"] for o in ws))),
        "balance.unconverged": sum(not o["converged"] for o in ws),
        "balance.ess_fraction_min": min((o["ess_fraction"] for o in ws), default=0.0),
    }


def layer_times(spans, pass_id: int) -> dict:
    """Busy and self time per layer metric, summed over one pass's spans.

    Self time is a span's duration minus the durations of its child spans;
    children run inside their parent one after another, so their durations
    do not overlap.
    """
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == pass_id]
    child: Counter = Counter()
    for _, (_, start, end, parent, _, _) in mine:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    tagged: Counter = Counter()
    for i, (name, start, end, _, _, tag) in mine:
        total[name] += end - start
        self_time[name] += end - start - child[i]
        self_time[name.split(".")[0]] += end - start - child[i]
        if tag:
            tagged[tag] += end - start
    return {
        "coxph.fit_cox_self_s": self_time["coxph.fit_cox"],
        "coxph.robust_variance_s": total["coxph.robust_variance"],
        "cohortsim.csv_write_s": total["cohortsim.trial_to_csv"],
        "cohortsim.csv_read_s": total["cohortsim.trial_from_csv"],
        "cohortsim.simulate_trial_s": total["cohortsim.simulate_trial"],
        "stochastic.uniforms_s": total["stochastic.uniforms"],
        "balance.estimate_weights_s": total["balance.estimate_weights"],
        "estimands.self_s": self_time["estimands"],
        "harness.self_s": self_time["harness"],
        "harness.parse_config_s": total["harness.parse_config"],
        "cli.simulate_s": tagged["simulate"],
        "cli.weights_s": tagged["weights"],
        "cli.fit_s": tagged["fit"],
        "cli.self_s": self_time["cli"],
        # inclusive time of all fits, for the attribution check
        "fit_cox_total_s": total["coxph.fit_cox"],
    }
