"""Output checks run on every pass.

Every estimate must be finite and carry the right scale and population, the
derived quantities must agree with their inputs, and the headline numbers
must equal the reference snapshot in ``reference.json`` (captured with
``run.py --capture-reference``) within the tolerances below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# The sampling SE of a log hazard ratio is about 0.0065 at n = 1e5 and 0.05 at
# n = 2000, so 1e-6 is at most 1.5e-4 SE: a change that matters statistically
# fails. A change of solver stopping rule moves an estimate by about
# |score| / information (2.3e-6 / 2e4 for the worst unconverged fit here),
# far inside the tolerance.
ABS_LOG_TOL = 1e-6
REL_TOL = 1e-6
# The CLI writes every value with 10 significant digits. At seed 555 this
# makes one pair of study-A times equal, which Breslow handling treats as a
# tie; the weights are rounded the same way. Measured against the in-memory
# weighted estimate this moves the log HR by 3.2e-9 and its SE by 9.0e-10
# relative, so the same tolerances apply with more than 300x headroom.

EFFECTS = {
    "marginal_AC_S1": ("marginal", "S1"),
    "conditional_AC_S1": ("conditional", "S1"),
    "marginal_BC_S2": ("marginal", "S2"),
    "conditional_BC_S2": ("conditional", "S2"),
    "maic_AC_S2": ("marginal", "S2"),
}
BALANCE_GAP_TOL = 1e-6


def headline(result) -> dict:
    """The quantities a scenario reports, flattened to name -> float."""
    h = {}
    for key in EFFECTS:
        est = getattr(result, key)
        h[f"{key}.log_hr"] = est.log_hr
        h[f"{key}.se"] = est.se
    h["ess"] = result.ess
    h["hr_ratio_marginal"] = result.hr_ratio_marginal
    h["hr_ratio_conditional"] = result.hr_ratio_conditional
    h["bucher.log_hr_AB"] = result.bucher.log_hr_AB
    h["bucher.se"] = result.bucher.se
    return h


def _close(got, want, rel=1e-12) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def compare(values: dict, reference: dict, prefix="") -> list[str]:
    errors = []
    for key, want in reference.items():
        got = values.get(key)
        tol = ABS_LOG_TOL if "log_hr" in key else REL_TOL * abs(want)
        if got is None or not abs(got - want) <= tol:
            errors.append(f"{prefix}{key} = {got!r}, reference {want!r} "
                          f"(tolerance {tol:.1e})")
    return errors


def check_scenario(result, n: int, reference: dict | None) -> list[str]:
    h = headline(result)
    errors = [f"{k} is not finite: {v}" for k, v in h.items() if not math.isfinite(v)]
    for key, (scale, population) in EFFECTS.items():
        est = getattr(result, key)
        if (est.scale, est.population) != (scale, population):
            errors.append(f"{key} has scale {est.scale!r} and population "
                          f"{est.population!r}, expected {scale!r}, {population!r}")
        if not est.se > 0:
            errors.append(f"{key}.se = {est.se} is not positive")
    maic, bc = result.maic_AC_S2, result.marginal_BC_S2
    ac_c, bc_c = result.conditional_AC_S1, result.conditional_BC_S2
    derived = {
        "hr_ratio_marginal": math.exp(maic.log_hr - bc.log_hr),
        "hr_ratio_conditional": math.exp(ac_c.log_hr - bc_c.log_hr),
        "bucher.log_hr_AB": maic.log_hr - bc.log_hr,
        "bucher.se": math.hypot(maic.se, bc.se),
    }
    errors += [f"{k} = {h[k]!r} is inconsistent with its inputs ({v!r})"
               for k, v in derived.items() if not _close(h[k], v)]
    if {c.scale for c in result.bucher.components} != {"marginal"}:
        errors.append("Bucher comparison combines estimates on different scales")
    if not 0 < result.ess <= n:
        errors.append(f"ESS {result.ess} outside (0, {n}]")
    gap = float(max(result.balance.abs_gaps))
    if not gap <= BALANCE_GAP_TOL:
        errors.append(f"weighted covariate means miss the targets by {gap:.2e}")
    if reference is not None:
        errors += compare(h, reference)
    return errors


def check_simulate(out: Path, n: int, targets_ref: dict | None) -> list[str]:
    errors = []
    for name in ("study_A.csv", "study_B.csv"):
        with open(out / name) as f:
            rows = sum(1 for _ in f)
        if rows != n + 1:
            errors.append(f"{name} has {rows} lines, expected {n + 1}")
    targets = json.loads((out / "targets.json").read_text())
    errors += [f"target {k} is not finite" for k, v in targets.items()
               if not math.isfinite(v)]
    if targets_ref is not None:
        errors += compare(targets, targets_ref, prefix="target ")
    return errors


def check_weights(stdout: str, weights_csv: Path, n: int, ess_ref: float | None) -> list[str]:
    errors = []
    lines = stdout.strip().splitlines()
    if not lines or not lines[0].startswith("covariate\t"):
        return ["weights printed no balance table"]
    for line in lines[1:-1]:
        name, _, _, _, gap = line.split("\t")
        if not float(gap) <= BALANCE_GAP_TOL:
            errors.append(f"balance gap of {name} is {gap}")
    ess = float(lines[-1].split("\t")[1])
    if not 0 < ess <= n:
        errors.append(f"ESS {ess} outside (0, {n}]")
    elif ess_ref is not None and not abs(ess - ess_ref) <= REL_TOL * ess_ref:
        errors.append(f"ESS {ess!r} differs from the in-memory {ess_ref!r}")
    w = weights_csv.read_text().split()
    if w[0] != "weight" or len(w) != n + 1:
        errors.append(f"weights file has {len(w)} lines, expected {n + 1}")
    elif not all(0 < float(v) < math.inf for v in w[1:]):
        errors.append("a weight is not positive and finite")
    return errors


def check_fit(stdout: str, reference: dict | None) -> list[str]:
    est = json.loads(stdout)
    errors = [f"fit {k} is not finite" for k in ("log_hr", "hr", "se", "ci95_lo", "ci95_hi")
              if not math.isfinite(est[k])]
    if errors:
        return errors
    if est["scale"] != "marginal":
        errors.append(f"weighted fit reported on the {est['scale']!r} scale")
    if not _close(est["hr"], math.exp(est["log_hr"])):
        errors.append("fit hr is not exp(log_hr)")
    if not est["ci95_lo"] < est["log_hr"] < est["ci95_hi"] or not est["se"] > 0:
        errors.append("fit interval does not contain the estimate")
    if reference is not None:
        errors += compare({"log_hr": est["log_hr"], "se": est["se"]},
                          {"log_hr": reference["maic_AC_S2.log_hr"],
                           "se": reference["maic_AC_S2.se"]},
                          prefix="fit vs in-memory weighted estimate: ")
    return errors
