"""Command-line interface for simulation, weighting, fitting, and replication."""

from __future__ import annotations

import argparse
import codecs
import json
import sys
import warnings
from pathlib import Path

from . import balance, cohortsim, coxph, estimands, harness


# text files are UTF-8 whatever the locale, and one read may start with a BOM
def _read_config(path: str | None) -> harness.ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8-sig") if path else ""
    return harness.parse_config(text)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # study A is written, and freed, before study B is drawn
    studies = harness.simulate_studies(cfg)
    with open(out / "study_A.csv", "w", encoding="utf-8") as f:
        cohortsim.write_trial_csv(next(studies), f)
    trial_B = next(studies)
    with open(out / "study_B.csv", "w", encoding="utf-8") as f:
        cohortsim.write_trial_csv(trial_B, f)
    targets = dict(zip(trial_B.covariate_names,
                       map(float, cohortsim.covariate_means(trial_B))))
    (out / "targets.json").write_text(json.dumps(targets, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote study_A.csv, study_B.csv, targets.json to {out}")
    return 0


def _cmd_weights(args) -> int:
    with open(args.ipd, "rb") as f:
        trial = cohortsim.trial_from_csv(f)
    targets = json.loads(Path(args.targets).read_text(encoding="utf-8-sig"),
                         object_pairs_hook=harness._unique)
    harness._object(targets, targets, "targets")  # any name may have a target
    names = harness._name_list(args.balance_set.split(","), "--balance-set")
    missing = [nm for nm in names if nm not in targets]
    if missing:
        raise ValueError(f"no target mean for covariate(s): {', '.join(missing)}")
    # the config's rule for numbers: finite, and not a boolean
    target_means = [harness._number(targets, nm, None, "targets") for nm in names]
    # the solve keeps only the columns it reads, and the file's table is freed
    trial = trial.only(names)
    weights, report = balance.weight_to_means(trial.X, target_means, names)
    sys.stdout.write(report.to_tsv())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("weight\n")
            f.writelines(cohortsim.format_rows("%.10g\n", [weights.w]))
    return 0


def _cmd_fit(args) -> int:
    if args.adjust is not None and args.weights:
        raise ValueError("covariate adjustment with weights is not supported; "
                         "use one or the other")
    with open(args.data, "rb") as f:
        trial = cohortsim.trial_from_csv(f)
    names = ()
    if args.adjust is not None:
        names = harness._name_list(args.adjust.split(","), "--adjust")
    # the fit keeps only the columns it reads, and the file's table is freed
    trial = trial.only(names)
    weights = None
    if args.weights:
        with open(args.weights, "rb") as f:
            # a UTF-8 byte-order mark and the "weight" header line are optional
            start = len(codecs.BOM_UTF8) if f.read(3) == codecs.BOM_UTF8 else 0
            f.seek(start)
            if f.readline().strip() != b"weight":
                f.seek(start)
            table = cohortsim.read_rows(f, "weights file holds no weights")
        if table.shape != (trial.n, 1):
            raise ValueError(f"weights file has {table.shape[0]} rows of {table.shape[1]} "
                             f"fields, not {trial.n} rows of one weight")
        weights = table[:, 0]
    if args.adjust is not None:
        est = estimands.conditional_effect(trial, names)
    else:
        est = estimands.marginal_effect(trial, weights)
    print(est.to_json())
    return 0


def _cmd_scenario(args) -> int:
    cfg = _read_config(args.config)
    result = harness.run_scenario(cfg)
    sys.stdout.write(result.to_json())
    return 0


def _cmd_replicate(args) -> int:
    report = harness.replicate_appendix(seed=args.seed, n=args.n)
    sys.stdout.write(report.to_tsv())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "replication.json").write_text(report.to_json(), encoding="utf-8")
        (out / "replication.tsv").write_text(report.to_tsv(), encoding="utf-8")
    return 0 if report.all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maicsim",
        description="Anchored indirect treatment comparison with "
                    "moment-matching (MAIC) weights on simulated survival trials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate both trials to CSV")
    p.add_argument("--config", help="JSON scenario config (defaults if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("weights", help="estimate moment-matching weights")
    p.add_argument("--ipd", required=True, help="IPD trial CSV")
    p.add_argument("--targets", required=True, help="JSON map name -> target mean")
    p.add_argument("--balance-set", required=True, help="comma-separated names")
    p.add_argument("--out", help="weights CSV output path")
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("fit", help="fit a Cox model to a trial CSV")
    p.add_argument("--data", required=True, help="trial CSV")
    p.add_argument("--weights", help="weights CSV (one per subject)")
    p.add_argument("--adjust", help="comma-separated adjustment covariates")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("scenario", help="run one full scenario")
    p.add_argument("--config", help="JSON scenario config (defaults if omitted)")
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("replicate-appendix",
                       help="run all scenarios and check reference values")
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--n", type=int, default=harness.DEFAULT_N)
    p.add_argument("--out", help="directory for JSON/TSV reports")
    p.set_defaults(fn=_cmd_replicate)

    args = parser.parse_args(argv)
    try:
        # a warning is one line too, without the source file and line that
        # raised it; the filters in force still decide which are shown
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: sys.stderr.write(
                f"maicsim {args.command}: warning: {message}\n")
            return args.fn(args)
    # failures of the input or of the model, not of the program; ValueError
    # covers harness.ConfigError and a malformed CSV, KeyError a covariate
    # the CSV lacks, OSError an input file that cannot be read
    except (ValueError, KeyError, OSError, harness.StageError, coxph.CoxError,
            balance.TargetOutsideSupport, balance.WeightsNotConverged) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        parser.exit(1, f"maicsim {args.command}: {message}\n")


if __name__ == "__main__":
    raise SystemExit(main())
