"""Golden regression: today's numbers must equal the pinned ones.

``golden.json`` holds the outputs of the code as it was before the scenario
core was shared (commit c83fd37), at n = 2000 so the test stays fast. Tests
that compare two runs of one commit cannot catch a refactor that reorders
draws from the random stream; this one can.

The values that pass through a solver were re-pinned when the Cox fit and the
MAIC weights moved to one Newton solver with a relative stopping rule; they
moved by at most 6.2e-9 relative, apart from the rounding-level balance gap.
The simulated data and every value computed without a solver are unchanged.

Two keys are newer than c83fd37 and were pinned from the code as it was when
they were added, without re-pinning any other value: ``weights_n2000``, the
balance table ``maicsim weights`` prints and the sha256 of the weights file it
writes, and ``fit_n2000``, the JSON of ``maicsim fit`` plain, with
``--weights`` and with ``--adjust``, all on the simulated study A.

Three values of ``replicate_seed5_n2000`` were re-pinned when the replication's
true marginal effects became exact constants instead of one Cox fit on one
simulated cohort each: ``true_marginal_loghr_AC_S1`` from -0.2604359573076802
to -0.28351876631201356, ``true_marginal_loghr_AC_S2`` from -0.3649227042501708
to -0.28382617703167984, and ``true_effect_gap`` from 0.1044867469424906 to
0.000307410719666279. The truth cohorts were the stream's last draws, so no
other value moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from maicsim import cli
from maicsim.harness import parse_config, replicate_appendix, run_scenario

GOLDEN = Path(__file__).with_name("golden.json")
REL = 1e-12
BALANCE_SET = "PLNEN,ISS,Refr"
SCENARIOS = {
    "default": {"n": 2000},
    "age_interaction": {"n": 2000,
                        "interaction": {"covariate": "Age", "coefficient": 0.005}},
}


def observed(work: Path) -> dict:
    """Every pinned quantity, computed by the code under test."""
    config = work / "config.json"
    config.write_text(json.dumps(SCENARIOS["default"]))
    data, weights = work / "data", work / "weights.csv"
    cli.main(["simulate", "--config", str(config), "--out", str(data)])
    study_A = ["--data", str(data / "study_A.csv")]
    weights_tsv = cli_stdout(["weights", "--ipd", str(data / "study_A.csv"),
                              "--targets", str(data / "targets.json"),
                              "--balance-set", BALANCE_SET, "--out", str(weights)])
    return {
        "scenario": {name: json.loads(run_scenario(parse_config(doc)).to_json())
                     for name, doc in SCENARIOS.items()},
        "replicate_seed5_n2000": {r.quantity: r.ours
                                  for r in replicate_appendix(seed=5, n=2000).rows},
        "simulate_sha256": {
            name: hashlib.sha256((data / name).read_bytes()).hexdigest()
            for name in ("study_A.csv", "study_B.csv", "targets.json")},
        "weights_n2000": {"tsv": weights_tsv,
                          "weights_sha256": hashlib.sha256(weights.read_bytes()).hexdigest()},
        "fit_n2000": {
            name: json.loads(cli_stdout(["fit", *study_A, *options]))
            for name, options in (("plain", []), ("weights", ["--weights", str(weights)]),
                                  ("adjust", ["--adjust", BALANCE_SET]))},
    }


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def differences(got, want, path="") -> list[str]:
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, float):
        if got == want or abs(got - want) <= REL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_outputs_match_pinned_values(tmp_path):
    want = json.loads(GOLDEN.read_text())
    assert differences(observed(tmp_path), want) == []
