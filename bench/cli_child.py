"""Run one maicsim CLI command as the ``maicsim`` console script does
(``maicsim.cli:main``), with the benchmark's hooks installed.

    python3 bench/cli_child.py RECORD.json SPANS(0|1) <command> [args...]

Writes the command's counters, solver outcomes, per-layer times (when SPANS
is 1) and any exception to RECORD.json, and exits with the command's code.
The parent process sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS threads.
"""

import json
import sys
import traceback

from hooks import Hooks, layer_times


def main() -> int:
    record_path, spans, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from maicsim import balance, cli, cohortsim, coxph, estimands, harness, stochastic

    modules = {"balance": balance, "cohortsim": cohortsim, "coxph": coxph,
               "estimands": estimands, "harness": harness, "stochastic": stochastic}
    hooks = Hooks(modules)
    record = {"error": None}
    code = 1
    try:
        with hooks:
            hooks.spans_on = spans
            try:
                if spans:
                    code = hooks.span("cli.main", cli.main, (argv,), tag=argv[0])
                else:
                    code = cli.main(argv)
            except Exception as exc:  # the command failed: record it, exit non-zero
                traceback.print_exc()
                record["error"] = {"type": type(exc).__name__, "message": str(exc)[:300]}
                code = 1
    finally:
        record.update(counts=dict(hooks.counts), outcomes=hooks.outcomes,
                      layer_times=layer_times(hooks.spans, 0) if spans else None)
        with open(record_path, "w") as f:
            json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
