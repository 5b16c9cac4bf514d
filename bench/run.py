"""maicsim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload scenario --seed 555 --seconds 20 --trace 0
    python3 bench/run.py --smoke              # every workload at tiny n, both modes
    python3 bench/run.py --capture-reference  # rewrite bench/reference.json

Run it from the root of a checkout: the program under test is the checkout's
``src/maicsim``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (environment, pass count and quartiles, failures). With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json, with
``--trace 1`` the per-layer ones. Workloads, metrics and the reasons behind
them are described in bench/README.md.
"""

import os

# Pinned before numpy is imported, here and in every child process. One
# thread: the BLAS calls are n x p products with p <= 4, and a single thread
# keeps timings steady on a shared machine.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from hooks import Hooks, layer_times, pass_counters  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("scenario", "cli_roundtrip", "sweep_small")

# The scenario and the CLI round trip use the paper's seed and size. Their
# inputs do not vary with --seed: at this code a single input's cost depends
# on its seed several-fold through the Newton and BFGS stalls (README.md), so
# seeded inputs would measure which seed was drawn rather than the code.
DATA_SEED = 555
BALANCE_SET = "PLNEN,ISS,Refr"
SIZES = {
    "full": {"scenario_n": 100_000, "cli_n": 100_000, "sweep_n": 2000,
             "sweep_k": 80, "setup_repeats": 5},
    "smoke": {"scenario_n": 2000, "cli_n": 2000, "sweep_n": 400,
              "sweep_k": 4, "setup_repeats": 1},
}
SETUP_CODE = ("import time; t = time.perf_counter(); import maicsim; "
              "maicsim.parse_config({}); print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run or its result cannot be trusted."""


def import_maicsim():
    if not (SRC / "maicsim" / "__init__.py").is_file():
        raise BenchError(f"no maicsim sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import maicsim
    from maicsim import balance, cohortsim, coxph, estimands, harness, stochastic

    if SRC.resolve() not in Path(maicsim.__file__).resolve().parents:
        raise BenchError(f"imported maicsim from {maicsim.__file__}, not {SRC}")
    return {"balance": balance, "cohortsim": cohortsim, "coxph": coxph,
            "estimands": estimands, "harness": harness, "stochastic": stochastic}


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# -- environment record -------------------------------------------------------

def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


# -- measurement helpers ------------------------------------------------------

def measure_setup(repeats: int) -> list[float]:
    """Seconds for ``import maicsim`` plus ``parse_config({})``, each in a
    fresh interpreter. One unrecorded run first writes the bytecode cache."""
    samples = []
    for _ in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples[1:]


def clocks() -> tuple[float, float]:
    """Wall time and CPU time (user + system) of this process, in seconds."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), usage.ru_utime + usage.ru_stime


def since(start: tuple[float, float]) -> tuple[float, float]:
    now = clocks()
    return now[0] - start[0], now[1] - start[1]


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def tail(values) -> float:
    """The highest value with at least ten samples beyond it; the maximum
    when there are fewer than eleven samples."""
    values = sorted(values)
    return values[-11] if len(values) > 10 else values[-1]


def root_cause(exc: BaseException) -> dict:
    stage = re.match(r"pipeline stage '([^']+)' failed", str(exc))
    while exc.__cause__ is not None:
        exc = exc.__cause__
    return {"type": type(exc).__name__, "stage": stage.group(1) if stage else None,
            "message": str(exc)[:300]}


class Item:
    """One unit of a pass: a scenario, or one CLI command."""

    def __init__(self, key, seconds, ops, error=None):
        self.key, self.seconds, self.ops, self.error = key, seconds, ops, error
        self.check_errors: list[str] = []
        self.result = None  # a ScenarioResult until checked
        self.stdout = ""    # a CLI command's output

    def accounting(self) -> tuple[int, int, list[dict]]:
        """(attempted, failed, failures). An operation fails when it raises
        or does not converge; every operation of an item that raised or
        failed its output check counts as failed."""
        ops = list(self.ops)
        if self.error is not None and not any("raised" in o for o in ops):
            # raised outside the counted operations: count its stage as one
            ops.append({"op": self.error["stage"] or str(self.key), "converged": False,
                        "raised": self.error["type"]})
        failures = [{"item": self.key, "kind": "unconverged", "op": o["op"],
                     "iterations": o.get("iterations"), "norm": o.get("norm")}
                    for o in ops if not o["converged"] and "raised" not in o]
        if self.error is not None:
            failures.append({"item": self.key, "kind": "raised", **self.error})
        failures += [{"item": self.key, "kind": "check", "error": e}
                     for e in self.check_errors]
        if self.error is not None or self.check_errors:
            return len(ops), len(ops), failures
        return len(ops), sum(not o["converged"] for o in ops), failures


class Pass:
    def __init__(self, wall, cpu, items, counts, outcomes, layer, peak_rss_mb):
        self.wall, self.cpu, self.items = wall, cpu, items
        self.counters = pass_counters(counts, outcomes)
        self.layer, self.peak_rss_mb = layer, peak_rss_mb


# -- workloads ----------------------------------------------------------------

class Runner:
    def __init__(self, modules, size: dict, seed: int, reference: dict | None):
        self.m, self.size, self.seed, self.reference = modules, size, seed, reference
        self.hooks = Hooks(modules)
        self.work = ROOT / ".bench_work" / str(os.getpid())

    def scenarios(self, docs) -> list[Item]:
        harness, hooks = self.m["harness"], self.hooks
        items = []
        for key, doc in docs:
            first_op = len(hooks.outcomes)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = harness.run_scenario(harness.parse_config(doc))
            except Exception as exc:  # a failed scenario is counted, not fatal
                error = root_cause(exc)
            item = Item(key, time.perf_counter() - start,
                        hooks.outcomes[first_op:], error)
            item.result = result
            items.append(item)
        return items

    def check_scenarios(self, items, n: int, reference: dict | None):
        for item in items:
            if item.result is not None:
                ref = None if reference is None else reference[str(item.key)]
                item.check_errors = checks.check_scenario(item.result, n, ref)
            item.result = None

    def run_scenario_pass(self):
        n = self.size["scenario_n"]
        start = clocks()
        items = self.scenarios([("scenario", {"seed": DATA_SEED, "n": n})])
        wall, cpu = since(start)
        self.check_scenarios(items, n, self.reference and
                             {"scenario": self.reference["scenario"]})
        return wall, cpu, items

    def sweep_order(self) -> list[int]:
        # a fixed ensemble of scenario seeds; --seed sets the order they run in
        seeds = list(range(1, self.size["sweep_k"] + 1))
        random.Random(self.seed).shuffle(seeds)
        return seeds

    def run_sweep_pass(self):
        n = self.size["sweep_n"]
        start = clocks()
        items = self.scenarios([(s, {"seed": s, "n": n}) for s in self.sweep_order()])
        wall, cpu = since(start)
        self.check_scenarios(items, n, self.reference and self.reference["sweep"])
        return wall, cpu, items

    def cli(self, key, argv, pass_dir: Path, spans: bool):
        record = pass_dir / f"{key}.record.json"
        stdout = pass_dir / f"{key}.stdout"
        with open(stdout, "w") as out, open(pass_dir / f"{key}.stderr", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "cli_child.py"), str(record),
                 "1" if spans else "0", *argv],
                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        rec = json.loads(record.read_text()) if record.exists() else {
            "error": None, "counts": {}, "outcomes": [], "layer_times": None}
        error = rec["error"]
        if code != 0 and error is None:
            error = {"type": f"exit status {code}", "message": ""}
        if error is not None:
            error = {**error, "stage": key}
        command_op = {"op": f"cli.{key}", "converged": error is None}
        if error is not None:
            command_op["raised"] = error["type"]
        item = Item(key, seconds, [command_op, *rec["outcomes"]], error)
        item.stdout = stdout.read_text()
        return item, rec, usage

    def run_cli_pass(self, spans: bool) -> Pass:
        n = self.size["cli_n"]
        pass_dir = self.work / f"pass{self.hooks.pass_id}"
        data = pass_dir / "data"
        pass_dir.mkdir(parents=True)
        config = pass_dir / "config.json"
        config.write_text(json.dumps({"seed": DATA_SEED, "n": n}))
        commands = [
            ("simulate", ["simulate", "--config", str(config), "--out", str(data)]),
            ("weights", ["weights", "--ipd", str(data / "study_A.csv"),
                         "--targets", str(data / "targets.json"),
                         "--balance-set", BALANCE_SET, "--out", str(pass_dir / "w.csv")]),
            ("fit", ["fit", "--data", str(data / "study_A.csv"),
                     "--weights", str(pass_dir / "w.csv")]),
        ]
        items, counts, outcomes, layer = [], Counter(), [], Counter()
        cpu = peak = 0.0
        start = time.perf_counter()
        for key, argv in commands:
            item, rec, usage = self.cli(key, argv, pass_dir, spans)
            items.append(item)
            counts.update(rec["counts"])
            outcomes += rec["outcomes"]
            layer.update(rec["layer_times"] or {})
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss / 1024)
            if item.error is not None:
                break
        wall = time.perf_counter() - start
        ref = self.reference
        check = {
            "simulate": lambda it: checks.check_simulate(data, n, ref and ref["targets"]),
            "weights": lambda it: checks.check_weights(it.stdout, pass_dir / "w.csv", n,
                                                       ref and ref["scenario"]["ess"]),
            "fit": lambda it: checks.check_fit(it.stdout, ref and ref["scenario"]),
        }
        for item in items:
            if item.error is None:
                try:
                    item.check_errors = check[item.key](item)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    item.check_errors = [f"unreadable output: {exc!r}"]
        shutil.rmtree(pass_dir)
        return Pass(wall, cpu, items, counts, outcomes, dict(layer) if spans else None, peak)

    def one_pass(self, workload: str, pass_id: int, spans: bool) -> Pass:
        hooks = self.hooks
        hooks.new_pass(pass_id)
        hooks.spans_on = spans
        try:
            if workload == "cli_roundtrip":
                return self.run_cli_pass(spans)
            run = self.run_scenario_pass if workload == "scenario" else self.run_sweep_pass
            wall, cpu, items = run()
        finally:
            hooks.spans_on = False
        layer = layer_times(hooks.spans, pass_id) if spans else None
        return Pass(wall, cpu, items, hooks.counts, hooks.outcomes, layer,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def measure(modules, workload, seed, seconds, trace, size_name) -> tuple[dict, dict]:
    """Run passes of ``workload`` for about ``seconds`` (at least one) and
    return (result line, details)."""
    size = SIZES[size_name]
    reference = None
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(size_name)
    runner = Runner(modules, size, seed, reference)
    setup = None if trace else measure_setup(size["setup_repeats"])
    passes: list[Pass] = []
    try:
        with runner.hooks:
            if trace:
                # untraced reference pass: the baseline for trace.overhead_s,
                # and a second pass for the determinism check
                passes.append(runner.one_pass(workload, 0, spans=False))
            start = time.perf_counter()
            while True:
                p = runner.one_pass(workload, len(passes), spans=bool(trace))
                passes.append(p)
                if time.perf_counter() - start + p.wall > seconds:
                    break
    finally:
        remove_work(runner.work)

    attempted = failed = 0
    failures = []
    check_errors = []
    for p in passes:
        for item in p.items:
            a, f, fl = item.accounting()
            attempted, failed = attempted + a, failed + f
            failures += fl
            check_errors += item.check_errors
    raised = [f for f in failures if f["kind"] == "raised"]
    # passes repeat the same inputs, so list each distinct failure once
    distinct = Counter(json.dumps(f, sort_keys=True) for f in failures)
    failures = [{**json.loads(f), "passes": c} for f, c in distinct.items()]
    determinism = [k for k in passes[0].counters
                   if len({repr(p.counters[k]) for p in passes}) > 1]
    measured = passes[1:] if trace else passes
    walls = [p.wall for p in measured]
    by_key: dict = {}
    for p in measured:
        for item in p.items:
            by_key.setdefault(item.key, []).append(item.seconds)
    if workload == "sweep_small":
        item_times = [statistics.median(v) for v in by_key.values()]
    else:  # one item is one pass
        item_times = walls

    if trace:
        metrics = dict(passes[-1].counters)
        for name in passes[-1].layer:
            metrics[name] = statistics.median(p.layer[name] for p in measured)
        metrics["trace.overhead_s"] = statistics.median(walls) - passes[0].wall
        fit_share = metrics.pop("fit_cox_total_s") / statistics.median(walls)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu for p in measured),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in measured),
            "success_rate": 1.0 - failed / attempted if attempted else 0.0,
            "item_p50_s": statistics.median(item_times),
            "item_tail_s": tail(item_times),
        }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size_name, "inputs": size, "env": environment(),
        "passes": len(measured),
        "wall_s": quartiles(walls),
        "cpu_s": quartiles([p.cpu for p in measured]),
        "items": quartiles(item_times),
        "failure_rate": {"failed": failed, "attempted": attempted,
                         "value": failed / attempted if attempted else None},
        "exceptions": raised[:20],
        "failures": failures[:40],  # unconverged, raised, or failed checks
        "check_errors": check_errors[:20],
        "determinism": {"passes_compared": len(passes), "differing_counters": determinism},
    }
    if setup is not None:
        details["setup_s"] = quartiles(setup)
    if trace:
        details["untraced_pass_wall_s"] = passes[0].wall
        details["counters_per_pass"] = passes[-1].counters
        details["attribution"] = {"fit_cox_share_of_wall": fit_share}
        if workload == "cli_roundtrip":
            in_process = sum(metrics[f"cli.{c}_s"] for c in ("simulate", "weights", "fit"))
            csv = metrics["cohortsim.csv_write_s"] + metrics["cohortsim.csv_read_s"]
            details["attribution"]["csv_share_of_in_process"] = csv / in_process
    result = {"correct": not check_errors and not raised and not determinism,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    if determinism:
        raise BenchError(f"counters differ between passes of the same inputs: "
                         f"{determinism}; details: {json.dumps(details)}")
    return result, details


def result_line(result: dict, trace: int) -> dict:
    """Select and label the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in names}
    return {**result, "metrics": metrics}


def smoke(modules) -> int:
    """Every workload at tiny n in both modes; every named metric must be
    printed as a finite number and every output check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, details = measure(modules, workload, DATA_SEED, 0.0, trace, "smoke")
            line = json.loads(json.dumps(result_line(result, trace)))
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            problems = []
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(line)}")
            if {k: v["unit"] for k, v in line["metrics"].items()} != want:
                problems.append("metric names or units differ from BENCHMARK.json")
            problems += [f"{k} = {v['value']!r} is not a finite number"
                         for k, v in line["metrics"].items()
                         if not isinstance(v["value"], (int, float))
                         or not math.isfinite(v["value"])]
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"incorrect run: {json.dumps(details)}")
            if problems:
                raise BenchError(f"smoke {workload} trace={trace}: {problems}")
            print(f"smoke ok: {workload} trace={trace} "
                  f"attempted={line['attempted']} failed={line['failed']}", file=sys.stderr)
    return 0


def capture_reference(modules) -> int:
    """Snapshot the headline numbers of this code, for every size."""
    from maicsim import cli

    harness = modules["harness"]

    def scenario(seed, n):
        return checks.headline(harness.run_scenario(
            harness.parse_config({"seed": seed, "n": n})))

    work = ROOT / ".bench_work" / "reference"
    snapshot = {}
    try:
        for size_name, size in SIZES.items():
            work.mkdir(parents=True, exist_ok=True)
            config = work / "config.json"
            config.write_text(json.dumps({"seed": DATA_SEED, "n": size["cli_n"]}))
            cli.main(["simulate", "--config", str(config), "--out", str(work)])
            snapshot[size_name] = {
                "scenario": scenario(DATA_SEED, size["scenario_n"]),
                "targets": json.loads((work / "targets.json").read_text()),
                "sweep": {str(s): scenario(s, size["sweep_n"])
                          for s in range(1, size["sweep_k"] + 1)},
            }
    finally:
        remove_work(work)
    REFERENCE.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


def remove_work(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    if path.parent.exists() and not any(path.parent.iterdir()):
        path.parent.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DATA_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the details and result here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args()
    try:
        modules = import_maicsim()
        if args.smoke:
            return smoke(modules)
        if args.capture_reference:
            return capture_reference(modules)
        if args.workload is None:
            parser.error("--workload is required")
        result, details = measure(modules, args.workload, args.seed, args.seconds,
                                  args.trace, "full")
        line = result_line(result, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps({"details": details, "result": line},
                                             indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
