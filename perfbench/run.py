"""Run one weightlab benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload suite-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

With ``--trace 0`` the run sets up its inputs several times (``setup_s`` is the
median), then repeats whole passes of the workload until ``--seconds`` of pass
time are measured and prints the end-to-end metrics. With ``--trace 1`` it
sets up once under the tracer, then alternates an untraced and a traced pass
until ``--seconds`` are measured, and prints the per-layer metrics of one
traced pass plus the traced set-up. ``--workload all`` runs each workload in
its own process. Every output is checked; the last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is 1 when an output mismatched. Results and spans are also
written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("factor_objective", "ratio", "lower"),
)

WEIGHT_FUNCTIONALS = ("ap", "a1", "ainf", "rhs", "rhinf", "bmo", "blo", "buo")
CHECK_GROUPS = ("commutation", "oscillation", "harnack", "a1_characterization",
                "rhinf_characterization", "converse_chain", "power_props",
                "multiplier", "duality", "unquantified")
OPERATOR_SPANS = ("operators.maximal", "operators.minimal",
                  "operators.natural_maximal", "operators.natural_minimal")

PER_LAYER = (
    ("space.generate_s", "s", "lower"),
    ("space.index_build_s", "s", "lower"),
    ("space.index_bytes", "bytes", "lower"),
    ("space.averages_calls", "count", "lower"),
    ("space.averages_s", "s", "lower"),
    ("space.running_extrema_calls", "count", "lower"),
    ("space.running_extrema_s", "s", "lower"),
    ("space.sup_calls", "count", "lower"),
    ("space.sup_s", "s", "lower"),
    ("space.table_cells", "count", "lower"),
    ("space.doubling_s", "s", "lower"),
    ("space.annular_s", "s", "lower"),
    ("operators.calls", "count", "lower"),
    ("operators.s", "s", "lower"),
    *((f"weights.{f}_{kind}", unit, "lower") for f in WEIGHT_FUNCTIONALS
      for kind, unit in (("calls", "count"), ("s", "s"))),
    *((f"theorems.{c}_s", "s", "lower") for c in CHECK_GROUPS),
    ("theorems.hard_checks", "count", "higher"),
    ("theorems.failed_checks", "count", "lower"),
    ("factorization.search_s", "s", "lower"),
    ("factorization.objective_evals", "count", "lower"),
    ("factorization.evals_per_s", "1/s", "higher"),
    ("factorization.converged_frac", "ratio", "higher"),
    ("factorization.certificates_s", "s", "lower"),
    ("factorization.verify_s", "s", "lower"),
    ("report.serialize_s", "s", "lower"),
    ("report.reports", "count", "higher"),
    ("families.sample_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)


def import_weightlab():
    """Import weightlab from this checkout's src/, never from an installed copy."""
    init = SRC / "weightlab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: {init} not found; run from a weightlab checkout")
    sys.path.insert(0, str(SRC))
    import weightlab

    if Path(weightlab.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported weightlab from {weightlab.__file__}, not {init}")


# -- machine record ------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy as np

    model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- passes ------------------------------------------------------------------------

def run_pass(wl, inputs, tracer=None):
    """One timed pass: every item, then the workload's finishing step."""
    items = wl.items(inputs)
    outputs, latencies = [], []
    start = perf_counter_ns()
    if tracer is None:
        for item in items:
            t0 = perf_counter_ns()
            outputs.append(item.run())
            latencies.append(perf_counter_ns() - t0)
        finished = wl.finish(inputs, outputs)
    else:
        for item in items:
            t0 = perf_counter_ns()
            tracer.set_item(item.key)
            with tracer.span("bench.item"):
                outputs.append(item.run())
            latencies.append(perf_counter_ns() - t0)
        tracer.set_item(None)
        with tracer.span("bench.finish"):
            finished = wl.finish(inputs, outputs)
    end = perf_counter_ns()
    return outputs, finished, (start, end), latencies


class Checker:
    """Checks each pass and that every pass reproduces the first one's objectives."""

    def __init__(self, wl, inputs, tally):
        self.wl, self.inputs, self.tally = wl, inputs, tally
        self.objectives = None

    def __call__(self, outputs, finished) -> None:
        objectives = self.wl.check(self.inputs, outputs, finished, self.tally)
        if self.objectives is None:
            self.objectives = objectives
        else:
            self.tally.record(objectives == self.objectives,
                              "factor objectives differ between passes")


def untraced_run(wl, seed, seconds, quick, tally) -> dict:
    setup_s = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        # a space and its BallFamily refer to each other, so the previous
        # inputs are freed only by the cycle collector: run it before the next
        # set-up, so that peak_rss_mb counts one set of inputs
        inputs = None
        gc.collect()
        t0 = perf_counter_ns()
        inputs = wl.setup(seed, quick)
        setup_s.append((perf_counter_ns() - t0) / 1e9)
    check = Checker(wl, inputs, tally)
    pass_s, latencies, n_items = [], [], 0
    while _more(pass_s, seconds):
        outputs, finished, (start, end), lat = run_pass(wl, inputs)
        pass_s.append((end - start) / 1e9)
        latencies.extend(lat)
        n_items += len(lat)
        check(outputs, finished)
        outputs = finished = None  # so peak_rss_mb does not depend on the pass count
    objectives = check.objectives or []
    lat_ms = sorted(x / 1e6 for x in latencies)
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(pass_s),
        "items_per_s": n_items / sum(pass_s),
        "item_p50_ms": _percentile(lat_ms, 50),
        "item_p90_ms": _percentile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # the empty product where the workload factors nothing
        "factor_objective": math.exp(statistics.fmean(map(math.log, objectives)))
        if objectives else 1.0,
    }, {"passes": len(pass_s), "items": n_items, "setup_runs_s": setup_s, "pass_s": pass_s}


def _more(pass_s, seconds: float) -> bool:
    """Whether another pass brings the measured time closer to `seconds`."""
    return not pass_s or sum(pass_s) + statistics.fmean(pass_s) / 2 < seconds


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def traced_run(wl, seed, seconds, quick, tally, spans_path=None) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = wl.setup(seed, quick)
    finally:
        tracer.uninstall()
    setup_end, setup_counters = tracer.mark(), dict(tracer.counters)
    check = Checker(wl, inputs, tally)
    untraced_s, traced_s, windows = [], [], []
    while _more([u + t for u, t in zip(untraced_s, traced_s)], seconds):
        outputs, finished, (start, end), _ = run_pass(wl, inputs)
        untraced_s.append((end - start) / 1e9)
        check(outputs, finished)
        mark = tracer.mark()
        tracer.install()
        try:
            outputs, finished, (start, end), _ = run_pass(wl, inputs, tracer)
        finally:
            tracer.uninstall()
        traced_s.append((end - start) / 1e9)
        windows.append((mark, tracer.mark(), (start, end)))
        check(outputs, finished)
    accounting = [tracing.accounting(tracer.columns(a, b), window) for a, b, window in windows]
    n = len(traced_s)
    setup = tracing.by_name(tracer.columns(0, setup_end))
    passes = tracing.by_name(tracer.columns(setup_end))
    per_pass = [s + p / n for s, p in zip(setup, passes)]
    counters = {k: setup_counters.get(k, 0) + (v - setup_counters.get(k, 0)) / n
                for k, v in tracer.counters.items()}
    metrics = layer_metrics(*per_pass, counters)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    metrics["failed_frac"] = tally.failed / tally.attempted
    if spans_path is not None:
        tracer.save(spans_path, {"workload": wl.name, "seed": seed, "passes": n})
    return metrics, {"traced_passes": n, "spans": tracer.mark(), "accounting": accounting,
                     "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}


def layer_metrics(self_s, incl_s, calls, counters) -> dict:
    ids = {name: i for i, name in enumerate(tracing.SPAN_NAMES)}

    def s(*names):
        return float(sum(self_s[ids[n]] for n in names))

    def c(*names):
        return float(sum(calls[ids[n]] for n in names))

    search_calls = c("factorization.search")
    evals = counters.get("factorization.objective_evals", 0)
    search_incl = float(incl_s[ids["factorization.search"]])
    m = {
        "space.generate_s": s("space.generate"),
        "space.index_build_s": s("space.index_build"),
        "space.index_bytes": counters.get("space.index_bytes", 0),
        "space.averages_calls": c("space.averages"),
        "space.averages_s": s("space.averages"),
        "space.running_extrema_calls": c("space.running_min", "space.running_max"),
        "space.running_extrema_s": s("space.running_min", "space.running_max"),
        "space.sup_calls": c("space.sup"),
        "space.sup_s": s("space.sup"),
        "space.table_cells": counters.get("space.table_cells", 0),
        "space.doubling_s": s("space.doubling"),
        "space.annular_s": s("space.annular"),
        "operators.calls": c(*OPERATOR_SPANS),
        "operators.s": s(*OPERATOR_SPANS),
    }
    for f in WEIGHT_FUNCTIONALS:
        m[f"weights.{f}_calls"] = c(f"weights.{f}")
        m[f"weights.{f}_s"] = s(f"weights.{f}")
    for group in CHECK_GROUPS:
        m[f"theorems.{group}_s"] = s(f"theorems.{group}")
    m.update({
        "theorems.hard_checks": counters.get("theorems.hard_checks", 0),
        "theorems.failed_checks": counters.get("theorems.failed_checks", 0),
        "factorization.search_s": s("factorization.search"),
        "factorization.objective_evals": evals,
        "factorization.evals_per_s": evals / search_incl if search_incl else 0.0,
        "factorization.converged_frac":
            counters.get("factorization.converged", 0) / search_calls if search_calls else 0.0,
        "factorization.certificates_s": s("factorization.certificates"),
        "factorization.verify_s": s("factorization.verify"),
        "report.serialize_s": s("report.serialize"),
        "report.reports": counters.get("report.reports", 0),
        "families.sample_s": s("families.sample_space", "families.sample_weight"),
    })
    return m


# -- entry points --------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                 spans_path=None) -> dict:
    """Run one workload in this process; returns the result with its details."""
    import workloads

    wl = workloads.WORKLOADS[name]
    tally = workloads.Tally()
    workloads.gate_maximal(seed, tally)
    if trace:
        metrics, detail = traced_run(wl, seed, seconds, quick, tally, spans_path)
        table = PER_LAYER
    else:
        metrics, detail = untraced_run(wl, seed, seconds, quick, tally)
        table = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit, _ in table},
        "problems": tally.problems,
        "detail": detail,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"# {name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    import_weightlab()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.quick, OUT / f"{stem}-spans.npz" if args.trace else None)
    info = machine()
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "quick": args.quick, "machine": info, **result}, indent=1) + "\n")
    print(f"# machine: {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed} {json.dumps(result['detail'])}")
    for problem in result["problems"]:
        print(f"# MISMATCH {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
