"""Self-test of the benchmark on tiny inputs (``--quick``).

From the repository root:

    python3 perfbench/selftest.py

Checks, for every workload:
  * the untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
    and the traced run exactly its per-layer metrics, with their units;
  * every attribute the tracer patched is restored afterwards;
  * in each traced pass, span self times plus the untraced gaps between
    top-level spans add up to the pass's wall time, and no self time is
    negative;
  * all outputs pass the gate.
Then it runs the command line once and checks the last line of its output,
and runs it from a directory that holds only BENCHMARK.json and the benchmark,
where it must fail without printing a result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the thread variables before numpy loads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bindings() -> dict:
    """Identity of every attribute of every weightlab module and of BallFamily."""
    from weightlab.space import BallFamily

    out = {(name, key): id(value) for name, mod in sys.modules.items()
           if name == "weightlab" or name.startswith("weightlab.")
           for key, value in vars(mod).items()}
    out.update({("BallFamily", key): id(value) for key, value in vars(BallFamily).items()})
    return out


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest: FAIL {what}")
        sys.exit(1)
    print(f"selftest: ok   {what}")


def check_metrics(result: dict, section: str, label: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(got == want, f"{label}: emits every {section} metric with its unit")
    expect(all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()),
           f"{label}: every metric value is a number")


def main() -> int:
    run.import_weightlab()
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    expect(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the runner's workloads")
    for name in names:
        plain = run.run_workload(name, seed=3, seconds=0, trace=False, quick=True)
        check_metrics(plain, "end_to_end", name)
        expect(plain["correct"] and plain["attempted"] > 0,
               f"{name}: gate passes ({plain['attempted']} operations)")

        before = bindings()
        traced = run.run_workload(name, seed=3, seconds=0, trace=True, quick=True)
        expect(bindings() == before, f"{name}: every patched attribute is restored")
        check_metrics(traced, "per_layer", name)
        expect(traced["correct"], f"{name}: traced outputs pass the gate")
        for acc in traced["detail"]["accounting"]:
            expect(acc["self_ns"] + acc["gap_ns"] == acc["wall_ns"] and acc["min_self_ns"] >= 0,
                   f"{name}: self {acc['self_ns']} ns + gaps {acc['gap_ns']} ns "
                   f"= traced wall {acc['wall_ns']} ns")

    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", names[1], "--seed", "5",
           "--seconds", "0", "--trace", "0", "--quick"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"],
           "command line prints the result object last and exits 0")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        cmd[1] = str(bare / BENCH_DIR.name / "run.py")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, check=False,
                              timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the package's source the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
