"""The benchmark workloads and the output gate each one applies.

Every workload is a closed loop: one caller runs its items one after the
other and waits for each result. ``setup`` makes all inputs from the seed and
builds every ``BallFamily`` index; ``items`` lists the timed calls of one
pass; ``finish`` is timed work done once per pass after the items; ``check``
compares the pass's outputs with naive or structural references and tallies
operations attempted and failed.

The benchmark calls weightlab through module attributes (``theorems.run_suite``
and so on) so that the traced run sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from weightlab import cli, families, operators, report, theorems
from weightlab import space as wl_space
from weightlab import weights as wl_weights

import reference

REL_TOL = 1e-12  # gate tolerance, relative
P, S = 2.0, 2.0  # exponents, as the CLI defaults
GATE_N = 60  # points of the maximal-vs-naive gate space
SAMPLED_CENTERS = 8  # naive reference centers per analyze space, plus the witness


@dataclass
class Item:
    key: str
    run: Callable[[], object]


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its description."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def gate_maximal(seed: int, tally: Tally) -> None:
    """Fast maximal against the O(n^3) enumeration on a small seeded space."""
    gate = wl_space.generate("random-points", {"n": GATE_N, "dim": 2, "measure": "random"},
                             seed=seed)
    f = np.random.default_rng(seed).uniform(0.1, 5.0, size=gate.n)
    fast = operators.maximal(gate, f).values
    naive = operators.maximal_naive(gate, f)
    dev = float(np.abs(fast / naive - 1.0).max())
    tally.record(dev <= REL_TOL, f"maximal deviates from maximal_naive by {dev:.3e}")


def _tally_reports(reports, tally: Tally) -> None:
    for r in reports:
        if r.hard:
            tally.record(r.verdict == "pass", f"{r.check_id}: {r.verdict} "
                                              f"lhs={r.lhs!r} rhs={r.rhs!r}")


def _uniform_weights(rng: np.random.Generator, n: int, names) -> dict[str, np.ndarray]:
    return {name: rng.uniform(0.1, 5.0, size=n) for name in names}


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, quick: bool):
        raise NotImplementedError

    def items(self, inputs) -> list[Item]:
        raise NotImplementedError

    def finish(self, inputs, outputs):
        return None

    def check(self, inputs, outputs, finished, tally: Tally) -> list[float]:
        """Tally the pass's outputs; return the factor objectives it produced."""
        raise NotImplementedError


class VerifyBatch(Workload):
    """`weightlab verify --random` in-process: many small suites, then JSONL."""

    name = "verify-batch"
    why = ("120 small random suites: per-call overhead, JSONL output and the one-sweep "
           "factor budget dominate; the only workload with enough items for a p90")
    MAX_N = 64
    BANDS = 8  # equal-width bands of n in [2, MAX_N]

    def setup(self, seed, quick):
        # Stratified: one instance per (space kind, band of n, family of w),
        # 5 x 8 x 3 = 120, each drawn as families.sample_instance draws it
        # (sample_space, then sample_weight for w and phi) and redrawn until
        # n falls in its band. The cost of an instance is set mostly by n and
        # its factor objective by the family of w, so this keeps the cost and
        # the objective of a pass nearly the same for every seed; measures,
        # sizes within a band, phi and the weights themselves stay random.
        max_n, bands, weight_families = ((12, 2, families.WEIGHT_FAMILIES[:1]) if quick
                                         else (self.MAX_N, self.BANDS, families.WEIGHT_FAMILIES))
        rng = np.random.default_rng(seed)
        instances = []
        for kind in families.SPACE_KINDS:
            for band in range(bands):
                for family in weight_families:
                    for _ in range(10_000):
                        space = families.sample_space(rng, max_n, kind)
                        if (space.n - 2) * bands // (max_n - 1) == band:
                            break
                    else:
                        raise RuntimeError(f"verify-batch: no {kind} space in band {band}")
                    space.ball_family
                    instances.append((space, {"w": families.sample_weight(rng, space, family),
                                              "phi": families.sample_weight(rng, space)}))
        return instances

    def items(self, instances):
        params = theorems.SuiteParams(p=P, s=S)
        return [Item(f"i{k:04d}", lambda s=s, w=w, k=k: theorems.run_suite(
                    s, w, params, label=f"i{k:04d}."))
                for k, (s, w) in enumerate(instances)]

    def finish(self, instances, outputs):
        return report.reports_to_jsonl([r for reports in outputs for r in reports])

    def check(self, instances, outputs, jsonl, tally):
        objectives = []
        for (space, weights), reports in zip(instances, outputs):
            _tally_reports(reports, tally)
            # one factorization per instance, of w; its reports carry A_1(v1), A_1(v2)
            detail = {}
            for r in reports:
                if r.check_id.endswith((".factorization.w1_bounds", ".factorization.w2_ap")):
                    detail.update(r.detail)
            if "a1_v1" in detail and "a1_v2" in detail:  # else the error report failed above
                # relative to the start v2 = 1, where the objective is A_1(w**s):
                # how hard an input is varies far more between seeds than how
                # much of that the search removes
                start = wl_weights.a1_constant(space, np.power(weights["w"], S)).value
                objectives.append(max(detail["a1_v1"], detail["a1_v2"]) / start)
        lines = jsonl.splitlines()
        flat = [r for reports in outputs for r in reports]
        ok = len(lines) == len(flat) and all(
            json.loads(line)["id"] == r.check_id for line, r in zip(lines, flat))
        tally.record(ok, "reports_to_jsonl lines do not match the reports")
        return objectives


class SuiteGrid(Workload):
    """The ROADMAP "suite core": hard checks only on a tie-heavy linf grid."""

    name = "suite-grid"
    why = ("hard checks on a tie-heavy n=1000 grid, where each weight's ball tables are "
           "rebuilt many times; a table cache shows here, BMO never runs")

    def setup(self, seed, quick):
        nx, ny = (5, 6) if quick else (25, 40)
        space = wl_space.generate("grid", {"nx": nx, "ny": ny, "metric": "linf"}, seed)
        space.ball_family
        weights = _uniform_weights(np.random.default_rng(seed), space.n, ("w", "phi"))
        return space, weights

    def items(self, inputs):
        space, weights = inputs
        params = theorems.SuiteParams(include_soft=False, include_factorization=False)
        return [Item("suite", lambda: theorems.run_suite(space, weights, params))]

    def check(self, inputs, outputs, finished, tally):
        for reports in outputs:
            _tally_reports(reports, tally)
        return []


class Analyze(Workload):
    """Every quantity `weightlab analyze` computes, once per space, on two spaces."""

    name = "analyze"
    why = ("every analyze quantity once on a tied n=1000 grid and tie-free n=500 points: "
           "tables are used once, the cubic BMO and annular scans dominate")

    def setup(self, seed, quick):
        rng = np.random.default_rng(seed)
        grid_shape, rp_n = ((6, 5), 20) if quick else ((25, 40), 500)
        grid = wl_space.generate("grid", {"nx": grid_shape[0], "ny": grid_shape[1],
                                          "metric": "linf"}, seed)
        points = wl_space.generate("random-points", {"n": rp_n, "dim": 2,
                                                     "measure": "random"}, seed)
        spaces = []
        for tag, space in (("grid", grid), ("points", points)):
            space.ball_family
            w = rng.uniform(0.1, 5.0, size=space.n)
            positive = space.dist[space.dist > 0]
            r_min = 2.0 * float(positive.min())  # the CLI's default cutoff
            centers = rng.choice(space.n, size=min(SAMPLED_CENTERS, space.n), replace=False)
            spaces.append((tag, space, w, r_min, [int(c) for c in centers]))
        return {"spaces": spaces, "naive": {}}

    def items(self, inputs):
        return [Item(f"{tag}.{q}", fn) for tag, space, w, r_min, _ in inputs["spaces"]
                for q, fn in _analyze_calls(space, w, r_min).items()]

    def check(self, inputs, outputs, finished, tally):
        results = iter(outputs)
        naive = inputs["naive"]  # naive values are computed once per run
        forms = reference.ball_forms(P, S)
        for tag, space, w, r_min, sampled in inputs["spaces"]:
            for q in _analyze_calls(space, w, r_min):
                res, key = next(results), f"{tag}.{q}"
                if q in ("maximal", "minimal"):
                    _check_extremal(space, w, sampled, res, q, key, naive, tally)
                    continue
                if q in forms:
                    witness = res.witness.center
                    compute = lambda c: reference.sup_over_centers(space, c, forms[q], w)
                elif q == "doubling":
                    witness = res.witness.center if res.witness else sampled[0]
                    compute = lambda c: reference.doubling_over_centers(space, c)
                else:
                    witness = res.witness_center
                    compute = lambda c: reference.annular_over_centers(space, c, 1.0, r_min)
                centers = tuple(sorted(set(sampled) | {witness}))
                if (key, centers) not in naive:
                    naive[key, centers] = compute(centers)
                want = naive[key, centers]
                tally.record(rel_close(res.value, want), f"{key}: {res.value!r} vs naive {want!r}")
        return []


def _analyze_calls(space, w, r_min) -> dict[str, Callable[[], object]]:
    logw = np.log(w)
    calls = {
        "ap": lambda: wl_weights.ap_constant(space, w, P),
        "a1": lambda: wl_weights.a1_constant(space, w),
        "ainf": lambda: wl_weights.ainf_constant(space, w),
        "rhs": lambda: wl_weights.rhs_constant(space, w, S),
        "rhinf": lambda: wl_weights.rhinf_constant(space, w),
        "bmo": lambda: wl_weights.bmo_norm(space, logw),
        "blo": lambda: wl_weights.blo_norm(space, logw),
        "buo": lambda: wl_weights.buo_norm(space, logw),
        "maximal": lambda: operators.maximal(space, w),
        "minimal": lambda: operators.minimal(space, w),
        "doubling": lambda: wl_space.doubling_constant(space),
    }
    if space.n <= cli.ANNULAR_MAX_N:  # the CLI skips the cubic scan above this
        calls["annular"] = lambda: wl_space.annular_decay_constant(space, 1.0, r_min)
    return calls


def _check_extremal(space, w, sampled, res, q, key, naive, tally) -> None:
    """Witness balls attain the values; no ball of a sampled center does better."""
    points = sampled[:4]
    for x in points:
        c, r = int(res.witness_center[x]), float(res.witness_radius[x])
        at_witness = reference.ball_average(space, c, r, w)
        tally.record(space.dist[c, x] <= r and rel_close(res.values[x], at_witness),
                     f"{key}[{x}]: {res.values[x]!r} vs witness ball {at_witness!r}")
    mode = "max" if q == "maximal" else "min"
    if (key, "sampled") not in naive:
        naive[key, "sampled"] = reference.extremal_at_points(space, sampled, points, w, mode)
    best = naive[key, "sampled"]
    got = res.values[points]
    ok = np.all(got >= best * (1 - REL_TOL)) if mode == "max" else np.all(got <= best * (1 + REL_TOL))
    tally.record(bool(ok), f"{key}: a ball of a sampled center beats the reported {q}")


WORKLOADS = {w.name: w for w in (VerifyBatch(), SuiteGrid(), Analyze())}
