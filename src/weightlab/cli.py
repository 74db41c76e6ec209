"""Command-line front door.

Subcommands:
  gen      write a generated space (+ optional weight) document
  analyze  all constants, norms, and witnesses of one named weight
  verify   run the check suite on a document or a seeded random batch
  factor   refined two-factor decomposition with certificates
  bench    kernel timings with a fast-vs-naive equality gate

Exit codes: 0 success / all hard checks pass, 1 a hard check failed,
2 invalid input or parameters. WEIGHTLAB_TOLERANCE overrides the default
tolerances (both inequality and equality) when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import factorization, families, theorems
from .errors import InvalidParams, NonpositiveWeight, WeightlabError
from .operators import maximal, maximal_naive
from .report import Tolerances, aggregate_verdict, reports_to_csv, reports_to_jsonl
from .space import (
    GENERATOR_KINDS,
    annular_decay_constant,
    doubling_constant,
    enumerate_balls,
    generate,
    load,
    save,
)
from .weights import (
    _as_weight,
    a1_constant,
    ainf_constant,
    ap_constant,
    blo_norm,
    bmo_norm,
    buo_norm,
    rhinf_constant,
    rhs_constant,
)

ANNULAR_MAX_N = 512  # analyze skips the annular scan on bigger inputs


def _tolerances(args) -> Tolerances:
    override = getattr(args, "tolerance", None)
    if override is None:
        env = os.environ.get("WEIGHTLAB_TOLERANCE")
        if env:
            try:
                override = float(env)
            except ValueError:
                raise InvalidParams(f"WEIGHTLAB_TOLERANCE is not a number: {env!r}") from None
    if override is not None:
        return Tolerances(ineq=override, eq=override)
    return Tolerances()


def _valid_weight(space, name: str, w) -> np.ndarray:
    """w checked as a positive weight on space, before any use; errors name it."""
    try:
        return _as_weight(space, w)
    except NonpositiveWeight as exc:
        raise NonpositiveWeight(f"weight {name!r}: {exc}") from None


def cmd_gen(args) -> int:
    params: dict = {"measure": args.measure}
    if args.kind == "snowflake":
        if not args.base:
            print("gen: snowflake needs --base", file=sys.stderr)
            return 2
        base, _ = load(args.base)
        params.update(base=base, eps=args.eps)
    else:
        params["n"] = args.n
        if args.metric:
            params["metric"] = args.metric
    space = generate(args.kind, params, args.seed)
    weights = {}
    if args.weight_family:
        rng = np.random.default_rng(args.seed)
        weights["w"] = families.sample_weight(rng, space, args.weight_family)
    save(space, weights, args.out)
    cd = doubling_constant(space)
    print(f"n={space.n} diameter={space.diameter:.6g} doubling={cd.value:.6g}")
    return 0


def cmd_analyze(args) -> int:
    space, weights = load(args.input)
    if args.weight not in weights:
        print(f"analyze: weight {args.weight!r} not in document "
              f"(available: {sorted(weights)})", file=sys.stderr)
        return 2
    w = _valid_weight(space, args.weight, weights[args.weight])
    logw = np.log(w)
    rows = []

    def add(name, res):
        rows.append({"quantity": name, "value": res.value,
                     **{f"witness_{k}": v for k, v in res.witness_dict().items()}})

    add(f"ap(p={args.p:g})", ap_constant(space, w, args.p))
    add("a1", a1_constant(space, w))
    add("ainf", ainf_constant(space, w))
    add(f"rhs(s={args.s:g})", rhs_constant(space, w, args.s))
    add("rhinf", rhinf_constant(space, w))
    add("bmo(log w)", bmo_norm(space, logw))
    add("blo(log w)", blo_norm(space, logw))
    add("buo(log w)", buo_norm(space, logw))
    add("doubling", doubling_constant(space))
    # one ball per (center, rank), counted by the index; only the
    # deduplicated count needs the member sets
    balls = (len(enumerate_balls(space)) if args.dedupe_balls
             else int(space.ball_family.ball_count.sum()))
    rows.append({"quantity": "balls", "value": balls})
    r_min = args.r_min
    if r_min is None:
        # twice the smallest distance between distinct points: each center's
        # nearest other point is at position 1 of its order
        r_min = 1.0
        if space.n > 1:
            nearest = space.dist[np.arange(space.n), space.ball_family.order[:, 1]]
            r_min = 2.0 * float(nearest.min())
    if space.n <= ANNULAR_MAX_N:
        ann = annular_decay_constant(space, args.alpha, r_min)
        rows.append({"quantity": f"annular(alpha={args.alpha:g},r_min={r_min:g})",
                     "value": ann.value, "witness_center": ann.witness_center,
                     "witness_radius": ann.witness_radius,
                     "witness_delta": ann.witness_delta})

    out_json = json.dumps(rows, indent=1, sort_keys=True)
    buf = io.StringIO()
    fields = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    if args.out_prefix:
        with open(args.out_prefix + ".json", "w") as fh:
            fh.write(out_json + "\n")
        with open(args.out_prefix + ".csv", "w") as fh:
            fh.write(buf.getvalue())
    for row in rows:
        print(f"{row['quantity']:>28s}  {row['value']:.10g}")
    return 0


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    params = theorems.SuiteParams(p=args.p, s=args.s, tol=tol,
                                  include_soft=not args.no_soft)
    reports = []
    if args.random:
        if args.seed is None:
            print("verify: --random needs --seed", file=sys.stderr)
            return 2
        if args.count < 1:
            raise InvalidParams("--count must be >= 1")
        rng = np.random.default_rng(args.seed)
        for k in range(args.count):
            space, weights = families.sample_instance(rng, args.max_n)
            reports.extend(theorems.run_suite(space, weights, params,
                                              label=f"i{k:04d}."))
    else:
        if not args.input:
            print("verify: need --input or --random", file=sys.stderr)
            return 2
        space, weights = load(args.input)
        if args.weight:
            if args.weight not in weights:
                print(f"verify: weight {args.weight!r} not in document",
                      file=sys.stderr)
                return 2
            weights = {args.weight: weights[args.weight]}
        if not weights:
            print("verify: document has no weights", file=sys.stderr)
            return 2
        weights = {name: _valid_weight(space, name, w) for name, w in weights.items()}
        reports = theorems.run_suite(space, weights, params)

    if args.self_test and reports:
        # harness self-test: invert the first hard assertion and expect failure
        from dataclasses import replace
        for i, r in enumerate(reports):
            if r.hard and r.kind == "inequality":
                reports[i] = replace(r, lhs=r.rhs, rhs=r.lhs, margin=-r.margin,
                                     verdict="fail" if r.verdict == "pass" else r.verdict,
                                     check_id=r.check_id + ".inverted")
                break

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(reports_to_jsonl(reports))
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(reports_to_csv(reports))
    hard = [r for r in reports if r.hard]
    failed = [r for r in hard if r.verdict != "pass"]
    ok = aggregate_verdict(reports)
    print(f"checks: {len(hard)} hard, {len(reports) - len(hard)} soft; "
          f"failures: {len(failed)}; verdict: {'pass' if ok else 'FAIL'}")
    for r in failed[:20]:
        print(f"  FAIL {r.check_id}: lhs={r.lhs!r} rhs={r.rhs!r} margin={r.margin!r}")
    return 0 if ok else 1


def cmd_factor(args) -> int:
    space, weights = load(args.input)
    if args.weight not in weights:
        print(f"factor: weight {args.weight!r} not in document", file=sys.stderr)
        return 2
    w = _valid_weight(space, args.weight, weights[args.weight])
    pair = factorization.refined_jones(space, w, args.p, args.s)
    reports = factorization.verify_factorization(space, w, pair, _tolerances(args))
    payload = pair.to_dict()
    payload["verification"] = [r.to_dict() for r in reports]
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    ok = aggregate_verdict(reports)
    print(f"objective={pair.search.objective:.9g} lower_bound={pair.search.lower_bound:.9g} "
          f"converged={pair.search.converged} certificates="
          f"{ {k: round(v, 6) for k, v in pair.certificates.items()} } "
          f"verdict={'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise InvalidParams(f"--sizes must list integers, got {args.sizes!r}") from None
    if args.repeats < 1 or any(n < 1 for n in sizes):
        raise InvalidParams("--repeats and every --sizes entry must be >= 1")
    rows = [("n", "kernel", "seconds")]
    # equality gate: the suffix-sweep path must match the naive enumeration
    gate = generate("random-points", {"n": min(100, max(sizes, default=100)),
                                      "dim": 2}, seed=7)
    rng = np.random.default_rng(11)
    f = rng.uniform(0.1, 5.0, size=gate.n)
    fast = maximal(gate, f).values
    naive = maximal_naive(gate, f)
    dev = float(np.abs(fast / naive - 1.0).max())
    if dev > 1e-12:
        print(f"bench: fast path deviates from naive by {dev:.3e}", file=sys.stderr)
        return 1
    print(f"gate: fast vs naive max relative deviation {dev:.3e} on n={gate.n}")

    times = {}
    for n in sizes:
        nx = max(d for d in range(1, int(np.sqrt(n)) + 1) if n % d == 0)
        t0 = time.perf_counter()
        space = generate("grid", {"nx": nx, "ny": n // nx}, seed=1)
        t_gen = time.perf_counter() - t0
        g = np.random.default_rng(5).uniform(0.1, 5.0, size=space.n)
        t0 = time.perf_counter()
        space.ball_family  # the per-center index realizes every ball
        t_enum = time.perf_counter() - t0
        best = np.inf
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            maximal(space, g)
            best = min(best, time.perf_counter() - t0)
        # hard checks minus the factor search, whose cost is an optimizer
        # budget rather than a kernel property
        suite_params = theorems.SuiteParams(include_soft=False,
                                            include_factorization=False)
        t0 = time.perf_counter()
        theorems.run_suite(space, {"w": g}, suite_params)
        t_suite = time.perf_counter() - t0
        rows.append((space.n, "generate", f"{t_gen:.6f}"))
        rows.append((space.n, "ball_enumeration", f"{t_enum:.6f}"))
        rows.append((space.n, "maximal", f"{best:.6f}"))
        rows.append((space.n, "suite_core", f"{t_suite:.6f}"))
        times[space.n] = best
    text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    if len(times) >= 2:
        ns = np.log(np.array(sorted(times)))
        ts = np.log(np.array([times[k] for k in sorted(times)]))
        slope = float(np.polyfit(ns, ts, 1)[0])
        print(f"fitted maximal-path scaling exponent: {slope:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weightlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a space document")
    g.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--metric", default=None)
    g.add_argument("--measure", default="uniform", choices=["uniform", "random"])
    g.add_argument("--base", default=None, help="base document for snowflake")
    g.add_argument("--eps", type=float, default=0.5)
    g.add_argument("--weight-family", default=None,
                   choices=list(families.WEIGHT_FAMILIES))
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("analyze", help="constants and norms of one weight")
    a.add_argument("--input", required=True)
    a.add_argument("--weight", default="w")
    a.add_argument("--p", type=float, default=2.0)
    a.add_argument("--s", type=float, default=2.0)
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--r-min", type=float, default=None)
    a.add_argument("--dedupe-balls", action="store_true",
                   help="count one ball per distinct member set")
    a.add_argument("--out-prefix", default=None)
    a.set_defaults(fn=cmd_analyze)

    v = sub.add_parser("verify", help="run the check suite")
    v.add_argument("--input", default=None)
    v.add_argument("--weight", default=None)
    v.add_argument("--random", action="store_true")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--max-n", type=int, default=64)
    v.add_argument("--p", type=float, default=2.0)
    v.add_argument("--s", type=float, default=2.0)
    v.add_argument("--tolerance", type=float, default=None)
    v.add_argument("--no-soft", action="store_true")
    v.add_argument("--self-test", action="store_true")
    v.add_argument("--report", default=None, help="JSONL output path")
    v.add_argument("--summary", default=None, help="CSV output path")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("factor", help="refined two-factor decomposition")
    f.add_argument("--input", required=True)
    f.add_argument("--weight", default="w")
    f.add_argument("--p", type=float, default=2.0)
    f.add_argument("--s", type=float, default=2.0)
    f.add_argument("--tolerance", type=float, default=None)
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_factor)

    b = sub.add_parser("bench", help="kernel timings")
    b.add_argument("--sizes", default="")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # a p or s that is not finite and > 1 raises InvalidParams where it is used
        return args.fn(args)
    except WeightlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit-code contract is total: 0, 1, or 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
