"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite asserts every stated tolerance and time budget.
"""

import json
import time

import numpy as np
import pytest

import oracles
from weightlab import (
    a1_constant,
    aggregate_verdict,
    ainf_constant,
    annular_decay_constant,
    ap_constant,
    blo_norm,
    bmo_norm,
    build_space,
    buo_norm,
    generate,
    jones_factor,
    maximal,
    maximal_naive,
    minimal,
    minimal_naive,
    natural_maximal,
    natural_maximal_naive,
    natural_minimal,
    natural_minimal_naive,
    refined_jones,
    rhinf_constant,
    rhs_constant,
    run_suite,
    save,
    verify_factorization,
)
from weightlab.cli import main
from weightlab.factorization import FactorOptions
from weightlab.families import sample_instance, sample_space, sample_weight

E = np.e


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_worked_example_regression(tmp_path):
    t0 = time.perf_counter()
    space = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), "explicit-matrix",
                        [0.5, 0.5])
    doc = tmp_path / "two.json"
    save(space, {"w": np.array([1.0, E])}, doc)
    prefix = str(tmp_path / "out")
    assert main(["analyze", "--input", str(doc), "--weight", "w",
                 "--p", "2", "--s", "2", "--out-prefix", prefix]) == 0
    table = {r["quantity"]: r["value"]
             for r in json.loads(open(prefix + ".json").read())}
    expected = {"ap(p=2)": 1.27154, "a1": 1.85914, "ainf": 1.12763,
                "rhs(s=2)": 1.10162, "rhinf": 1.46212,
                "blo(log w)": 0.5, "buo(log w)": 0.5}
    for key, val in expected.items():
        assert table[key] == pytest.approx(val, abs=1e-5), key

    from weightlab import check_a1_characterization, check_rhinf_characterization
    w = np.array([1.0, E])
    r51 = check_a1_characterization(space, w)
    assert r51.verdict == "pass"
    assert abs(r51.detail["upper.lhs"] - r51.detail["upper.rhs"]) <= 1e-9
    r52 = check_rhinf_characterization(space, w)
    assert r52.verdict == "pass"
    # the right bound is an equality; the left bound holds with slack
    # exp(1/2) - e/((1+e)/2), which is forced by the definitions
    assert abs(r52.detail["upper.lhs"] - r52.detail["upper.rhs"]) <= 1e-9
    assert r52.detail["lower.lhs"] <= r52.detail["lower.rhs"] + 1e-9
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 1.0,
            f"worked-example table within 1e-5, tight bounds within 1e-9, "
            f"{elapsed:.2f}s < 1s")


def test_criterion_2_randomized_theorem_suite():
    required = ["commutation.natural_max", "commutation.natural_min",
                "oscillation.blo", "oscillation.buo",
                "harnack.a1_pair", "harnack.rhinf_ap_pair",
                "a1_characterization", "rhinf_characterization",
                "converse_chain.w", "converse_chain.mw", "converse_chain.final",
                "power_props.log_scaling", "power_props.a1_from_power",
                "power_props.ap_forward", "power_props.ap_converse",
                "multiplier", "duality.ap", "duality.oscillation",
                "unquantified.naive_extremal",
                "factorization.reconstruction", "factorization.w1_bounds",
                "factorization.w2_ap", "factorization.w2_rhinf"]
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    failures = []
    seen = set()
    for k in range(200):
        space, weights = sample_instance(rng, 64)
        assert space.n <= 64
        reports = run_suite(space, weights, label=f"i{k:03d}.")
        for r in reports:
            if r.hard:
                seen.add(r.check_id.split(".", 2)[-1])
                if r.verdict != "pass":
                    failures.append((k, r.check_id, r.lhs, r.rhs))
    elapsed = time.perf_counter() - t0
    missing = [c for c in required if c not in seen]
    assert not missing, f"checks never exercised: {missing}"
    verdict(2, not failures and elapsed < 60.0,
            f"200 instances, {len(seen)} distinct hard check kinds, "
            f"{len(failures)} failures, {elapsed:.1f}s < 60s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_op = 0.0
    worst_const = 0.0
    for k in range(25):
        space = sample_space(rng, 100)
        assert space.n <= 100
        f = rng.normal(0.0, 2.0, size=space.n)
        w = sample_weight(rng, space)
        for fast_fn, naive_fn in [(maximal, maximal_naive),
                                  (minimal, minimal_naive),
                                  (natural_maximal, natural_maximal_naive),
                                  (natural_minimal, natural_minimal_naive)]:
            fast = fast_fn(space, f).values
            naive = naive_fn(space, f)
            scale = np.maximum(np.abs(naive), 1e-300)
            worst_op = max(worst_op, float(np.abs(fast - naive).max()
                                           / scale.max()))
        logw = np.log(w)
        pairs = [
            (ap_constant(space, w, 2.0).value, oracles.ap_naive(space, w, 2.0)),
            (a1_constant(space, w).value, oracles.a1_naive(space, w)),
            (ainf_constant(space, w).value, oracles.ainf_naive(space, w)),
            (rhs_constant(space, w, 2.0).value, oracles.rhs_naive(space, w, 2.0)),
            (rhinf_constant(space, w).value, oracles.rhinf_naive(space, w)),
            (bmo_norm(space, logw).value, oracles.bmo_naive(space, logw)),
            (blo_norm(space, logw).value, oracles.blo_naive(space, logw)),
            (buo_norm(space, logw).value, oracles.buo_naive(space, logw)),
        ]
        for got, want in pairs:
            worst_const = max(worst_const,
                              abs(got - want) / max(abs(want), 1.0))
    verdict(3, worst_op <= 1e-12 and worst_const <= 1e-12,
            f"25 instances n<=100: operator dev {worst_op:.2e}, "
            f"constant dev {worst_const:.2e}, both <= 1e-12")


def test_criterion_4_exact_identity_suite():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(100):
        space = sample_space(rng, 32)
        f = rng.normal(0.0, 2.0, size=space.n)
        w = sample_weight(rng, space)
        # natural-operator duality, bit for bit
        lhs = natural_maximal(space, f).values
        rhs = -natural_minimal(space, -f).values
        assert np.array_equal(lhs, rhs)
        # oscillation flip, bit for bit
        buo, blo = buo_norm(space, -f), blo_norm(space, f)
        assert buo.value == blo.value and buo.witness == blo.witness
        # positive homogeneity
        a = float(rng.uniform(0.25, 4.0))
        for norm in (blo_norm, buo_norm):
            x, y = norm(space, a * f).value, a * norm(space, f).value
            worst = max(worst, abs(x - y) / max(abs(y), 1.0))
        # conjugate-exponent identity
        p = float(rng.choice([1.5, 2.0, 3.0]))
        x = ap_constant(space, np.power(w, 1.0 - p), p).value
        y = ap_constant(space, w, p / (p - 1.0)).value ** (p - 1.0)
        worst = max(worst, abs(x - y) / max(abs(y), 1.0))
        # both limiting-class form equivalences
        res = a1_constant(space, w)
        worst = max(worst, abs(res.value - res.alt_value) / res.value)
        res = rhinf_constant(space, w)
        worst = max(worst, abs(res.value - res.alt_value) / res.value)
    verdict(4, worst <= 1e-12,
            f"100 instances: worst exact-identity deviation {worst:.2e} <= 1e-12")


def test_criterion_5_factorization():
    rng = np.random.default_rng(13)
    worst_recon = 0.0
    all_bounds = True
    for k in range(30):
        space = sample_space(rng, 32)
        w = sample_weight(rng, space)
        p = float(rng.uniform(1.3, 3.0))
        s = float(rng.uniform(1.3, 3.0))
        pair = refined_jones(space, w, p, s, FactorOptions())
        worst_recon = max(worst_recon,
                          float(np.abs(pair.w1 * pair.w2 / w - 1.0).max()))
        all_bounds &= aggregate_verdict(verify_factorization(space, w, pair))
    worst_gap = 0.0
    for n in (2, 3, 4, 5):
        rng_n = np.random.default_rng(n)
        space = sample_space(rng_n, n, kind="random-points")
        u = np.exp(rng_n.uniform(-2.0, 2.0, size=space.n))
        q = float(rng_n.uniform(1.5, 3.5))
        res = jones_factor(space, u, q)
        oracle_val, _ = oracles.jones_grid_oracle(space, u, q, step=0.25)
        worst_gap = max(worst_gap, abs(res.objective - oracle_val))
    verdict(5, worst_recon <= 1e-12 and all_bounds and worst_gap <= 1e-2,
            f"reconstruction dev {worst_recon:.2e} <= 1e-12, bounds pass, "
            f"grid-oracle gap {worst_gap:.2e} <= 1e-2")


def test_criterion_6_annular_decay():
    space2 = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), "explicit-matrix",
                         [0.5, 0.5])
    res = annular_decay_constant(space2, alpha=1.0, r_min=2.0)
    ok = (abs(res.value - 1.0) <= 1e-12 and abs(res.witness_delta - 0.5) <= 1e-12)
    worst = 0.0
    for n in (5, 8, 13):
        grid = build_space(np.arange(float(n)), "l1", np.full(n, 1.0 / n))
        got = annular_decay_constant(grid, 1.0, 2.0).value
        want = oracles.annular_naive(grid, 1.0, 2.0)
        worst = max(worst, abs(got - want) / want)
    verdict(6, ok and worst <= 1e-12,
            f"two-point constant 1 at delta=1/2; grid-vs-oracle dev {worst:.2e}")


def test_criterion_7_performance():
    import gc

    sizes = [250, 500, 1000, 2000]
    dims = {250: (10, 25), 500: (20, 25), 1000: (25, 40), 2000: (40, 50)}
    times = {}
    t2000_total = None
    for n in sizes:
        nx, ny = dims[n]
        space = generate("grid", {"nx": nx, "ny": ny}, seed=1)
        assert space.n == n
        g = np.random.default_rng(5).uniform(0.1, 5.0, size=n)
        gc.collect()
        t0 = time.perf_counter()
        space.ball_family  # build the index outside the timed kernel
        build_time = time.perf_counter() - t0
        # min over repeats, robust against transient machine load; every size
        # is timed for at least 0.1 s, so a slow phase of the host cannot
        # cover all the calls of one size and none of another's
        best, spent, calls = np.inf, 0.0, 0
        while spent < 0.1 or calls < 8:
            t0 = time.perf_counter()
            maximal(space, g)
            took = time.perf_counter() - t0
            best, spent, calls = min(best, took), spent + took, calls + 1
        times[n] = best
        if n == 2000:
            t2000_total = build_time + best
        del space
    ns = np.log(np.array(sizes, dtype=float))
    ts = np.log(np.array([times[n] for n in sizes]))
    slope = float(np.polyfit(ns, ts, 1)[0])
    ok = t2000_total < 5.0 and 1.8 <= slope <= 2.4
    verdict(7, ok,
            f"n=2000 evaluation {t2000_total:.2f}s < 5s "
            f"(sweep {times[2000] * 1e3:.0f}ms), scaling exponent "
            f"{slope:.2f} in [1.8, 2.4]")
