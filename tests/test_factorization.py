import warnings

import numpy as np
import pytest

import oracles
from weightlab import (
    FactorOptions,
    InconsistentPair,
    InvalidParams,
    NonpositiveWeight,
    WeightlabError,
    aggregate_verdict,
    generate,
    jones_factor,
    refined_jones,
    refined_transform,
    verify_factorization,
)
from weightlab import a1_constant
from weightlab.factorization import GAP_RTOL, SUITE_OPTIONS, FactorPair
from weightlab.families import sample_space, sample_weight

E = np.e
FULL = FactorOptions()


def line_objective_naive(space, u, q, ts):
    """max(A_1(v1), A_1(v2)) at v1 = u**(1-t), v2 = u**(-t/(q-1)) for each t, by enumeration."""
    best = np.ones(ts.size)
    for m in oracles.balls_naive(space):
        mu = space.measure[m]
        for v in (u[m] ** (1.0 - ts[:, None]), u[m] ** (-ts[:, None] / (q - 1.0))):
            np.maximum(best, (v @ mu) / mu.sum() / v.min(axis=1), out=best)
    return best


class TestRefinedTransform:
    def test_unit_inputs(self):
        pair = refined_transform(np.ones(3), np.ones(3), 2.0, 2.0)
        assert np.array_equal(pair.w1, np.ones(3))
        assert np.array_equal(pair.w2, np.ones(3))
        assert pair.q == 3.0

    def test_two_point_worked(self, two_point):
        pair = refined_transform(np.array([1.0, E]), np.ones(2), 2.0, 2.0,
                                 space=two_point)
        assert pair.w1 == pytest.approx([1.0, np.sqrt(E)], rel=1e-15)
        assert np.array_equal(pair.w2, np.ones(2))
        assert pair.certificates["a1_v2"] == pytest.approx(1.0, rel=1e-12)

    def test_reconstruction_identity_randomized(self, two_point):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v1 = np.exp(rng.uniform(-2, 2, size=2))
            v2 = np.exp(rng.uniform(-2, 2, size=2))
            p, s = float(rng.uniform(1.3, 3.0)), float(rng.uniform(1.3, 3.0))
            pair = refined_transform(v1, v2, p, s)
            target = np.power(v1 * v2 ** (-s * (p - 1.0)), 1.0 / s)
            assert pair.w1 * pair.w2 == pytest.approx(target, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonpositiveWeight):
            refined_transform(np.array([1.0, -1.0]), np.ones(2), 2.0, 2.0)
        with pytest.raises(InvalidParams):
            refined_transform(np.ones(2), np.ones(2), 1.0, 2.0)


class TestJonesFactor:
    def test_constant_weight_finds_constant_split(self, three_path):
        res = jones_factor(three_path, np.full(3, 4.0), 3.0, FULL)
        assert res.objective == pytest.approx(1.0, rel=1e-12)
        assert res.a1_v1 == pytest.approx(1.0, rel=1e-12)
        assert res.a1_v2 == pytest.approx(1.0, rel=1e-12)

    def test_two_point_grid_oracle(self, two_point):
        u = np.array([1.0, E ** 2])
        res = jones_factor(two_point, u, 3.0)
        start_val = oracles.jones_objective_naive(two_point, u, 3.0, np.zeros(2))
        assert res.objective <= start_val + 1e-12
        # dense 1-d scan over log v2(b) with the gauge log v2(a) = 0
        ts = np.arange(-2.0, 2.0 + 5e-4, 1e-3)
        grid_best = min(oracles.jones_objective_naive(two_point, u, 3.0,
                                                      np.array([0.0, t]))
                        for t in ts)
        assert res.objective <= grid_best + 1e-3
        assert abs(res.objective - grid_best) <= 1e-3
        # analytic optimum of this instance: balance |2 + 2t| against |t|
        assert res.objective == pytest.approx((1 + np.exp(2.0 / 3.0)) / 2, abs=1e-6)

    def test_suite_preset_finds_the_best_power_split(self, two_point):
        # on two points every split is a power split up to the constant
        # gauge, so the line reaches the analytic optimum, certified: one
        # scan at the line's two ends, one at the crossing of their balls
        res = jones_factor(two_point, np.array([1.0, E ** 2]), 3.0, SUITE_OPTIONS)
        assert res.objective == pytest.approx((1 + np.exp(2.0 / 3.0)) / 2, abs=1e-12)
        assert res.converged and res.lower_bound <= res.objective
        assert res.evaluations <= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_line_reaches_the_naive_line_minimum(self, seed):
        rng = np.random.default_rng(40 + seed)
        space = sample_space(rng, 32)
        u = sample_weight(rng, space)
        q = float(rng.uniform(1.5, 4.0))
        best = line_objective_naive(space, u, q, np.linspace(0.0, 1.0, 2001)).min()
        res = jones_factor(space, u, q, SUITE_OPTIONS)
        assert res.objective <= best * (1.0 + 1e-12)
        assert res.lower_bound <= best
        assert res.converged and res.evaluations <= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_full_search_is_certified(self, seed):
        rng = np.random.default_rng(60 + seed)
        space = sample_space(rng, 24)
        u = sample_weight(rng, space)
        q = float(rng.uniform(1.5, 4.0))
        res = jones_factor(space, u, q, FULL)
        assert res.lower_bound <= res.objective
        assert res.objective - res.lower_bound <= 1e-5 * res.objective
        for v, a1 in ((res.v1, res.a1_v1), (res.v2, res.a1_v2)):
            assert a1_constant(space, v).value == pytest.approx(a1, rel=1e-12)
        assert max(res.a1_v1, res.a1_v2) == pytest.approx(res.objective, rel=1e-12)
        # the whole space contains the line
        assert res.objective <= jones_factor(space, u, q, SUITE_OPTIONS).objective

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_small_instances_match_refined_grid(self, n):
        rng = np.random.default_rng(n)
        space = sample_space(rng, n, kind="random-points")
        u = np.exp(rng.uniform(-2.0, 2.0, size=space.n))
        q = float(rng.uniform(1.5, 3.5))
        res = jones_factor(space, u, q)
        oracle_val, _ = oracles.jones_grid_oracle(space, u, q, step=0.25)
        assert abs(res.objective - oracle_val) <= 1e-2

    def test_structural_reconstruction(self, three_path):
        rng = np.random.default_rng(5)
        u = np.exp(rng.uniform(-1.5, 1.5, size=3))
        res = jones_factor(three_path, u, 2.5, FULL)
        assert res.v1 * res.v2 ** (1.0 - 2.5) == pytest.approx(u, rel=1e-12)

    def test_certificate_monotonicity(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            space = sample_space(rng, 12)
            u = sample_weight(rng, space)
            q = float(rng.uniform(1.5, 4.0))
            at_ones = oracles.jones_objective_naive(space, u, q, np.zeros(space.n))
            for options in (FULL, SUITE_OPTIONS):
                res = jones_factor(space, u, q, options)
                assert res.objective <= at_ones + 1e-12 * at_ones

    def test_determinism(self, three_path):
        u = np.array([1.0, 3.0, 0.5])
        a = jones_factor(three_path, u, 2.0, FULL)
        b = jones_factor(three_path, u, 2.0, FULL)
        assert np.array_equal(a.v2, b.v2)
        assert a.objective == b.objective
        assert (a.lower_bound, a.evaluations) == (b.lower_bound, b.evaluations)

    @pytest.mark.parametrize("options", [SUITE_OPTIONS, FULL], ids=["line", "full"])
    def test_search_is_certified(self, three_path, options):
        res = jones_factor(three_path, np.array([1.0, 3.0, 0.5]), 2.0, options)
        assert res.converged
        assert res.lower_bound <= res.objective <= res.lower_bound * (1.0 + GAP_RTOL)

    def test_infinite_objective_stops_when_no_ball_is_new(self, monkeypatch):
        # u = w**2 overflows a certificate at every x the search probes; each
        # scan but the last adds a witness ball, so the scans are finite
        space = generate("path", {"n": 6}, seed=0)
        u = np.array([1e-150, 1.0, 1.0, 1.0, 1.0, 1e150]) ** 2
        fam = space.ball_family
        calls = 0
        scan = fam.scan

        def counted(reducers):
            nonlocal calls
            calls += 1
            return scan(reducers)

        monkeypatch.setattr(fam, "scan", counted)
        with pytest.raises(InvalidParams, match="at every probed point"):
            jones_factor(space, u, 1.2, FULL)
        assert calls <= 2 * np.count_nonzero(oracles.ball_ends(space)) + 1


class TestRefinedJones:
    def test_constant_weight(self, three_path):
        pair = refined_jones(three_path, np.full(3, 2.0), 2.0, 2.0, FULL)
        assert pair.w1 * pair.w2 == pytest.approx(np.full(3, 2.0), rel=1e-12)
        for cert in pair.certificates.values():
            assert cert == pytest.approx(1.0, rel=1e-9)

    def test_two_point_worked(self, two_point):
        pair = refined_jones(two_point, np.array([1.0, E]), 2.0, 2.0)
        assert pair.w1 * pair.w2 == pytest.approx([1.0, E], rel=1e-12)
        assert pair.q == 3.0
        assert all(np.isfinite(v) and v >= 1.0 - 1e-12
                   for v in pair.certificates.values())

    def test_overflowing_weight_factors(self):
        # A_1(w**2) overflows at v2 = 1, but the power split w**(1/2) * w**(1/2)
        # has finite certificates, and every bound holds there
        space = generate("path", {"n": 6}, seed=0)
        w = np.array([1e-150, 1.0, 1.0, 1.0, 1.0, 1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pair = refined_jones(space, w, 2.0, 2.0, SUITE_OPTIONS)
            reports = verify_factorization(space, w, pair)
        assert [r.verdict for r in reports] == ["pass"] * 4

    def test_overflowing_certificates_raise(self):
        # at q = 1.2 no power split keeps both certificates finite, and the
        # far end overflows v2 = exp(x) to [inf, ..., 0], whose NaN certificate
        # must not pass for a finite objective; the overflow is reported by
        # the error alone, never by a RuntimeWarning
        space = generate("path", {"n": 6}, seed=0)
        w = np.array([1e-150, 1.0, 1.0, 1.0, 1.0, 1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(WeightlabError, match="non-finite.*at every probed point"):
                refined_jones(space, w, 1.1, 2.0, SUITE_OPTIONS)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_reconstruction_and_bounds(self, seed):
        rng = np.random.default_rng(300 + seed)
        space = sample_space(rng, 32)
        w = sample_weight(rng, space)
        p = float(rng.uniform(1.3, 3.0))
        s = float(rng.uniform(1.3, 3.0))
        pair = refined_jones(space, w, p, s, FULL)
        reports = verify_factorization(space, w, pair)
        assert aggregate_verdict(reports), [
            (r.check_id, r.lhs, r.rhs) for r in reports if r.verdict != "pass"]


class TestVerifyFactorization:
    def test_certificate_bounds_rederived_on_two_point(self, two_point):
        # (b)-(d) are exact consequences; scan random 2-point pairs by brute
        # force before trusting the vectorized assertions
        rng = np.random.default_rng(9)
        for _ in range(30):
            v1 = np.exp(rng.uniform(-2, 2, size=2))
            v2 = np.exp(rng.uniform(-2, 2, size=2))
            p, s = float(rng.uniform(1.2, 3.0)), float(rng.uniform(1.2, 3.0))
            w1, w2 = v1 ** (1.0 / s), v2 ** (1.0 - p)
            a1_v1 = oracles.a1_naive(two_point, v1)
            a1_v2 = oracles.a1_naive(two_point, v2)
            slack = 1 + 1e-12
            assert oracles.a1_naive(two_point, w1) <= a1_v1 ** (1 / s) * slack
            assert oracles.rhs_naive(two_point, w1, s) <= a1_v1 ** (1 / s) * slack
            assert oracles.ap_naive(two_point, w2, p) <= a1_v2 ** (p - 1) * slack
            rhinf_w2 = oracles.rhinf_naive(two_point, w2)
            exp_blo = np.exp((p - 1) * oracles.blo_naive(two_point, np.log(v2)))
            assert rhinf_w2 <= exp_blo * slack
            assert exp_blo <= a1_v2 ** (p - 1) * slack

    def test_constant_pair_tight_at_one(self, three_path):
        w = np.full(3, 5.0)
        pair = refined_transform(np.full(3, 5.0 ** 2), np.ones(3), 2.0, 2.0,
                                 space=three_path)
        reports = verify_factorization(three_path, w, pair)
        assert aggregate_verdict(reports)
        for r in reports[1:]:
            assert r.rhs == pytest.approx(max(r.lhs, 1.0), rel=1e-9)

    def test_adversarial_pair_fails_reconstruction(self, two_point):
        w = np.array([1.0, E])
        v2 = np.ones(2)
        v1 = np.array([4.0, 4.0 * E ** 2])  # wrong product, consistent fields
        pair = refined_transform(v1, v2, 2.0, 2.0)
        reports = verify_factorization(two_point, w, pair)
        recon = reports[0]
        assert recon.check_id == "factorization.reconstruction"
        assert recon.verdict == "fail"
        assert not aggregate_verdict(reports)

    def test_tampered_pair_raises(self, two_point):
        pair = refined_jones(two_point, np.array([1.0, E]), 2.0, 2.0, FULL)
        bad = FactorPair(pair.v1, pair.v2, pair.w1 * 1.000001, pair.w2,
                         pair.p, pair.s, pair.q, pair.certificates)
        with pytest.raises(InconsistentPair):
            verify_factorization(two_point, np.array([1.0, E]), bad)
