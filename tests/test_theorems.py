import functools
import gc
import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from weightlab import operators, theorems
from weightlab import space as space_module
from weightlab import (
    SuiteParams,
    Tolerances,
    a1_constant,
    aggregate_verdict,
    check_a1_characterization,
    check_commutation,
    check_converse_chain,
    check_duality,
    check_harnack,
    check_multiplier,
    check_oscillation_characterization,
    check_power_props,
    check_rhinf_characterization,
    generate,
    maximal,
    refined_jones,
    report_unquantified,
    run_suite,
    verify_factorization,
)
from weightlab.factorization import SUITE_OPTIONS
from weightlab.families import sample_instance, sample_space, sample_weight
from weightlab.report import digest, error_report, inequality_report, reports_to_jsonl
from weightlab.space import BallFamily
from weightlab.theorems import _naive_extremal_report, _probe_points
from weightlab.weights import blo_norm, buo_norm

E = np.e
W2 = np.array([1.0, E])


def assert_all_pass(reports):
    for r in reports:
        assert r.verdict in ("pass", "soft-report"), \
            f"{r.check_id}: lhs={r.lhs!r} rhs={r.rhs!r} detail={r.detail}"


class TestWorkedExample:
    def test_commutation_tight(self, two_point):
        reports = check_commutation(two_point, W2)
        assert len(reports) == 2
        assert_all_pass(reports)
        upper = reports[0]
        # gap at the first point: log((1+e)/2) - 1/2 equals log A_inf exactly
        assert upper.detail["upper.lhs"] == pytest.approx(
            np.log((1 + E) / 2) - 0.5, rel=1e-12)
        assert upper.detail["upper.lhs"] == pytest.approx(
            upper.detail["upper.rhs"], abs=1e-9)

    def test_oscillation_equalities(self, two_point):
        reports = check_oscillation_characterization(two_point, np.array([0.0, 1.0]))
        assert_all_pass(reports)
        for r in reports:
            assert r.lhs == pytest.approx(0.5) and r.margin == 0.0

    def test_harnack(self, two_point):
        reports = check_harnack(two_point, W2, 2.0)
        assert_all_pass(reports)
        a1_pair = reports[0]
        assert a1_pair.lhs == pytest.approx(E, rel=1e-12)
        # [w]_1 * [1/w]_1 = ((1+e)/2)^2 since [1/w]_1 = ((1+1/e)/2)/(1/e)
        assert a1_pair.rhs == pytest.approx(((1 + E) / 2) ** 2, rel=1e-12)

    def test_a1_characterization_right_bound_tight(self, two_point):
        r = check_a1_characterization(two_point, W2)
        assert r.verdict == "pass"
        assert r.detail["upper.lhs"] == pytest.approx(r.detail["upper.rhs"], abs=1e-9)
        assert r.detail["lower.lhs"] == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_rhinf_characterization_right_bound_tight(self, two_point):
        r = check_rhinf_characterization(two_point, W2)
        assert r.verdict == "pass"
        assert r.detail["upper.lhs"] == pytest.approx(r.detail["upper.rhs"], abs=1e-9)
        # exp BUO = sqrt(e); the lower bound holds strictly here
        assert r.detail["upper.lhs"] == pytest.approx(np.exp(0.5), rel=1e-12)
        assert r.detail["lower.lhs"] == pytest.approx(E / ((1 + E) / 2), rel=1e-12)

    def test_converse_chain(self, two_point):
        assert_all_pass(check_converse_chain(two_point, W2))

    def test_multiplier_additive_case(self, two_point):
        r = check_multiplier(two_point, W2, W2)
        assert r.verdict == "pass"
        assert r.detail["subadd.lhs"] == pytest.approx(1.0, rel=1e-12)
        assert r.detail["subadd.rhs"] == pytest.approx(1.0, rel=1e-12)

    def test_duality(self, two_point):
        reports = check_duality(two_point, W2, 2.0)
        assert_all_pass(reports)
        assert reports[0].lhs == pytest.approx(1.27154, abs=1e-5)

    def test_power_props(self, two_point):
        assert_all_pass(check_power_props(two_point, W2, 2.0, 2.0))


class TestConstantWeight:
    def test_everything_collapses(self, three_path):
        w = np.full(3, 2.5)
        reports = (check_commutation(three_path, w)
                   + check_oscillation_characterization(three_path, np.log(w))
                   + check_harnack(three_path, w, 2.0)
                   + [check_a1_characterization(three_path, w),
                      check_rhinf_characterization(three_path, w),
                      check_multiplier(three_path, w, w)]
                   + check_converse_chain(three_path, w)
                   + check_power_props(three_path, w, 2.0, 2.0)
                   + check_duality(three_path, w, 2.0))
        assert_all_pass(reports)


class TestPowerPropsDerivation:
    """Re-derive the quantitative power bounds by brute force on 2-point
    spaces before trusting the vectorized assertions."""

    @pytest.mark.parametrize("s,p", [(2.0, 2.0), (1.5, 3.0), (3.0, 1.5)])
    def test_bruteforce_two_point(self, two_point, s, p):
        rng = np.random.default_rng(4)
        for _ in range(25):
            w = np.exp(rng.uniform(-2, 2, size=2))
            q = s * (p - 1.0) + 1.0
            ws = w ** s
            a1_w = oracles.a1_naive(two_point, w)
            ainf_w = oracles.ainf_naive(two_point, w)
            a1_ws = oracles.a1_naive(two_point, ws)
            aq_ws = oracles.ap_naive(two_point, ws, q)
            ap_w = oracles.ap_naive(two_point, w, p)
            rhs_w = oracles.rhs_naive(two_point, w, s)
            slack = 1e-12
            assert a1_w <= ainf_w * a1_ws ** (1 / s) * (1 + slack)
            assert aq_ws <= (ap_w * rhs_w) ** s * (1 + slack)
            assert ap_w <= aq_ws ** (1 / s) * (1 + slack)
            assert rhs_w <= aq_ws ** (1 / s) * (1 + slack)

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized(self, seed):
        rng = np.random.default_rng(200 + seed)
        space, weights = sample_instance(rng, 32)
        s = float(rng.uniform(1.2, 3.0))
        p = float(rng.uniform(1.2, 3.0))
        assert_all_pass(check_power_props(space, weights["w"], s, p))


class TestRandomizedChecks:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_hard_checks(self, seed):
        rng = np.random.default_rng(1000 + seed)
        space, weights = sample_instance(rng, 48)
        w, phi = weights["w"], weights["phi"]
        reports = (check_commutation(space, w)
                   + check_oscillation_characterization(space, np.log(w))
                   + check_harnack(space, w, 2.0)
                   + [check_a1_characterization(space, w),
                      check_rhinf_characterization(space, w),
                      check_multiplier(space, phi, w)]
                   + check_converse_chain(space, w)
                   + check_duality(space, w, 3.0))
        assert_all_pass(reports)

    def test_oscillation_on_raw_functions(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            space = sample_space(rng, 32)
            f = rng.normal(0.0, 3.0, size=space.n)
            assert_all_pass(check_oscillation_characterization(space, f))


class TestInfiniteSides:
    def test_harnack_passes_on_an_infinite_bound(self):
        # A_1(w) A_1(1/w) overflows to inf while max/min over a ball is 1e300
        space = generate("path", {"n": 6}, seed=0)
        w = np.array([1e-150, 1.0, 1.0, 1.0, 1.0, 1e150])
        reports = check_harnack(space, w, 2.0)
        assert [r.rhs for r in reports] == [np.inf, np.inf]
        assert_all_pass(reports)

    @pytest.mark.parametrize("lhs, rhs, verdict", [
        (1.0, np.inf, "pass"), (-np.inf, 1.0, "pass"),
        (np.inf, 1.0, "fail"), (1.0, -np.inf, "fail"),
        (np.inf, np.inf, "fail"), (np.nan, 1.0, "fail"),
    ])
    def test_inequality_side(self, lhs, rhs, verdict):
        assert inequality_report("x", [("side", lhs, rhs)], 1e-9).verdict == verdict

    def test_infinite_slack_never_binds(self):
        report = inequality_report("x", [("loose", 1.0, np.inf), ("tight", 2.0, 2.0)], 1e-9)
        assert report.detail["binding"] == "tight" and report.verdict == "pass"


# products and quotients of these weights leave the double range
EXTREME_WEIGHTS = [
    np.array([1e-150, 1.0, 1.0, 1.0, 1.0, 1e150]),
    np.array([1e-160, 1.0, 2.0, 1.0, 1.0, 1e-10]),
]


class TestExtremeRange:
    def test_multiplier_sums_the_logs(self):
        # phi w holds 1e-320, a subnormal whose log keeps about 8 digits
        space = generate("path", {"n": 6}, seed=0)
        w = EXTREME_WEIGHTS[1]
        report = check_multiplier(space, w, w)
        assert report.verdict == "pass"
        assert report.lhs == pytest.approx(368.4136148790473, rel=1e-12)
        assert report.rhs == pytest.approx(report.lhs, rel=1e-12)

    @pytest.mark.parametrize("w", EXTREME_WEIGHTS)
    def test_error_entries_carry_the_inputs_digest(self, w):
        space = generate("path", {"n": 6}, seed=0)
        reports = run_suite(space, {"w": w})
        errors = [r for r in reports if r.verdict == "error"]
        passed = {r.inputs for r in reports
                  if r.verdict == "pass" and not r.check_id.endswith("multiplier")}
        assert errors and len(passed) == 1
        assert {r.inputs for r in errors} == passed

    @pytest.mark.parametrize("w", EXTREME_WEIGHTS)
    def test_no_numpy_warning_is_raised(self, w):
        space = generate("path", {"n": 6}, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = run_suite(space, {"w": w})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = run_suite(space, {"w": w})
        assert [(r.check_id, r.verdict) for r in strict] == \
            [(r.check_id, r.verdict) for r in quiet]

    def test_subnormal_power_is_an_error_not_a_fail(self):
        # w**2 holds the subnormal 1e-320, whose few digits would fail the
        # reconstruction as a floating-point artifact, not as a verdict
        space = generate("path", {"n": 6}, seed=0)
        reports = run_suite(space, {"w": EXTREME_WEIGHTS[1]})
        assert not [r.check_id for r in reports if r.verdict == "fail"]
        [entry] = [r for r in reports if r.check_id == "w.factorization"]
        assert entry.verdict == "error" and "subnormal" in entry.detail["error"]
        digest = next(r.inputs for r in reports if r.check_id == "w.a1_characterization")
        assert entry.inputs == digest


class TestReportUnquantified:
    def test_constant_weight_not_applicable(self, three_path):
        reports = report_unquantified(three_path, np.full(3, 2.0), 2.0)
        soft = reports[0]
        assert soft.verdict == "soft-report"
        assert soft.detail["ratio_blo_Mf"] is None
        assert_all_pass(reports)

    def test_worked_example_identities(self, two_point):
        reports = report_unquantified(two_point, W2, 2.0)
        soft = reports[0]
        assert soft.detail["bmo_f"] == pytest.approx(0.5)
        assert soft.detail["a1_Mw"] >= 1.0
        hard = [r for r in reports if r.hard]
        assert [(r.check_id, r.verdict) for r in hard] == \
            [("unquantified.naive_extremal", "pass")]
        assert hard[0].margin <= 1e-15  # two-term dot products against the sweep

    @pytest.mark.parametrize("point", [0, 2])
    def test_sweep_defect_fails_the_naive_check(self, monkeypatch, point):
        space = generate("random-points", {"n": 12, "measure": "random"}, seed=4)
        w = sample_weight(np.random.default_rng(4), space, "uniform-log")
        x = int(_probe_points(space.n)[point])
        raw = operators._natural_extremal.__wrapped__

        def defective(space, f):
            out = yield from raw(space, f)
            bump = np.zeros(space.n)
            bump[x] = 1e-6
            return replace(out, values=out.values + bump)

        assert_all_pass(report_unquantified(space, w, 2.0))
        monkeypatch.setattr(operators, "_natural_extremal", operators._memoized(defective))
        hard = [r for r in report_unquantified(space, w, 2.0) if r.hard]
        assert [r.verdict for r in hard] == ["fail"]
        assert hard[0].margin == pytest.approx(1e-6, rel=1e-6)

    def test_grid_family_ratio_table(self):
        # growth inspection table over square grids, fixed weight law
        from weightlab import generate
        for n in (16, 64, 256):
            side = int(np.sqrt(n))
            space = generate("grid", {"nx": side, "ny": side}, seed=1)
            rng = np.random.default_rng(5)
            w = sample_weight(rng, space, "uniform-log")
            soft = report_unquantified(space, w, 2.0)[0]
            assert np.isfinite(soft.detail["rhs_Mw"])
            assert soft.detail["a1_Mw"] >= 1.0 - 1e-12
            assert soft.detail["ratio_blo_Mnat_f"] > 0.0


class TestRunSuite:
    def test_constant_weight_passes(self, three_path):
        reports = run_suite(three_path, {"w": np.full(3, 1.5)})
        assert aggregate_verdict(reports)

    def test_corrupted_report_fails_aggregate(self, three_path):
        reports = run_suite(three_path, {"w": np.array([1.0, 2.0, 0.5])})
        assert aggregate_verdict(reports)
        bad = replace(reports[0], verdict="fail")
        assert not aggregate_verdict([bad] + reports[1:])

    def test_error_becomes_failed_entry(self, three_path):
        # nonpositive weight: every check errors, the suite still completes
        reports = run_suite(three_path, {"w": np.array([1.0, -1.0, 2.0])},
                            SuiteParams(include_factorization=False,
                                        include_soft=False))
        assert reports, "suite must emit entries"
        assert all(r.verdict == "error" for r in reports if r.hard)
        assert not aggregate_verdict(reports)

    def test_inputs_digest_the_space_and_each_weight(self):
        rng = np.random.default_rng(5)
        space, weights = sample_instance(rng, 24)
        weights["v"] = sample_weight(rng, space)
        p, s = 3.0, 1.5
        reports = run_suite(space, weights, SuiteParams(p=p, s=s))
        want = {name: digest(space.dist, space.measure, w, p, s) for name, w in weights.items()}
        phi, w = list(weights.values())[:2]
        want["w*phi"] = digest(space.dist, space.measure, phi, w)
        assert len(set(want.values())) == len(want)
        for r in reports:
            assert r.inputs == want[r.check_id.split(".")[0]], r.check_id

    def test_determinism_byte_for_byte(self):
        def one_run():
            rng = np.random.default_rng(77)
            space, weights = sample_instance(rng, 24)
            return reports_to_jsonl(run_suite(space, weights))

        assert one_run() == one_run()

    def test_seeded_batch(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            space, weights = sample_instance(rng, 40)
            reports = run_suite(space, weights)
            assert aggregate_verdict(reports), [
                (r.check_id, r.lhs, r.rhs) for r in reports
                if r.hard and r.verdict != "pass"]

    @staticmethod
    def _tied_instance():
        space = generate("grid", {"nx": 4, "ny": 5, "metric": "linf"}, seed=3)
        rng = np.random.default_rng(3)
        return space, {"w": rng.uniform(0.1, 5.0, size=space.n),
                       "phi": sample_weight(rng, space, "uniform-log")}

    @staticmethod
    def _count_kernel(monkeypatch):
        """Record the input bytes of every operator kernel run."""
        raw = operators._natural_extremal.__wrapped__
        calls = []

        def counted(space, f):
            calls.append(f.tobytes())
            return (yield from raw(space, f))

        monkeypatch.setattr(operators, "_natural_extremal", operators._memoized(counted))
        return calls

    @staticmethod
    def _direct_reports(space, weights, params):
        """What run_suite reports, from each check called alone outside any memo scope."""
        tol, p, s = params.tol, params.p, params.s
        reports = []

        def run(tag, name, check, inputs):
            try:
                reports.extend(replace(r, check_id=f"{tag}.{r.check_id}") for r in check())
            except Exception as exc:
                reports.append(error_report(f"{tag}.{name}", exc, inputs))

        for name, w in weights.items():
            inp = digest(space.dist, space.measure, w, p, s)
            for check_name, check in (
                    ("commutation", lambda: check_commutation(space, w, tol, inp)),
                    ("oscillation", lambda: check_oscillation_characterization(
                        space, np.log(w), tol, inp)),
                    ("harnack", lambda: check_harnack(space, w, p, tol, inp)),
                    ("a1_characterization",
                     lambda: [check_a1_characterization(space, w, tol, inp)]),
                    ("rhinf_characterization",
                     lambda: [check_rhinf_characterization(space, w, tol, inp)]),
                    ("converse_chain", lambda: check_converse_chain(space, w, tol, inp)),
                    ("power_props", lambda: check_power_props(space, w, s, p, tol, inp)),
                    ("duality", lambda: check_duality(space, w, p, tol, inp)),
                    ("unquantified", lambda: report_unquantified(space, w, s, tol, inp))):
                run(name, check_name, check, inp)
            if name == next(iter(weights)):
                run(name, "factorization", lambda: verify_factorization(
                    space, w, refined_jones(space, w, p, s, SUITE_OPTIONS), tol, inputs=inp),
                    inp)
        phi, w = weights.values()
        tag = "*".join(weights)
        inp = digest(space.dist, space.measure, phi, w)
        run(tag, "multiplier", lambda: [check_multiplier(space, phi, w, tol, inp)], inp)
        return reports

    def test_memo_matches_direct_checks(self, monkeypatch):
        space, weights = self._tied_instance()
        # p' = 3/2 != p, so A_p of w is asked for at two exponents
        params = SuiteParams(p=3.0, s=2.0)
        assert reports_to_jsonl(run_suite(space, weights, params)) == \
            reports_to_jsonl(self._direct_reports(space, weights, params))

        # a weight from 1e-300 to 1e300: some checks raise, and the batches
        # must leave their error entries as the checks alone make them
        path = generate("path", {"n": 6}, seed=0)
        extreme = {"w": np.array([1e-300, 1.0, 1.0, 1.0, 1.0, 1e300]), "v": np.ones(6)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_suite(path, extreme)
            want = self._direct_reports(path, extreme, SuiteParams())
        assert reports_to_jsonl(got) == reports_to_jsonl(want)
        assert [(r.check_id, r.detail["error"]) for r in got if r.verdict == "error"] == [
            ("w.power_props", "InvalidFunction: function has non-finite entries"),
            ("w.unquantified", "InvalidFunction: function has non-finite entries"),
            ("w.factorization", "InvalidParams: w**s underflows to a subnormal; "
                                "the weight's dynamic range is too wide to factor")]

        # numpy warnings raised as errors, inside a round's shared scan too:
        # each lands on the call that raised it, never on the whole round
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = run_suite(path, extreme)
            want = self._direct_reports(path, extreme, SuiteParams())
        assert reports_to_jsonl(got) == reports_to_jsonl(want)
        assert len(got) == 33
        assert [r.check_id for r in got if r.verdict == "error"] == [
            "w.harnack", "w.a1_characterization", "w.converse_chain", "w.power_props",
            "w.unquantified", "w.factorization"]
        with np.errstate(all="raise"):
            got = run_suite(path, extreme)
            want = self._direct_reports(path, extreme, SuiteParams())
        assert reports_to_jsonl(got) == reports_to_jsonl(want)

        # scans that cut the centers into many row blocks, none of them the
        # index's own: each block's layout and masses are worked out afresh,
        # and an error there would land alike in both reports
        monkeypatch.setattr(space_module, "CHUNK_CELLS", 3 * space.n)
        assert len(list(space.ball_family.row_blocks())) == 7
        got = run_suite(space, weights, params)
        assert [r.check_id for r in got if r.verdict == "error"] == []
        want = self._direct_reports(space, weights, params)
        assert reports_to_jsonl(got) == reports_to_jsonl(want)

    def test_kernel_runs_once_per_input_and_side(self, monkeypatch):
        calls = self._count_kernel(monkeypatch)
        run_suite(*self._tied_instance())
        assert calls and len(calls) == len(set(calls))

    def test_memo_does_not_outlive_the_call(self, monkeypatch):
        calls = self._count_kernel(monkeypatch)
        space, weights = self._tied_instance()
        first = reports_to_jsonl(run_suite(space, weights))
        per_call = len(calls)
        assert reports_to_jsonl(run_suite(space, weights)) == first
        assert len(calls) == 2 * per_call
        calls.clear()
        for _ in range(2):
            maximal(space, weights["w"])
            a1_constant(space, weights["w"])
        assert len(calls) == 4  # one sweep per maximal and one per a1 cross-check

    @pytest.mark.parametrize("lower, upper", [
        (operators.natural_minimal, operators.natural_maximal),
        (buo_norm, blo_norm),
    ])
    def test_min_side_shares_the_max_side_of_minus_f(self, monkeypatch, lower, upper):
        space, weights = self._tied_instance()
        f = np.log(weights["w"])
        passes = []
        raw = BallFamily.averages_at_pos

        def counted(fam, g, rows=slice(None), **kwargs):
            passes.append(g.tobytes())
            return raw(fam, g, rows, **kwargs)

        monkeypatch.setattr(BallFamily, "averages_at_pos", counted)
        with operators._memo_scope():
            lower(space, f)
            upper(space, -f)
        assert passes == [(-f).tobytes()]

    def test_operator_outputs_are_read_only(self):
        space, weights = self._tied_instance()
        out = maximal(space, weights["w"])
        for arr in (out.values, out.witness_center, out.witness_rank, out.witness_radius):
            with pytest.raises(ValueError):
                arr[0] = arr[1]


class TestStreamedMemory:
    def test_two_weight_hard_suite_holds_no_full_table(self):
        space = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=1)
        space.ball_family  # the index is built before the measurement
        rng = np.random.default_rng(1)
        weights = {name: rng.uniform(0.1, 5.0, space.n) for name in ("w", "phi")}
        params = SuiteParams(include_soft=False, include_factorization=False)
        tracemalloc.start()
        try:
            reports = run_suite(space, weights, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_all_pass(reports)
        assert peak <= 0.25 * 8 * space.n ** 2

    def test_naive_extremal_check_holds_no_ball_matrix(self):
        space = generate("random-points", {"n": 1000}, seed=1)
        space.ball_family
        f = np.log(np.random.default_rng(1).uniform(0.1, 5.0, space.n))
        tracemalloc.start()
        try:
            report = _naive_extremal_report(space, f, Tolerances().eq, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "pass"
        # 4.65 x 8n^2 with every (ball, point) membership held as float64
        assert peak <= 0.5 * 8 * space.n ** 2


class TestSuiteBatches:
    @staticmethod
    def _count_builds(monkeypatch, rounds=()):
        """Record (kind, input bytes, rows, inside a round) of every table block built."""
        builds = []
        for name in ("averages_at_pos", "running_min_at_pos", "running_max_at_pos"):
            def counted(fam, f, rows=slice(None), raw=getattr(BallFamily, name), name=name,
                        **kwargs):
                out = raw(fam, f, rows, **kwargs)
                builds.append((name, f.tobytes(), out.shape[0], bool(rounds)))
                return out

            monkeypatch.setattr(BallFamily, name, counted)
        return builds

    @pytest.mark.parametrize("p, vectors", [(2.0, 33), (3.0, 38)])
    def test_each_table_is_built_once_and_only_in_the_batches(self, monkeypatch, p, vectors):
        # rebuilding the tables per functional took 67 n and 75 n rows of
        # averages; p' != p at p = 3
        space = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=1)
        rng = np.random.default_rng(1)
        weights = {name: rng.uniform(0.1, 5.0, space.n) for name in ("w", "phi")}
        rounds, plain = [], []
        builds = self._count_builds(monkeypatch, rounds)
        outcomes, evaluate = operators._outcomes, operators.evaluate

        def in_round(space, calls):
            rounds.append(calls)
            try:
                return outcomes(space, calls)
            finally:
                rounds.pop()

        monkeypatch.setattr(operators, "_outcomes", in_round)
        # the rounds of run_suite are the only other callers of _outcomes
        monkeypatch.setattr(operators, "evaluate",
                            lambda space, calls: plain.append(calls) or evaluate(space, calls))
        params = SuiteParams(p=p, include_soft=False, include_factorization=False)
        assert_all_pass(run_suite(space, weights, params))
        # a call the checks made outside their yields would build its tables there
        assert not plain
        assert all(in_a_round for *_, in_a_round in builds)
        rows = {}
        for name, f, n_rows, _ in builds:
            rows[name, f] = rows.get((name, f), 0) + n_rows
        assert set(rows.values()) == {space.n}  # every table once, over all its blocks
        assert sum(name == "averages_at_pos" for name, _ in rows) == vectors

    def test_a_check_alone_builds_each_table_once(self, monkeypatch):
        # outside any memo scope, one batch per yield: harnack alone built
        # avg w three times, and verifying a factor pair one table twice
        space, weights = TestRunSuite._tied_instance()
        w = weights["w"]
        pair = refined_jones(space, w, 2.0, 2.0, SUITE_OPTIONS)
        builds = self._count_builds(monkeypatch)
        for check in (lambda: check_harnack(space, w, 2.0),
                      lambda: verify_factorization(space, w, pair)):
            builds.clear()
            assert_all_pass(check())
            assert builds and len(builds) == len(set(builds))


class TestTracedWrappers:
    """The benchmark's tracer replaces public names with functools.wraps wrappers.

    The loop reaches each generator through a wrapper's copied `steps`.
    """

    @staticmethod
    def _traced(fn, log):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log.append(fn.__name__)
            return fn(*args, **kwargs)

        return traced

    def test_wrapped_names_give_the_same_reports_and_memo_entries(self, monkeypatch):
        space, weights = TestRunSuite._tied_instance()
        w = weights["w"]
        want_check = reports_to_jsonl(check_harnack(space, w, 2.0))
        want_suite = reports_to_jsonl(run_suite(space, weights))
        log = []
        a1, harnack = self._traced(a1_constant, log), self._traced(check_harnack, log)
        assert reports_to_jsonl(harnack(space, w, 2.0)) == want_check
        assert reports_to_jsonl(operators.evaluate(space, [(harnack, w, 2.0)])[0]) == want_check
        with operators._memo_scope():
            wrapped, plain = operators.evaluate(space, [(a1, w), (a1_constant, w)])
            assert wrapped is plain and a1(space, w) is plain
            assert [key[0] for key in operators._memo.get()].count(a1_constant.steps) == 1
        assert log == ["check_harnack", "a1_constant"]  # called by name; in a batch, never
        for name in ("a1_constant", "check_harnack"):
            monkeypatch.setattr(theorems, name, self._traced(getattr(theorems, name), log))
        assert reports_to_jsonl(run_suite(space, weights)) == want_suite
        assert log == ["check_harnack", "a1_constant"]


class TestCallsByName:
    """A step function called by name is a batch of one: keywords bind to positions."""

    def test_a_keyword_after_a_skipped_default_reaches_the_check(self):
        space, weights = TestRunSuite._tied_instance()
        w = weights["w"]
        assert {r.inputs for r in check_harnack(space, w, 2.0, inputs="x")} == {"x"}
        pair = refined_jones(space, w, 2.0, 2.0, SUITE_OPTIONS)
        by_keyword = verify_factorization(space, w, pair, inputs="y")
        assert by_keyword and {r.inputs for r in by_keyword} == {"y"}
        assert reports_to_jsonl(by_keyword) == reports_to_jsonl(
            verify_factorization(space, w, pair, Tolerances(), "y"))

    def test_checks_are_not_kept_in_the_memo_scope(self):
        space, weights = TestRunSuite._tied_instance()
        w = weights["w"]
        with operators._memo_scope():
            first = check_harnack(space, w, 2.0)
            memo = operators._memo.get()
            # only functionals, keyed by (steps, space, ...): no entry for the check
            assert memo and all(type(key) is tuple and key[1] is space for key in memo)
            assert check_harnack.steps not in {key[0] for key in memo}
            entries = len(memo)
            assert check_harnack(space, w, 2.0) is not first
            assert len(memo) == entries  # the second call reads the functionals, adds nothing


class TestNoGarbage:
    """The round loop leaves no reference cycle: what a call made is freed when it returns."""

    def test_suites_and_calls_by_name_leave_nothing_for_the_collector(self):
        rng = np.random.default_rng(5)
        instances = [sample_instance(rng, 40) for _ in range(3)]
        run_suite(*instances[0])  # the first suite imports parts of numpy, which leave cycles
        gc.collect()
        gc.disable()
        try:
            for space, weights in instances:
                run_suite(space, weights)
            suites = gc.collect()
            for space, weights in instances:
                w = next(iter(weights.values()))
                a1_constant(space, w)
                maximal(space, w).witness_center
                check_harnack(space, w, 2.0, inputs="x")
            calls = gc.collect()
        finally:
            gc.enable()
        assert (suites, calls) == (0, 0)


class TestDigest:
    @staticmethod
    def copied(*parts):
        """The digest as once computed, from a bytes copy of every array."""
        h = hashlib.sha1()
        for part in parts:
            if isinstance(part, np.ndarray):
                h.update(np.ascontiguousarray(part).tobytes())
            else:
                h.update(repr(part).encode())
        return h.hexdigest()[:12]

    def test_equals_the_bytes_copy_on_any_layout(self):
        m = np.arange(30.0).reshape(5, 6)
        for part in (m, m.T, m[::2, 1::3], m[:, 2], np.float64(2.5), m > 7.0):
            assert digest(part, 2.0, "x") == self.copied(part, 2.0, "x")
        assert digest(m.T) != digest(m)
