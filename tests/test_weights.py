import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from weightlab import operators
from weightlab import (
    InvalidFunction,
    NonpositiveWeight,
    WeightlabError,
    a1_constant,
    ainf_constant,
    ap_constant,
    blo_norm,
    bmo_norm,
    build_space,
    buo_norm,
    generate,
    rhinf_constant,
    rhs_constant,
)
from weightlab.families import sample_space, sample_weight
from weightlab.space import BallRef, IdentityLayout, Sup
from weightlab.theorems import check_harnack
from weightlab import weights
from weightlab.weights import SCREEN_RANGE, _bmo_sup

E = np.e
W2 = np.array([1.0, E])


class TestWorkedExample:
    """The 2-point space with w = (1, e), uniform measure."""

    def test_ap(self, two_point):
        assert ap_constant(two_point, W2, 2.0).value == pytest.approx(1.27154, abs=1e-5)

    def test_exponent_by_keyword(self, two_point):
        # the README spells it p=2; inside a memo scope both spellings are one entry
        with operators._memo_scope():
            assert ap_constant(two_point, W2, p=2.0) is ap_constant(two_point, W2, 2.0)
            assert rhs_constant(two_point, W2, s=2.0) is rhs_constant(two_point, W2, 2.0)

    def test_a1(self, two_point):
        assert a1_constant(two_point, W2).value == pytest.approx(1.85914, abs=1e-5)

    def test_ainf(self, two_point):
        assert ainf_constant(two_point, W2).value == pytest.approx(1.12763, abs=1e-5)

    def test_rhs(self, two_point):
        assert rhs_constant(two_point, W2, 2.0).value == pytest.approx(1.10162, abs=1e-5)

    def test_rhinf(self, two_point):
        assert rhinf_constant(two_point, W2).value == pytest.approx(1.46212, abs=1e-5)

    def test_oscillation_norms(self, two_point):
        f = np.array([0.0, 1.0])
        assert blo_norm(two_point, f).value == pytest.approx(0.5)
        assert buo_norm(two_point, f).value == pytest.approx(0.5)
        assert bmo_norm(two_point, f).value == pytest.approx(0.5)

    def test_witness_is_the_full_ball(self, two_point):
        ref = ap_constant(two_point, W2, 2.0).witness
        assert ref.rank == 2 and ref.radius == 1.0


class TestBallWitness:
    def test_tie_resolves_to_smallest_rank_then_center(self):
        # every center attains the maximum 1.0 on the whole space: centers 0
        # and 2 at rank 3, center 1 already at rank 2
        space = build_space(np.array([0.0, 1.0, 2.0]), "l1", [0.25, 0.5, 0.25])
        res = blo_norm(space, np.array([2.0, 0.0, 2.0]))
        assert res.value == 1.0
        assert (res.witness.center, res.witness.rank, res.witness.radius) == (1, 2, 1.0)


class TestConstantWeight:
    def test_all_constants_one_and_norms_zero(self, three_path):
        w = np.full(3, 3.7)
        assert ap_constant(three_path, w, 2.0).value == pytest.approx(1.0, rel=1e-13)
        assert a1_constant(three_path, w).value == pytest.approx(1.0, rel=1e-13)
        assert ainf_constant(three_path, w).value == pytest.approx(1.0, rel=1e-13)
        assert rhs_constant(three_path, w, 2.0).value == pytest.approx(1.0, rel=1e-13)
        assert rhinf_constant(three_path, w).value == pytest.approx(1.0, rel=1e-13)
        f = np.full(3, -1.2)
        assert blo_norm(three_path, f).value == pytest.approx(0.0, abs=1e-13)
        assert buo_norm(three_path, f).value == pytest.approx(0.0, abs=1e-13)
        assert bmo_norm(three_path, f).value == pytest.approx(0.0, abs=1e-13)


def _assert_same_sup(got, want):
    assert got[1] == want[1]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


class TestRowBlocks:
    """Every streamed functional equals one reduction over its full table."""

    @staticmethod
    def full_tables(space, w, p=2.0, s=2.0):
        fam = space.ball_family
        avg, f = fam.averages_at_pos, np.log(w)
        a, lo, hi = avg(w), fam.running_min_at_pos(w), fam.running_max_at_pos(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = np.power(avg(np.power(w, s)), 1.0 / s) / a
        return {
            "ap": (ap_constant(space, w, p),
                   a * np.power(avg(np.power(w, -1.0 / (p - 1.0))), p - 1.0)),
            "a1": (a1_constant(space, w), a / lo),
            "ainf": (ainf_constant(space, w), a * np.exp(-avg(f))),
            "rhs": (rhs_constant(space, w, s), np.where(a > 0.0, rhs, -np.inf)),
            "rhinf": (rhinf_constant(space, w), hi / a),
            "blo": (blo_norm(space, f), avg(f) - fam.running_min_at_pos(f)),
            "buo": (buo_norm(space, f), avg(-f) - fam.running_min_at_pos(-f)),
        }

    @pytest.mark.parametrize("law", ["uniform", "integer", "constant"])
    def test_functionals_equal_the_full_table(self, law, three_block_grid):
        space = three_block_grid
        rng = np.random.default_rng(21)
        w = {"uniform": rng.uniform(0.1, 5.0, space.n),
             "integer": np.exp(rng.integers(-2, 3, space.n).astype(float)),
             "constant": np.ones(space.n)}[law]
        for name, (res, table) in self.full_tables(space, w).items():
            _assert_same_sup((res.value, res.witness), oracles.sup_over_table(space, table))
            if law == "constant":  # ties in every block: the smallest key wins
                assert res.witness == BallRef(0, 1, 0.0), name
        got = bmo_norm(space, np.log(w))
        _assert_same_sup((got.value, got.witness), oracles.bmo_rowwise(space, np.log(w)))
        fam = space.ball_family
        # the factor search's reducer: A_1's table alone, with its witness
        a1_sup = Sup(fam, ((w, "avg"), (w, "min")), lambda rows, avg, low: avg / low)
        _assert_same_sup(fam.scan([a1_sup])[0], oracles.sup_over_table(
            space, self.full_tables(space, w)["a1"][1]))
        ratio = fam.running_max_at_pos(w) / fam.running_min_at_pos(w)
        value, ref = oracles.sup_over_table(space, ratio)
        harnack = check_harnack(space, w, 2.0)[0]
        assert harnack.lhs == value
        assert harnack.witness == {"center": ref.center, "rank": ref.rank,
                                   "radius": ref.radius}

    def test_tie_won_by_a_later_block(self, three_block_grid):
        space = three_block_grid
        fam = space.ball_family
        table = np.zeros((space.n, space.n))
        last = space.n - 1
        table[0, -1] = table[last, 0] = 7.0  # rank > 1 at center 0, rank 1 at the last
        got = fam.sup_over_balls(lambda rows: table[rows])
        assert got == (7.0, BallRef(last, 1, 0.0))
        _assert_same_sup(got, oracles.sup_over_table(space, table))

    @pytest.mark.parametrize("nan_blocks", [(-1,), (1,), (1, -1)])
    def test_nan_only_in_a_later_block(self, nan_blocks, three_block_grid):
        space = three_block_grid
        fam = space.ball_family
        blocks = list(fam.row_blocks())
        table = fam.averages_at_pos(np.arange(space.n, dtype=float))
        table[0, 0] = 1e9  # the number sup sits on the smallest key of all
        table[blocks[-1].stop - 1, -1] = 1e12  # and a larger number comes last
        ends = oracles.ball_ends(space)
        table[0, ~ends[0]] = np.nan  # not a ball: ignored
        for b in nan_blocks:
            c = blocks[b].start + 4
            table[c, np.flatnonzero(ends[c])[2]] = np.nan
        got = fam.sup_over_balls(lambda rows: table[rows])
        assert math.isnan(got[0]) and got[1].rank == 3
        assert got[1].center == blocks[nan_blocks[0]].start + 4
        _assert_same_sup(got, oracles.sup_over_table(space, table))

    def test_all_minus_inf_gives_the_smallest_key(self, three_block_grid):
        space = three_block_grid
        table = np.full((space.n, space.n), -np.inf)
        got = space.ball_family.sup_over_balls(lambda rows: table[rows])
        assert got == (-np.inf, BallRef(0, 1, 0.0))

    def test_a1_value_is_the_a1_constant_bit_for_bit(self, three_block_grid):
        # the factor search's A_1 scan: the same value, NaN included
        rng = np.random.default_rng(23)
        cases = [(three_block_grid, rng.uniform(0.1, 5.0, three_block_grid.n))]
        for n in (2, 10, 40):
            space = sample_space(rng, n)
            cases.append((space, sample_weight(rng, space)))
        with np.errstate(all="ignore"):
            # measures near the float maximum: prefix masses overflow, inf / inf averages
            huge = build_space(np.arange(5.0), "euclidean", np.full(5, 1e308))
            cases.append((huge, np.array([1.0, 2.0, 3.0, 2.0, 1.0])))
            for space, w in cases:
                fam = space.ball_family
                (got, _), = fam.scan([Sup(fam, ((w, "avg"), (w, "min")),
                                          lambda rows, avg, low: avg / low)])
                want = a1_constant(space, w).value
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert math.isnan(got)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_constants_match_ball_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 24)
        w = sample_weight(rng, space)
        p, s = 2.0, 2.0
        pairs = [
            (ap_constant(space, w, p).value, oracles.ap_naive(space, w, p)),
            (a1_constant(space, w).value, oracles.a1_naive(space, w)),
            (ainf_constant(space, w).value, oracles.ainf_naive(space, w)),
            (rhs_constant(space, w, s).value, oracles.rhs_naive(space, w, s)),
            (rhinf_constant(space, w).value, oracles.rhinf_naive(space, w)),
            (bmo_norm(space, np.log(w)).value, oracles.bmo_naive(space, np.log(w))),
            (blo_norm(space, np.log(w)).value, oracles.blo_naive(space, np.log(w))),
            (buo_norm(space, np.log(w)).value, oracles.buo_naive(space, np.log(w))),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _bmo_inputs(rng, space):
    """Nine function families: noise, log-weight, tied, offset, constant, spiky
    and linear (a coordinate, or the distance to point 0 where the space has
    none), whose sup many centers' balls attain, then two out of the screen's
    range: |f| above SCREEN_RANGE, and +-1e308, whose deviations overflow."""
    n = space.n
    z = rng.standard_normal(n)
    return {
        "normal": z,
        "log-weight": np.log(rng.uniform(0.1, 5.0, n)),
        "integers": rng.integers(-2, 3, n).astype(float),
        "offset": 1e8 + 1e-6 * rng.standard_normal(n),
        "constant": np.full(n, 3.7),
        "spikes": np.where(rng.random(n) < 0.1, 1e6, 0.0) + z,
        "linear": space.dist[0] if space.coords is None else space.coords[:, 0],
        "above-screen-range": np.linspace(-2.0, 2.0, n) * SCREEN_RANGE,
        "extreme": np.where(rng.random(n) < 0.5, 1e308, -1e308),
    }


def _balls_summed(space, f) -> int:
    """How many balls the BMO scan of f sums exactly."""
    sup, summed = _bmo_sup(space, f)
    space.ball_family.scan([sup])
    return summed()


def _every_ball(space) -> int:
    """The balls of a space other than the singletons, which read zero unsummed."""
    return int(np.count_nonzero(oracles.ball_ends(space))) - space.n


def _table_shapes(space) -> set[str]:
    """The layouts of the row blocks: "identity" (tie-free) or "balls" (a `BallLayout`)."""
    fam = space.ball_family
    return {"identity" if fam.layout(rows) is IdentityLayout else "balls"
            for rows in fam.row_blocks()}


def _analyze_inputs(seed):
    """The spaces and log-weights of perfbench's analyze workload at this seed."""
    grid = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed)
    points = generate("random-points", {"n": 500, "dim": 2, "measure": "random"}, seed)
    rng = np.random.default_rng(seed)
    out = []
    for space in (grid, points):
        out.append((space, np.log(rng.uniform(0.1, 5.0, size=space.n))))
        rng.choice(space.n, size=8, replace=False)  # the workload's sampled centers
    return out


def _assert_bmo_matches_rowwise(space, f, label, reference=oracles.bmo_rowwise):
    with np.errstate(all="ignore"):  # +-1e308 overflows to NaN in both
        got = bmo_norm(space, f)
        value, ref = reference(space, f)
    assert np.float64(got.value).tobytes() == np.float64(value).tobytes(), label
    assert got.witness == ref, label


class TestBmoScreen:
    """The screened BMO norm is bit-identical to summing every center's row."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_spaces(self, seed):
        rng = np.random.default_rng(600 + seed)
        for _ in range(10):
            space = sample_space(rng, 60)
            for name, f in _bmo_inputs(rng, space).items():
                _assert_bmo_matches_rowwise(space, f, (space.n, name))

    def test_linf_grid(self):
        space = generate("grid", {"nx": 20, "ny": 20, "metric": "linf"}, seed=3)
        for name, f in _bmo_inputs(np.random.default_rng(3), space).items():
            _assert_bmo_matches_rowwise(space, f, name)

    def test_monotone_path(self):
        # the whole path attains the sup from every center; tie-free, so
        # every block has the identity layout
        space = generate("path", {"n": 300}, seed=3)
        assert _table_shapes(space) == {"identity"}
        f = np.arange(space.n, dtype=float)
        _assert_bmo_matches_rowwise(space, f, "arange")
        assert _balls_summed(space, f) >= space.n

    def test_screen_keeps_few_balls(self):
        # a Euclidean grid, 51 148 balls besides the singletons
        space = generate("grid", {"nx": 20, "ny": 20, "metric": "euclidean"}, seed=3)
        assert _table_shapes(space) == {"balls"}
        f = np.log(np.random.default_rng(4).uniform(0.1, 5.0, space.n))
        assert _balls_summed(space, f) <= 40  # 34 measured
        # a coordinate ties across many centers, and its balls' standard
        # deviations lie close to their mean deviations: 21 152 measured
        kept = _balls_summed(space, space.coords[:, 1])
        assert space.n <= kept <= _every_ball(space) // 2

    def test_degenerate_inputs_keep_every_ball(self):
        # tie-free points: the identity layout, the screen runs
        space = generate("random-points", {"n": 100}, seed=3)
        assert _table_shapes(space) == {"identity"}
        for f in (np.full(space.n, 3.7), np.linspace(-2.0, 2.0, space.n) * SCREEN_RANGE):
            assert _balls_summed(space, f) == _every_ball(space)

    @pytest.mark.parametrize("scale", ["f", "heavy", "light"])
    def test_range_gate(self, scale):
        # at the edge of SCREEN_RANGE, in |f| or in the measure, the screen
        # runs; one step outside, every ball is summed; neither warns
        grid = generate("grid", {"nx": 10, "ny": 10, "metric": "linf"}, seed=2)
        g = np.log(np.random.default_rng(2).uniform(0.1, 5.0, grid.n))
        g /= np.abs(g).max()  # one entry is exactly +-1
        mass = {"f": 1.0, "heavy": SCREEN_RANGE, "light": 1.0 / SCREEN_RANGE}[scale]
        for outside in (False, True):
            f, mu = g * SCREEN_RANGE, np.full(grid.n, mass)
            if outside and scale == "f":
                top = int(np.abs(g).argmax())
                f[top] = np.copysign(np.nextafter(SCREEN_RANGE, np.inf), f[top])
            elif outside:
                mu[0] = np.nextafter(mass, np.inf if scale == "heavy" else 0.0)
            space = build_space(grid.coords, "linf", mu)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                summed = _balls_summed(space, f)
                got = bmo_norm(space, f)
            value, ref = oracles.bmo_ball_rows(space, f)
            assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
            assert got.witness == ref
            assert (summed == _every_ball(space)) == outside, (summed, outside)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_analyze_inputs_sum_few_balls(self, seed):
        # 30 580 and 250 000 balls; 32-73 and 1-17 summed exactly (measured)
        for space, f in _analyze_inputs(seed):
            assert _balls_summed(space, f) <= 100

    def test_peak_memory_below_one_table(self):
        # the screen and the exact sums stream by row blocks: no n x n table
        space = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=1)
        space.ball_family  # the index is built before the measurement
        f = np.log(np.random.default_rng(1).uniform(0.1, 5.0, space.n))
        tracemalloc.start()
        try:
            bmo_norm(space, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 8 * space.n ** 2


class TestBmoEveryBall:
    """Screened per-ball tables of tied blocks are bit-identical to every row."""

    def test_reference_rows_at_ball_ends(self):
        # the fast reference below sums bmo_rowwise's rows at the ball ends only
        rng = np.random.default_rng(5)
        spaces = [generate("grid", {"nx": 9, "ny": 12, "metric": "l1"}, seed=5),
                  generate("random-points", {"n": 90, "measure": "random"}, seed=5)]
        for space in spaces + [sample_space(rng, 40) for _ in range(3)]:
            for name, f in _bmo_inputs(rng, space).items():
                with np.errstate(all="ignore"):
                    v, ref = oracles.bmo_ball_rows(space, f)
                    want, want_ref = oracles.bmo_rowwise(space, f)
                assert np.float64(v).tobytes() == np.float64(want).tobytes(), name
                assert ref == want_ref, name

    @pytest.mark.parametrize("metric", ["linf", "l1"])
    def test_grid_1000(self, metric):
        space = generate("grid", {"nx": 25, "ny": 40, "metric": metric}, seed=1)
        assert _table_shapes(space) == {"balls"}
        for name, f in _bmo_inputs(np.random.default_rng(8), space).items():
            _assert_bmo_matches_rowwise(space, f, name, oracles.bmo_ball_rows)

    def test_grid_1000_against_every_row(self):
        space = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=1)
        f = np.log(np.random.default_rng(1).uniform(0.1, 5.0, space.n))
        _assert_bmo_matches_rowwise(space, f, "log-weight")

    @pytest.mark.parametrize("make, shapes", [
        # wide and narrow layout blocks
        (lambda: generate("grid", {"nx": 8, "ny": 100, "metric": "linf"}, seed=2), {"balls"}),
        # blocks where a center has more than n / 2 balls, and blocks where none has
        (lambda: generate("grid", {"nx": 16, "ny": 25, "metric": "euclidean"}, seed=2),
         {"balls"}),
    ], ids=["linf-8x100", "euclidean-16x25"])
    def test_cutoff_leaves_the_bytes(self, make, shapes, monkeypatch):
        space = make()
        assert _table_shapes(space) == shapes
        inputs = _bmo_inputs(np.random.default_rng(9), space)
        for name in ("log-weight", "linear", "constant", "extreme"):
            f = inputs[name]
            with np.errstate(all="ignore"):
                value, ref = oracles.bmo_ball_rows(space, f)
            # the range gate open (the screen) or closed (every ball summed)
            for cutoff in (SCREEN_RANGE, 0.5):
                monkeypatch.setattr(weights, "SCREEN_RANGE", cutoff)
                with np.errstate(all="ignore"):
                    got = bmo_norm(space, f)
                assert np.float64(got.value).tobytes() == np.float64(value).tobytes(), name
                assert got.witness == ref, (name, cutoff)

    def test_small_tied_grid(self):
        space = generate("grid", {"nx": 8, "ny": 8, "metric": "linf", "measure": "random"},
                         seed=4)
        assert space.n == 64 and _table_shapes(space) == {"balls"}
        for name, f in _bmo_inputs(np.random.default_rng(4), space).items():
            _assert_bmo_matches_rowwise(space, f, name)

    def test_sums_every_ball(self, monkeypatch):
        # the screen sums 67 of 6 460 balls (measured); with the range gate
        # closed (no measure lies in [2, 0.5]) every ball is summed
        space = generate("grid", {"nx": 20, "ny": 20, "metric": "linf"}, seed=3)
        f = np.log(np.random.default_rng(4).uniform(0.1, 5.0, space.n))
        assert _table_shapes(space) == {"balls"} and _balls_summed(space, f) <= 80
        monkeypatch.setattr(weights, "SCREEN_RANGE", 0.5)
        assert _balls_summed(space, f) == _every_ball(space)

    @pytest.mark.parametrize("pattern", ["stripes", "diagonals"])
    def test_sup_tied_across_blocks(self, pattern):
        # unit masses and a 0/1 pattern: translated balls sum the same terms
        # in the same order, so the sup ties exactly in several blocks
        grid = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=1)
        space = build_space(grid.coords, "linf", np.ones(grid.n))
        i, j = grid.coords[:, 0], grid.coords[:, 1]
        f = ((j % 3 == 0) if pattern == "stripes" else ((i + j) % 3 == 0)).astype(float)
        table = oracles.bmo_ball_rows_table(space, f)
        fam = space.ball_family
        value, ref = oracles.sup_over_table(space, table)
        attaining = np.flatnonzero(((table == value) & oracles.ball_ends(space)).any(axis=1))
        blocks = [rows for rows in fam.row_blocks()
                  if np.any((attaining >= rows.start) & (attaining < rows.stop))]
        assert len(blocks) >= 2 and _table_shapes(space) == {"balls"}
        got = bmo_norm(space, f)
        assert got.value == value and got.witness == ref


class TestEquivalentForms:
    @pytest.mark.parametrize("seed", range(8))
    def test_a1_and_rhinf_cross_forms_exact(self, seed):
        rng = np.random.default_rng(50 + seed)
        space = sample_space(rng, 32)
        w = sample_weight(rng, space)
        res = a1_constant(space, w)
        assert res.value == res.alt_value
        res = rhinf_constant(space, w)
        assert res.value == res.alt_value


class TestInequalityLadders:
    @pytest.mark.parametrize("seed", range(5))
    def test_jensen_ladder(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 20)
        w = sample_weight(rng, space)
        ainf = ainf_constant(space, w).value
        a1 = a1_constant(space, w).value
        ps = [1.5, 2.0, 3.0, 5.0]
        vals = [ap_constant(space, w, p).value for p in ps]
        slack = 1e-9 * a1
        assert 1.0 - 1e-12 <= ainf
        for v in vals:
            assert ainf <= v + slack <= a1 + 2 * slack
        for lo_p, hi_p in zip(vals, vals[1:]):  # monotone nonincreasing in p
            assert hi_p <= lo_p + slack

    @pytest.mark.parametrize("seed", range(5))
    def test_rhs_monotone_in_s(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 20)
        w = sample_weight(rng, space)
        vals = [rhs_constant(space, w, s).value for s in [1.5, 2.0, 3.0, 4.0]]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9 * b

    def test_bmo_dominated_by_twice_one_sided(self):
        rng = np.random.default_rng(9)
        for seed in range(8):
            space = sample_space(rng, 16)
            f = rng.normal(0.0, 2.0, size=space.n)
            bmo = bmo_norm(space, f).value
            bound = 2.0 * min(blo_norm(space, f).value, buo_norm(space, f).value)
            assert bmo <= bound + 1e-12 * max(bound, 1.0)

    def test_bmo_factor_two_is_sharp(self):
        # skewed two-point measure: the ratio approaches 2 as the light
        # point's mass vanishes, so no constant below 2 can work
        for eps in [0.2, 0.05, 0.01]:
            space = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                "explicit-matrix", [eps, 1.0 - eps])
            f = np.array([0.0, 1.0])
            ratio = bmo_norm(space, f).value / min(blo_norm(space, f).value,
                                                   buo_norm(space, f).value)
            assert ratio == pytest.approx(2.0 * (1.0 - eps), rel=1e-10)

    def test_bmo_domination_bruteforce_three_point(self):
        # brute-force scan on random 3-point spaces before trusting the factor
        rng = np.random.default_rng(21)
        for _ in range(40):
            pos = np.sort(rng.uniform(0.0, 3.0, size=3))
            pos[1:] += 0.05 * np.arange(1, 3)  # keep points distinct
            space = build_space(pos, "l1", rng.uniform(0.1, 1.0, size=3))
            f = rng.normal(0.0, 1.5, size=3)
            assert oracles.bmo_naive(space, f) <= 2.0 * min(
                oracles.blo_naive(space, f), oracles.buo_naive(space, f)) + 1e-12


class TestAlgebraicIdentities:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_ap_duality(self, p):
        rng = np.random.default_rng(33)
        for seed in range(4):
            space = sample_space(rng, 16)
            w = sample_weight(rng, space)
            p_conj = p / (p - 1.0)
            lhs = ap_constant(space, np.power(w, 1.0 - p), p).value
            rhs = ap_constant(space, w, p_conj).value ** (p - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_ap_duality_two_point_inversion(self, two_point):
        # p = 2 is self-conjugate: inverting the weight preserves A_2
        lhs = ap_constant(two_point, 1.0 / W2, 2.0).value
        assert lhs == pytest.approx(1.27154, abs=1e-5)
        assert lhs == pytest.approx(ap_constant(two_point, W2, 2.0).value, rel=1e-12)

    def test_ap_duality_bruteforce_two_point(self, two_point):
        # scan the identity on 2-point spaces with the independent oracle
        # before trusting the vectorized form
        rng = np.random.default_rng(70)
        for _ in range(20):
            w = np.exp(rng.uniform(-2, 2, size=2))
            p = float(rng.uniform(1.2, 4.0))
            lhs = oracles.ap_naive(two_point, w ** (1.0 - p), p)
            rhs = oracles.ap_naive(two_point, w, p / (p - 1.0)) ** (p - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(st.integers(0, 300), st.floats(0.25, 4.0))
    def test_scaling_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 10)
        w = sample_weight(rng, space)
        assert ap_constant(space, c * w, 2.0).value == pytest.approx(
            ap_constant(space, w, 2.0).value, rel=1e-12)
        assert rhinf_constant(space, c * w).value == pytest.approx(
            rhinf_constant(space, w).value, rel=1e-12)
        f = np.log(w)
        assert blo_norm(space, f + c).value == pytest.approx(
            blo_norm(space, f).value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_buo_is_blo_of_negation_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 20)
        f = rng.normal(0.0, 2.0, size=space.n)
        assert buo_norm(space, f).value == blo_norm(space, -f).value

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(14)
        space = sample_space(rng, 16)
        f = rng.normal(0.0, 1.0, size=space.n)
        for a in [0.5, 2.0, 7.5]:
            assert blo_norm(space, a * f).value == pytest.approx(
                a * blo_norm(space, f).value, rel=1e-12)
            assert buo_norm(space, a * f).value == pytest.approx(
                a * buo_norm(space, f).value, rel=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(15)
        for seed in range(6):
            space = sample_space(rng, 16)
            f = rng.normal(0.0, 1.0, size=space.n)
            g = rng.normal(0.0, 1.0, size=space.n)
            for norm in (bmo_norm, blo_norm, buo_norm):
                lhs = norm(space, f + g).value
                rhs = norm(space, f).value + norm(space, g).value
                assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


class TestEdgeCases:
    def test_rhs_allows_zeros_but_not_all_zero(self, three_path):
        w = np.array([0.0, 1.0, 2.0])
        assert rhs_constant(three_path, w, 2.0).value >= 1.0 - 1e-12
        with pytest.raises(NonpositiveWeight):
            rhs_constant(three_path, np.zeros(3), 2.0)

    def test_nonpositive_weight_rejected(self, two_point):
        with pytest.raises(NonpositiveWeight):
            a1_constant(two_point, np.array([1.0, 0.0]))
        with pytest.raises(NonpositiveWeight):
            ainf_constant(two_point, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("norm", [bmo_norm, blo_norm, buo_norm])
    def test_oscillation_norm_rejects_nan_entry(self, norm):
        space = generate("path", {"n": 6}, seed=0)
        f = np.array([0.0, 1.0, np.nan, 0.5, 2.0, 1.0])
        with pytest.raises(InvalidFunction) as exc:
            norm(space, f)
        assert isinstance(exc.value, WeightlabError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("norm", [bmo_norm, blo_norm, buo_norm])
    def test_oscillation_norm_rejects_wrong_length(self, norm):
        space = generate("path", {"n": 6}, seed=0)
        with pytest.raises(InvalidFunction):
            norm(space, np.ones(5))

    def test_conditioning_warning_on_extreme_range(self, two_point):
        res = a1_constant(two_point, np.array([1e-7, 1e7]))
        assert res.warnings and "dynamic range" in res.warnings[0]
        assert not a1_constant(two_point, W2).warnings

    def test_values_never_below_one_minus_eps(self):
        rng = np.random.default_rng(77)
        for seed in range(5):
            space = sample_space(rng, 12)
            w = sample_weight(rng, space)
            for res in (ap_constant(space, w, 2.0), a1_constant(space, w),
                        ainf_constant(space, w), rhs_constant(space, w, 2.0),
                        rhinf_constant(space, w)):
                assert res.value >= 1.0 - 1e-12

    def test_oscillation_norms_never_negative(self):
        # the singleton ball oscillates to exactly zero, anchoring the sup
        rng = np.random.default_rng(78)
        for seed in range(5):
            space = sample_space(rng, 12)
            f = rng.normal(0.0, 2.0, size=space.n)
            assert blo_norm(space, f).value >= 0.0
            assert buo_norm(space, f).value >= 0.0
            assert bmo_norm(space, f).value >= 0.0
