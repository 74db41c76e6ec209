from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from weightlab import operators
from weightlab import (
    generate,
    maximal,
    maximal_naive,
    minimal,
    minimal_naive,
    natural_maximal,
    natural_maximal_naive,
    natural_minimal,
    natural_minimal_naive,
)
from weightlab.errors import InvalidFunction
from weightlab.families import sample_space
from weightlab.space import BallFamily, BallLayout, BallRef, IdentityLayout, Sup
from weightlab.weights import blo_norm

E = np.e


class TestWorkedExamples:
    def test_maximal_two_point(self, two_point):
        out = maximal(two_point, np.array([1.0, E]))
        assert out.values == pytest.approx([1.85914, 2.71828], abs=1e-5)

    def test_maximal_three_path(self, three_path):
        out = maximal(three_path, np.array([0.0, 3.0, 0.0]))
        assert out.values == pytest.approx([1.5, 3.0, 1.5], rel=1e-13)

    def test_minimal_two_point(self, two_point):
        out = minimal(two_point, np.array([1.0, E]))
        assert out.values == pytest.approx([1.0, 1.85914], abs=1e-5)

    def test_minimal_three_path_vanishes(self, three_path):
        assert minimal(three_path, np.array([0.0, 3.0, 0.0])).values[0] == 0.0

    def test_natural_maximal_two_point(self, two_point):
        out = natural_maximal(two_point, np.array([0.0, 1.0]))
        assert out.values == pytest.approx([0.5, 1.0], rel=1e-13)

    def test_natural_maximal_negative_spike(self, three_path):
        out = natural_maximal(three_path, np.array([-3.0, 0.0, 0.0]))
        assert out.values[0] == pytest.approx(-1.0, rel=1e-13)

    def test_natural_minimal_two_point(self, two_point):
        out = natural_minimal(two_point, np.array([0.0, 1.0]))
        assert out.values == pytest.approx([0.0, 0.5], rel=1e-13)

    def test_constant_function_fixed_points(self, three_path):
        f = np.full(3, -2.5)
        assert np.array_equal(natural_maximal(three_path, f).values, f)
        assert np.all(maximal(three_path, f).values
                      == pytest.approx(2.5, rel=1e-13))


class TestExactIdentities:
    @pytest.mark.parametrize("seed", range(6))
    def test_natural_duality_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 24)
        f = rng.normal(0.0, 2.0, size=space.n)
        direct = natural_minimal(space, f)
        via_max = natural_maximal(space, -f)
        assert np.array_equal(direct.values, -via_max.values)
        assert np.array_equal(direct.witness_center, via_max.witness_center)
        assert np.array_equal(direct.witness_rank, via_max.witness_rank)
        assert np.array_equal(direct.witness_radius, via_max.witness_radius)

    @pytest.mark.parametrize("seed", range(4))
    def test_abs_composition_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 24)
        f = rng.normal(0.0, 2.0, size=space.n)
        assert np.array_equal(maximal(space, f).values,
                              natural_maximal(space, np.abs(f)).values)
        assert np.array_equal(minimal(space, f).values,
                              natural_minimal(space, np.abs(f)).values)

    def test_pointwise_bounds(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            space = sample_space(rng, 24)
            f = rng.normal(0.0, 2.0, size=space.n)
            assert np.all(natural_maximal(space, f).values >= f)
            assert np.all(natural_minimal(space, f).values <= f)
            assert np.all(maximal(space, f).values >= np.abs(f))
            assert np.all(minimal(space, f).values <= np.abs(f))

    @given(st.integers(0, 500))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 12)
        f = rng.normal(0.0, 1.0, size=space.n)
        g = f + rng.uniform(0.0, 1.0, size=space.n)
        assert np.all(natural_maximal(space, f).values
                      <= natural_maximal(space, g).values)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_fast_equals_package_naive(self, seed):
        rng = np.random.default_rng(100 + seed)
        space = sample_space(rng, 40)
        f = rng.normal(0.0, 2.0, size=space.n)
        for fast_fn, naive_fn in [(maximal, maximal_naive),
                                  (minimal, minimal_naive),
                                  (natural_maximal, natural_maximal_naive),
                                  (natural_minimal, natural_minimal_naive)]:
            fast = fast_fn(space, f).values
            naive = naive_fn(space, f)
            assert np.abs(fast - naive).max() <= 1e-12 * np.abs(naive).max()

    def test_package_naive_equals_test_oracle(self):
        # third route: the in-package naive path against this suite's
        # independent triple loop
        rng = np.random.default_rng(3)
        space = sample_space(rng, 12)
        f = rng.normal(0.0, 2.0, size=space.n)
        assert natural_maximal_naive(space, f) == pytest.approx(
            oracles.extremal_naive(space, f, "max"), rel=1e-13)
        assert minimal_naive(space, f) == pytest.approx(
            oracles.extremal_naive(space, f, "min", use_abs=True), rel=1e-13)


class TestWitnesses:
    @pytest.mark.parametrize("seed", range(4))
    def test_witness_reaverages_to_value(self, seed):
        rng = np.random.default_rng(seed)
        space = sample_space(rng, 24)
        f = rng.normal(0.0, 2.0, size=space.n)
        out = natural_maximal(space, f)
        for y in range(space.n):
            ball = out.witness_ball(space, y)
            assert y in ball.members
            mu = space.measure[ball.members]
            avg = float(np.sum(mu * f[ball.members]) / mu.sum())
            assert out.values[y] == pytest.approx(avg, rel=1e-12)

    def test_tie_break_prefers_smallest_rank_then_center(self, three_path):
        # constant function: every ball containing y attains the extremum,
        # so the witness must be the singleton at y itself
        out = natural_maximal(three_path, np.zeros(3))
        assert list(out.witness_rank) == [1, 1, 1]
        assert list(out.witness_center) == [0, 1, 2]

    def test_tie_break_across_centers(self):
        # on the 4-point unit path with f = (1, 0, 0, 1), the value 1/2 at
        # point 1 is attained by {0,1} (center 0, rank 2) and by the whole
        # space from every center; smallest rank wins
        from weightlab import build_space
        space = build_space(np.arange(4.0), "l1", np.full(4, 0.25))
        out = maximal(space, np.array([1.0, 0.0, 0.0, 1.0]))
        assert out.values[1] == 0.5
        assert out.witness_rank[1] == 2
        assert out.witness_center[1] == 0
        ball = out.witness_ball(space, 1)
        assert list(ball.members) == [0, 1]


class TestTieRule:
    """The kernel's witnesses equal a ball-by-ball scan under one tie rule."""

    @staticmethod
    def assert_rowwise(space, f):
        out = natural_maximal(space, f)
        values, centers, ranks, radii = oracles.extremal_witness_rowwise(space, f)
        assert np.array_equal(out.values, values)
        assert np.array_equal(out.witness_center, centers)
        assert np.array_equal(out.witness_rank, ranks)
        assert np.array_equal(out.witness_radius, radii)

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_spaces_integer_and_constant(self, seed):
        rng = np.random.default_rng(900 + seed)
        space = sample_space(rng, 40)
        self.assert_rowwise(space, rng.integers(-2, 3, size=space.n).astype(float))
        self.assert_rowwise(space, np.full(space.n, 1.5))

    def test_tie_heavy_linf_grid(self):
        space = generate("grid", {"nx": 7, "ny": 9, "metric": "linf"}, seed=0)
        rng = np.random.default_rng(3)
        self.assert_rowwise(space, rng.integers(0, 2, size=space.n).astype(float))
        self.assert_rowwise(space, np.zeros(space.n))


class TestRowBlocks:
    """Values and witnesses merged over blocks of centers equal the rowwise scan."""

    def test_operators_match_rowwise_across_blocks(self, three_block_grid):
        space = three_block_grid
        rng = np.random.default_rng(8)
        f = rng.integers(0, 3, size=space.n).astype(float)
        TestTieRule.assert_rowwise(space, f)
        TestTieRule.assert_rowwise(space, -f)  # natural_minimal of f
        TestTieRule.assert_rowwise(space, rng.normal(size=space.n))

    def test_constant_ties_across_blocks_give_the_singletons(self, three_block_grid):
        # every ball of every block attains the value: the smallest key is
        # the point's own singleton, wherever its center's block lies
        space = three_block_grid
        TestTieRule.assert_rowwise(space, np.ones(space.n))
        out = natural_maximal(space, np.ones(space.n))
        assert np.array_equal(out.witness_center, np.arange(space.n))
        assert np.array_equal(out.witness_rank, np.ones(space.n))


def _fancy_averages(fam, f, rows):
    """averages_at_pos as a 2-D fancy-index gather, the formula before np.take."""
    fs = (f * fam.space.measure)[fam.order[rows]]
    np.cumsum(fs, axis=1, out=fs)
    np.divide(fs, oracles.prefix_measure(fam.space)[rows], out=fs)
    fs[:, 0] = f[rows]
    return fs


def _scattered(fam, rows, at_pos):
    """A (center, position) block moved to (center, point) by put_along_axis."""
    out = np.empty_like(at_pos)
    np.put_along_axis(out, fam.order[rows], at_pos, axis=1)
    return out


def _scatter_fold(space, f):
    """Mnat f and its witness keys, each block scattered to point order and folded by rows."""
    fam = space.ball_family
    none = np.iinfo(fam.index_dtype).max
    ends, ball_keys = oracles.ball_ends(space), oracles.ball_keys(space)
    values = np.full(space.n, -np.inf)
    for rows in fam.row_blocks():
        best = np.where(ends[rows], _fancy_averages(fam, f, rows), -np.inf)
        np.maximum.accumulate(best[:, ::-1], axis=1, out=best[:, ::-1])
        np.maximum(values, _scattered(fam, rows, best).max(axis=0), out=values)
    keys = np.full(space.n, none, dtype=fam.index_dtype)
    for rows in fam.row_blocks():
        avg = _fancy_averages(fam, f, rows)
        np.copyto(avg, -np.inf, where=~ends[rows])
        rev = avg[:, ::-1]
        best = np.maximum.accumulate(rev, axis=1)
        key = np.where(rev == best, ball_keys[rows, ::-1], none)
        np.minimum.accumulate(key, axis=1, out=key)
        cand = _scattered(fam, rows, best[:, ::-1])
        cand_key = _scattered(fam, rows, key[:, ::-1])
        np.minimum(keys, np.where(cand == values, cand_key, none).min(axis=0), out=keys)
    return values, keys.astype(np.int64)


class TestFlatKernels:
    """np.take gathers and ufunc.at folds give the bytes of 2-D fancy indexing and scatters."""

    @staticmethod
    def assert_scatter_bytes(space, f):
        values, keys = _scatter_fold(space, f)
        out = natural_maximal(space, f)
        assert out.values.tobytes() == values.tobytes()
        rank, center = np.divmod(keys, space.n)
        radius = np.array([space.ball_family.end_of_key(k)[1] for k in keys.tolist()])
        assert out.witness_center.tobytes() == center.tobytes()
        assert out.witness_rank.tobytes() == rank.tobytes()
        assert out.witness_radius.tobytes() == radius.tobytes()

    @staticmethod
    def functions(n, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float),
                rng.integers(-1, 2, size=n) * 0.0,  # +0.0 and -0.0 tie
                np.full(n, 1.5), np.exp(rng.normal(scale=3.0, size=n))]

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_spaces(self, seed):
        space = sample_space(np.random.default_rng(700 + seed), 40)
        for f in self.functions(space.n, seed):
            self.assert_scatter_bytes(space, f)

    @pytest.mark.parametrize("make", [
        lambda: generate("grid", {"nx": 15, "ny": 20, "metric": "linf"}, seed=2),
        lambda: generate("random-points", {"n": 200, "measure": "random"}, seed=3),
    ], ids=["tied-linf-grid", "points-n200"])
    def test_several_row_blocks(self, make):
        space = make()
        assert len(list(space.ball_family.row_blocks())) >= 2
        for f in self.functions(space.n, 5):
            self.assert_scatter_bytes(space, f)
            self.assert_scatter_bytes(space, -f)  # natural_minimal of f

    def test_tables_at_index_array_rows(self, three_block_grid):
        # the builders take any rows of centers: a slice or an int array
        fam = three_block_grid.ball_family
        rng = np.random.default_rng(6)
        f = rng.normal(size=fam.n)
        for rows in (np.unique(rng.integers(0, fam.n, 40)), rng.integers(0, fam.n, 40),
                     slice(None), slice(110, 220)):
            assert fam.averages_at_pos(f, rows).tobytes() == _fancy_averages(fam, f, rows).tobytes()
            for build, acc in ((fam.running_min_at_pos, np.minimum),
                               (fam.running_max_at_pos, np.maximum)):
                assert build(f, rows).tobytes() == acc.accumulate(f[fam.order[rows]], axis=1).tobytes()


class TestNaNWitnesses:
    """A NaN operator value is witnessed by the NaN ball of smallest key that contains the point."""

    @staticmethod
    def nan_ball_keys(space, f):
        fam = space.ball_family
        avg = fam.averages_at_pos(f)
        keys = np.full(space.n, np.iinfo(np.int64).max)
        ball_keys = oracles.ball_keys(space)
        for c, pos in zip(*np.nonzero(oracles.ball_ends(space) & np.isnan(avg))):
            members = fam.order[c, :pos + 1]
            keys[members] = np.minimum(keys[members], ball_keys[c, pos])
        return keys

    @pytest.mark.parametrize("make", [
        lambda: generate("path", {"n": 40, "measure": "random"}, seed=5),
        lambda: generate("grid", {"nx": 15, "ny": 14, "metric": "linf", "measure": "random"}, seed=2),
        lambda: generate("random-points", {"n": 60, "measure": "random"}, seed=7),
    ], ids=["path", "grid", "points"])
    def test_overflowing_averages(self, make):
        space = make()
        # f * measure overflows to +-inf where the measure exceeds 1, so
        # balls holding both signs average to NaN
        f = np.where(np.arange(space.n) % 2 == 0, 1e308, -1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            out = natural_maximal(space, f)
            center, rank = out.witness_center, out.witness_rank
            keys = self.nan_ball_keys(space, f)
        assert np.isnan(out.values).all()
        assert np.array_equal(center, keys % space.n)
        assert np.array_equal(rank, keys // space.n)
        assert np.isfinite(out.witness_radius).all()


class TestLazyWitnesses:
    @staticmethod
    def _count_sweeps(monkeypatch):
        """Record the input bytes of every `_MaxFold` given values: one per witness resolution."""
        raw = operators._MaxFold
        calls = []

        def counted(fam, f, values=None):
            if values is not None:
                calls.append(f.tobytes())
            return raw(fam, f, values)

        monkeypatch.setattr(operators, "_MaxFold", counted)
        return calls

    def test_values_only_read_never_sweeps(self, monkeypatch):
        calls = self._count_sweeps(monkeypatch)
        space = sample_space(np.random.default_rng(3), 30)
        f = np.random.default_rng(4).normal(size=space.n)
        for op in (natural_maximal, natural_minimal, maximal, minimal):
            op(space, f).values
        assert calls == []

    def test_first_witness_read_sweeps_once_per_memo_entry(self, monkeypatch):
        calls = self._count_sweeps(monkeypatch)
        space = sample_space(np.random.default_rng(3), 30)
        f = np.random.default_rng(4).normal(size=space.n)
        with operators._memo_scope():
            out = maximal(space, f)
            assert calls == []
            first = out.witness_center
            out.witness_rank, out.witness_radius, out.witness(0)
            again = maximal(space, f)
            assert again.witness_center is first
        assert calls == [np.abs(f).tobytes()]
        maximal(space, f).witness_center  # outside the scope: a new entry
        assert len(calls) == 2

    def test_natural_minimal_shares_the_resolution_of_mnat_minus_f(self, monkeypatch):
        calls = self._count_sweeps(monkeypatch)
        space = sample_space(np.random.default_rng(5), 30)
        f = np.random.default_rng(6).normal(size=space.n)
        with operators._memo_scope():
            low = natural_minimal(space, f)
            up = natural_maximal(space, -f)
            assert low.witness_center is up.witness_center
            assert low.witness_radius is up.witness_radius
        assert calls == [(-f).tobytes()]

    def test_a_witness_read_is_one_scan_of_the_values_reducer(self, monkeypatch):
        space = sample_space(np.random.default_rng(3), 30)
        f = np.random.default_rng(4).normal(size=space.n)
        out = maximal(space, f)
        scans = []
        raw = BallFamily.scan

        def scan(fam, reducers):
            scans.append(reducers)
            return raw(fam, reducers)

        monkeypatch.setattr(BallFamily, "scan", scan)
        out.witness_center
        assert len(scans) == 1 and len(scans[0]) == 1
        (fold,) = scans[0]
        assert isinstance(fold, operators._MaxFold) and fold.want is out.values

    def test_resolved_witnesses_are_read_only(self):
        space = sample_space(np.random.default_rng(7), 20)
        out = natural_minimal(space, np.random.default_rng(8).normal(size=space.n))
        for arr in (out.values, out.witness_center, out.witness_rank, out.witness_radius):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]

    def test_replace_keeps_the_kernel_witnesses(self):
        space = sample_space(np.random.default_rng(9), 20)
        f = np.random.default_rng(10).normal(size=space.n)
        out = natural_maximal(space, f)
        bumped = replace(out, values=out.values + 1.0)
        assert np.array_equal(bumped.values, out.values + 1.0)
        # the witnesses are resolved against the kernel's own values
        want = oracles.extremal_witness_rowwise(space, f)
        assert np.array_equal(bumped.witness_center, want[1])
        assert np.array_equal(bumped.witness_rank, want[2])

    def test_witnesses_ignore_later_writes_to_the_input(self):
        space = sample_space(np.random.default_rng(11), 20)
        f = np.random.default_rng(12).normal(size=space.n)
        out = natural_maximal(space, f)
        want = oracles.extremal_witness_rowwise(space, f.copy())
        f[:] = 0.0
        assert np.array_equal(out.witness_center, want[1])
        assert np.array_equal(out.witness_rank, want[2])


class TestRounds:
    """A step yields as often as it needs; every round of the loop is one scan."""

    @staticmethod
    def _count(monkeypatch):
        """Record the reducers of every scan and, per vector, the rows of average table built."""
        scans, rows = [], Counter()
        raw_scan, raw_avg = BallFamily.scan, BallFamily.averages_at_pos

        def scan(fam, reducers):
            scans.append(len(reducers))
            return raw_scan(fam, reducers)

        def averages(fam, f, block=slice(None), **kwargs):
            out = raw_avg(fam, f, block, **kwargs)
            rows[f.tobytes()] += out.shape[0]
            return out

        monkeypatch.setattr(BallFamily, "scan", scan)
        monkeypatch.setattr(BallFamily, "averages_at_pos", averages)
        return scans, rows

    @staticmethod
    def _instance(seed):
        space = sample_space(np.random.default_rng(seed), 20)
        return space, np.random.default_rng(seed + 1).normal(size=space.n)

    class Fails:
        """A reducer whose every block raises, as a numpy warning raised as an error would."""

        def __init__(self, f):
            self.tables = ((f, "avg"),)

        def add(self, rows, layout, avg):
            raise FloatingPointError("in the scan")

        def result(self):
            return None

    def test_a_step_that_yields_twice_runs_two_rounds_and_is_kept_once(self, monkeypatch):
        space, f = self._instance(13)
        want = blo_norm(space, natural_maximal(space, f).values)
        runs = []

        @operators._memoized
        def twice(space, f):
            runs.append(f.tobytes())
            (up,) = yield [(natural_maximal, f)]
            (blo,) = yield [(blo_norm, up.values)]
            return blo

        scans, _ = self._count(monkeypatch)
        with operators._memo_scope():
            got = twice(space, f)
            assert scans == [1, 1]  # the kernel, then the Sup
            assert twice(space, f) is got and twice(space, f=f) is got
            assert [key[0] for key in operators._memo.get()].count(twice.steps) == 1
        assert len(runs) == 1 and len(scans) == 2
        assert (got.value, got.witness) == (want.value, want.witness)

    def test_a_call_at_a_second_yield_shares_that_rounds_scan(self, monkeypatch):
        space, f = self._instance(15)
        mf = natural_maximal(space, f).values

        @operators._memoized
        def then(space, f, op):
            (up,) = yield [(natural_maximal, f)]
            return (yield [(op, up.values)])[0]

        scans, rows = self._count(monkeypatch)
        up, blo = operators.evaluate(space, [(then, f, natural_maximal), (then, f, blo_norm)])
        # one kernel on f, then Mnat and the blo Sup of Mnat f in one scan,
        # which builds the average table of Mnat f once over all its blocks
        assert scans == [1, 2]
        assert rows[mf.tobytes()] == space.n
        assert np.array_equal(up.values, natural_maximal(space, mf).values)
        assert blo == blo_norm(space, mf)

    def test_a_failing_call_at_a_later_yield_is_thrown_there_and_not_kept(self):
        space, f = self._instance(17)
        runs, caught = [], []

        @operators._memoized
        def then_fails(space, f):
            runs.append(True)
            (up,) = yield [(natural_maximal, f)]
            try:
                yield [(natural_maximal, np.full(space.n, np.nan))]
            except InvalidFunction as exc:
                caught.append(exc)
                raise
            return up

        with operators._memo_scope():
            with pytest.raises(InvalidFunction, match="non-finite"):
                then_fails(space, f)
            out, up = operators._outcomes(space, [(then_fails, f), (natural_maximal, f)])
            assert isinstance(out, InvalidFunction)  # the batch's other call still returns
            assert np.array_equal(up.values, natural_maximal(space, f).values)
            # neither the failed step nor the failed call is kept: only Mnat f
            assert [key[0] for key in operators._memo.get()] == [
                operators._natural_extremal.steps, natural_maximal.steps]
        assert len(runs) == len(caught) == 2  # the second batch ran it again

    def test_a_call_that_fails_after_a_round_is_thrown_at_the_yield_that_waits(self):
        space, f = self._instance(21)
        caught = []

        @operators._memoized
        def fails_late(space, f):
            yield [(natural_maximal, f)]  # ends after the round that scans Mnat f
            raise InvalidFunction("late")

        @operators._memoized
        def asks(space, f):
            try:
                yield [(fails_late, f)]
            except InvalidFunction as exc:
                caught.append(exc)
                raise

        with operators._memo_scope():
            with pytest.raises(InvalidFunction, match="late"):
                asks(space, f)
            assert [key[0] for key in operators._memo.get()] == [
                operators._natural_extremal.steps, natural_maximal.steps]
        assert len(caught) == 1

    def test_an_exception_escaping_a_scan_is_thrown_at_its_steps_yield(self):
        space, f = self._instance(23)
        caught = []

        @operators._memoized
        def scanned(space, f):
            try:
                yield [self.Fails(f)]
            except FloatingPointError as exc:
                caught.append(exc)
                raise

        out, up = operators._outcomes(space, [(scanned, f), (natural_maximal, f)])
        assert isinstance(out, FloatingPointError) and caught == [out]
        # the round's other step scans again alone and still returns
        assert np.array_equal(up.values, natural_maximal(space, f).values)

    def test_a_raising_reducer_among_several_is_thrown_at_its_own_steps_yield(self, monkeypatch):
        space, f = self._instance(25)
        g = np.random.default_rng(26).normal(size=space.n)
        caught = []

        @operators._memoized
        def two(space, f):
            try:
                yield [operators._MaxFold(space.ball_family, f), self.Fails(f)]
            except FloatingPointError as exc:
                caught.append(exc)
                raise

        @operators._memoized
        def lone(space, f):
            yield [self.Fails(f)]

        want = natural_maximal(space, g).values
        scans, _ = self._count(monkeypatch)
        out, up = operators._outcomes(space, [(two, f), (natural_maximal, g)])
        assert isinstance(out, FloatingPointError) and caught == [out]
        assert np.array_equal(up.values, want)  # the round's other step still returns
        assert scans == [3, 1, 1, 1]  # the round, then each reducer alone
        scans.clear()
        assert isinstance(operators._outcomes(space, [(lone, f)])[0], FloatingPointError)
        assert scans == [1]  # a lone reducer is not scanned again

    def test_steps_that_wait_for_each_other_raise(self):
        space, f = self._instance(19)

        @operators._memoized
        def loops(space, f):
            (again,) = yield [(loops, f)]
            return again

        with pytest.raises(RuntimeError, match="wait for each other"):
            loops(space, f)


def _full_sup(fam, tables, table):
    """A Sup by the per-position formula: the max over ball ends, and the smallest attaining key."""
    build = {"avg": fam.averages_at_pos, "min": fam.running_min_at_pos,
             "max": fam.running_max_at_pos}
    vals = table(slice(None), *[build[kind](vec) for vec, kind in tables])
    ends = oracles.ball_ends(fam.space)
    top = float(vals.max(where=ends, initial=-np.inf))
    hits = (vals == top if top == top else np.isnan(vals)) & ends
    key = int(oracles.ball_keys(fam.space)[hits].min())
    rank, center = divmod(key, fam.n)
    return top, BallRef(center, rank, fam.end_of_key(key)[1])


def _full_operator(space, f):
    """Mnat f with its witnesses by the per-position formulas, one radius search per point."""
    fam = space.ball_family
    none = np.iinfo(fam.index_dtype).max
    avg = fam.averages_at_pos(f)
    np.copyto(avg, -np.inf, where=~oracles.ball_ends(space))
    best = np.empty_like(avg)
    np.maximum.accumulate(avg[:, ::-1], axis=1, out=best[:, ::-1])
    values = np.full(space.n, -np.inf)
    np.maximum.at(values, fam.order.ravel(), best.ravel())
    key = np.where((avg == best) | (avg != avg), oracles.ball_keys(space), none)
    np.minimum.accumulate(key[:, ::-1], axis=1, out=key[:, ::-1])
    want = values[fam.order]
    hit = (best == want) | (best != best) & (want != want)
    keys = np.full(space.n, none, dtype=fam.index_dtype)
    np.minimum.at(keys, fam.order.ravel(), np.where(hit, key, none).ravel())
    rank, center = np.divmod(keys.astype(np.int64), space.n)
    radius = np.array([fam.end_of_key(k)[1] for k in keys.tolist()])
    return values, center, rank, radius


class TestBallIndexedTables:
    """Tables with one column per ball give the bytes of the per-position formulas."""

    SPACES = {
        "linf-grid": lambda: generate("grid", {"nx": 15, "ny": 20, "metric": "linf"}, seed=2),
        "euclidean-grid": lambda: generate(
            "grid", {"nx": 15, "ny": 20, "metric": "euclidean", "measure": "random"}, seed=2),
        "points": lambda: generate("random-points", {"n": 200, "measure": "random"}, seed=3),
        "n=1": lambda: generate("random-points", {"n": 1}, seed=0),
        "n=2": lambda: generate("grid", {"nx": 1, "ny": 2, "metric": "l1"}, seed=0),
        # tied, 64 points
        "linf-8x8": lambda: generate("grid", {"nx": 8, "ny": 8, "metric": "linf"}, seed=4),
        # tied; in 14 of its 32 blocks a center has more than n / 2 balls
        "euclidean-25x40": lambda: generate(
            "grid", {"nx": 25, "ny": 40, "metric": "euclidean"}, seed=1),
    }
    TIE_FREE = ("points", "n=1", "n=2")

    @staticmethod
    def functions(n, seed):
        rng = np.random.default_rng(seed)
        return {
            "normal": rng.normal(size=n),
            "integers": rng.integers(-2, 3, size=n).astype(float),
            "signed-zeros": rng.integers(-1, 2, size=n) * 0.0,
            "zeros-and-ones": np.where(rng.random(n) < 0.3, 1.0, rng.integers(-1, 2, size=n) * 0.0),
            "constant": np.full(n, 1.5),
            "lognormal": np.exp(rng.normal(scale=3.0, size=n)),
            # f * measure overflows where the measure exceeds 1: NaN averages
            "overflowing": np.where(np.arange(n) % 2 == 0, 1e308, -1e308),
        }

    SUPS = {
        "avg-min": (lambda f, g: ((f, "avg"), (f, "min")), lambda rows, a, lo: a - lo),
        "max-min": (lambda f, g: ((f, "max"), (f, "min")), lambda rows, hi, lo: hi - lo),
        "max-avg": (lambda f, g: ((f, "max"), (g, "avg")), lambda rows, hi, a: hi * a),
        "two-avg": (lambda f, g: ((f, "avg"), (g, "avg")), lambda rows, a, b: a / b),
    }

    def assert_bytes(self, space, seed=5):
        fam = space.ball_family
        for name, f in self.functions(space.n, seed).items():
            g = np.exp(-np.abs(f) / 1e307) + 1.0
            with np.errstate(all="ignore"):
                for vec in (f, -f):
                    out = natural_maximal(space, vec)
                    want = _full_operator(space, vec)
                    got = (out.values, out.witness_center, out.witness_rank, out.witness_radius)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                for sup, (tables, table) in self.SUPS.items():
                    named = tables(f, g)
                    value, ref = fam.scan([Sup(fam, named, table)])[0]
                    top, want_ref = _full_sup(fam, named, table)
                    assert np.float64(value).tobytes() == np.float64(top).tobytes(), (name, sup)
                    assert ref == want_ref, (name, sup)
                for rows in fam.row_blocks():
                    layout = fam.layout(rows)
                    for build in (fam.averages_at_pos, fam.running_min_at_pos,
                                  fam.running_max_at_pos):
                        full = layout.take(build(f, rows))
                        assert build(f, rows, layout=layout).tobytes() == full.tobytes(), name

    @pytest.mark.parametrize("name", list(SPACES))
    def test_default_gates(self, name):
        # the default layout rule: the identity exactly where every position
        # ends a ball, and a BallLayout elsewhere, whatever n and the block's width
        space = self.SPACES[name]()
        fam = space.ball_family
        ends = oracles.ball_ends(space)
        blocks = list(fam.row_blocks())
        assert len(blocks) >= (3 if name in ("linf-grid", "euclidean-grid") else 1)
        for rows in blocks:
            layout = fam.layout(rows)
            tie_free = bool(ends[rows].all())
            assert tie_free == (name in self.TIE_FREE)
            assert layout is IdentityLayout if tie_free else isinstance(layout, BallLayout)
        self.assert_bytes(space)

    @pytest.mark.parametrize("name", list(SPACES))
    def test_every_block_with_a_layout(self, name):
        # every block has a layout, and it reads back each ball of each row
        # in order: random points get the identity layout, n = 1 and 2 theirs
        space = self.SPACES[name]()
        fam = space.ball_family
        at_ends = oracles.ball_ends(space)
        for rows in fam.row_blocks():
            layout = fam.layout(rows)
            assert layout is not None
            for r in range(rows.stop - rows.start):
                ends = np.flatnonzero(at_ends[rows.start + r])
                got = [layout.end(r, j) for j in range(len(ends))]
                assert np.array_equal(got, ends), (name, rows.start + r)
        self.assert_bytes(space, seed=6)

    def test_pads_repeat_the_last_ball(self):
        space = self.SPACES["linf-grid"]()
        fam = space.ball_family
        rows = next(r for r in fam.row_blocks() if r.start <= 157 < r.stop)
        layout = fam.layout(rows)
        ends = oracles.ball_ends(space)
        counts = np.count_nonzero(ends[rows], axis=1)
        # the grid's middle points have about half the balls of a center at its edge
        assert counts.max() == layout.ends.shape[1] and counts.min() <= 0.6 * counts.max()
        local = layout.ends - (np.arange(rows.stop - rows.start) * space.n)[:, None]
        for r, count in enumerate(counts):
            assert np.array_equal(local[r, :count], np.flatnonzero(ends[rows.start + r]))
            assert (local[r, count:] == space.n - 1).all()
        self.assert_bytes(space, seed=7)

    def test_radii_read_from_the_layout(self):
        space = self.SPACES["euclidean-grid"]()
        fam = space.ball_family
        ends = oracles.ball_ends(space)
        keys = oracles.ball_keys(space)[ends].astype(np.int64)
        want = np.nonzero(ends)[1]  # the position of each ball end, row by row as the keys
        assert np.array_equal(fam.end_positions(keys), want)
        assert [fam.end_of_key(k)[0] for k in keys.tolist()] == want.tolist()
