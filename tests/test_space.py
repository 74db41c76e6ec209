import ast
import functools
import gc
import json
import math
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from weightlab import (
    AsymmetricDistance,
    EmptyRadiusRange,
    InvalidParams,
    NonpositiveMeasure,
    ParseError,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    annular_decay_constant,
    build_space,
    doubling_constant,
    enumerate_balls,
    generate,
    load,
    maximal,
    save,
)
from weightlab import space as space_module
from weightlab.families import sample_space
from weightlab.space import (
    GENERATOR_KINDS,
    BallFamily,
    BallLayout,
    BallRef,
    IdentityLayout,
    TRIANGLE_TOL_FACTOR,
    _annular_bounds,
    _annular_scan,
    _ball_columns,
    _validate_matrix,
)


class TestBuildSpace:
    def test_two_point(self, two_point):
        assert two_point.n == 2
        assert two_point.diameter == 1.0

    def test_collinear_coordinates(self, three_path):
        assert three_path.dist[0, 2] == 2.0
        assert three_path.dist[0, 1] == 1.0

    def test_triangle_violation_reports_worst_triple(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(TriangleViolation) as exc:
            build_space(d, "explicit-matrix", np.ones(3))
        assert exc.value.triple == (0, 1, 2)
        assert exc.value.excess == pytest.approx(3.0)

    def test_derived_metrics_stay_within_their_rounding_bound(self):
        # the argument of build_space's docstring, on 400 adversarial derived
        # spaces; the worst slack read 3.8e-7 of the 1e-9 tolerance
        rng = np.random.default_rng(0)
        worst = 0.0
        for t in range(400):
            n = int(rng.integers(3, 41))
            if t % 4 == 3:  # a random tree plus chords, edges over 1e-9..1e9
                edges = np.full((n, n), np.inf)
                for v in range(1, n):
                    for u in {int(rng.integers(0, v)), int(rng.integers(0, n))} - {v}:
                        edges[u, v] = edges[v, u] = 10.0 ** rng.uniform(-9, 9)
                space, c = build_space(edges, "graph-shortest-path", np.ones(n)), n
            else:  # near-collinear points at one scale in 1e-12..1e12
                dim = int(rng.integers(1, 4))
                line = rng.uniform(-1, 1, size=(n, 1)) * rng.normal(size=dim)
                jitter = rng.choice([0.0, 1e-8, 1.0]) * rng.normal(size=(n, dim))
                coords = 10.0 ** rng.uniform(-12, 12) * (line + jitter)
                space = build_space(coords, ("euclidean", "l1", "linf")[t % 4], np.ones(n))
                c = dim + 2
            d = space.dist
            slack = max(float((d - (d[:, j, None] + d[j])).max()) for j in range(n))
            assert slack <= 2 * (2 * c + 1) * 2.0 ** -53 * d.max()
            worst = max(worst, slack / (TRIANGLE_TOL_FACTOR * d.max()))
        assert worst < 1e-6

    def test_subnormal_euclidean_squares_keep_the_check(self):
        with pytest.raises(TriangleViolation):
            build_space([[0.0], [4e-162], [8e-162]], "euclidean", np.ones(3))

    def test_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(AsymmetricDistance):
            build_space(d, "explicit-matrix", np.ones(2))

    def test_zero_distance_distinct_points(self):
        d = np.zeros((2, 2))
        with pytest.raises(ZeroDistanceDistinctPoints):
            build_space(d, "explicit-matrix", np.ones(2))

    def test_nonpositive_measure(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonpositiveMeasure):
            build_space(d, "explicit-matrix", [1.0, 0.0])

    def test_immutability(self, two_point):
        with pytest.raises(ValueError):
            two_point.dist[0, 1] = 3.0

    def test_dropped_space_is_freed_without_the_cyclic_collector(self):
        # the family holds its space weakly, so no cycle keeps either alive
        gc.disable()
        try:
            space = generate("grid", {"nx": 5, "ny": 6}, seed=0)
            maximal(space, np.ones(space.n))
            ref = weakref.ref(space)
            del space
            assert ref() is None
        finally:
            gc.enable()

    def test_index_holds_at_most_10_bytes_per_cell_tie_free_and_2_7_tied(self):
        # order (uint16), the mass of every ball column and one int32 count
        # per center: a tie-free space keeps full rows of masses
        space = generate("random-points", {"n": 100}, seed=0)
        fam, n = space.ball_family, space.n
        assert fam.order.dtype == np.uint16 and fam.index_dtype == np.int32
        assert fam.ball_count.shape == (n,)
        assert [k for k, v in vars(fam).items() if isinstance(v, np.ndarray) and v.ndim > 1] == [
            "order"]
        assert _index_bytes(fam) <= 10 * n ** 2 + 4 * n
        # a tied grid keeps 8 bytes per ball column, with its layouts:
        # measured 2 + 0.32 + 0.29 bytes per cell
        grid = generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed=0)
        assert _index_bytes(grid.ball_family) <= 2.7 * grid.n ** 2

    @pytest.mark.parametrize("kind, params", [
        ("random-points", {"n": 30}),  # tie-free
        ("grid", {"nx": 5, "ny": 6, "metric": "linf"}),  # tied, one block
        ("grid", {"nx": 20, "ny": 20, "metric": "l1"}),  # tied, several blocks
    ])
    def test_counts_and_keys_match_the_full_formulas(self, kind, params):
        space = generate(kind, params, seed=2)
        assert (len(list(space.ball_family.row_blocks())) > 1) == (space.n == 400)
        _assert_counts_and_keys(space)

    def test_prefix_measure_strictly_increasing_to_total(self):
        # one tie-free block: the index keeps the mass of every prefix
        space = generate("random-points", {"n": 11, "measure": "random"}, seed=6)
        prefix = space.ball_family.ball_masses(slice(0, space.n), IdentityLayout)
        assert prefix.shape == (space.n, space.n)
        assert np.all(np.diff(prefix, axis=1) > 0.0)
        assert prefix[:, -1] == pytest.approx(space.total_mass, rel=1e-15)

    @pytest.mark.parametrize("kind, params, chunk", [
        ("random-points", {"n": 30}, None),  # tie-free
        ("grid", {"nx": 5, "ny": 6, "metric": "linf"}, None),  # tied, one block
        ("grid", {"nx": 20, "ny": 20, "metric": "l1"}, None),  # tied, several blocks
        # slices the index was not built by: their masses are worked out afresh
        ("grid", {"nx": 20, "ny": 20, "metric": "l1"}, 7 * 400),
    ])
    def test_ball_masses_are_the_prefix_at_the_ball_ends(self, monkeypatch, kind, params, chunk):
        space = generate(kind, params, seed=2)
        space.ball_family
        if chunk is not None:
            monkeypatch.setattr(space_module, "CHUNK_CELLS", chunk)
        _assert_ball_masses(space, kept=chunk is None)


def _index_bytes(fam):
    """Bytes the index holds: its ndarray attributes and the arrays of its block layouts."""
    held = sum(v.nbytes for v in vars(fam).values() if isinstance(v, np.ndarray))
    return held + sum(getattr(layout, name).nbytes for _, layout, _ in fam._layouts
                      if isinstance(layout, BallLayout) for name in BallLayout.__slots__)


def _assert_ball_masses(space, kept=True):
    """Every block's masses, pads included, are the oracle's prefix masses at its ball ends.

    Column j of a row reads the mass of the row's (j+1)-th ball, or of its
    last in a pad. A per-position read is the oracle's full rows. Where
    `kept`, the blocks are the build's and read views of the index's masses.
    """
    fam = space.ball_family
    ends, prefix = oracles.ball_ends(space), oracles.prefix_measure(space)
    for rows in fam.row_blocks():
        masses = fam.ball_masses(rows, fam.layout(rows))
        count = np.count_nonzero(ends[rows], axis=1)
        assert masses.shape == (rows.stop - rows.start, count.max())
        assert np.shares_memory(masses, fam.ball_mass) == kept
        for r, c in enumerate(range(rows.start, rows.stop)):
            balls = np.flatnonzero(ends[c])
            cols = balls[np.minimum(np.arange(masses.shape[1]), len(balls) - 1)]
            assert masses[r].tobytes() == prefix[c, cols].tobytes()
        assert fam.ball_masses(rows).tobytes() == prefix[rows].tobytes()
    assert fam.ball_masses(slice(None)).tobytes() == prefix.tobytes()


def _assert_counts_and_keys(space):
    """The counts, and every column of every block's key table, by the oracle's full formulas.

    Column j of a row holds the row's (j+1)-th ball, or its last in a pad:
    the position the layout reads there ends that ball, and the column's
    key is the oracle's key at that position.
    """
    fam, n = space.ball_family, space.n
    ends, keys = oracles.ball_ends(space), oracles.ball_keys(space)
    assert np.array_equal(fam.ball_count, np.count_nonzero(ends, axis=1))
    for rows in fam.row_blocks():
        layout = fam.layout(rows)
        cells = np.arange(rows.start * n, rows.stop * n).reshape(-1, n)
        pos = layout.take(cells) - cells[:, :1]  # the position each column reads
        got = fam.keys(rows, pos.shape[1])
        assert got.dtype == fam.index_dtype
        for r, c in enumerate(range(rows.start, rows.stop)):
            balls = np.flatnonzero(ends[c])
            assert np.array_equal(pos[r], balls[np.minimum(np.arange(pos.shape[1]), len(balls) - 1)])
            assert np.array_equal(got[r], keys[c, pos[r]])


def _full_coords_dist(coords, metric_kind):
    """Coordinate distances by the full (n, n, d) formulas."""
    diff = coords[:, None, :] - coords[None, :, :]
    if metric_kind == "euclidean":
        return np.sqrt((diff * diff).sum(axis=2))
    if metric_kind == "l1":
        return np.abs(diff).sum(axis=2)
    return np.abs(diff).max(axis=2)


def _full_validate(dist):
    """The matrix checks, bar the triangle, by full-matrix formulas."""
    n = dist.shape[0]
    if not np.all(np.isfinite(dist)):
        raise AsymmetricDistance("distance matrix has non-finite entries")
    if np.any(np.diag(dist) != 0.0):
        raise ZeroDistanceDistinctPoints("nonzero diagonal entry")
    if not np.array_equal(dist, dist.T):
        i, j = np.unravel_index(int(np.abs(dist - dist.T).argmax()), dist.shape)
        raise AsymmetricDistance(f"dist({i},{j}) != dist({j},{i})")
    off = dist[~np.eye(n, dtype=bool)]
    if off.size and off.min() <= 0.0:
        raise ZeroDistanceDistinctPoints("distinct points at distance <= 0")


def _full_triangle(dist):
    """(excess, triple) of the worst triangle slack, two temporaries per j."""
    worst = (0.0, (0, 0, 0))
    for j in range(dist.shape[0]):
        slack = dist - (dist[:, j][:, None] + dist[j][None, :])
        m = float(slack.max())
        if m > worst[0]:
            i, k = np.unravel_index(int(slack.argmax()), slack.shape)
            worst = (m, (int(i), j, int(k)))
    return worst


STREAMED_SPACES = {
    "euclidean-dim-9": lambda: generate("random-points", {"n": 90, "dim": 9}, seed=4),
    "euclidean-dim-2": lambda: generate("random-points", {"n": 70, "measure": "random"}, seed=1),
    "l1-dim-12": lambda: generate("random-points", {"n": 60, "dim": 12, "metric": "l1"}, seed=4),
    "linf-dim-5": lambda: generate("random-points", {"n": 60, "dim": 5, "metric": "linf"}, seed=4),
    "path": lambda: generate("path", {"n": 50}, seed=3),
    "tree": lambda: generate("tree", {"n": 45}, seed=3),
    "snowflake": lambda: generate(
        "snowflake", {"base": generate("grid", {"nx": 6, "ny": 7}, seed=0), "eps": 0.5}, seed=0),
    "n=1": lambda: generate("random-points", {"n": 1, "dim": 3}, seed=0),
    "n=2": lambda: generate("grid", {"nx": 1, "ny": 2, "metric": "l1"}, seed=0),
}


class TestStreamedBuild:
    @staticmethod
    def _assert_full_bytes(space, base=None):
        if space.metric_kind in ("euclidean", "l1", "linf"):
            want = _full_coords_dist(space.coords, space.metric_kind)
            assert space.dist.tobytes() == want.tobytes()
        if base is not None:
            assert space.dist.tobytes() == np.power(base.dist, 0.5).tobytes()
        fam = space.ball_family
        order = np.argsort(space.dist, axis=1, kind="stable").astype(np.uint16)
        assert fam.order.dtype == order.dtype and fam.order.tobytes() == order.tobytes()
        _assert_ball_masses(space)
        _assert_counts_and_keys(space)

    def test_three_block_grid_is_byte_equal_to_the_full_build(self, three_block_grid):
        self._assert_full_bytes(three_block_grid)

    @pytest.mark.parametrize("name", list(STREAMED_SPACES))
    def test_uneven_blocks_are_byte_equal_to_the_full_build(self, monkeypatch, name):
        # 1-7 rows per block, the last one short
        monkeypatch.setattr(space_module, "CHUNK_CELLS", 400)
        space = STREAMED_SPACES[name]()
        base = None
        if name == "snowflake":
            base = generate("grid", {"nx": 6, "ny": 7}, seed=0)
        self._assert_full_bytes(space, base)

    @pytest.mark.parametrize("kind, params", [
        ("grid", {"nx": 50, "ny": 60, "metric": "linf"}),
        ("random-points", {"n": 3000}),
    ])
    def test_generate_and_index_peak_at_their_held_bytes(self, kind, params):
        # the full-array builds peaked at 40 n^2 (generate) and 37 n^2 (index);
        # distances 8 bytes per cell and the index 10 are held on the tie-free
        # points, measured 18.07 n^2 at the peak; the tied grid's index holds
        # about 2.5 (measured 10.46), so one n x n float temporary breaks either bound
        tracemalloc.start()
        try:
            space = generate(kind, params, seed=1)
            space.ball_family
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.n == 3000
        assert peak <= (12 if kind == "grid" else 19) * space.n ** 2

    @pytest.mark.parametrize("kind, params", [
        ("grid", {"nx": 50, "ny": 60, "metric": "linf"}),
        ("random-points", {"n": 3000}),
    ])
    def test_layouts_stay_within_the_held_bytes(self, kind, params):
        # the tied grid gets a BallLayout in every block, the tie-free points
        # the identity, which holds no array
        tracemalloc.start()
        try:
            space = generate(kind, params, seed=1)
            fam = space.ball_family
            layouts = [fam.layout(rows) for rows in fam.row_blocks()]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind == "grid":
            assert all(isinstance(layout, BallLayout) for layout in layouts)
        else:
            assert all(layout is IdentityLayout for layout in layouts)
            assert not any(isinstance(v, np.ndarray) for v in vars(IdentityLayout).values())
        assert peak <= (12 if kind == "grid" else 19) * space.n ** 2

    def test_layout_bytes_per_cell_at_the_widest(self):
        # distances 1 + ((i + j) mod k) / k, all in [1, 2], so a metric: with
        # k = n - 2 every center has k + 1 = n - 1 balls, one tie short of
        # the identity: the widest a BallLayout gets
        n = 256
        k = n - 2
        i = np.arange(n)
        dist = 1.0 + (np.add.outer(i, i) % k) / k
        np.fill_diagonal(dist, 0.0)
        fam = build_space(dist, "explicit-matrix", np.ones(n)).ball_family
        layouts = [fam.layout(rows) for rows in fam.row_blocks()]
        assert all(layout.ends.shape[1] == n - 1 for layout in layouts)
        # order 2 bytes per cell, the masses 8 and the layouts' ends and
        # starts 4 each, and 12 per row for the count and first and last;
        # with the 8 of distances and a suite's 1.8, n = 15 000 needs
        # 27.8 n^2 = 6.26 GB
        assert _index_bytes(fam) <= 18.1 * n ** 2

    @pytest.mark.parametrize("source", ["snowflake", "document"])
    def test_a_fresh_matrix_is_kept_not_copied(self, source):
        # build_space's copy of the fresh matrix peaked at 2.01 x 8n^2
        base = generate("grid", {"nx": 25, "ny": 40}, seed=0)
        doc = space_module.space_document(base) if source == "document" else None
        tracemalloc.start()
        try:
            if doc is None:
                space = generate("snowflake", {"base": base, "eps": 0.5})
            else:
                space, _ = space_module.space_from_document(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.n == 1000
        assert peak <= 1.1 * 8 * space.n ** 2

    def test_a_document_array_is_copied(self):
        base = generate("grid", {"nx": 3, "ny": 4}, seed=0)
        doc = space_module.space_document(base)
        doc["distances"] = base.dist.copy()
        space, _ = space_module.space_from_document(doc)
        assert space.dist is not doc["distances"]
        assert doc["distances"].flags.writeable

    @staticmethod
    def _faulty(fault):
        d = generate("random-points", {"n": 40}, seed=5).dist.copy()
        if fault == "asymmetric":
            d[1, 2], d[2, 1] = 1.0, 1.25  # a smaller gap in the first block
            # two maximal gaps in later blocks: the first is named
            d[20, 33], d[33, 20] = 1.0, 1.5
            d[25, 30], d[30, 25] = 1.0, 1.5
        elif fault == "zero":
            d[31, 30] = d[30, 31] = 0.0
        elif fault == "negative":
            d[39, 38] = d[38, 39] = -1.0
        elif fault == "non-finite":
            d[36, 2] = d[2, 36] = np.nan
            d[38, 1] = np.inf
        return d

    @pytest.mark.parametrize("fault", ["asymmetric", "zero", "negative", "non-finite"])
    def test_a_fault_in_a_later_block_raises_the_full_check_error(self, monkeypatch, fault):
        monkeypatch.setattr(space_module, "CHUNK_CELLS", 3 * 40)  # 14 blocks of 3 rows
        d = self._faulty(fault)
        with pytest.raises((AsymmetricDistance, ZeroDistanceDistinctPoints)) as want:
            _full_validate(d)
        with pytest.raises(type(want.value)) as got:
            _validate_matrix(d, check_triangle=False)
        assert str(got.value) == str(want.value)
        if fault == "asymmetric":
            assert str(got.value) == "dist(20,33) != dist(33,20)"

    def test_worst_triangle_triple_and_slack_are_unchanged(self):
        rng = np.random.default_rng(8)
        d = generate("random-points", {"n": 60}, seed=8).dist.copy()
        for _ in range(5):  # a few violations of different sizes
            i, k = rng.choice(60, size=2, replace=False)
            d[i, k] = d[k, i] = d[i, k] * rng.uniform(2.0, 4.0)
        excess, triple = _full_triangle(d)
        assert excess > TRIANGLE_TOL_FACTOR * d.max()
        with pytest.raises(TriangleViolation) as exc:
            _validate_matrix(d)
        assert exc.value.triple == triple
        assert exc.value.excess == excess


class TestAveragesAtPos:
    def test_constant(self, three_path):
        avg = three_path.ball_family.averages_at_pos(np.full(3, 4.2))
        assert avg == pytest.approx(np.full((3, 3), 4.2), rel=1e-13)

    def test_two_point_worked(self, two_point):
        avg = two_point.ball_family.averages_at_pos(np.array([1.0, np.e]))
        assert avg[0, 1] == pytest.approx(1.85914, abs=1e-5)  # center 0, rank 2

    def test_three_path_spike(self, three_path):
        avg = three_path.ball_family.averages_at_pos(np.array([0.0, 3.0, 0.0]))
        assert avg[0, 2] == pytest.approx(1.0, rel=1e-13)  # center 0, rank 3


class TestEnumerateBalls:
    def test_two_point(self, two_point):
        got = {tuple(b.members) for b in enumerate_balls(two_point)}
        assert got == {(0,), (1,), (0, 1)}

    def test_three_path(self, three_path):
        got = {tuple(b.members) for b in enumerate_balls(three_path)}
        assert got == {(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}

    def test_one_point(self, one_point):
        balls = enumerate_balls(one_point)
        assert len(balls) == 1 and tuple(balls[0].members) == (0,)

    def test_no_dedupe_counts_ranks(self, two_point):
        assert len(enumerate_balls(two_point, dedupe=False)) == 4

    @pytest.mark.parametrize("kind, params", [
        ("grid", {"nx": 6, "ny": 7, "metric": "linf"}),  # many tied distances
        ("random-points", {"n": 30}),  # no ties
    ])
    def test_index_counts_every_rank(self, kind, params):
        space = generate(kind, params, seed=2)
        balls = len(enumerate_balls(space, dedupe=False))
        assert int(space.ball_family.ball_count.sum()) == balls
        assert np.count_nonzero(oracles.ball_ends(space)) == balls

    def test_matches_naive_enumeration(self):
        space = generate("random-points", {"n": 17, "dim": 2}, seed=3)
        fast = {tuple(b.members) for b in enumerate_balls(space)}
        naive = {tuple(m) for m in oracles.balls_naive(space)}
        assert fast == naive

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 10.0))
    def test_ball_completeness(self, seed, r):
        # every set {y: dist(x, y) < r} is the member set of some ball
        space = generate("random-points", {"n": 9, "dim": 2},
                         seed=seed % 1000)
        realized = {tuple(b.members) for b in enumerate_balls(space)}
        for x in range(space.n):
            members = tuple(np.nonzero(space.dist[x] < r)[0])
            if members:
                assert members in realized


class TestDoubling:
    def test_two_point_witness(self, two_point):
        res = doubling_constant(two_point)
        assert res.value == 2.0
        assert res.sample_radius == 1.0  # witness radius r in (1/2, 1]
        assert res.alt_value is None
        assert res.witness.center == 0

    def test_one_point(self, one_point):
        assert doubling_constant(one_point).value == 1.0

    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_grid_matches_bruteforce(self, n):
        space = generate("path", {"n": n, "measure": "random"}, seed=n)
        got = doubling_constant(space).value
        want = oracles.doubling_naive(space)
        assert got == pytest.approx(want, rel=1e-12)

    def test_uniform_1d_grid(self):
        space = build_space(np.arange(8.0), "l1", np.full(8, 1 / 8))
        assert doubling_constant(space).value == pytest.approx(
            oracles.doubling_naive(space), rel=1e-12)

    def test_at_least_one_and_one_only_for_singleton(self):
        for seed in range(5):
            space = generate("random-points", {"n": 6}, seed=seed)
            assert doubling_constant(space).value > 1.0

    def test_tie_resolves_to_smallest_key(self):
        # the points at 3 and 4 (centers 2 and 3) both reach 3, at r = 2
        # and r = 1: B(3, 2) = {3, 4} has rank 2, B(4, 1) = {4} rank 1,
        # the smaller key
        res = doubling_constant(_tied_line())
        assert res.value == 3.0
        assert res.witness == BallRef(3, 1, 0.0)
        assert res.sample_radius == 1.0


def _tied_line():
    return build_space(np.array([0., 1, 3, 4, 5, 6]), "l1", np.ones(6))


def _assert_doubling_matches_rowwise(space):
    res = doubling_constant(space)
    assert (res.value, res.witness, res.sample_radius) == oracles.doubling_rowwise(space), space.n


class TestDoublingBlocks:
    """The doubling scan by blocks of centers is bit-identical to the per-center loop."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_sampled_spaces(self, kind):
        rng = np.random.default_rng(800 + GENERATOR_KINDS.index(kind))
        for _ in range(8):
            _assert_doubling_matches_rowwise(sample_space(rng, 90, kind))

    def test_tie_heavy_linf_grid(self):
        _assert_doubling_matches_rowwise(
            generate("grid", {"nx": 12, "ny": 15, "metric": "linf"}, seed=3))

    @pytest.mark.parametrize("kind,params", [
        ("grid", {"nx": 20, "ny": 20, "metric": "l1"}),
        ("path", {"n": 300}),
    ])
    def test_spaces_of_several_blocks(self, kind, params):
        space = generate(kind, params, seed=1)
        assert len(list(space.ball_family.row_blocks())) > 1
        _assert_doubling_matches_rowwise(space)

    def test_subnormal_distances(self):
        # halving the least subnormal gives 0, and 2 * (e / 2) != e at odd multiples of it
        for coords in ([0.0, 5e-324, 1e-323, 3e-323], [0.0, 5e-324, 1.5e-323, 1e-300]):
            _assert_doubling_matches_rowwise(
                build_space(np.array(coords), "l1", np.array([1.0, 2.0, 3.0, 4.0])))

    def test_tied_line(self):
        _assert_doubling_matches_rowwise(_tied_line())

    @pytest.mark.parametrize("seed", [1, 2])
    def test_analyze_inputs(self, seed):
        _assert_doubling_matches_rowwise(_analyze_points(seed)[0])
        _assert_doubling_matches_rowwise(
            generate("grid", {"nx": 25, "ny": 40, "metric": "linf"}, seed))

    def test_peak_memory_below_one_table(self):
        space = _analyze_points(1)[0]
        tracemalloc.start()
        try:
            doubling_constant(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * space.n ** 2


@pytest.mark.parametrize("kind,params", [
    ("grid", {"nx": 40, "ny": 50, "metric": "linf"}),
    ("random-points", {"n": 1500, "measure": "random"}),
])
def test_doubling_metamorphic(kind, params):
    """Relations between spaces rebuilt from coordinates, at sizes no oracle runs."""
    base = generate(kind, params, seed=1)
    coords, metric, mu = base.coords, base.metric_kind, base.measure
    del base

    def doubling(coords, mu):
        return doubling_constant(build_space(coords, metric, mu))

    res = doubling(coords, mu)
    assert res.value > 1.0
    # coordinates x2: every distance doubles exactly, every mass stays
    scaled = doubling(2.0 * coords, mu)
    assert scaled.value == res.value
    assert (scaled.witness.center, scaled.witness.rank) == (res.witness.center, res.witness.rank)
    assert scaled.witness.radius == 2.0 * res.witness.radius
    assert scaled.sample_radius == 2.0 * res.sample_radius
    # measure x2: every mass doubles exactly, so every ratio keeps its bits
    assert doubling(coords, 2.0 * mu) == res
    # points permuted: sums change order, and on the grid ties move the witness
    perm = np.random.default_rng(1).permutation(len(mu))
    moved = doubling(coords[perm], mu[perm])
    assert moved.value == pytest.approx(res.value, rel=1e-12)
    d = build_space(coords, metric, mu).dist[perm[moved.witness.center]]
    r = moved.sample_radius
    ball = d <= moved.witness.radius
    assert np.array_equal(ball, d < r)
    assert len(np.unique(d[ball])) == moved.witness.rank
    assert mu[d < 2.0 * r].sum() / mu[ball].sum() == pytest.approx(res.value, rel=1e-12)


class TestAnnularDecay:
    def test_one_point_zero(self, one_point):
        assert annular_decay_constant(one_point, 1.0, 1.0).value == 0.0

    def test_two_point_worked(self, two_point):
        res = annular_decay_constant(two_point, alpha=1.0, r_min=2.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.witness_delta == pytest.approx(0.5, abs=1e-12)
        assert res.witness_center == 0
        assert res.witness_radius == 2.0

    @pytest.mark.parametrize("n,alpha", [(6, 1.0), (9, 0.5), (13, 1.0)])
    def test_uniform_grid_matches_oracle(self, n, alpha):
        space = build_space(np.arange(float(n)), "l1", np.full(n, 1.0 / n))
        r_min = 2.0  # twice the grid step
        got = annular_decay_constant(space, alpha, r_min).value
        want = oracles.annular_naive(space, alpha, r_min)
        assert got == pytest.approx(want, rel=1e-12)

    def test_random_spaces_match_oracle(self):
        rng = np.random.default_rng(0)
        cases = []
        for seed in range(6):
            space = generate("random-points",
                             {"n": 8, "measure": "random"}, seed=seed)
            r_min = float(rng.uniform(0.2, 1.0)) * space.diameter
            alpha = float(rng.uniform(0.0, 1.0))
            cases.append((space, alpha, r_min))
        space = generate("random-points", {"n": 30, "measure": "random"}, seed=6)
        cases += [(space, alpha, 0.3 * space.diameter) for alpha in (0.5, 1.0)]
        for space, alpha, r_min in cases:
            res = annular_decay_constant(space, alpha, r_min)
            want = oracles.annular_naive(space, alpha, r_min)
            assert res.value == pytest.approx(want, rel=1e-12)
            # the witness triple attains the reported constant
            at_witness = oracles.annular_ratio(space, alpha, res.witness_center,
                                               res.witness_radius, res.witness_delta)
            assert at_witness == pytest.approx(res.value, rel=1e-12)

    def test_monotone_in_r_min_and_alpha(self):
        space = generate("random-points", {"n": 10}, seed=5)
        r_grid = np.linspace(0.1, 2.0, 8) * space.diameter
        vals = [annular_decay_constant(space, 1.0, float(r)).value for r in r_grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        a_grid = np.linspace(0.0, 1.0, 6)
        vals = [annular_decay_constant(space, float(a), 1.0).value for a in a_grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_empty_radius_range(self, two_point):
        with pytest.raises(EmptyRadiusRange):
            annular_decay_constant(two_point, 1.0, 2.0000001)

    def test_alpha_range_validated(self, two_point):
        with pytest.raises(InvalidParams):
            annular_decay_constant(two_point, 1.5, 1.0)


ANNULAR_ALPHAS = (0.0, 0.3, 0.5, 0.999, 1.0)


def _assert_annular_matches_rowwise(space, alpha, r_min):
    res = annular_decay_constant(space, alpha, r_min)
    got = (res.value, res.witness_center, res.witness_radius, res.witness_delta)
    assert got == oracles.annular_rowwise(space, alpha, r_min), (space.n, alpha, r_min)


def _min_distance(space):
    return float(space.dist[space.dist > 0].min())


@functools.lru_cache(maxsize=None)
def _analyze_points(seed):
    """The points input of the `analyze` benchmark, at the CLI's r_min."""
    space = generate("random-points", {"n": 500, "dim": 2, "measure": "random"}, seed)
    space.ball_family  # the index is built before any measurement
    return space, 2.0 * _min_distance(space)


def _table_cells(space, r_min):
    """Cells of the full (interval, j) tables of every center."""
    fam = space.ball_family
    ends = oracles.ball_ends(space)
    total = 0
    for c in range(space.n):
        e = space.dist[c, fam.order[c, ends[c]]]
        m = len(e) - 1
        total += (m + 1 - int(np.searchsorted(np.append(e[1:], np.inf), r_min))) * m
    return total


class TestAnnularScreen:
    """The screened annular scan is bit-identical to evaluating every cell."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_sampled_spaces(self, kind):
        rng = np.random.default_rng(700 + GENERATOR_KINDS.index(kind))
        for _ in range(6):
            space = sample_space(rng, 60, kind)
            for alpha in ANNULAR_ALPHAS:
                for scale in (0.5, 1.0, 2.0, 5.0):
                    r_min = scale * _min_distance(space)
                    if r_min <= 2.0 * space.diameter:
                        _assert_annular_matches_rowwise(space, alpha, r_min)

    def test_tie_heavy_linf_grid(self):
        space = generate("grid", {"nx": 12, "ny": 10, "metric": "linf"}, seed=3)
        for alpha in ANNULAR_ALPHAS:
            for r_min in (0.5, 1.0, 1.5, 2.0, 3.0, 7.0):
                _assert_annular_matches_rowwise(space, alpha, r_min)

    def test_uniform_step_path(self):
        space = build_space(np.arange(80.0), "l1", np.full(80, 1.0 / 80))
        for alpha in ANNULAR_ALPHAS:
            for r_min in (0.5, 1.0, 2.0, 2.5, 10.0, 40.0):
                _assert_annular_matches_rowwise(space, alpha, r_min)

    def test_l1_grid_of_several_blocks(self):
        # several row blocks, and centers with different numbers of balls
        space = generate("grid", {"nx": 20, "ny": 20, "metric": "l1"}, seed=1)
        fam = space.ball_family
        assert len(list(fam.row_blocks())) > 1
        assert len(set(np.count_nonzero(oracles.ball_ends(space), axis=1))) > 1
        for alpha in (0.0, 0.5, 1.0):
            for r_min in (0.5, 2.0, 7.0):
                _assert_annular_matches_rowwise(space, alpha, r_min)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_analyze_points_input(self, seed):
        space, r_min = _analyze_points(seed)
        _assert_annular_matches_rowwise(space, 1.0, r_min)
        _assert_annular_matches_rowwise(space, 0.5, r_min)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_screen_evaluates_few_cells(self, seed):
        space, r_min = _analyze_points(seed)
        evaluated = _annular_scan(space, 1.0, r_min)[2]
        assert evaluated < 0.01 * _table_cells(space, r_min)
        # most centers are dismissed by their bounds without a single cell:
        # the cells stay below one block (at most ceil(sqrt(n-1)) columns)
        # per center
        assert evaluated < space.n * (math.isqrt(space.n - 2) + 1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_pair_bounds_cover_every_cell_of_their_pair(self, alpha):
        rng = np.random.default_rng(750)
        spaces = [sample_space(rng, 90, kind) for kind in GENERATOR_KINDS]
        spaces += [generate("grid", {"nx": 20, "ny": 20, "metric": "l1"}, seed=1),
                   generate("path", {"n": 200}, seed=1)]
        pow_slack = 1.0 if alpha in (0.0, 1.0) else 1.0 - 2.0 ** -49
        for space in spaces:
            fam = space.ball_family
            for scale in (0.5, 2.0, 7.0):
                r_min = scale * _min_distance(space)
                bounds = {}  # center -> its pair bounds and columns per block
                for rows in fam.row_blocks():
                    e, cum, m = _ball_columns(fam, rows)
                    size = math.isqrt(e.shape[1] - 2) + 1
                    for p0, pairs in _annular_bounds(e, cum, m, alpha, r_min, pow_slack):
                        bounds.update((rows.start + p0 + r, (b, size)) for r, b in enumerate(pairs))
                for c, e, r_star, table in oracles.annular_tables(space, alpha, r_min):
                    pairs, size = bounds[c]
                    (n_rb, n_cb), rsize = pairs.shape, (size + 1) // 2
                    # row i of the table is interval i, column j - 1 distance j
                    cells = np.full((n_rb * rsize, n_cb * size), -np.inf)
                    cells[len(e) - len(r_star):len(e), :len(e) - 1] = np.where(
                        np.isnan(table), -np.inf, table)  # a NaN cell is never a maximum
                    most = cells.reshape(n_rb, rsize, n_cb, size).max(axis=(1, 3))
                    assert not np.any(pairs < most), (space.n, r_min, c)

    @pytest.mark.parametrize("seed,before", [(1, 1909), (2, 2415)])
    def test_screen_evaluates_no_more_cells_than_the_per_center_loop(self, seed, before):
        # before: the cells the scan evaluated when every center ran its own screen
        space, r_min = _analyze_points(seed)
        assert _annular_scan(space, 1.0, r_min)[2] <= before

    def test_peak_memory_below_one_table(self):
        space, r_min = _analyze_points(1)
        tracemalloc.start()
        try:
            annular_decay_constant(space, 1.0, r_min)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * space.n ** 2


class TestGenerate:
    def test_grid_2x2_linf(self):
        space = generate("grid", {"nx": 2, "ny": 2, "metric": "linf"}, seed=0)
        assert space.n == 4
        assert space.diameter == 1.0

    @pytest.mark.parametrize("n, shape", [(1, (1, 1)), (2, (1, 2)), (7, (7, 1)),
                                          (12, (3, 4)), (1000, (1000, 1)),
                                          (1024, (32, 32))])
    def test_grid_shape_from_n(self, n, shape):
        # nx = floor(sqrt n) when it divides n, else one 1 x n line
        space = generate("grid", {"n": n}, seed=0)
        want = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
        assert np.array_equal(space.coords, np.array(want, dtype=float))

    def test_snowflake_two_point_unit_distance(self, two_point):
        flaked = generate("snowflake", {"base": two_point, "eps": 0.5}, seed=0)
        assert flaked.dist[0, 1] == 1.0  # 1**eps == 1

    def test_snowflake_is_metric(self):
        base = generate("random-points", {"n": 12}, seed=2)
        flaked = generate("snowflake", {"base": base, "eps": 0.4}, seed=0)
        build_space(flaked.dist, "explicit-matrix", flaked.measure)  # revalidates

    def test_determinism(self):
        a = generate("random-points", {"n": 16, "dim": 2}, seed=7)
        b = generate("random-points", {"n": 16, "dim": 2}, seed=7)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.measure, b.measure)

    def test_tree_valid(self):
        space = generate("tree", {"n": 13}, seed=1)
        build_space(space.dist, "explicit-matrix", space.measure)

    def test_invalid_params(self, two_point):
        with pytest.raises(InvalidParams):
            generate("snowflake", {"base": None, "eps": 0.5}, seed=0)
        with pytest.raises(InvalidParams):
            generate("snowflake", {"base": two_point, "eps": 1.5}, seed=0)
        with pytest.raises(InvalidParams):
            generate("no-such-kind", {}, seed=0)


class TestDocuments:
    def test_round_trip_bit_exact(self, tmp_path):
        space = generate("random-points", {"n": 9, "dim": 2,
                                           "measure": "random"}, seed=4)
        w = np.exp(np.random.default_rng(1).uniform(-1, 1, 9))
        path = tmp_path / "doc.json"
        save(space, {"w": w}, path)
        loaded, weights = load(path)
        assert np.array_equal(loaded.dist, space.dist)
        assert np.array_equal(loaded.measure, space.measure)
        assert np.array_equal(weights["w"], w)
        assert loaded.metric_kind == space.metric_kind

    def test_missing_measure_is_parse_error(self, tmp_path):
        doc = {"points": [{"id": 0}], "metric": "explicit-matrix",
               "distances": [[0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.field == "measure"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)

    def test_documented_sample_is_three_point_path(self, three_path):
        space, weights = load(Path(__file__).resolve().parents[1] / "docs" / "sample_space.json")
        assert np.array_equal(space.dist, three_path.dist)
        assert np.array_equal(space.measure, three_path.measure)
        assert "w" in weights


class TestBlockIndex:
    def test_a_block_cast_is_shared_by_the_reads_of_its_block(self, three_block_grid):
        fam = three_block_grid.ball_family
        for rows in list(fam.row_blocks()) * 2:
            index = fam.block_index(rows)
            assert index.dtype == np.intp and np.array_equal(index, fam.order[rows])
            assert fam.block_index(rows) is index  # every read of the block shares it
        assert fam.order.dtype == np.uint16

    def test_other_rows_are_cast_afresh(self, three_block_grid):
        fam = three_block_grid.ball_family
        for rows in (slice(None), slice(3, 250), slice(0, 20, 2), np.array([5, 2, 9])):
            index = fam.block_index(rows)
            assert index.dtype == np.intp and np.array_equal(index, fam.order[rows])
            assert fam.block_index(rows) is not index
        # a short slice is at most one block's cells
        assert fam.block_index(slice(7, 9)) is fam.block_index(slice(7, 9))
        # one block covers a small space: it reads order, and nothing is kept
        small = generate("grid", {"nx": 8, "ny": 8}, seed=0).ball_family
        assert small.block_index(slice(0, 64)).base is small.order
        assert small._kept.buffer is None

    def test_threads_keep_their_own_block(self, three_block_grid):
        fam = three_block_grid.ball_family
        first, last = list(fam.row_blocks())[0], list(fam.row_blocks())[-1]
        index = fam.block_index(first)
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(lambda: fam.block_index(last).copy()).result()
        assert np.array_equal(other, fam.order[last])
        assert fam.block_index(first) is index and np.array_equal(index, fam.order[first])


class TestTracerContract:
    def test_traced_methods_are_defined_on_ball_family(self):
        # perfbench's tracer patches BallFamily.__dict__[attr] for each of its
        # METHOD_SPANS, so a renamed or inherited method fails every traced run
        source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spans = next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["METHOD_SPANS"])
        assert len(spans) >= 5
        for _, attr in spans:
            assert attr in BallFamily.__dict__, attr
