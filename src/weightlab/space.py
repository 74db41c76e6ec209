"""Finite metric measure spaces and their ball structure.

Provides:
  * FiniteMetricMeasureSpace: n points, pairwise distances, positive masses.
  * BallFamily: per-center sorted-distance index, one n x n array of point
    ids (2 bytes per cell) with the layouts of its blocks of centers and
    the mass of every ball they read. Every ball of the space is a closed
    sub-level set of dist(center, .) at one of the center's distinct
    distances, so the family is a complete, finite realization of all
    balls. Its `scan` feeds every ball reduction block by block of
    centers, over tables with one column per ball: each block reads its
    tables through its layout, a `BallLayout` or, where every position
    ends a ball, the `IdentityLayout`.
  * Ball enumeration, the doubling constant, and the annular decay constant,
    each with an extremal witness. Doubling is one `Sup` in `scan`; only
    the annular scan runs its own blocks of centers.
  * Generators for standard space families and a JSON document format.

Radius conventions. Balls are open, B(x, r) = {y : dist(x, y) < r}. On a
finite space the map r -> B(x, r) is a step function whose realized values
are exactly the closed sub-level sets at the distinct distances from x, so
each Ball is stored by (center, rank) where rank k picks the k-th smallest
distinct distance (rank 1 is distance 0, the singleton).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    AsymmetricDistance,
    EmptyRadiusRange,
    InvalidParams,
    NonpositiveMeasure,
    ParseError,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)

TRIANGLE_TOL_FACTOR = 1e-9  # tolerance = factor * max distance
# (center, position) cells per block of centers or chunk of cells: every
# reduction over the n x n ball tables, and the construction of the
# distances and the index, works in pieces of this size
CHUNK_CELLS = 1 << 15

METRIC_KINDS = ("euclidean", "l1", "linf", "graph-shortest-path", "explicit-matrix")


@dataclass(frozen=True, eq=False)
class FiniteMetricMeasureSpace:
    """A finite metric space with a strictly positive point measure.

    Immutable after construction; the distance matrix and measure vector are
    marked read-only so the cached BallFamily stays valid under concurrent
    reads.
    """

    dist: np.ndarray
    measure: np.ndarray
    metric_kind: str = "explicit-matrix"
    coords: np.ndarray | None = None

    def __post_init__(self):
        self.dist.flags.writeable = False
        self.measure.flags.writeable = False
        if self.coords is not None:
            self.coords.flags.writeable = False

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.measure.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    @cached_property
    def ball_family(self) -> "BallFamily":
        return BallFamily(self)


@dataclass(frozen=True)
class BallRef:
    """Lightweight handle of one realized ball."""

    center: int
    rank: int  # 1-based among the center's distinct distances
    radius: float  # the rank-th smallest distinct distance from the center


@dataclass(frozen=True, eq=False)
class Ball:
    """A realized ball: closed sub-level set of dist(center, .) at `radius`."""

    center: int
    rank: int
    radius: float
    members: np.ndarray  # ascending point ids

    def key(self) -> bytes:
        return self.members.tobytes()


class IdentityLayout:
    """The layout of a tie-free `row_blocks` slice, where every position ends a ball.

    Its per-ball tables are the per-position tables themselves: a gather
    returns its input, ball j of a row ends at position j, and each tie
    group is a single position. It holds nothing, so the class itself is
    the layout, shared by every tie-free block; it answers the questions
    of `BallLayout` with the same names.
    """

    @staticmethod
    def take(table: np.ndarray) -> np.ndarray:
        return table

    @staticmethod
    def end(r, j):
        return j

    @staticmethod
    def to_positions(table: np.ndarray) -> np.ndarray:
        return table.ravel()

    @staticmethod
    def running(ufunc, fs: np.ndarray) -> np.ndarray:
        ufunc.accumulate(fs, axis=1, out=fs)
        return fs


class BallFamily:
    """Per-center nearest-first index with prefix sums.

    For each center the points are sorted by (distance, id); a prefix of
    length j is a realized ball iff position j-1 ends a tie group of equal
    distances. All per-ball averages reduce to prefix-sum lookups at those
    boundary positions, in a fixed summation order (ascending distance, then
    id), which makes every downstream constant reproducible bit for bit.

    The index is the only source of ball structure. It holds one n x n
    array, order (uint16 up to 65 536 points, 2 bytes per cell), ball_count
    (each center's number of balls), the layout of each `row_blocks` slice
    of centers, and ball_mass: the mass of every column of every block's
    per-ball tables, pads included (`ball_masses`), as one flat array that
    each block reads through a 2-D view. A tie-free block keeps full rows,
    so it holds 8 bytes per cell there, a tied one 8 per ball column. Each
    mass is the sequential cumsum of the measure in the center's order,
    read at a ball end. Radii are read from the space's distances through
    order. All are built one slice at a time, straight into their rows, so
    the build holds no n x n temporary. Where the balls end, and the key of
    each (`keys`, the package's one tie rule), are read from the layouts
    and the counts.

    A per-ball table (averages, running extrema and what is computed from
    them) is built one block of centers at a time, over the row slices of
    `row_blocks`, and reduced before the next block is built: no row needs
    another, and every row holds the same bytes as in a full table. `scan`
    makes that pass once for many reductions, building each table block
    once for all of them. Each block's tables hold one column per ball, read
    through the block's layout.
    """

    def __init__(self, space: FiniteMetricMeasureSpace):
        # the space caches its family: a strong reference back would make a
        # cycle, which keeps both alive after the space is dropped until the
        # cyclic collector runs
        self._space = weakref.ref(space)
        n = space.n
        # int32 counts and keys halve the memory traffic of the operator sweeps
        self.index_dtype = np.int32 if n <= 30_000 else np.int64
        # point ids fit 2 bytes up to 65 536 points
        self.order = np.empty((n, n), dtype=np.uint16 if n <= 1 << 16 else self.index_dtype)
        self.ball_count = np.empty(n, dtype=self.index_dtype)
        self._kept = _KeptBlock()  # per thread: the block cast by `block_index`
        # rows are independent: each block of centers is built straight into
        # its rows, which hold the bytes of a full build. A first pass sorts
        # and lays out every block, so the masses are allocated at their size
        # and then filled block by block
        blocks = []
        for rows in self.row_blocks():
            # stable sort: ties in distance resolve to ascending point id, so
            # order[c, 0] == c on a validated space
            self.order[rows] = np.argsort(space.dist[rows], axis=1, kind="stable")
            layout, self.ball_count[rows] = self._block_layout(rows)
            # one column per ball of the block's widest row: n on a tie-free block
            width = int(self.ball_count[rows].max())
            blocks.append((rows, layout, (rows.stop - rows.start) * width))
        self.ball_mass = np.empty(sum(size for _, _, size in blocks))
        self._layouts = []  # (rows, layout, masses) of each `row_blocks` slice, in order
        at = 0
        for rows, layout, size in blocks:
            masses = self.ball_mass[at:at + size].reshape(rows.stop - rows.start, -1)
            at += size
            masses[...] = layout.take(np.cumsum(np.take(space.measure, self.order[rows]), axis=1))
            self._layouts.append((rows, layout, masses))

    def _block_layout(self, rows):
        """The layout of a slice of centers and each one's number of balls, from the index."""
        sorted_dist = np.take_along_axis(self.space.dist[rows], self.order[rows], axis=1)
        # prefix ending at position i is a ball iff the next distance is
        # larger (a difference of finite floats is 0 only between equals)
        ends = np.diff(sorted_dist, axis=1, append=np.inf) > 0.0
        counts = np.count_nonzero(ends, axis=1)
        return (IdentityLayout if ends.all() else BallLayout(ends, counts)), counts

    @property
    def space(self) -> FiniteMetricMeasureSpace:
        """The indexed space; None once it is dropped, so only the index itself stays usable."""
        return self._space()

    @property
    def n(self) -> int:
        return self.order.shape[0]

    def row_blocks(self):
        """Slices of consecutive centers that cover 0..n-1, CHUNK_CELLS cells per slice."""
        return _row_blocks(self.n)

    def layout(self, rows):
        """The layout of a `row_blocks` slice, built with the index.

        A tie-free block, where every position ends a ball, has the
        `IdentityLayout`, which every such block shares; any other block
        its own `BallLayout`. A slice the index was not built by (CHUNK_CELLS
        changed since) gets its layout afresh.
        """
        built, layout, _ = self._block(rows.start)
        return layout if built == rows else self._block_layout(rows)[0]

    def _block(self, center: int):
        """(rows, layout, masses) of the block of the index's build that holds a center."""
        # the first block's stop is the build's rows per block
        return self._layouts[center // self._layouts[0][0].stop]

    def block_index(self, rows) -> np.ndarray:
        """order[rows], as intp where a space has several blocks: one block's gather index.

        np.take and ufunc.at cast a uint16 or int32 index to intp in full on
        every call, which made a gather of a CHUNK_CELLS block 3x slower. So in a
        space of several blocks, a slice of at most one block's rows is cast
        into a buffer of one block, kept per thread, and read by every call
        for the same rows until another is asked for: the tables and
        reducers of a block share one cast, and no block allocates one. The
        result is valid until then. Other rows are cast afresh. A space of
        one block reads order itself: on so few cells the cast costs no
        more than the call.
        """
        kept = self._kept
        if isinstance(rows, slice):
            if rows == kept.rows:
                return kept.index
            n = self.order.shape[0]
            step = max(1, CHUNK_CELLS // max(n, 1))
            if step >= n:
                return self.order[rows]
            start, stop, stride = rows.indices(n)
            if stride == 1 and stop - start <= step:
                if kept.buffer is None or kept.buffer.shape != (step, n):
                    kept.buffer = np.empty((step, n), dtype=np.intp)
                kept.rows = None
                # not read-only: np.take copies a read-only index
                kept.index = kept.buffer[:stop - start]
                np.copyto(kept.index, self.order[start:stop])
                kept.rows = rows
                return kept.index
        return self.order[rows].astype(np.intp)

    def averages_at_pos(self, f: np.ndarray, rows=slice(None), *,
                        layout=IdentityLayout) -> np.ndarray:
        """Average of f over each prefix, in fixed ascending order.

        Entry (c, i) is the measure-weighted average of f over the first
        i+1 points nearest to center c. Column 0 is set to f(center)
        exactly, so singleton balls average without round-off. The full
        table works in one fresh buffer to keep large-n memory traffic
        down. `rows` (a
        slice or an index array of centers) limits the table to those
        centers; each row holds the same bytes as in the full table. With
        the `layout` of a `row_blocks` slice the table has one column per
        ball, the full table's entries at the ball ends; the default, the
        `IdentityLayout`, keeps every position.
        """
        fs = np.take(f * self.space.measure, self.block_index(rows))
        np.cumsum(fs, axis=1, out=fs)
        fs = layout.take(fs)
        fs /= self.ball_masses(rows, layout)
        fs[:, 0] = f[rows]
        return fs

    def ball_masses(self, rows, layout=IdentityLayout) -> np.ndarray:
        """Mass of each prefix of the centers `rows`, through `layout` as in `averages_at_pos`.

        The index keeps them for each block of its build, through the
        block's layout, and returns its own, which no caller may write to.
        Other rows or another layout (a per-position table of a tied block,
        a slice of a CHUNK_CELLS changed since) get them from the same
        cumsum afresh, with the same bytes.
        """
        if isinstance(rows, slice) and rows.start is not None and 0 <= rows.start < self.n:
            built, kept, masses = self._block(rows.start)
            if built == rows and kept is layout:
                return masses
        return layout.take(np.cumsum(np.take(self.space.measure, self.block_index(rows)), axis=1))

    def running_min_at_pos(self, f: np.ndarray, rows=slice(None), *,
                           layout=IdentityLayout) -> np.ndarray:
        """Minimum of f over each prefix; per ball with a `layout`, as `averages_at_pos`."""
        return layout.running(np.minimum, np.take(f, self.block_index(rows)))

    def running_max_at_pos(self, f: np.ndarray, rows=slice(None), *,
                           layout=IdentityLayout) -> np.ndarray:
        """Maximum of f over each prefix; per ball with a `layout`, as `averages_at_pos`."""
        return layout.running(np.maximum, np.take(f, self.block_index(rows)))

    def radius_at_pos(self, center, pos):
        """Distance from the center(s) to the point at position(s) pos of its order."""
        return self.space.dist[center, self.order[center, pos]]

    def keys(self, rows, width: int) -> np.ndarray:
        """The key of the ball in every column of a per-ball table of a `row_blocks` slice.

        This is the package's one tie rule. Column j of row r holds the ball
        of rank min(j, count_r - 1) + 1, count_r the center's number of
        balls (a pad repeats its row's last ball), and a ball's key is
        rank * n + center: a witness is the attaining ball of smallest key,
        i.e. smallest rank, then smallest center.
        """
        dtype = self.index_dtype
        rank = np.minimum(np.arange(1, width + 1, dtype=dtype), self.ball_count[rows, None])
        return rank * dtype(self.n) + np.arange(rows.start, rows.stop, dtype=dtype)[:, None]

    def end_of_key(self, key: int) -> tuple[int, float]:
        """End position and radius of the ball with key `key`, read from its block's layout."""
        rank, center = divmod(key, self.n)
        rows, layout, _ = self._block(center)
        pos = int(layout.end(center - rows.start, rank - 1))
        return pos, float(self.radius_at_pos(center, pos))

    def end_positions(self, keys: np.ndarray) -> np.ndarray:
        """End position of the ball of each key, as `end_of_key`, for an int64 array of keys."""
        rank, center = np.divmod(keys, self.n)
        pos = np.empty_like(keys)
        for rows, layout, _ in self._layouts:
            at = np.flatnonzero((center >= rows.start) & (center < rows.stop))
            pos[at] = layout.end(center[at] - rows.start, rank[at] - 1)
        return pos

    def ball_at(self, center: int, rank: int) -> Ball:
        if not (isinstance(center, numbers.Integral) and isinstance(rank, numbers.Integral)
                and 0 <= center < self.n and 1 <= rank <= self.ball_count[center]):
            raise InvalidParams(f"no ball of rank {rank!r} at center {center!r}")
        return self.ball_at_pos(center, int(rank), self.end_of_key(rank * self.n + center)[0])

    def ball_at_pos(self, center: int, rank: int, pos: int) -> Ball:
        """The ball of a center of rank `rank`, which ends at position pos of its order."""
        members = np.sort(self.order[center, : pos + 1]).astype(self.index_dtype)
        return Ball(center, rank, float(self.radius_at_pos(center, pos)), members)

    def scan(self, reducers) -> list:
        """One pass over `row_blocks` that feeds every reducer; their results, in order.

        A reducer names the tables it reads in `tables`, as (vector, kind)
        pairs with kind "avg", "min" or "max", takes one block of centers at
        a time through `add(rows, layout, *tables)` and gives its result
        through `result()`. In each block every named table is built once,
        by its first reader, through `averages_at_pos`, `running_min_at_pos`
        or `running_max_at_pos`, and dropped after its last reader, so only
        the tables still to be read are held. Every table has one column per
        ball, through the block's `layout`, which `add` gets too. The
        reducers take each block in the order given. Reducers that name the
        same vector share its table and must not write to it. A table is
        keyed by a digest of its vector's bytes: -f has its own, since
        reading avg(-f) as -avg(f) would flip the sign of an average that is
        exactly zero.
        """
        build = {"avg": self.averages_at_pos, "min": self.running_min_at_pos,
                 "max": self.running_max_at_pos}
        # a lone reducer shares with no other: the ids of its vectors, which
        # all live through the scan, key its tables as well as their bytes
        digests, reads = {}, []
        for r in reducers:
            keys = []
            for vec, kind in r.tables:
                if id(vec) not in digests:
                    digests[id(vec)] = id(vec) if len(reducers) == 1 else hashlib.blake2b(
                        np.ascontiguousarray(vec), digest_size=16).digest()
                keys.append((kind, digests[id(vec)]))
            reads.append(keys)
        last = {k: i for i, keys in enumerate(reads) for k in keys}
        for rows in self.row_blocks():
            layout, held = self.layout(rows), {}
            for i, (r, keys) in enumerate(zip(reducers, reads)):
                for key, (vec, kind) in zip(keys, r.tables):
                    if key not in held:
                        held[key] = build[kind](vec, rows, layout=layout)
                r.add(rows, layout, *[held[key] for key in keys])
                for key in keys:
                    if last[key] == i:
                        held.pop(key, None)
        return [r.result() for r in reducers]

    def sup_over_balls(self, table):
        """Max of a per-prefix table over realized balls, with witness: a one-`Sup` scan.

        `table(rows)` returns the table's rows for the centers of one
        `row_blocks` slice, one column per position, which are read at the
        ball ends through the block's layout. Returns (value, BallRef), as
        `Sup.result`.
        """
        return self.scan([Sup(self, (), lambda rows: self.layout(rows).take(table(rows)))])[0]


class _KeptBlock(threading.local):
    """Per thread, the rows `BallFamily.block_index` last cast, their cast, and its buffer."""

    rows = index = buffer = None


class Sup:
    """A `BallFamily.scan` reducer: the sup of a per-prefix table over realized balls.

    `table(rows, *tables)` returns the table's rows for one block of
    centers, from the built tables named in `tables`, entry by entry: they
    have one column per ball, and so has its result; a pad repeats its
    row's last ball, so no column needs a mask. `result()` is (value,
    BallRef). The witness is the attaining ball of smallest key
    (`BallFamily.keys`), as in the operators. A NaN on a ball propagates to
    the value, and the witness is then the NaN ball of smallest key. Blocks merge by a running
    (value, smallest key) pair, with a NaN ranked above every number, so
    value and witness are those of one reduction over the full table.
    """

    def __init__(self, fam: BallFamily, tables, table):
        self.fam, self.tables, self.table = fam, tables, table
        self.value, self.key = -np.inf, None

    def add(self, rows, layout, *tables) -> None:
        vals = self.table(rows, *tables)
        top = float(vals.max())
        if _above(self.value, top):
            return
        hits = vals == top if top == top else np.isnan(vals)
        # the smallest key of a hit (`BallFamily.keys`), with no key table:
        # hits is never empty, as top is the value of a ball of the block.
        # In the first column with a hit, every row that hits holds a ball,
        # not a pad: a pad repeats its row's last ball, which would hit in
        # an earlier column (or reads below every top it could hit: -inf in
        # `weights._bmo_sup`, 1 in `doubling_constant`, whose top of 1 hits
        # in column 0, never a pad). So those hits have that column's rank,
        # the smallest of any hit, and the first of them the smallest center.
        col = int(hits.any(axis=0).argmax())
        k = (col + 1) * self.fam.n + rows.start + int(hits[:, col].argmax())
        self.key = k if self.key is None or _above(top, self.value) else min(self.key, k)
        self.value = top

    def result(self):
        rank, center = divmod(self.key, self.fam.n)
        return self.value, BallRef(center, rank, self.fam.end_of_key(self.key)[1])


class BallLayout:
    """Where the balls of one `row_blocks` slice end: the columns of its per-ball tables.

    A table with one column per ball holds, in row r and column j, the full
    table's entry at the end of the (j+1)-th ball of the block's r-th
    center. A center with fewer balls than the block's widest repeats its
    last ball, which ends at position n - 1, in the pad columns: a pad has
    that ball's value and key, so no reduction needs a mask. Positions are
    flat in the block's rows (r * n + i), and balls are numbered across the
    block, row by row. Four int32 arrays:

      ends    (rows, width)  the end position of every column, pads included
      starts  (balls,)       the first position of every ball's tie group,
                             for ufunc.reduceat
      first, last  (rows,)   the number of each row's first and last ball

    A table's entry at a ball end is read from the full sequential cumsum
    (averages) or reduced over the tie groups and accumulated across the
    columns (running extrema), so it holds the bytes of the full table.
    """

    __slots__ = ("ends", "starts", "first", "last")

    def __init__(self, ends: np.ndarray, counts: np.ndarray):
        """The layout of a block whose balls end where `ends` is True, `counts` in each row."""
        real = np.flatnonzero(ends)  # ascending: row by row, then by position
        self.starts = np.concatenate(([0], real[:-1] + 1)).astype(np.int32)
        self.last = (np.cumsum(counts) - 1).astype(np.int32)
        self.first = self.last - counts.astype(np.int32) + 1
        self.ends = real.astype(np.int32)[self._balls(counts.max())]

    def _balls(self, width: int) -> np.ndarray:
        """The number of the ball in every column."""
        balls = np.add.outer(self.first, np.arange(width))
        return np.minimum(balls, self.last[:, None], out=balls)

    def take(self, table: np.ndarray) -> np.ndarray:
        """A per-position table of the block's rows, read at the ball ends: one column per ball."""
        return np.take(table, self.ends)

    def end(self, r, j):
        """The end position, in its center's order, of the ball in row(s) r and column(s) j."""
        # column 0 is the singleton, which ends at its row's first position
        return self.ends[r, j] - self.ends[r, 0]

    def to_columns(self, per_ball: np.ndarray) -> np.ndarray:
        """One entry per ball, in ball order, as a per-ball table: a pad repeats its row's last."""
        return np.take(per_ball, self._balls(self.ends.shape[1]))

    def to_positions(self, table: np.ndarray) -> np.ndarray:
        """A per-ball table as one entry per position, its ball's, flat in the block's rows."""
        # a column's tie group runs on from the previous column's end; a pad's is empty
        ends = self.ends.ravel()
        sizes = np.empty_like(ends)
        sizes[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=sizes[1:])
        return np.repeat(table.ravel(), sizes)

    def running(self, ufunc, fs: np.ndarray) -> np.ndarray:
        """ufunc (np.minimum or np.maximum) accumulated along the rows of fs, at the ball ends.

        On a tie of zeros an accumulate keeps the later zero, and a
        reduction may keep either. So a tie group whose extremum is zero
        takes the sign of its last zero, and the columns hold the bytes of
        the full accumulate.
        """
        flat = fs.ravel()
        groups = ufunc.reduceat(flat, self.starts)
        zero = np.flatnonzero(groups == 0.0)
        if zero.size:
            at = np.flatnonzero(flat == 0.0)
            group_end = np.append(self.starts[1:], flat.size)[zero] - 1
            groups[zero] = flat[at[np.searchsorted(at, group_end, side="right") - 1]]
        out = self.to_columns(groups)
        ufunc.accumulate(out, axis=1, out=out)
        return out


def _row_blocks(n: int):
    """Slices of consecutive rows that cover 0..n-1 of an n x n array, CHUNK_CELLS cells per slice."""
    step = max(1, CHUNK_CELLS // max(n, 1))
    for r0 in range(0, n, step):
        yield slice(r0, min(r0 + step, n))


def _above(a: float, b: float) -> bool:
    """a ranks above b in a sup that propagates NaN: NaN above every number."""
    return a > b or (a != a and b == b)


def _validate_matrix(dist: np.ndarray, check_triangle: bool = True) -> None:
    """Raise the first fault of a distance matrix, in the order of the checks below.

    Each check but the diagonal one reads the matrix one row block at a time,
    so none makes an n x n temporary; the triangle check reuses one n x n
    buffer over its n passes.
    """
    n = dist.shape[0]
    blocks = list(_row_blocks(n))
    if not all(np.isfinite(dist[rows]).all() for rows in blocks):
        raise AsymmetricDistance("distance matrix has non-finite entries")
    if np.any(np.diag(dist) != 0.0):
        raise ZeroDistanceDistinctPoints("nonzero diagonal entry")
    if not all(np.array_equal(dist[rows], dist[:, rows].T) for rows in blocks):
        # the first maximal |d - d^T| in row-major order
        worst = (-1.0, (0, 0))
        for rows in blocks:
            gap = np.abs(dist[rows] - dist[:, rows].T)
            i, j = np.unravel_index(int(gap.argmax()), gap.shape)
            if gap[i, j] > worst[0]:
                worst = (float(gap[i, j]), (rows.start + int(i), int(j)))
        i, j = worst[1]
        raise AsymmetricDistance(f"dist({i},{j}) != dist({j},{i})")
    # the diagonal is 0, so each row holds exactly one entry <= 0 unless a
    # pair of distinct points does too
    if any(np.count_nonzero(dist[rows] <= 0.0) > rows.stop - rows.start for rows in blocks):
        raise ZeroDistanceDistinctPoints("distinct points at distance <= 0")
    if check_triangle and n >= 3:
        tol = TRIANGLE_TOL_FACTOR * float(dist.max())
        worst = (0.0, (0, 0, 0))
        slack = np.empty_like(dist)
        for j in range(n):
            np.add(dist[:, j, None], dist[j], out=slack)
            np.subtract(dist, slack, out=slack)
            m = float(slack.max())
            if m > worst[0]:
                i, k = np.unravel_index(int(slack.argmax()), slack.shape)
                worst = (m, (int(i), j, int(k)))
        if worst[0] > tol:
            i, j, k = worst[1]
            raise TriangleViolation(i, j, k, worst[0])


def _float_array(data, error, what: str) -> np.ndarray:
    """data as a float64 array; a ragged or non-numeric input raises `error`."""
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} is not a numeric array: {exc}") from exc


def _square_matrix(data, what: str) -> np.ndarray:
    """data as a float64 n x n array; anything else raises AsymmetricDistance."""
    dist = _float_array(data, AsymmetricDistance, what)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise AsymmetricDistance(f"{what} must be a square matrix")
    return dist


def _coords_to_dist(coords: np.ndarray, metric_kind: str) -> np.ndarray:
    """Pairwise distances, written one row block at a time: no (n, n, d) array.

    Each row holds the bytes of the full-array formula. A block's Euclidean
    and l1 sums reduce each cell's d terms as the full (n, n, d) reduction
    does; the linf max is exact in any order, so it folds the coordinates
    in one at a time.
    """
    if metric_kind not in ("euclidean", "l1", "linf"):
        raise InvalidParams(f"metric kind {metric_kind!r} needs no coordinates")
    n = coords.shape[0]
    dist = np.zeros((n, n))  # linf folds from 0, the max of no |difference|
    for rows in _row_blocks(n):
        out = dist[rows]
        if metric_kind == "linf":
            for k in range(coords.shape[1]):
                diff = np.subtract.outer(coords[rows, k], coords[:, k])
                np.maximum(out, np.abs(diff, out=diff), out=out)
            continue
        diff = coords[rows, None, :] - coords[None, :, :]
        if metric_kind == "euclidean":
            diff *= diff
            np.sqrt(diff.sum(axis=2, out=out), out=out)
        else:
            np.abs(diff, out=diff).sum(axis=2, out=out)
    return dist


def _graph_shortest_path(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest path over a dense nonnegative adjacency matrix.

    Entries of `weights` are edge lengths; np.inf marks a missing edge.
    Floyd-Warshall, vectorized over one axis.
    """
    d = weights.copy()
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    for j in range(n):
        np.minimum(d, d[:, j][:, None] + d[j][None, :], out=d)
    if not np.all(np.isfinite(d)):
        raise InvalidParams("graph is not connected")
    return d


def build_space(
    data,
    metric_kind: str,
    measure,
    check_triangle: bool | None = None,
) -> FiniteMetricMeasureSpace:
    """Construct and validate a space from a matrix or a coordinate list.

    `data` is an n x n distance matrix for metric kinds 'explicit-matrix'
    and 'graph-shortest-path' (edge lengths, np.inf for missing edges), or
    an n x d coordinate array for 'euclidean' / 'l1' / 'linf'.

    The triangle inequality is checked up to 1e-9 * (max distance), in
    O(n^3), on explicit matrices by default (documents and snowflakes ask
    for it up to 512 points). Coordinate and shortest-path metrics satisfy
    it before rounding, and each computed distance is within a relative
    c 2^-53 of the exact one (c = d + 2 for d coordinates, c = n for
    Floyd-Warshall sums of at most n - 1 edges), so their slack stays
    below 2 (2c + 1) 2^-53 of the max distance, under the tolerance while
    c < 2^21. Euclidean squares that go subnormal lose that accuracy, so a
    Euclidean space of diameter below 1e-140 is checked too.

    Coordinate distances and the matrix checks run one block of rows at a
    time, so a coordinate space makes no n x n temporary beside its
    distances; the triangle check, when it runs, reuses one n x n buffer.
    """
    if metric_kind not in METRIC_KINDS:
        raise InvalidParams(f"unknown metric kind {metric_kind!r}")
    coords = None
    if metric_kind == "explicit-matrix":
        dist = _square_matrix(data, "distance matrix").copy()
    elif metric_kind == "graph-shortest-path":
        dist = _graph_shortest_path(_square_matrix(data, "edge lengths"))
    else:
        coords = _float_array(data, InvalidParams, "coordinates").copy()
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise InvalidParams("coordinates must be an n x d array")
        dist = _coords_to_dist(coords, metric_kind)
    if check_triangle is None:
        check_triangle = metric_kind == "explicit-matrix" or (
            metric_kind == "euclidean" and dist.max(initial=0.0) < 1e-140)
    return _owned_space(dist, metric_kind, measure, check_triangle, coords)


def _owned_space(dist: np.ndarray, metric_kind: str, measure, check_triangle: bool,
                 coords: np.ndarray | None = None) -> FiniteMetricMeasureSpace:
    """`build_space`'s checks on a square float64 matrix that the space then keeps.

    dist is not copied: the caller hands over a matrix no one else holds.
    """
    n = dist.shape[0]
    if n == 0:
        raise InvalidParams("a space needs at least one point")
    _validate_matrix(dist, check_triangle=check_triangle)
    mu = _float_array(measure, NonpositiveMeasure, "measure").copy()
    if mu.shape != (n,):
        raise NonpositiveMeasure(f"measure must have shape ({n},), got {mu.shape}")
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise NonpositiveMeasure("measure entries must be positive and finite")
    return FiniteMetricMeasureSpace(dist, mu, metric_kind, coords)


def enumerate_balls(space: FiniteMetricMeasureSpace, dedupe: bool = True) -> list[Ball]:
    """All realized balls, one per (center, rank); dedupe keeps one per member set.

    Order is ascending center, then ascending rank, so output is
    deterministic and the first representative survives deduping.
    """
    fam = space.ball_family
    out: list[Ball] = []
    seen: set[bytes] = set()
    for c in range(space.n):
        rows, layout, _ = fam._block(c)
        ends = layout.end(c - rows.start, np.arange(fam.ball_count[c])).tolist()
        for rank, end in enumerate(ends, 1):
            ball = fam.ball_at_pos(c, rank, end)
            if dedupe:
                k = ball.key()
                if k in seen:
                    continue
                seen.add(k)
            out.append(ball)
    return out


@dataclass(frozen=True)
class FunctionalResult:
    """A computed constant together with the witness attaining it."""

    kind: str
    value: float
    witness: BallRef | None = None
    point: int | None = None
    alt_value: float | None = None  # equivalent-form cross value, when one exists
    sample_radius: float | None = None  # the radius r a doubling witness samples
    warnings: tuple[str, ...] = ()

    def witness_dict(self) -> dict:
        d: dict = {}
        if self.witness is not None:
            d.update(center=self.witness.center, rank=self.witness.rank,
                     radius=self.witness.radius)
        if self.point is not None:
            d["point"] = self.point
        return d


def _ball_columns(fam: BallFamily, rows: slice):
    """Per-ball columns of a `row_blocks` slice of centers: (e, cum, m).

    Row r is center rows.start + r. Its first m[r] + 1 columns hold the
    center's distinct distances e (e[r, 0] == 0) and the masses cum of its
    closed balls at them; past them e reads +inf and cum repeats the last
    ball's mass, so a search or a comparison in a row meets only that
    center's balls. Both are read at the ball ends through the block's
    layout; cum is the index's own (`BallFamily.ball_masses`), read only.
    """
    space, n = fam.space, fam.n
    layout = fam.layout(rows)
    index = fam.block_index(rows)
    # the point ending each ball, as a flat index into the block's rows of dist
    at = layout.take(index) + np.arange(0, len(index) * n, n)[:, None]
    e = np.take(space.dist[rows], at)
    m = (fam.ball_count[rows] - 1).astype(np.intp)
    e[np.arange(e.shape[1]) > m[:, None]] = np.inf
    return e, fam.ball_masses(rows, layout), m


def doubling_constant(space: FiniteMetricMeasureSpace) -> FunctionalResult:
    """sup over centers x and radii r of mu(B(x,2r)) / mu(B(x,r)): one `Sup` over ball columns.

    On an interval (e_{k-1}, e_k] between consecutive distinct distances
    from x the open ball B(x, r) is the closed ball at e_{k-1}, and B(x, 2r)
    grows with r, so the sup over the interval is taken at r = e_k: one
    sample per ball. Column k > 0 of the table, the ball at e_k, holds
    mu(B(x, 2e_k)) / mu(B(x, e_k)), the numerator found by one search of 2e
    over the center's distinct distances, the denominator column k - 1's
    mass. Column 0 holds 1, as r = 0 is no sample, a pad column 1 and a NaN
    ratio -inf, so neither wins a sup above 1. The witness is the open ball
    B(x, r), the ball before the attaining column of smallest key
    (`BallFamily.keys`), and the sample radius r is that column's radius.
    """
    fam = space.ball_family

    def ratios(rows):
        e, cum, _ = _ball_columns(fam, rows)
        below = np.empty(e.shape, dtype=np.intp)
        for r in range(len(e)):
            below[r] = e[r].searchsorted(2.0 * e[r])
        del e
        # the open ball B(x, 2e) is the closed ball before the first distance >= 2e
        below += np.arange(-1, below.size - 1, below.shape[1])[:, None]
        out = np.take(cum, below)  # column 0 reads the cell before its row, and is set to 1
        del below
        out[:, 1:] /= cum[:, :-1]
        out[:, 0] = 1.0
        out[np.isnan(out)] = -np.inf
        return out

    value, ball = fam.scan([Sup(fam, (), ratios)])[0]
    if not value > 1.0:
        return FunctionalResult("doubling", 1.0)
    radius = fam.end_of_key((ball.rank - 1) * fam.n + ball.center)[1]
    return FunctionalResult("doubling", value, BallRef(ball.center, ball.rank - 1, radius),
                            sample_radius=ball.radius)


@dataclass(frozen=True)
class AnnularDecayQuery:
    """Result of the annular decay scan: constant C with a witness triple.

    C is the maximum over all sampled (x, r, delta) of
        mu(B(x,r) \\ B(x,(1-delta)r)) / (delta**alpha * mu(B(x,r))),
    so the decay inequality holds with constant C at every sampled triple
    and with equality at the witness.
    """

    alpha: float
    r_min: float
    value: float
    witness_center: int | None
    witness_radius: float | None
    witness_delta: float | None


def annular_decay_constant(
    space: FiniteMetricMeasureSpace, alpha: float, r_min: float
) -> AnnularDecayQuery:
    """Scan the critical (x, r, delta) triples of the annular decay inequality.

    For a fixed center the open ball is constant on each interval between
    consecutive distinct distances, and within such an interval the ratio
    decreases in r, so each interval is sampled at the infimum of its
    admissible part: r = max(interval left endpoint, r_min). The critical
    delta values at a sample are 1 - d/r over the distinct distances
    0 < d < ball radius threshold (annulus content changes only there), with
    delta restricted to (0, 1). This sampling makes the reported constant
    monotone nonincreasing in r_min and nondecreasing in alpha.

    Per center the samples form a table: row i is an interval with
    r* = max(e[i], r_min), column j = 1..m a distinct distance e[j], and the
    cell is (cum[i] - cum[j-1]) / ((1 - e[j]/r*)**alpha * cum[i]), with cum
    the ball masses; the cells with e[j] >= r* (delta <= 0) are not
    samples. `_annular_scan` screens before it evaluates. One block of
    centers at a time, `_annular_bounds` bounds the whole table of each
    center, and only the centers whose bound beats the running maximum go
    on to `_annular_center`, which bounds the center's (row, column block)
    pairs and evaluates the pairs that may hold the maximum cell by cell,
    with exactly the operations of the full table. Each bound is the cell
    formula with the same float operations, its numerator raised and its
    denominator lowered. IEEE rounding is monotone (a <= b implies
    fl(a op c) <= fl(b op c) for the operations and signs used here), so a
    bound is >= every computed cell it covers. numpy's pow is not
    guaranteed monotone; at alpha other than 0 and 1 a bound's power is
    first lowered by 8 ulps, several times its error. The first maximum in
    (center, row, column) order is taken: value and witness are the full
    table's, bit for bit.

    No finite space satisfies the decay inequality uniformly in r: as r
    approaches a realized distance from above the ratio blows up, which is
    why an explicit r_min cutoff is required.
    """
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha <= 1.0):
        raise InvalidParams(f"alpha must be a real in [0, 1], got {alpha!r}")
    if not (isinstance(r_min, numbers.Real) and r_min > 0.0):  # NaN fails too
        raise InvalidParams(f"r_min must be a positive real, got {r_min!r}")
    if r_min > 2.0 * space.diameter and space.n > 1:
        raise EmptyRadiusRange(
            f"r_min={r_min} exceeds twice the diameter {space.diameter}")
    best, wit, _ = _annular_scan(space, alpha, r_min)
    return AnnularDecayQuery(alpha, r_min, best, *wit)


def _annular_scan(space: FiniteMetricMeasureSpace, alpha: float, r_min: float):
    """(value, (center, r, delta), number of cells evaluated exactly).

    One `row_blocks` slice of centers at a time, `_annular_bounds` bounds
    every cell of each center's table from the block's `_ball_columns`. A
    center whose bounds are all at most the running maximum has no cell
    above it, so it is dismissed; every other center runs
    `_annular_center`, in center order, with the running maximum.
    """
    best = 0.0
    wit = (None, None, None)
    evaluated = 0
    fam = space.ball_family
    # pow(x, 0) and pow(x, 1) are exact; any other power may be off by an ulp
    pow_slack = 1.0 if alpha in (0.0, 1.0) else 1.0 - 2.0 ** -49
    for rows in fam.row_blocks():
        e, cum, m = _ball_columns(fam, rows)
        top = np.full(len(e), -np.inf)
        for p0, bounds in _annular_bounds(e, cum, m, alpha, r_min, pow_slack):
            top[p0:p0 + len(bounds)] = bounds.reshape(len(bounds), -1).max(axis=1)
        for r in np.flatnonzero(~(top <= best)):  # a NaN bound bounds nothing
            if top[r] <= best:
                continue
            found, cells = _annular_center(e[r, :m[r] + 1], cum[r, :m[r] + 1],
                                           alpha, r_min, pow_slack, best)
            evaluated += cells
            if found is not None:
                best, r_star, delta = found
                wit = (rows.start + int(r), r_star, delta)
    return best, wit, evaluated


def _annular_bounds(e, cum, m, alpha, r_min, pow_slack):
    """Bounds on the cells of each center's table, per (row block, column block) pair.

    Each center's (interval i, column j) table is cut into row blocks of
    ceil(size/2) rows and column blocks of size = ceil(sqrt(widest m))
    columns, and each (row block, column block) pair gets one bound: the
    cell formula, with the same float operations, taking the numerator
    cum[last row] - cum[first column - 1] and the denominator cum[first
    sampled row] * delta**alpha * pow_slack, with delta the least computed
    1 - e[j]/r* of a sampled cell of the pair. Rounding is monotone, so the
    bound is >= every cell of its pair. Along a row delta falls as j grows,
    and down a column it grows with r*, so the least delta of a pair is the
    lesser of: each row's own least delta, at its last sampled column,
    which the pair of that column takes; and, where the row block's first
    sampled row samples the whole column block, that row's delta at the
    block's last column. The rows that sample the whole block are those
    from the first one on, which is the first sampled row of all or the
    row whose last sampled column ends the block: the first term covers
    that row. The work is linear in the cells of the block. Yields (first
    center, bounds[center, row block, column block]) for pieces of centers
    with at most CHUNK_CELLS pairs; nothing where no center has another
    point.
    """
    n_rows, width = e.shape
    if width < 2:
        return
    size = math.isqrt(width - 2) + 1  # ceil(sqrt(widest m)) columns per block
    rsize = (size + 1) // 2  # rows per block
    n_cb, n_rb = -(-(width - 1) // size), -(-width // rsize)
    first = np.arange(1, width, size)  # first column of each column block
    row0 = np.arange(0, width, rsize)  # first row of each row block
    i = np.arange(width)
    block_of_column = np.maximum(i - 1, 0) // size  # column 0 reads block 0
    step = max(1, CHUNK_CELLS // (n_rb * n_cb))
    for p0 in range(0, n_rows, step):
        ep, cp, mp = e[p0:p0 + step], cum[p0:p0 + step], m[p0:p0 + step, None]
        k = len(ep)
        at_row = np.arange(0, k * width, width)[:, None]  # flat offset of each center
        # row i samples r* = max(e[i], r_min) for i0 <= i <= m, which is
        # r_min at i0 and e[i] past it, and the columns 1..valid[i] with e[j] < r*
        i0 = np.count_nonzero(ep[:, 1:] < r_min, axis=1)[:, None]
        valid = np.maximum(i - 1, i0)
        np.minimum(valid, mp, out=valid)
        unsampled = (i < i0) | (i > mp) | (valid == 0)
        # each row's least delta, at its last sampled column, for that column's pair
        pair = np.take(block_of_column, valid)
        pair += i // rsize * n_cb
        pair += np.arange(0, k * n_rb * n_cb, n_rb * n_cb)[:, None]
        valid += at_row
        thin = np.take(ep, valid)
        del valid
        thin /= np.maximum(ep, r_min)
        np.subtract(1.0, thin, out=thin)
        thin[unsampled] = np.inf
        # pair ids ascend along the rows: one reduction per run of equal ids
        pair, thin = pair.ravel(), thin.ravel()
        runs = np.flatnonzero(pair[1:] != pair[:-1])
        runs += 1
        runs = np.concatenate(([0], runs))
        delta = np.full((k, n_rb, n_cb), np.inf)
        delta.flat[pair[runs]] = np.minimum.reduceat(thin, runs)
        del pair, thin, runs
        # the rows from j1 on sample all of a column block; none where it is past m.
        # j1 is i0, or else the row whose last sampled column ends the block
        last = np.minimum(first + (size - 1), mp)
        j1 = np.where(first > mp, width, np.where(i0 >= last, i0, last + 1))
        # a row block whose first sampled row is j1 or past it: that row's delta
        head = np.minimum(np.maximum(row0, i0), width - 1)
        full = np.take(ep, last + at_row)[:, None, :] / np.maximum(
            np.take(ep, head + at_row), r_min)[:, :, None]
        np.subtract(1.0, full, out=full)
        full[(head[:, :, None] < j1[:, None, :]) | (head > mp)[:, :, None]] = np.inf
        np.minimum(delta, full, out=delta)
        outer = np.take(cp, np.minimum(row0 + (rsize - 1), width - 1), axis=1)
        num = np.subtract(outer[:, :, None], np.take(cp, first - 1, axis=1)[:, None, :], out=full)
        low = np.take(cp, head + at_row)
        # a pair with no sampled cell reads 0 at alpha > 0, and 1 / low at alpha = 0
        empty = delta == np.inf if alpha == 0.0 else None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            delta **= alpha
            if pow_slack != 1.0:
                delta *= pow_slack
            delta *= low[:, :, None]
            num /= delta
        if empty is not None:
            num[empty] = -np.inf
        yield p0, num


def _annular_center(e, cum, alpha, r_min, pow_slack, best):
    """One center's table screened and evaluated: (its first maximum above best or None, cells).

    e and cum are the center's distinct distances and ball masses. The
    columns are cut into blocks of ceil(sqrt(m)), and each (row, block)
    pair gets one bound: the cell formula, with the same float operations,
    taking the numerator at the block's first column and the denominator
    at its last column with e[j] < r*. Only the blocks whose bound beats
    best and reaches the center's own lower bound (the exact maximum of
    its top-bound block) are evaluated, cell by cell with exactly the
    operations of the full table. The maximum found is (value, r*, delta)
    of the first maximal cell in (row, column) order, if it beats best.
    """
    m = len(e) - 1
    if m == 0:
        return None, 0
    # interval i covers r in (e[i], e[i+1]] for i < m, and (e[m], inf);
    # rows are the intervals reaching r_min, columns the j = 1..m
    i = np.arange(np.searchsorted(np.append(e[1:], np.inf), r_min), m + 1)
    r_star = np.maximum(e[i], r_min)
    size = math.isqrt(m - 1) + 1  # ceil(sqrt(m)) columns per block
    first = np.arange(1, m + 1, size)
    # row k samples the columns 1..valid[k], those with e[j] < r*, which
    # are exactly those whose computed delta is > 0
    valid = np.searchsorted(e[1:], r_star)
    last = np.minimum(first + (size - 1), valid[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = e[last] / r_star[:, None]
        den = 1.0 - den
        den **= alpha
        den *= pow_slack
        den *= cum[i, None]
        bound = (cum[i, None] - cum[first - 1]) / den
    np.copyto(bound, -np.inf, where=first > valid[:, None])
    # a 0/0 bound reads NaN and is dropped: its numerators, and so its
    # cells, are all 0, which cannot raise the maximum
    keep = bound > best
    if not keep.any():
        return None, 0
    top = np.unravel_index(bound.argmax(), bound.shape)
    low = _annular_cells(e, cum, i, r_star, alpha, size, *top)[0].max()
    keep &= bound >= low
    k, b = np.nonzero(keep)  # row-major, so the cells below are in (k, j) order
    ratios, cols = _annular_cells(e, cum, i, r_star, alpha, size, k, b)
    cells = size * (1 + len(k))
    f = int(ratios.argmax())  # first maximum, as a row scan finds it
    if ratios.flat[f] > best:
        k, j = k[f // size], cols.flat[f]
        return (float(ratios.flat[f]), float(r_star[k]), float(1.0 - e[j] / r_star[k])), cells
    return None, cells


def _annular_cells(e, cum, i, r_star, alpha, size, k, b):
    """Exact cells of the (row k, column block b) pairs, one block per row.

    Each cell goes through the same elementwise operations as a full
    (interval, j) table; columns past m and deltas <= 0 read -inf.
    """
    k, b = np.atleast_1d(k), np.atleast_1d(b)
    m = len(e) - 1
    cols = 1 + b[:, None] * size + np.arange(size)
    past = cols > m
    np.minimum(cols, m, out=cols)
    rows = i[k, None]
    deltas = e[cols] / r_star[k, None]
    np.subtract(1.0, deltas, out=deltas)
    bad = deltas <= 0.0
    bad |= past
    ratios = cum[rows] - cum[cols - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        deltas **= alpha
        deltas *= cum[rows]
        np.divide(ratios, deltas, out=ratios)
    np.copyto(ratios, -np.inf, where=bad)
    return ratios, cols


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("grid", "path", "tree", "random-points", "snowflake")


def _measure_vector(rng: np.random.Generator, n: int, law) -> np.ndarray:
    if law in (None, "uniform"):
        return np.full(n, 1.0 / n)
    if law == "random":
        return rng.uniform(0.5, 2.0, size=n)
    raise InvalidParams(f"unknown measure law {law!r}")


def _param(params: dict, key: str, default, kind=int):
    """params[key], or the default, as an int or a float."""
    value = params.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"{key} must be {kind.__name__}, got {value!r}") from exc


def generate(kind: str, params: dict | None = None, seed: int = 0) -> FiniteMetricMeasureSpace:
    """Seeded space generator; a pure function of (kind, params, seed).

    kinds:
      grid           params: n (total points) or nx/ny, metric (default linf),
                     step (default 1.0), measure ('uniform'|'random')
      path           params: n, random edge lengths in [0.5, 1.5]
      tree           params: n, random tree with edge lengths in [0.5, 1.5]
      random-points  params: n, dim (default 2), metric (default euclidean)
      snowflake      params: base (a space), eps in (0, 1]; applies d -> d**eps
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "grid":
        if "nx" in params or "ny" in params:
            nx, ny = _param(params, "nx", 1), _param(params, "ny", 1)
        else:
            n = _param(params, "n", 4)
            nx = math.isqrt(max(n, 1))
            # exact cover: fall back to a 1 x n line when n is awkward
            nx, ny = (nx, n // nx) if n % nx == 0 else (n, 1)
        if nx < 1 or ny < 1:
            raise InvalidParams("grid needs n, nx, ny >= 1")
        step = _param(params, "step", 1.0, float)
        coords = np.array([(i * step, j * step) for i in range(nx) for j in range(ny)])
        metric = params.get("metric", "linf")
        return build_space(coords, metric, _measure_vector(rng, nx * ny, params.get("measure")))
    if kind == "path":
        n = _param(params, "n", 3)
        if n < 1:
            raise InvalidParams("path needs n >= 1")
        edges = rng.uniform(0.5, 1.5, size=max(n - 1, 0))
        positions = np.concatenate([[0.0], np.cumsum(edges)])
        return build_space(positions[:, None], "l1",
                           _measure_vector(rng, n, params.get("measure")))
    if kind == "tree":
        n = _param(params, "n", 4)
        if n < 1:
            raise InvalidParams("tree needs n >= 1")
        adj = np.full((n, n), np.inf)
        for v in range(1, n):
            u = int(rng.integers(0, v))
            length = float(rng.uniform(0.5, 1.5))
            adj[u, v] = adj[v, u] = length
        return build_space(adj, "graph-shortest-path",
                           _measure_vector(rng, n, params.get("measure")))
    if kind == "random-points":
        n = _param(params, "n", 8)
        dim = _param(params, "dim", 2)
        if n < 1 or dim < 1:
            raise InvalidParams("random-points needs n, dim >= 1")
        coords = rng.uniform(0.0, 1.0, size=(n, dim))
        return build_space(coords, params.get("metric", "euclidean"),
                           _measure_vector(rng, n, params.get("measure")))
    if kind == "snowflake":
        base = params.get("base")
        eps = _param(params, "eps", 0.5, float)
        if not isinstance(base, FiniteMetricMeasureSpace):
            raise InvalidParams("snowflake needs a base space")
        if not 0.0 < eps <= 1.0:
            raise InvalidParams("snowflake eps must lie in (0, 1]")
        dist = np.power(base.dist, eps)  # still a metric for eps <= 1
        return _owned_space(dist, "explicit-matrix", base.measure, check_triangle=base.n <= 512)
    raise InvalidParams(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Document format
# ---------------------------------------------------------------------------


def space_document(space: FiniteMetricMeasureSpace,
                   weights: dict[str, np.ndarray] | None = None) -> dict:
    doc = {
        "points": [
            {"id": i} if space.coords is None
            else {"id": i, "coords": [float(v) for v in space.coords[i]]}
            for i in range(space.n)
        ],
        "metric": space.metric_kind,
        "distances": [[float(v) for v in row] for row in space.dist],
        "measure": [float(v) for v in space.measure],
        "weights": {name: [float(v) for v in w] for name, w in (weights or {}).items()},
    }
    return doc


def save(space: FiniteMetricMeasureSpace, weights: dict[str, np.ndarray] | None,
         path) -> None:
    """Write a space (and named weights) as a JSON document.

    Floats are serialized with repr round-tripping, so distances and
    measures reload bit-exact.
    """
    with open(path, "w") as fh:
        json.dump(space_document(space, weights), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> tuple[FiniteMetricMeasureSpace, dict[str, np.ndarray]]:
    """Read a space document; inverse of save, bit-exact on dist and measure."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    return space_from_document(doc)


def space_from_document(doc: dict) -> tuple[FiniteMetricMeasureSpace, dict[str, np.ndarray]]:
    if not isinstance(doc, dict):
        raise ParseError("a space document must be a JSON object")
    for field in ("points", "metric", "distances", "measure"):
        if field not in doc:
            raise ParseError("missing required field", field=field)
    points, weight_doc = doc["points"], doc.get("weights") or {}
    if not isinstance(points, list):
        raise ParseError("must be a list of point objects", field="points")
    if not isinstance(weight_doc, dict):
        raise ParseError("must map names to weight vectors", field="weights")
    metric = doc["metric"]
    if metric not in METRIC_KINDS:
        raise ParseError(f"unknown metric {metric!r}", field="metric")

    def numeric(data, field: str, what: str | None = None) -> np.ndarray:
        return _float_array(data, partial(ParseError, field=field), what or field)

    dist = numeric(doc["distances"], "distances")
    measure = numeric(doc["measure"], "measure")
    n = len(points)
    if dist.shape != (n, n):
        raise ParseError(f"distances shape {dist.shape} != ({n}, {n})", field="distances")
    coords = None
    if all(isinstance(p, dict) and "coords" in p for p in points):
        coords = numeric([p["coords"] for p in points], "points", "coords")
    if isinstance(doc["distances"], np.ndarray):
        dist = dist.copy()  # parsed lists are a fresh matrix; a caller's array is not
    # stored distances are authoritative; re-validate but never re-derive
    space = _owned_space(dist, metric, measure, check_triangle=n <= 512, coords=coords)
    weights = {}
    for name, vec in weight_doc.items():
        w = numeric(vec, "weights", f"weight {name!r}")
        if w.shape != (n,):
            raise ParseError(f"weight {name!r} has shape {w.shape}", field="weights")
        weights[name] = w
    return space, weights
