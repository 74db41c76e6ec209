"""Maximal and minimal operators over the realized balls.

Evaluates, for a function f on a finite metric measure space:

  * natural_maximal  Mnat f(x) = max over balls B containing x of avg_B f
  * natural_minimal  mnat f(x) = min over balls B containing x of avg_B f
  * maximal          M f = Mnat |f|   (Hardy-Littlewood)
  * minimal          m f = mnat |f|

A ball centered at c contains y exactly when its radius rank is at least
the rank of dist(c, y) among c's distinct distances, so for each center the
candidate averages form a suffix of the prefix-average array. One suffix
extremum sweep per center gives all points their best ball from that
center; the total cost is O(n^2) on top of the O(n^2 log n) sort held by
the BallFamily.

Determinism: averages accumulate in ascending (distance, id) order, and a
tie between balls attaining the same extremum resolves to the smallest
rank, then the smallest center id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFunction
from .space import Ball, BallFamily, BallRef, FiniteMetricMeasureSpace


@dataclass(frozen=True, eq=False)
class OperatorOutput:
    """Operator values plus, per point, the ball attaining the extremum."""

    values: np.ndarray
    witness_center: np.ndarray
    witness_rank: np.ndarray
    witness_radius: np.ndarray

    def witness(self, point: int) -> BallRef:
        return BallRef(int(self.witness_center[point]),
                       int(self.witness_rank[point]),
                       float(self.witness_radius[point]))

    def witness_ball(self, space: FiniteMetricMeasureSpace, point: int) -> Ball:
        return space.ball_family.ball_at(int(self.witness_center[point]),
                                         int(self.witness_rank[point]))


def ball_averages(space: FiniteMetricMeasureSpace, f) -> "BallAverageTable":
    """Measure-weighted average of f over every realized ball."""
    f = _as_function(space, f)
    fam = space.ball_family
    return BallAverageTable(fam, fam.averages_at_pos(f))


class BallAverageTable:
    """Per-(center, rank) averages backed by the family's prefix sums."""

    def __init__(self, family: BallFamily, avg_at_pos: np.ndarray):
        self.family = family
        self.avg_at_pos = avg_at_pos

    def value(self, center: int, rank: int) -> float:
        end = self.family.end_positions(center)[rank - 1]
        return float(self.avg_at_pos[center, end])

    def items(self):
        fam = self.family
        for c in range(fam.n):
            for rank, end in enumerate(fam.end_positions(c), start=1):
                yield BallRef(c, rank, float(fam.radius_at_pos(c, end))), \
                    float(self.avg_at_pos[c, end])


def _as_function(space: FiniteMetricMeasureSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (space.n,):
        raise InvalidFunction(f"function must have shape ({space.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidFunction("function has non-finite entries")
    return f


def _suffix_extremum(masked: np.ndarray, mode: str, index_dtype):
    """Per row: extremum over positions >= i, with its smallest position.

    masked holds -inf (max) or +inf (min) at non-ball positions. Returns
    (S, arg) where S[c, i] is the extremum over ball positions >= i and
    arg[c, i] the smallest position attaining it.
    """
    n = masked.shape[1]
    rev = masked[:, ::-1]
    if mode == "max":
        cm = np.maximum.accumulate(rev, axis=1)
    else:
        cm = np.minimum.accumulate(rev, axis=1)
    idx = np.arange(n, dtype=index_dtype)[None, :]
    # in reversed order, the latest index attaining the running extremum is
    # the smallest original position; propagate it with a running max
    marks = np.where(rev == cm, idx, index_dtype(-1))
    argrev = np.maximum.accumulate(marks, axis=1)
    S = cm[:, ::-1].copy()
    arg = (n - 1 - argrev)[:, ::-1].copy()
    return S, arg


def _natural_extremal(space: FiniteMetricMeasureSpace, f: np.ndarray,
                      mode: str) -> OperatorOutput:
    fam = space.ball_family
    n = space.n
    dt = fam.index_dtype
    fill = -np.inf if mode == "max" else np.inf
    masked = np.where(fam.is_ball_end, fam.averages_at_pos(f), fill)
    S, arg = _suffix_extremum(masked, mode, dt)
    # candidate value/witness for (center, point): best ball of that center
    cand = np.take_along_axis(S, fam.pos, axis=1)
    cand_pos = np.take_along_axis(arg, fam.pos, axis=1)
    if mode == "max":
        values = cand.max(axis=0)
        attain = cand == values[None, :]
    else:
        values = cand.min(axis=0)
        attain = cand == values[None, :]
    ranks = np.take_along_axis(fam.rank_at_pos, cand_pos, axis=1)
    centers = np.arange(n, dtype=dt)[:, None]
    key = np.where(attain, ranks * dt(n) + centers, np.iinfo(dt).max)
    sel = key.min(axis=0)
    wit_rank = sel // n
    wit_center = sel % n
    end_pos = cand_pos[wit_center, np.arange(n)]
    wit_radius = fam.radius_at_pos(wit_center, end_pos)
    values = values.copy()
    values.flags.writeable = False
    return OperatorOutput(values, wit_center.astype(np.int64),
                          wit_rank.astype(np.int64), wit_radius)


def natural_maximal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Best signed average over balls containing each point; >= f pointwise."""
    return _natural_extremal(space, _as_function(space, f), "max")


def natural_minimal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Worst signed average over balls containing each point; <= f pointwise."""
    return _natural_extremal(space, _as_function(space, f), "min")


def maximal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Hardy-Littlewood maximal function: natural_maximal of |f|."""
    return _natural_extremal(space, np.abs(_as_function(space, f)), "max")


def minimal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Minimal function: natural_minimal of |f|."""
    return _natural_extremal(space, np.abs(_as_function(space, f)), "min")


# ---------------------------------------------------------------------------
# Naive reference path: explicit loop over every (center, rank) ball.
# Used by the benchmark gate and the oracle-equivalence tests; O(n^3).
# ---------------------------------------------------------------------------


def _natural_extremal_naive(space: FiniteMetricMeasureSpace, f: np.ndarray,
                            mode: str) -> np.ndarray:
    n = space.n
    better = np.greater if mode == "max" else np.less
    values = np.full(n, -np.inf if mode == "max" else np.inf)
    for c in range(n):
        row = space.dist[c]
        for radius in np.unique(row):
            members = np.nonzero(row <= radius)[0]
            avg = float(np.dot(space.measure[members], f[members])
                        / space.measure[members].sum())
            upd = members[better(avg, values[members])]
            values[upd] = avg
    return values


def natural_maximal_naive(space, f) -> np.ndarray:
    return _natural_extremal_naive(space, _as_function(space, f), "max")


def natural_minimal_naive(space, f) -> np.ndarray:
    return _natural_extremal_naive(space, _as_function(space, f), "min")


def maximal_naive(space, f) -> np.ndarray:
    return _natural_extremal_naive(space, np.abs(_as_function(space, f)), "max")


def minimal_naive(space, f) -> np.ndarray:
    return _natural_extremal_naive(space, np.abs(_as_function(space, f)), "min")
