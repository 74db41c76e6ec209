"""Maximal and minimal operators over the realized balls.

Evaluates, for a function f on a finite metric measure space:

  * natural_maximal  Mnat f(x) = max over balls B containing x of avg_B f
  * natural_minimal  mnat f(x) = min over balls B containing x of avg_B f
  * maximal          M f = Mnat |f|   (Hardy-Littlewood)
  * minimal          m f = mnat |f|

A ball centered at c contains y exactly when its radius rank is at least
the rank of dist(c, y) among c's distinct distances, so for each center the
candidate averages form a suffix of the prefix-average array. One suffix
maximum sweep per center gives all points their best ball from that
center; the total cost is O(n^2) on top of the O(n^2 log n) sort held by
the BallFamily. Only the max side is swept: natural_minimal is defined
as -Mnat(-f), so mnat f and Mnat(-f) are one kernel run and one memo
entry. Negation commutes exactly with the prefix sums, the division and
the max (up to the sign of an average that cancels to exactly zero).

Determinism: averages accumulate in ascending (distance, id) order, and a
tie resolves to the attaining ball of smallest ``BallFamily.ball_key``.

Memo scope: inside ``_memo_scope()`` a function decorated with
``_memoized`` returns its first result for each (space, input bytes,
params) instead of recomputing it. ``theorems.run_suite`` opens one scope
per call; outside a scope every call computes. The scope is a ContextVar,
so a library caller running suites from several threads gives each thread
its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidFunction
from .space import Ball, BallRef, FiniteMetricMeasureSpace, _float_array


@dataclass(frozen=True, eq=False)
class OperatorOutput:
    """Operator values plus, per point, the ball attaining the extremum."""

    values: np.ndarray
    witness_center: np.ndarray
    witness_rank: np.ndarray
    witness_radius: np.ndarray

    def __post_init__(self):
        # results are shared inside a memo scope: no caller may write to them
        for arr in (self.values, self.witness_center, self.witness_rank,
                    self.witness_radius):
            arr.flags.writeable = False

    def witness(self, point: int) -> BallRef:
        return BallRef(int(self.witness_center[point]),
                       int(self.witness_rank[point]),
                       float(self.witness_radius[point]))

    def witness_ball(self, space: FiniteMetricMeasureSpace, point: int) -> Ball:
        return space.ball_family.ball_at(int(self.witness_center[point]),
                                         int(self.witness_rank[point]))


_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "weightlab_memo", default=None)


@contextlib.contextmanager
def _memo_scope():
    """Share the results of memoized calls until the block exits."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _memoized(fn):
    """Decorate fn(space, f, *params): inside a memo scope, compute once per input.

    The key holds the space itself (so its id cannot be reused while the
    scope lives) and a digest of f's bytes, not the bytes. Exceptions are
    not stored.
    """
    @functools.wraps(fn)
    def wrapper(space, f, *params, **kwargs):
        memo = _memo.get()
        if memo is None:
            return fn(space, f, *params, **kwargs)
        data = np.ascontiguousarray(f)
        key = (fn, space, data.dtype.str, data.shape,
               hashlib.blake2b(data, digest_size=16).digest(),
               params, tuple(sorted(kwargs.items())))
        if key not in memo:
            memo[key] = fn(space, f, *params, **kwargs)
        return memo[key]

    return wrapper


def _as_function(space: FiniteMetricMeasureSpace, f) -> np.ndarray:
    f = _float_array(f, InvalidFunction, "function")
    if f.shape != (space.n,):
        raise InvalidFunction(f"function must have shape ({space.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidFunction("function has non-finite entries")
    return f


@_memoized
def _natural_extremal(space: FiniteMetricMeasureSpace, f: np.ndarray) -> OperatorOutput:
    """Mnat f with witnesses: per point, the attaining ball of smallest ball_key."""
    fam = space.ball_family
    n = space.n
    none = np.iinfo(fam.index_dtype).max
    avg = fam.averages_at_pos(f)
    np.copyto(avg, -np.inf, where=~fam.is_ball_end)
    # sweep each center's order from the far end: step k holds the best ball
    # ending at a position >= n-1-k, i.e. the best ball containing the point
    # at position n-1-k
    rev = avg[:, ::-1]
    best = np.maximum.accumulate(rev, axis=1)
    # keys fall along the sweep, so the latest step attaining the running
    # max holds the smallest key of all the steps attaining it
    key = np.where(rev == best, fam.ball_key[:, ::-1], none)
    np.minimum.accumulate(key, axis=1, out=key)
    del avg, rev
    # scatter the sweep to point columns: (center, point) -> best ball
    far_first = fam.order[:, ::-1]
    cand = np.empty((n, n))
    np.put_along_axis(cand, far_first, best, axis=1)
    del best
    cand_key = np.empty_like(key)
    np.put_along_axis(cand_key, far_first, key, axis=1)
    del key
    values = cand.max(axis=0)
    wit_key = np.where(cand == values, cand_key, none).min(axis=0)
    del cand, cand_key
    wit_rank, wit_center = np.divmod(wit_key.astype(np.int64), n)
    return OperatorOutput(values, wit_center, wit_rank, fam.end_of_key(wit_key)[1])


def natural_maximal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Best signed average over balls containing each point; >= f pointwise."""
    return _natural_extremal(space, _as_function(space, f))


def natural_minimal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Worst signed average over balls containing each point: -Mnat(-f), same witnesses."""
    up = _natural_extremal(space, -_as_function(space, f))
    return replace(up, values=-up.values)


def maximal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Hardy-Littlewood maximal function: natural_maximal of |f|."""
    return _natural_extremal(space, np.abs(_as_function(space, f)))


def minimal(space: FiniteMetricMeasureSpace, f) -> OperatorOutput:
    """Minimal function: natural_minimal of |f|."""
    return natural_minimal(space, np.abs(_as_function(space, f)))


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
