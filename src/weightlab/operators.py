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
as -Mnat(-f), so mnat f and Mnat(-f) are one kernel run. Negation
commutes exactly with the prefix sums, the division and the max (up to
the sign of an average that cancels to exactly zero).

Values first, by blocks of centers. The kernel is a `_MaxFold` reducer of
``BallFamily.scan``: per ``row_blocks`` slice of centers it reads the
prefix averages of f, sweeps them, and folds each position's best into
one length-n vector by np.maximum.at, at the point that position holds;
no n x n table is held, and a batch that also asks for other reductions
of f shares its average table. The table and the sweep have one column
per ball, through the block's layout, and each ball's best is spread
over the positions of its tie group before the fold. The witnesses
are resolved on the first read of ``witness_center``, ``witness_rank``,
``witness_radius`` or ``witness()``, once per kernel run (and so once per
memo entry): one more scan of the same reducer, given the values, which
carries keys through the sweep and folds them by np.minimum.at into the
smallest key of each point's best ball. mnat f shares the resolution of
Mnat(-f).

Determinism: averages accumulate in ascending (distance, id) order, and a
tie resolves to the attaining ball of smallest key (``BallFamily.keys``).
Max and min are exact and associative, so values and witnesses do not
depend on how the centers are cut into blocks.

Memo scope and rounds: functionals and checks are generators that
``_outcomes`` runs (see ``_stepped``), one scan per round; a reducer's
output and a call's result, an exception too, reach the waiting step by
one path. ``run_suite`` opens one ``_memo_scope()`` per call, which keeps
each memoized call that ended without an exception; outside a scope every
call computes. The scope is a ContextVar, so each thread has its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import inspect
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidFunction
from .space import Ball, BallRef, FiniteMetricMeasureSpace, _float_array


@dataclass(frozen=True, eq=False)
class OperatorOutput:
    """Operator values plus, per point, the ball attaining the extremum.

    The witness arrays are resolved on first read, by a `_MaxFold` given
    the values, and kept; `dataclasses.replace` shares that resolution
    with the copy. All arrays are read-only.
    """

    values: np.ndarray
    _witnesses: "_WitnessSweep"

    def __post_init__(self):
        # results are shared inside a memo scope: no caller may write to them
        self.values.flags.writeable = False

    @property
    def witness_center(self) -> np.ndarray:
        return self._witnesses.arrays[0]

    @property
    def witness_rank(self) -> np.ndarray:
        return self._witnesses.arrays[1]

    @property
    def witness_radius(self) -> np.ndarray:
        return self._witnesses.arrays[2]

    def witness(self, point: int) -> BallRef:
        return BallRef(int(self.witness_center[point]),
                       int(self.witness_rank[point]),
                       float(self.witness_radius[point]))

    def witness_ball(self, space: FiniteMetricMeasureSpace, point: int) -> Ball:
        return space.ball_family.ball_at(int(self.witness_center[point]),
                                         int(self.witness_rank[point]))


@dataclass(frozen=True, eq=False)
class _WitnessSweep:
    """What resolving the witnesses of one kernel run needs: its input and values."""

    space: FiniteMetricMeasureSpace
    f: np.ndarray
    values: np.ndarray

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(center, rank, radius) per point, computed once."""
        fam = self.space.ball_family
        key = fam.scan([_MaxFold(fam, self.f, self.values)])[0].astype(np.int64)
        rank, center = np.divmod(key, self.space.n)
        radius = fam.radius_at_pos(center, fam.end_positions(key))
        out = (center, rank, radius)
        for arr in out:
            arr.flags.writeable = False
        return out


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


def _stepped(steps, memoized: bool = False):
    """Make steps(space, *args), a generator function, into the plain function it defines.

    `steps` yields lists of requests, each a `BallFamily.scan` reducer or a
    call (fn, *args) of another such function, as often as it needs, gets
    their results at each yield and returns its own. Called by name, it is
    a batch of one, with keyword arguments and defaults bound to positions.
    A memoized call (fn, f, *params) is kept under the key `_outcomes` makes.
    """
    signature = inspect.signature(steps)

    @functools.wraps(steps)
    def run(space, *args, **kwargs):
        if kwargs:  # bind stops at the first parameter not passed: defaults fill the gap
            bound = signature.bind(space, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        return evaluate(space, [(run, *args)])[0]

    # copied onto any wrapper made with functools.wraps, so `_outcomes` drives it alike
    run.steps, run.memoized = steps, memoized
    return run


_memoized = functools.partial(_stepped, memoized=True)
_RUNNING = object()  # the `out` of a call that has not ended


class _Call:
    """A call of a step function, run by `_outcomes`: its generator and memo key (or None).

    At a yield, `got` holds the requests, each replaced by its result as it
    arrives, `waits` counts the results still to come, and `failed` tells
    whether one is an exception. Once it ends, `out` is what it returned or
    raised and `failed` tells which; it goes to each (step, position) in `waiters`.
    """

    got, waits, failed, out = None, 0, False, _RUNNING  # before its first step

    def __init__(self, gen, key):
        self.gen, self.key, self.waiters = gen, key, []


def _outcomes(space: FiniteMetricMeasureSpace, calls) -> list:
    """Per call (fn, *args), its result or the exception it raised: the one round loop.

    Each call is read from the memo, or starts and runs until it waits for
    the results of a yield; the calls it requests start alike. A round
    scans every reducer that a step waits for, at once. Each result, a
    reducer's output or a call's, goes to its step by `resume`.
    """
    memo = _memo.get()
    memo = {} if memo is None else memo  # ended calls by key: the scope's, or this loop's
    started = {}  # this loop's calls by key, failed ones too
    scanning = []  # (reducer, step, position) for the next scan

    def call(request) -> _Call:
        """The call (fn, f, *params): known by its key, or started and run until it waits."""
        fn, f, *params = request
        key = None
        if fn.memoized:
            try:  # the key holds the space itself, so its id is not reused while it lives
                data = np.ascontiguousarray(f)
                key = (fn.steps, space, data.dtype.str, data.shape,
                       hashlib.blake2b(data, digest_size=16).digest(), tuple(params))
            except ValueError:  # a ragged f has no bytes to key it by: its steps reject it
                pass
            if key in started:
                return started[key]
            if key in memo:
                return memo[key]
        step = _Call(fn.steps(space, f, *params), key)
        if key is not None:  # before it runs: a call that requests itself waits for itself
            started[key] = step
        resume(step)
        return step

    def resume(step: _Call, position=None, out=None, failed=False) -> None:
        """Put a result in place and count down; at zero, run the step on until it waits or ends.

        A step's first run puts nothing, and its first failure is thrown at its
        yield. At its end, its result goes the same way to the steps that wait.
        """
        if position is not None:
            step.got[position] = out
            step.failed |= failed
            step.waits -= 1
        while not step.waits:
            exc = next(g for g in step.got if isinstance(g, Exception)) if step.failed else None
            try:
                requests = step.gen.send(step.got) if exc is None else step.gen.throw(exc)
            except StopIteration as stop:
                step.out, step.failed = stop.value, False
                if step.key is not None:
                    memo[step.key] = step
                break
            except Exception as err:  # kept for this call
                step.out, step.failed = err, True
                break
            step.got, step.failed = list(requests), False
            for i, request in enumerate(step.got):
                if type(request) is not tuple:
                    scanning.append((request, step, i))
                    step.waits += 1
                elif (called := call(request)).out is _RUNNING:
                    called.waiters.append((step, i))
                    step.waits += 1
                else:
                    step.got[i] = called.out
                    step.failed |= called.failed
        if step.out is not _RUNNING:
            for waiter, i in step.waiters:
                resume(waiter, i, step.out, step.failed)

    def scanned(batch: list) -> list:
        """Per (reducer, step, position), its output from one scan, or the exception raised."""
        try:
            return [(out, False) for out in space.ball_family.scan([r for r, _, _ in batch])]
        except Exception as exc:  # if a scan of several raises, each reducer scans again alone
            return [(exc, True)] if len(batch) == 1 else [scanned([entry])[0] for entry in batch]

    first = [call(request) for request in calls]
    while scanning:
        batch, scanning = scanning, []
        for (_, step, i), (out, failed) in zip(batch, scanned(batch)):
            resume(step, i, out, failed)
    call = resume = scanned = None  # they refer to each other: free them with the loop
    if any(step.out is _RUNNING for step in first):
        raise RuntimeError("the waiting steps wait for each other")
    return [step.out for step in first]


def evaluate(space: FiniteMetricMeasureSpace, calls: list) -> list:
    """Results of calls (fn, *args), run together by `_outcomes`, or the first failure raised."""
    outs = _outcomes(space, calls)
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return outs


def _as_function(space: FiniteMetricMeasureSpace, f) -> np.ndarray:
    f = _float_array(f, InvalidFunction, "function")
    if f.shape != (space.n,):
        raise InvalidFunction(f"function must have shape ({space.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidFunction("function has non-finite entries")
    return f


class _MaxFold:
    """A `BallFamily.scan` reducer: Mnat f by one max sweep per block of centers, or its witnesses.

    Each block's per-position best folds into one length-n vector, at the
    points its positions hold. Without `values` the fold is a maximum.
    Given the values, the sweep carries keys, and the fold is a minimum
    over the centers whose best equals the point's value: each point's
    smallest key of an attaining ball. A NaN attains as in `Sup`: a
    NaN value's witness is the NaN ball of smallest key that contains it.
    """

    def __init__(self, fam, f: np.ndarray, values: np.ndarray | None = None):
        self.fam, self.tables, self.want = fam, ((f, "avg"),), values
        self.none = np.iinfo(fam.index_dtype).max  # no key yet
        self.out = (np.full(fam.n, -np.inf) if values is None
                    else np.full(fam.n, self.none, dtype=fam.index_dtype))

    def add(self, rows, layout, avg: np.ndarray) -> None:
        fam, want = self.fam, self.want
        # sweep each center's balls from the far end: column j then holds
        # the best ball ending at or after ball j's end, i.e. the best ball
        # containing every point of ball j's tie group, over which it is
        # spread. avg is shared: the sweep writes a new table
        best = np.empty_like(avg)
        np.maximum.accumulate(avg[:, ::-1], axis=1, out=best[:, ::-1])
        # the index of ufunc.at must be 1-D: a 2-D one runs about 8x slower
        points = fam.block_index(rows).ravel()
        if want is None:
            np.maximum.at(self.out, points, layout.to_positions(best))
            return
        # a ball attains the running max where its average is that max or NaN;
        # keys fall along the sweep, so the latest step attaining the running
        # max holds the smallest key of all the steps attaining it
        key = np.where((avg == best) | (avg != avg), fam.keys(rows, avg.shape[1]), self.none)
        np.minimum.accumulate(key[:, ::-1], axis=1, out=key[:, ::-1])
        want, best = np.take(want, points), layout.to_positions(best)
        hit = (best == want) | (best != best) & (want != want)
        np.minimum.at(self.out, points, np.where(hit, layout.to_positions(key), self.none))

    def result(self) -> np.ndarray:
        return self.out


@_memoized
def _natural_extremal(space: FiniteMetricMeasureSpace, f: np.ndarray):
    """Mnat f: values from one `_MaxFold`; witnesses wait for a read."""
    (values,) = yield [_MaxFold(space.ball_family, f)]
    return OperatorOutput(values, _WitnessSweep(space, f.copy(), values))


@_memoized
def natural_maximal(space: FiniteMetricMeasureSpace, f):
    """Best signed average over balls containing each point; >= f pointwise."""
    return (yield [(_natural_extremal, _as_function(space, f))])[0]


@_memoized
def natural_minimal(space: FiniteMetricMeasureSpace, f):
    """Worst signed average over balls containing each point: -Mnat(-f), same witnesses."""
    (up,) = yield [(_natural_extremal, -_as_function(space, f))]
    return replace(up, values=-up.values)


@_memoized
def maximal(space: FiniteMetricMeasureSpace, f):
    """Hardy-Littlewood maximal function: natural_maximal of |f|."""
    return (yield [(_natural_extremal, np.abs(_as_function(space, f)))])[0]


@_memoized
def minimal(space: FiniteMetricMeasureSpace, f):
    """Minimal function: natural_minimal of |f|."""
    return (yield [(natural_minimal, np.abs(_as_function(space, f)))])[0]


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
