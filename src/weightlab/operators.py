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
of f shares its average table. Where the block has a ``BallLayout`` the
table and the sweep have one column per ball, and each ball's best is
spread over the positions of its tie group before the fold. It computes values only. The witnesses
are resolved on the first read of ``witness_center``, ``witness_rank``,
``witness_radius`` or ``witness()``, once per kernel run (and so once per
memo entry): the same block sweep again, carrying keys, folded by
np.minimum.at into a running minimum of the key of each point's best
ball. mnat f shares the resolution of Mnat(-f).

Determinism: averages accumulate in ascending (distance, id) order, and a
tie resolves to the attaining ball of smallest ``BallFamily.ball_key``.
Max and min are exact and associative, so values and witnesses do not
depend on how the centers are cut into blocks.

Memo scope and batches: a memoized functional, decorated with
``_memoized``, is a generator that yields one list of requests, each a
``BallFamily.scan`` reducer or a call (functional, f, *params), and
returns its result from the code after the yield. ``evaluate`` runs a
batch of calls in one scan, and a single call is a batch of one. A check
is a generator that yields the calls it needs next, decorated with
``_batched``: alone it runs one batch per yield, and ``_drive`` runs
several in lockstep rounds of one batch each. Inside ``_memo_scope()``
each result is kept under (space, input bytes, params) and read by later
calls. ``theorems.run_suite`` opens one scope per call; outside a scope
every call computes. The scope is a ContextVar, so each thread running
suites has its own.
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

    The witness arrays are resolved on first read, by the keyed sweep of
    `_witness_keys`, and kept; `dataclasses.replace` shares that resolution
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
        key = _witness_keys(self.space, self.f, self.values).astype(np.int64)
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


def _memoized(steps):
    """Make steps(space, f, *params), a one-yield generator, into the functional it defines.

    `steps` yields one list of requests, each a `BallFamily.scan` reducer or
    a call (functional, f, *params), and returns the call's result from the
    code after the yield. A call is a batch of one. Inside a memo scope the
    result is kept under (steps, space, dtype, shape, digest of f's bytes,
    params); the key holds the space itself, so its id cannot be reused
    while the scope lives. Exceptions are not kept.
    """
    signature = inspect.signature(steps)

    @functools.wraps(steps)
    def functional(space, f, *params, **kwargs):
        if kwargs:  # as positional params: one key per call, however it is spelled
            params = signature.bind(space, f, *params, **kwargs).args[2:]
        return evaluate(space, [(functional, f, *params)])[0]

    functional.steps = steps  # copied onto any wrapper made with functools.wraps
    return functional


def _outcomes(space: FiniteMetricMeasureSpace, calls) -> list:
    """Per call (functional, f, *params), its result or the exception it raised.

    A call already in the open memo scope is read; the others are started,
    and their reducers and those of the calls they request run in one
    `BallFamily.scan`. Each call then gets its results at its yield, or a
    failed requested call's exception there, and returns its result, kept
    in the scope under its key; an exception is not kept, and a second
    yield fails the call. An exception that escapes the scan, such as a
    numpy warning raised as an error, lands on its own call: the calls run
    again one at a time.
    """
    memo = _memo.get()
    done = {} if memo is None else memo  # results by key: the scope's, or this batch's
    failed = {}  # key -> exception
    started = {}  # key -> (generator, per request (reducer, None) or (None, its call's key))
    keys = [_add(space, call, done, failed, started) for call in calls]
    if started:
        try:
            outs = iter(space.ball_family.scan(
                [r for _, parts in started.values() for r, _ in parts if r is not None]))
        except Exception as exc:
            if len(calls) > 1:
                return [out for call in calls for out in _outcomes(space, [call])]
            failed.update(dict.fromkeys(started, exc))
            started = {}
        for key, (gen, parts) in started.items():
            got = [done.get(k) if r is None else next(outs) for r, k in parts]
            exc = next((failed[k] for _, k in parts if k in failed), None)
            try:
                gen.send(got) if exc is None else gen.throw(exc)
                gen.close()
                raise RuntimeError(f"{gen.__name__} yielded twice; a functional yields once")
            except StopIteration as stop:
                done[key] = stop.value
            except Exception as err:  # kept for this call
                failed[key] = err
    return [failed[key] if key in failed else done[key] for key in keys]


def _add(space, call, done: dict, failed: dict, started: dict):
    """The memo key of a call; starts it, and the calls it requests, unless known."""
    fn, f, *params = call
    try:
        data = np.ascontiguousarray(f)
        key = (fn.steps, space, data.dtype.str, data.shape,
               hashlib.blake2b(data, digest_size=16).digest(), tuple(params))
    except ValueError:  # a ragged f has no bytes to key it by: its steps reject it
        key = object()
    if key in done or key in failed or key in started:
        return key
    gen = fn.steps(space, f, *params)
    try:
        requests = gen.send(None)
    except Exception as exc:  # kept for this call
        failed[key] = exc
        return key
    # added after the calls it requests, so finished after them
    started[key] = (gen, [(None, _add(space, r, done, failed, started)) if isinstance(r, tuple)
                          else (r, None) for r in requests])
    return key


def _batched(steps):
    """Make a generator function into the plain function that runs it, one batch per yield.

    `steps(space, ...)` yields lists of calls (functional, f, *params) and
    gets their results at the yield, or the exception of the first failing
    one thrown there. `steps` stays an attribute of the function, for `_drive`.
    """

    @functools.wraps(steps)
    def run(space, *args, **kwargs):
        (out,) = _drive(space, [steps(space, *args, **kwargs)])
        if isinstance(out, Exception):
            raise out
        return out

    run.steps = steps
    return run


def evaluate(space: FiniteMetricMeasureSpace, calls: list) -> list:
    """Results of calls (functional, f, *params) in one scan, or the first failure raised."""
    outs = _outcomes(space, calls)
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return outs


def _drive(space: FiniteMetricMeasureSpace, gens: list) -> list:
    """Run generators of `_batched` steps in lockstep; per generator, what it returns or raises.

    Each round runs the calls of every pending yield as one batch, one scan.
    """
    out, moves = [None] * len(gens), [(i, gen.send, None) for i, gen in enumerate(gens)]
    while moves:
        pending = []  # (index, the calls its generator yielded)
        for i, move, value in moves:
            try:
                pending.append((i, move(value)))
            except StopIteration as stop:
                out[i] = stop.value
            except Exception as exc:  # the generator's own error, as when it runs alone
                out[i] = exc
        results, moves = iter(_outcomes(space, [c for _, calls in pending for c in calls])), []
        for i, calls in pending:
            got = [next(results) for _ in calls]
            exc = next((r for r in got if isinstance(r, Exception)), None)
            moves.append((i, gens[i].send, got) if exc is None else (i, gens[i].throw, exc))
    return out


def _as_function(space: FiniteMetricMeasureSpace, f) -> np.ndarray:
    f = _float_array(f, InvalidFunction, "function")
    if f.shape != (space.n,):
        raise InvalidFunction(f"function must have shape ({space.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidFunction("function has non-finite entries")
    return f


class _MaxFold:
    """A `BallFamily.scan` reducer: Mnat f, one max sweep per block of centers.

    Each block's per-position best folds straight into one length-n
    maximum, at the points its positions hold.
    """

    def __init__(self, fam, f: np.ndarray):
        self.fam, self.tables = fam, ((f, "avg"),)
        self.values = np.full(fam.n, -np.inf)

    def add(self, rows, layout, avg: np.ndarray) -> None:
        fam = self.fam
        # sweep each center's order from the far end: position i then holds
        # the best ball ending at a position >= i, i.e. the best ball
        # containing the point at position i; a per-ball table (with its
        # layout) sweeps its balls and spreads each over its tie group
        if layout is None:
            best = np.where(fam.is_ball_end[rows], avg, -np.inf)
            np.maximum.accumulate(best[:, ::-1], axis=1, out=best[:, ::-1])
        else:
            best = np.empty_like(avg)  # avg is shared: not written to
            np.maximum.accumulate(avg[:, ::-1], axis=1, out=best[:, ::-1])
            best = layout.to_positions(best)
        # the index of ufunc.at must be 1-D: a 2-D one runs about 8x slower
        np.maximum.at(self.values, fam.block_index(rows).ravel(), best.ravel())

    def result(self) -> np.ndarray:
        return self.values


@_memoized
def _natural_extremal(space: FiniteMetricMeasureSpace, f: np.ndarray):
    """Mnat f: values from one `_MaxFold`; witnesses wait for a read."""
    (values,) = yield [_MaxFold(space.ball_family, f)]
    return OperatorOutput(values, _WitnessSweep(space, f.copy(), values))


def _witness_keys(space: FiniteMetricMeasureSpace, f: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Per point, the smallest ball_key of a ball containing it with average values[point].

    The kernel's sweep again, carrying keys: per center, the smallest key
    among the balls that attain each position's best, then a running
    minimum, at the points the positions hold, over the centers whose best
    equals the known value. A NaN attains as in `Sup`: a NaN value's
    witness is the NaN ball of smallest key that contains the point. A
    block with a layout sweeps one column per ball and spreads the best and
    its key over each ball's tie group.
    """
    fam = space.ball_family
    none = np.iinfo(fam.index_dtype).max
    wit_key = np.full(space.n, none, dtype=fam.index_dtype)
    for rows in fam.row_blocks():
        layout = fam.layout(rows)
        if layout is None:  # -inf where no ball ends
            avg = fam.averages_at_pos(f, rows)
            np.copyto(avg, -np.inf, where=~fam.is_ball_end[rows])
            keys = fam.ball_key[rows]
        else:
            avg = fam.averages_at_pos(f, rows, layout=layout)
            keys = np.take(fam.ball_key[rows], layout.ends)
        best = np.empty_like(avg)
        np.maximum.accumulate(avg[:, ::-1], axis=1, out=best[:, ::-1])
        # keys fall along the sweep, so the latest step attaining the running
        # max holds the smallest key of all the steps attaining it
        key = np.where((avg == best) | (avg != avg), keys, none)
        np.minimum.accumulate(key[:, ::-1], axis=1, out=key[:, ::-1])
        if layout is not None:
            best, key = layout.to_positions(best), layout.to_positions(key)
        points = fam.block_index(rows).ravel()
        want = np.take(values, points)
        best = best.ravel()
        hit = (best == want) | (best != best) & (want != want)
        np.minimum.at(wit_key, points, np.where(hit, key.ravel(), none))
    return wit_key


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
