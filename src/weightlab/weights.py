"""Characteristic constants and oscillation norms with extremal witnesses.

Every functional here is a supremum over the realized balls of a per-ball
expression in averages, minima, and maxima of (transforms of) the weight:

  ap_constant      sup (avg w) * (avg w**(-1/(p-1)))**(p-1)
  a1_constant      sup (avg w) / (min over ball of w)
  ainf_constant    sup (avg w) * exp(-avg log w)
  rhs_constant     sup (avg w**s)**(1/s) / (avg w)
  rhinf_constant   sup (max over ball of w) / (avg w)
  harnack_constant sup (max over ball of w) / (min over ball of w)
  bmo_norm         sup avg |f - f_B|
  blo_norm         sup (avg f - min over ball of f)
  buo_norm         sup (max over ball of f - avg f)

Essential suprema and infima reduce to ball maxima and minima because
zero-mass points are rejected at ingestion. a1 and rhinf each have an
equivalent pointwise form through the maximal and minimal functions; both
are computed and must agree (both forms read the same averages, summed in
the same order, so the two suprema are exactly equal), with the alternate
value stored on the result.
buo is defined as the blo norm of -f (the operators' sign symmetry).

All nine are memoized generators, run by the one step loop of
``operators``. Each yields its requests once: the `Sup` reducer over the
(vector, avg|min|max) tables it reads, and the calls it needs (a1 and
rhinf read Mw and mw for their cross-checks, buo the blo norm of -f). A
round of the loop is one ``BallFamily.scan``, which builds each block of a
table once for every call that reads it. Inside one ``run_suite`` call
each (space, input, exponent) is computed once; outside it every call
computes.

bmo is the one functional that sums over each ball's members rather than
reading a prefix table, O(n) per ball; it reads avg f from the scan, so a
batch shares that table with blo. A block of centers with few balls per
center (a `BallLayout` at most BMO_EXACT_MAX_WIDTH ceil(sqrt n) wide) sums
every ball, into its per-ball table. In every other block a closed form
first estimates every ball's value, with a bound on the rounding of both
computations; only the balls that may reach the sup are summed exactly.
Each summed ball is one full-length masked row, so values and witnesses
equal those of summing every row of every center, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace

import numpy as np

from .errors import InvalidParams, NonpositiveWeight
from .operators import _as_function, _memoized, maximal, minimal
from .space import CHUNK_CELLS, FiniteMetricMeasureSpace, FunctionalResult, Sup, _float_array

# beyond this dynamic range exp/log round-off dominates the comparisons
CONDITIONING_RANGE = 1e12
CROSS_FORM_RTOL = 1e-12
# below this many points the BMO screen costs more than it saves (measured)
BMO_SCREEN_MIN_N = 32
# the screen's error bound assumes |f| and the measure within these powers of two
SCREEN_RANGE = 2.0 ** 400
# a block of centers with a layout whose widest center has at most this many
# times ceil(sqrt n) balls sums every ball and skips the screen. Time of that
# path over the screen's, per layout block, by width / ceil(sqrt n) (median
# and range; linf, l1 and Euclidean grids of 500-2000 points, f = log w):
#   <1.25: 0.27 (0.18-0.36)  1.25-1.75: 0.45 (0.26-0.69)  1.75-2.25: 0.53 (0.35-0.74)
#   2.25-2.75: 0.64 (0.52-0.94)  2.75-3.25: 0.77 (0.64-0.97)  3.25-4: 0.96 (0.74-1.32)
#   4-5: 1.22 (0.87-1.56)  5-6: 1.54 (1.09-2.19)  6-30 (Euclidean): 2-4 (1.37-6.59)
BMO_EXACT_MAX_WIDTH = 3.0


def _as_weight(space: FiniteMetricMeasureSpace, w, positive: bool = True) -> np.ndarray:
    w = _float_array(w, NonpositiveWeight, "weight")
    if w.shape != (space.n,):
        raise NonpositiveWeight(f"weight must have shape ({space.n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonpositiveWeight("weight has non-finite entries")
    if positive:
        if np.any(w <= 0.0):
            raise NonpositiveWeight("weight must be strictly positive")
    elif np.any(w < 0.0):
        raise NonpositiveWeight("weight must be nonnegative")
    return w


def _exponents(**named) -> None:
    """Raise InvalidParams, naming the exponent, unless each is a finite real > 1."""
    for name, x in named.items():
        if not (isinstance(x, numbers.Real) and 1.0 < x < math.inf):
            raise InvalidParams(f"exponent {name} must be a finite real > 1, got {x!r}")


def _conditioning(w: np.ndarray) -> tuple[str, ...]:
    with np.errstate(over="ignore"):  # an overflowing range reads inf
        rng = float(w.max() / w.min()) if w.min() > 0 else np.inf
    if rng > CONDITIONING_RANGE:
        return (f"weight dynamic range {rng:.2e} exceeds {CONDITIONING_RANGE:.0e}; "
                "log/exp round-off may dominate",)
    return ()


@_memoized
def ap_constant(space: FiniteMetricMeasureSpace, w, p: float):
    """Muckenhoupt constant for exponent p in (1, inf)."""
    _exponents(p=p)
    w = _as_weight(space, w)
    dual = np.power(w, -1.0 / (p - 1.0))

    def table(rows, avg_w, avg_dual):
        # products and quotients in place hold one block temporary fewer in
        # a batch's scan; a * b is b * a bit for bit
        with np.errstate(over="ignore"):  # an overflowing product is the value inf
            vals = np.power(avg_dual, p - 1.0)
            vals *= avg_w
        return vals

    (sup,) = yield [Sup(space.ball_family, ((w, "avg"), (dual, "avg")), table)]
    return FunctionalResult(f"A_p(p={p:g})", *sup, warnings=_conditioning(w))


@_memoized
def a1_constant(space: FiniteMetricMeasureSpace, w):
    """A_1 constant: sup over balls of (avg w) / (min over ball of w).

    Cross-checked against the pointwise form max_x Mw(x) / w(x); the two
    suprema range over the same quotient set so they agree exactly.
    """
    w = _as_weight(space, w)

    def table(rows, avg_w, low):
        with np.errstate(over="ignore"):  # an overflowing quotient is the value inf
            return avg_w / low

    sup, mw = yield [Sup(space.ball_family, ((w, "avg"), (w, "min")), table), (maximal, w)]
    with np.errstate(over="ignore"):
        ratios = mw.values / w
    return _cross_checked("A_1", w, *sup, ratios)


@_memoized
def ainf_constant(space: FiniteMetricMeasureSpace, w):
    """A_inf constant: sup over balls of (avg w) * exp(-avg log w)."""
    w = _as_weight(space, w)

    def table(rows, avg_w, avg_log):
        vals = np.negative(avg_log)
        np.exp(vals, out=vals)
        vals *= avg_w
        return vals

    (sup,) = yield [Sup(space.ball_family, ((w, "avg"), (np.log(w), "avg")), table)]
    return FunctionalResult("A_inf", *sup, warnings=_conditioning(w))


@_memoized
def rhs_constant(space: FiniteMetricMeasureSpace, w, s: float):
    """Reverse Holder constant: sup over balls of (avg w**s)**(1/s) / (avg w).

    Nonnegative weights are allowed; balls averaging to zero are skipped,
    and the all-zero weight is rejected.
    """
    _exponents(s=s)
    w = _as_weight(space, w, positive=False)
    if not np.any(w > 0.0):
        raise NonpositiveWeight("weight is identically zero")

    def table(rows, a, avg_ws):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.power(avg_ws, 1.0 / s)
            vals /= a
        np.copyto(vals, -np.inf, where=~(a > 0.0))
        return vals

    (sup,) = yield [Sup(space.ball_family, ((w, "avg"), (np.power(w, s), "avg")), table)]
    return FunctionalResult(f"RH_s(s={s:g})", *sup, warnings=_conditioning(w[w > 0]))


@_memoized
def rhinf_constant(space: FiniteMetricMeasureSpace, w):
    """RH_inf constant: sup over balls of (max over ball of w) / (avg w).

    Cross-checked against the pointwise form max_x w(x) / mw(x); exact
    agreement for the same reason as a1_constant.
    """
    w = _as_weight(space, w)
    sup, mw = yield [Sup(space.ball_family, ((w, "max"), (w, "avg")),
                         lambda rows, top, avg_w: top / avg_w), (minimal, w)]
    return _cross_checked("RH_inf", w, *sup, w / mw.values)


@_memoized
def harnack_constant(space: FiniteMetricMeasureSpace, w):
    """sup over balls of (max over ball of w) / (min over ball of w)."""
    w = _as_weight(space, w)
    (sup,) = yield [Sup(space.ball_family, ((w, "max"), (w, "min")),
                        lambda rows, top, low: top / low)]
    return FunctionalResult("Harnack", *sup)


def _cross_checked(kind: str, w: np.ndarray, value: float, ref,
                   ratios: np.ndarray) -> FunctionalResult:
    """Result of a ball-form sup, checked against its pointwise ratios."""
    point = int(ratios.argmax())
    alt = float(ratios[point])
    if abs(value - alt) > CROSS_FORM_RTOL * max(abs(value), abs(alt), 1.0):
        raise ArithmeticError(
            f"{kind} forms disagree: ball form {value!r} vs pointwise form {alt!r}")
    return FunctionalResult(kind, value, ref, point=point, alt_value=alt,
                            warnings=_conditioning(w))


@_memoized
def bmo_norm(space: FiniteMetricMeasureSpace, f):
    """sup over balls of avg |f - f_B|, over the table of `_bmo_table`."""
    f = _as_function(space, f)
    table, _ = _bmo_table(space, f)
    (sup,) = yield [Sup(space.ball_family, ((f, "avg"),), table)]
    return FunctionalResult("BMO", *sup)


def _bmo_table(space: FiniteMetricMeasureSpace, f: np.ndarray):
    """The BMO norm's `table(rows, avg)` for a `Sup` of avg(f), and a count of the balls summed.

    Exact sums. A ball's value is summed as one full-length masked row:
    mu |f - f_B| over the center's order, times 1 at the members'
    positions and 0 after, summed with numpy's pairwise sum over the row
    and divided by the ball's mass. Every ball summed is summed so, and
    a singleton reads exactly zero.

    Which balls. A row block with a `BallLayout` whose widest center has
    at most BMO_EXACT_MAX_WIDTH * ceil(sqrt n) balls sums every ball, one
    row per ball and none per pad, into its per-ball table: R_b n per
    center against the screen's ~n^1.5 (the constant's comment has the
    measured crossover). Every other block runs the screen below, and a
    block with a layout reads its result at the ball ends. Both give the
    bytes of summing every ball of every center.

    Screen. Let x = f - (max f + min f) / 2. With M the mass of a ball, S
    the sum of mu x over it, a = S / M and M_le, S_le the same two sums
    over the members with x <= a,

        sum_B mu |x - a| = a (2 M_le - M) - (2 S_le - S),

    so one estimate per ball costs two sums over a sub-level set. Per
    center they come from sweeping its positions in blocks of ceil(sqrt n):
    a cumulative sum over the rank of x gives the earlier blocks' share,
    and a pairwise compare the block's own, O(n^1.5) per center in all.

    Bound. On every ball the estimate v and the exact value t differ by at
    most err = 80 (n + 1) u max|f| + (n + 8) 2**-600, with u = 2**-53. A
    first-order count of the rounding in both gives (36 n + 49) u max|f|,
    of which the exact f_B, summed in f and not in x, is a large share;
    err doubles it for the higher-order terms. The second term covers
    underflow, which SCREEN_RANGE keeps small: the measure and |f| lie
    within it, so nothing overflows either.

    Scan. In each screened block the balls with v >= max(L - err, V - 2 err)
    are summed exactly, with L the earlier blocks' largest exact value and
    V the block's largest estimate; every other ball reads -inf. A ball
    that ties or beats the sup t* has t >= t* >= L, and
    t* >= (t of the block's top-estimate ball) >= V - err, so its v clears
    both terms: value and tie-rule witness are those of summing every
    ball. A NaN keeps every ball. Small spaces and inputs out of range do
    not screen: every ball is summed, by the per-ball path where the block
    has a layout.
    """
    n = space.n
    fam = space.ball_family
    mu = space.measure
    top = float(np.abs(f).max())
    screen = (n >= BMO_SCREEN_MIN_N and top <= SCREEN_RANGE
              and 1.0 / SCREEN_RANGE <= mu.min() and mu.max() <= SCREEN_RANGE)
    width = math.isqrt(n - 1) + 1  # the screen's block of positions
    if screen:
        x = f - (0.5 * f.max() + 0.5 * f.min())
        by_rank = np.argsort(x, kind="stable")
        x_sorted = x[by_rank]
        rank1 = np.empty(n, dtype=np.intp)  # 1 + rank of x: column 0 of seen stays 0
        rank1[by_rank] = np.arange(1, n + 1)
        in_block = np.tri(width, dtype=bool)  # row j: block members at positions <= j
        err = 80.0 * (n + 1) * 2.0 ** -53 * top + (n + 8) * 2.0 ** -600
    chunk = max(1, CHUNK_CELLS // n)  # rows of n summed at once
    # row j: 1.0 at the positions <= j, the members, and 0.0 after, as
    # windows of one vector; a float mask multiplies 10% faster than a bool
    members = np.lib.stride_tricks.sliding_window_view(
        (np.arange(2 * n - 1) < n).astype(float), n)[::-1]
    best, evaluated = -np.inf, 0  # largest exact value so far, balls summed

    def estimates(order, mass):
        """The screen's estimate of every ball of one row block."""
        line = np.arange(order.shape[0])[:, None]
        mo, xo = mu[order], x[order]
        terms = np.stack([mo, mo * xo], axis=-1)  # mu and mu x
        total = np.cumsum(terms[..., 1], axis=1)
        avg = total / mass
        cut = np.searchsorted(x_sorted, avg, side="right")  # x <= avg iff rank1 <= cut
        seen = np.zeros((order.shape[0], n + 1, 2))  # per rank1, blocks so far
        below = np.empty_like(seen)
        low = np.empty_like(terms)  # the two sums over members with x <= avg
        # the same arrays with each pair as one complex number: cumsum and
        # fancy indexing run 2-3x faster on them than over a trailing axis
        seen_z, below_z, low_z, terms_z = (
            a.view(complex)[..., 0] for a in (seen, below, low, terms))
        for p0 in range(0, n, width):
            p = slice(p0, min(p0 + width, n))
            m = p.stop - p0
            np.cumsum(seen_z, axis=1, out=below_z)
            le = xo[:, None, p] <= avg[:, p, None]
            le &= in_block[:m, :m]
            low[:, p] = np.matmul(le, terms[:, p], dtype=float)
            low_z[:, p] += below_z[line, cut[:, p]]
            seen_z[line, rank1[order[:, p]]] = terms_z[:, p]
        del seen, below, seen_z, below_z  # before the temporaries below
        est = avg * (2.0 * low[..., 0] - mass)
        est -= 2.0 * low[..., 1] - total
        est /= mass
        est[:, 0] = 0.0
        return est

    def exact(rows, r, j, a):
        """The values of the balls ending at positions j of rows r of a block, of averages a."""
        index = fam.block_index(rows)
        fo, mo = np.take(f, index), np.take(mu, index)
        out = np.empty(r.size)
        for k in range(0, r.size, chunk):
            rk, jk = r[k:k + chunk], j[k:k + chunk]
            dev = fo[rk]  # whole rows: a gather per entry is 3x slower
            dev -= a[k:k + chunk, None]
            np.abs(dev, out=dev)
            dev *= mo[rk]
            dev *= members[jk]  # gathered rows: 2x faster than a compare
            out[k:k + chunk] = dev.sum(axis=1)
        out /= fam.prefix_measure[rows][r, j]
        return out

    def table(rows, avg):
        nonlocal best, evaluated
        layout = fam.layout(rows)
        if layout is not None and (not screen or avg.shape[1] <= BMO_EXACT_MAX_WIDTH * width):
            real = np.arange(avg.shape[1]) < (layout.last - layout.first + 1)[:, None]  # no pad
            r, j = np.divmod(layout.ends[real], n)  # ball order: row by row, then by position
            vals = layout.to_columns(exact(rows, r, j, avg[real]))
        else:
            if layout is not None:  # each ball's average at every position of its tie group
                avg = layout.to_positions(avg).reshape(-1, n)
            marked = fam.is_ball_end[rows].copy()
            if screen:
                est = estimates(fam.block_index(rows), fam.prefix_measure[rows])
                thr = np.maximum(best - err, est.max(where=marked, initial=-np.inf) - 2.0 * err)
                marked &= ~(est < thr)  # a NaN keeps every ball
            r, j = np.nonzero(marked)
            vals = np.full(marked.shape, -np.inf)
            vals[r, j] = exact(rows, r, j, avg[r, j])
            if layout is not None:
                vals = np.take(vals, layout.ends)
        vals[:, 0] = 0.0  # singletons oscillate exactly zero
        evaluated += r.size
        best = np.maximum(best, vals.max())
        return vals

    return table, lambda: evaluated


@_memoized
def blo_norm(space: FiniteMetricMeasureSpace, f):
    """sup over balls of (avg f - min over ball of f)."""
    f = _as_function(space, f)
    (sup,) = yield [Sup(space.ball_family, ((f, "avg"), (f, "min")),
                        lambda rows, avg, low: avg - low)]
    return FunctionalResult("BLO", *sup)


@_memoized
def buo_norm(space: FiniteMetricMeasureSpace, f):
    """sup over balls of (max over ball of f - avg f), as the BLO norm of -f."""
    (blo,) = yield [(blo_norm, -_as_function(space, f))]
    return replace(blo, kind="BUO")
