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
reading a prefix table, O(n) per ball. Its `Sup` reads avg f (so a batch
shares that table with blo) and avg x**2, x = f - (max f + min f) / 2.
From them each ball's value is bounded by its standard deviation
(Cauchy-Schwarz) plus e1, which bounds the rounding of the exact sum;
delta bounds the rounding of the variance. Only the balls whose bound can
reach the largest exact value so far are summed exactly (the first
block's ball of largest variance first); no other ball can tie the sup.
Each summed ball is one full-length masked row, so values and witnesses
equal those of summing every row of every center, bit for bit. |f| or a
mass outside SCREEN_RANGE, where the table of x**2 could overflow, sums
every ball.
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
# |f| and the measure within these powers of two keep BMO's table of x*x finite
SCREEN_RANGE = 2.0 ** 300


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
    """sup over balls of avg |f - f_B|, by the screen of `_bmo_sup`."""
    (sup,) = yield [_bmo_sup(space, _as_function(space, f))[0]]
    return FunctionalResult("BMO", *sup)


def _bmo_sup(space: FiniteMetricMeasureSpace, f: np.ndarray):
    """The BMO norm's `Sup`, and a count of the balls it sums exactly.

    Exact sums. A ball's value is summed as one full-length masked row:
    mu |f - f_B| over the center's order, times 1 at the members'
    positions and 0 after, summed with numpy's pairwise sum over the row
    and divided by the ball's mass, with f_B the scan's avg f. Every ball
    summed is summed so, and a singleton reads exactly zero.

    Bound. Let x = f - mid with mid = (max f + min f) / 2 as rounded, F =
    max|f|, u = 2**-53 and V the variance of f over a ball. For any a,
    Cauchy-Schwarz gives avg_B |f - a| <= sqrt(V + (a - f_B)**2), so a
    ball's exact value t is at most sqrt(V) + e1 with

        e1 = 16 (n + 1) u F + (n + 1) 2**-470.

    A first-order count gives (2n + 1) u F for the rounding of the scan's
    f_B (both cumsums, the division) and (2n + 1) u 2F for the sum itself
    (two roundings per term, a sum of nonnegative terms in any order, the
    mass and the division): (6n + 3) u F. The table reads v = A - (a -
    mid)**2, with A the scan's avg of x*x and a its avg f, and |v - V| <=
    delta with

        delta = 16 (n + 1) u F**2 + (n + 1) 2**-470.

    A first-order count gives (2n + 3) u F**2 for A (x, its square, the
    product with mu, the cumsum of nonnegative terms, the mass, the
    division; |x| <= F (1 + 2u)), (4n + 3) u F**2 for (a - mid)**2 (the
    error of a times |a - mid| + |f_B - mid| <= 2F (1 + u), and two roundings)
    and u F**2 for the difference: (6n + 7) u F**2. Both constants more
    than double their counts; the slack also covers the higher-order terms
    and the rounding of the keep test below, 4.01 u (L - e1)**2 <= 16.3 u
    F**2. The second terms cover underflow, at most 2**-1075 an operation
    and divided by a mass of at least 1 / SCREEN_RANGE.

    Screen. Let L be the largest exact value so far. Where L - e1 > 0, a
    ball with v + delta < (L - e1)**2 has sqrt(V) < L - e1, so t < L:
    it can neither tie nor beat the sup, and reads -inf. Every other ball
    is summed exactly, so the sup and its tie-rule witness are those of
    summing every ball. So that L is set before the first test, the first
    block first sums its ball of largest v (a seed in every block measured
    4-9% slower). A NaN keeps every ball.

    Range gate. With |f| <= SCREEN_RANGE = 2**300 and every mass in
    [2**-300, 2**300], mu x**2 <= 4 * 2**900 and n such terms stay far
    below 2**1024: the table of x*x and its cumsum are finite. Inputs
    outside the gate name no table of x*x and sum every ball.
    """
    n = space.n
    fam = space.ball_family
    mu = space.measure
    top = float(np.abs(f).max())
    tables = ((f, "avg"),)
    if top <= SCREEN_RANGE and 1.0 / SCREEN_RANGE <= mu.min() and mu.max() <= SCREEN_RANGE:
        mid = 0.5 * f.max() + 0.5 * f.min()
        x = f - mid
        tables += ((x * x, "avg"),)
        e1 = 16.0 * (n + 1) * 2.0 ** -53 * top + (n + 1) * 2.0 ** -470
        delta = 16.0 * (n + 1) * 2.0 ** -53 * top * top + (n + 1) * 2.0 ** -470
    chunk = max(1, CHUNK_CELLS // n)  # rows of n summed at once
    # row j: 1.0 at the positions <= j, the members, and 0.0 after, as
    # windows of one vector; a float mask multiplies 10% faster than a bool
    members = np.lib.stride_tricks.sliding_window_view(
        (np.arange(2 * n - 1) < n).astype(float), n)[::-1]
    best, summed = -np.inf, 0  # largest exact value so far, balls summed

    def table(rows, avg, avg_xx=None):
        nonlocal best
        layout = fam.layout(rows)
        masses = fam.ball_masses(rows, layout)
        keep = np.arange(avg.shape[1]) < fam.ball_count[rows, None]  # a ball, not a pad
        keep[:, 0] = False  # singletons oscillate exactly zero
        vals = np.full(avg.shape, -np.inf)
        vals[:, 0] = 0.0

        def add(r, j):
            """Sum the balls in columns j of rows r exactly, into vals."""
            nonlocal summed
            a = avg[r, j]
            pos = layout.end(r, j)
            # f and mu on the rows that hold a summed ball, each gathered once
            at, r_at = np.unique(r, return_inverse=True)
            at = fam.block_index(rows)[at]
            fo, mo = np.take(f, at), np.take(mu, at)
            out = np.empty(r.size)
            for k in range(0, r.size, chunk):
                rk = r_at[k:k + chunk]
                dev = fo[rk]  # whole rows: a gather per entry is 3x slower
                dev -= a[k:k + chunk, None]
                np.abs(dev, out=dev)
                dev *= mo[rk]
                dev *= members[pos[k:k + chunk]]  # gathered rows: 2x faster than a compare
                out[k:k + chunk] = dev.sum(axis=1)
            vals[r, j] = out / masses[r, j]
            summed += r.size

        if avg_xx is not None:
            bound = avg - mid  # v + delta, each ball's bound on its variance
            bound *= bound
            np.subtract(avg_xx, bound, out=bound)
            bound += delta
            if best == -np.inf:  # the first block: sum its ball of largest bound first
                seed = np.where(keep, bound, -np.inf).argmax()
                if keep.flat[seed]:
                    add(*np.divmod([seed], keep.shape[1]))
                    keep.flat[seed] = False
            lim = np.maximum(best, vals.max()) - e1
            if lim > 0.0:
                keep &= ~(bound < lim * lim)  # a NaN keeps every ball
        add(*np.nonzero(keep))
        best = np.maximum(best, vals.max())
        return vals

    return Sup(fam, tables, table), lambda: summed


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
