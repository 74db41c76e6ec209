"""Characteristic constants and oscillation norms with extremal witnesses.

Every functional here is a supremum over the realized balls of a per-ball
expression in averages, minima, and maxima of (transforms of) the weight:

  ap_constant      sup (avg w) * (avg w**(-1/(p-1)))**(p-1)
  a1_constant      sup (avg w) / (min over ball of w)
  ainf_constant    sup (avg w) * exp(-avg log w)
  rhs_constant     sup (avg w**s)**(1/s) / (avg w)
  rhinf_constant   sup (max over ball of w) / (avg w)
  bmo_norm         sup avg |f - f_B|
  blo_norm         sup (avg f - min over ball of f)
  buo_norm         sup (max over ball of f - avg f)

Essential suprema and infima reduce to ball maxima and minima because
zero-mass points are rejected at ingestion. a1 and rhinf each have an
equivalent pointwise form through the maximal and minimal functions; both
are computed and must agree (the shared average table makes the two
suprema exactly equal), with the alternate value stored on the result.
buo is defined as the blo norm of -f (the operators' sign symmetry).

The other seven are memoized (buo through blo): in one ``run_suite`` call each
(space, input, exponent) is computed once, its cross-check included, and
later calls return the first result. Outside that call every call
computes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidParams, NonpositiveWeight
from .operators import _as_function, _memoized, maximal, minimal
from .space import FiniteMetricMeasureSpace, FunctionalResult

# beyond this dynamic range exp/log round-off dominates the comparisons
CONDITIONING_RANGE = 1e12
CROSS_FORM_RTOL = 1e-12


def _as_weight(space: FiniteMetricMeasureSpace, w, positive: bool = True) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
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


def _conditioning(w: np.ndarray) -> tuple[str, ...]:
    rng = float(w.max() / w.min()) if w.min() > 0 else np.inf
    if rng > CONDITIONING_RANGE:
        return (f"weight dynamic range {rng:.2e} exceeds {CONDITIONING_RANGE:.0e}; "
                "log/exp round-off may dominate",)
    return ()


@_memoized
def ap_constant(space: FiniteMetricMeasureSpace, w, p: float) -> FunctionalResult:
    """Muckenhoupt constant for exponent p in (1, inf)."""
    if not p > 1.0:
        raise InvalidParams("ap_constant needs p > 1")
    w = _as_weight(space, w)
    fam = space.ball_family
    a = fam.averages_at_pos(w)
    b = fam.averages_at_pos(np.power(w, -1.0 / (p - 1.0)))
    value, ref = fam.sup_over_balls(a * np.power(b, p - 1.0))
    return FunctionalResult(f"A_p(p={p:g})", value, ref, warnings=_conditioning(w))


@_memoized
def a1_constant(space: FiniteMetricMeasureSpace, w) -> FunctionalResult:
    """A_1 constant: sup over balls of (avg w) / (min over ball of w).

    Cross-checked against the pointwise form max_x Mw(x) / w(x); the two
    suprema range over the same quotient set so they agree exactly.
    """
    w = _as_weight(space, w)
    fam = space.ball_family
    value, ref = fam.sup_over_balls(fam.averages_at_pos(w) / fam.running_min_at_pos(w))
    return _cross_checked("A_1", w, value, ref, maximal(space, w).values / w)


@_memoized
def ainf_constant(space: FiniteMetricMeasureSpace, w) -> FunctionalResult:
    """A_inf constant: sup over balls of (avg w) * exp(-avg log w)."""
    w = _as_weight(space, w)
    fam = space.ball_family
    a = fam.averages_at_pos(w)
    g = fam.averages_at_pos(np.log(w))
    value, ref = fam.sup_over_balls(a * np.exp(-g))
    return FunctionalResult("A_inf", value, ref, warnings=_conditioning(w))


@_memoized
def rhs_constant(space: FiniteMetricMeasureSpace, w, s: float) -> FunctionalResult:
    """Reverse Holder constant: sup over balls of (avg w**s)**(1/s) / (avg w).

    Nonnegative weights are allowed; balls averaging to zero are skipped,
    and the all-zero weight is rejected.
    """
    if not s > 1.0:
        raise InvalidParams("rhs_constant needs s > 1")
    w = _as_weight(space, w, positive=False)
    if not np.any(w > 0.0):
        raise NonpositiveWeight("weight is identically zero")
    fam = space.ball_family
    a = fam.averages_at_pos(w)
    ps = fam.averages_at_pos(np.power(w, s))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.power(ps, 1.0 / s) / a
    vals = np.where(a > 0.0, vals, -np.inf)
    value, ref = fam.sup_over_balls(vals)
    return FunctionalResult(f"RH_s(s={s:g})", value, ref, warnings=_conditioning(w[w > 0]))


@_memoized
def rhinf_constant(space: FiniteMetricMeasureSpace, w) -> FunctionalResult:
    """RH_inf constant: sup over balls of (max over ball of w) / (avg w).

    Cross-checked against the pointwise form max_x w(x) / mw(x); exact
    agreement for the same reason as a1_constant.
    """
    w = _as_weight(space, w)
    fam = space.ball_family
    value, ref = fam.sup_over_balls(fam.running_max_at_pos(w) / fam.averages_at_pos(w))
    return _cross_checked("RH_inf", w, value, ref, w / minimal(space, w).values)


def _cross_checked(kind: str, w: np.ndarray, value: float, ref,
                   ratios: np.ndarray) -> FunctionalResult:
    """Result of a ball-form sup, checked against its pointwise ratios.

    Callers take the sup before they run the operator, so the n x n ball
    table is freed before the operator sweep allocates its own.
    """
    point = int(ratios.argmax())
    alt = float(ratios[point])
    _require_cross_agreement(kind, value, alt)
    return FunctionalResult(kind, value, ref, point=point, alt_value=alt,
                            warnings=_conditioning(w))


def _require_cross_agreement(kind: str, value: float, alt: float) -> None:
    if abs(value - alt) > CROSS_FORM_RTOL * max(abs(value), abs(alt), 1.0):
        raise ArithmeticError(
            f"{kind} forms disagree: ball form {value!r} vs pointwise form {alt!r}")


@_memoized
def bmo_norm(space: FiniteMetricMeasureSpace, f) -> FunctionalResult:
    """sup over balls of avg |f - f_B|."""
    f = _as_function(space, f)
    fam = space.ball_family
    a = fam.averages_at_pos(f)
    n = space.n
    vals = np.empty((n, n))
    tri = np.tril(np.ones((n, n)), k=0)  # row j: members are positions <= j
    # one reused (ball, member) buffer: fresh n x n temporaries per center
    # made the kernel's speed depend on how the allocator recycled them
    dev = np.empty((n, n))
    for c in range(n):
        order = fam.order[c]
        np.subtract(f[order][None, :], a[c][:, None], out=dev)
        np.abs(dev, out=dev)
        dev *= space.measure[order][None, :]
        dev *= tri
        vals[c] = dev.sum(axis=1) / fam.prefix_measure[c]
    vals[:, 0] = 0.0  # singletons oscillate exactly zero
    value, ref = fam.sup_over_balls(vals)
    return FunctionalResult("BMO", value, ref)


@_memoized
def blo_norm(space: FiniteMetricMeasureSpace, f) -> FunctionalResult:
    """sup over balls of (avg f - min over ball of f)."""
    f = _as_function(space, f)
    fam = space.ball_family
    value, ref = fam.sup_over_balls(fam.averages_at_pos(f) - fam.running_min_at_pos(f))
    return FunctionalResult("BLO", value, ref)


def buo_norm(space: FiniteMetricMeasureSpace, f) -> FunctionalResult:
    """sup over balls of (max over ball of f - avg f), as the BLO norm of -f."""
    return replace(blo_norm(space, -_as_function(space, f)), kind="BUO")


def transform(w, kind: str, exponent: float | None = None, other=None) -> np.ndarray:
    """Pointwise weight transform: power(s), inverse, product(phi), log, exp."""
    w = np.asarray(w, dtype=np.float64)
    if kind == "power":
        if exponent is None:
            raise InvalidParams("power transform needs an exponent")
        _check_positive_entries(w, "power")
        return np.power(w, exponent)
    if kind == "inverse":
        _check_positive_entries(w, "inverse")
        return 1.0 / w
    if kind == "product":
        if other is None:
            raise InvalidParams("product transform needs a second vector")
        return w * np.asarray(other, dtype=np.float64)
    if kind == "log":
        _check_positive_entries(w, "log")
        return np.log(w)
    if kind == "exp":
        return np.exp(w)
    raise InvalidParams(f"unknown transform {kind!r}")


def _check_positive_entries(w: np.ndarray, kind: str) -> None:
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise NonpositiveWeight(f"{kind} transform needs strictly positive entries")
