"""Refined two-factor decompositions w = w1 * w2 with certified constants.

The pipeline mirrors the power-transform route: given w and exponents
p, s > 1, set u = w**s and q = s(p-1)+1, split u = v1 * v2**(1-q) with both
A_1 constants small, then transform w1 = v1**(1/s), w2 = v2**(1-p). The
split is structural (v1 is defined as u * v2**(q-1), so any positive v2
yields an exact factorization); the search only shrinks the certificates.

Search. max(A_1(v1), A_1(v2)) is minimized over x = log v2 by golden-section
line searches that move x only if the objective falls, so it never exceeds
its value at v2 = 1. The zero start first searches the power split
x = t log u / (1-q), t in [0, 1], where v1 = u**(1-t), w1 = w**(1-t) and
w2 = w**t. The objective is scale free (invariant under constant shifts of
x) and convex in x, so one golden section finds the best split. Coordinate
sweeps follow, from there and from seeded random restarts; the max is
nonsmooth, so pure coordinate sweeps can stall off the minimum, and each
sweep ends with a few seeded random-direction searches. No global
optimality is claimed; grid oracles pin the quality at small n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPair, InvalidParams, NonpositiveWeight
from .operators import _stepped, evaluate
from .report import CheckReport, Tolerances, inequality_report
from .space import BallFamily, FiniteMetricMeasureSpace, Sup, _float_array
from .weights import (_as_weight, _exponents, a1_constant, ap_constant, blo_norm,
                      rhinf_constant, rhs_constant)

RECONSTRUCTION_RTOL = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 28  # golden-section steps per line search
RANDOM_DIRS = 4  # seeded random-direction searches appended per sweep
SWEEP_TOL = 1e-6  # stop when a full sweep improves less than this, relatively
BRACKET = 1.0  # half-width of the coordinate and random-direction searches
INIT_SCALE = 0.75  # stddev of the random restart offsets


@dataclass(frozen=True)
class FactorOptions:
    """Starts and sweeps per start of the A_1-certificate search.

    Start 0 searches the power split before its sweeps, so max_sweeps=0
    runs that line alone. The defaults are the precise preset.
    """

    multistarts: int = 8
    max_sweeps: int = 40
    seed: int = 0

    def __post_init__(self):
        for name, low in (("multistarts", 1), ("max_sweeps", 0), ("seed", 0)):
            x = getattr(self, name)
            if not (isinstance(x, numbers.Integral) and x >= low):
                raise InvalidParams(f"FactorOptions needs an integer {name} >= {low}, got {x!r}")


# cheap preset used inside randomized suites, where the certificate bounds
# hold for any positive v2 and only runtime matters: the power split alone,
# GOLDEN_ITERS + 3 evaluations; the objective is convex, so one golden
# section finds the best split w = w**(1-t) * w**t, never worse than v2 = 1
SUITE_OPTIONS = FactorOptions(multistarts=1, max_sweeps=0)


@dataclass(frozen=True, eq=False)
class FactorSearch:
    """Outcome of one jones_factor call."""

    v1: np.ndarray
    v2: np.ndarray
    objective: float
    a1_v1: float
    a1_v2: float
    converged: bool
    start_index: int
    evaluations: int


@dataclass(frozen=True, eq=False)
class FactorPair:
    """A refined factorization with its certificate constants."""

    v1: np.ndarray
    v2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    p: float
    s: float
    q: float
    certificates: dict
    search: FactorSearch | None = None

    def to_dict(self) -> dict:
        return {
            "p": self.p, "s": self.s, "q": self.q,
            "v1": self.v1.tolist(), "v2": self.v2.tolist(),
            "w1": self.w1.tolist(), "w2": self.w2.tolist(),
            "certificates": dict(self.certificates),
            "converged": None if self.search is None else self.search.converged,
        }


def _a1_value(fam: BallFamily, values: np.ndarray) -> float:
    """A_1 constant alone, without the cross-check or a witness; the optimizer's inner loop."""
    return fam.scan([Sup(fam, ((values, "avg"), (values, "min")),
                         lambda rows, avg, low: avg / low, witness=False)])[0]


def _golden_min(g, lo: float, hi: float):
    """Golden-section scan of g on [lo, hi]; returns the best probed point."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(GOLDEN_ITERS):
        if gc < gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    return (c, gc) if gc < gd else (d, gd)


def jones_factor(space: FiniteMetricMeasureSpace, u, q: float,
                 options: FactorOptions | None = None) -> FactorSearch:
    """Split u = v1 * v2**(1-q) with both A_1 certificates minimized.

    v1 is defined from v2 as u * v2**(q-1), so the reconstruction identity
    is structural. Deterministic for a fixed option set.
    """
    _exponents(q=q)
    u = _as_weight(space, u)
    opts = options or FactorOptions()
    fam = space.ball_family
    log_u = np.log(u)
    n = space.n
    probe = np.empty(n)
    evals = 0

    def objective(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        v2 = np.exp(x)
        v1 = np.exp(log_u + (q - 1.0) * x)
        a1_v1, a1_v2 = _a1_value(fam, v1), _a1_value(fam, v2)
        # max(1.0, nan) is 1.0, so an overflowed (NaN) certificate must read +inf
        return np.inf if math.isnan(a1_v1 + a1_v2) else max(a1_v1, a1_v2)

    def descend(x: np.ndarray, cur: float, d: np.ndarray, lo: float, hi: float):
        """Golden-section objective(x + t d) over t in [lo, hi]; move only if it falls."""
        def along(t: float) -> float:  # x + t d, probed in a reused buffer
            return objective(np.add(np.multiply(d, t, out=probe), x, out=probe))

        t, val = _golden_min(along, lo, hi)
        return (x + t * d, val) if val < cur else (x, cur)

    best_x, best_val, best_start, best_conv = None, np.inf, -1, False
    # a weight whose dynamic range overflows the certificates gives inf
    # objectives; that is reported below, not warned about once per process
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(opts.multistarts):
            if start == 0:
                x = np.zeros(n)
                x, cur = descend(x, objective(x), log_u / (1.0 - q), 0.0, 1.0)
            else:
                rng = np.random.default_rng(opts.seed + start)
                x = rng.normal(0.0, INIT_SCALE, size=n)
                cur = objective(x)
            converged = False
            for sweep in range(opts.max_sweeps):
                before = cur
                for i in range(n):
                    x, cur = descend(x, cur, np.eye(1, n, i)[0], -BRACKET, BRACKET)
                if n > 1:  # seeded random directions restore descent at kinks
                    dir_rng = np.random.default_rng((opts.seed, start, sweep))
                    for _ in range(RANDOM_DIRS):
                        d = dir_rng.normal(size=n)
                        d /= float(np.linalg.norm(d))
                        x, cur = descend(x, cur, d, -BRACKET, BRACKET)
                # an objective stuck at +inf has converged too: inf - inf is NaN
                if cur == before or (before - cur) / max(before, 1.0) < SWEEP_TOL:
                    converged = True
                    break
            if cur < best_val:
                best_x, best_val, best_start, best_conv = x, cur, start, converged
    if best_x is None:
        raise InvalidParams(f"factor search objective is non-finite ({cur!r}) at every start; "
                            "the weight's dynamic range overflows the A_1 certificates")
    v2 = np.exp(best_x)
    v1 = u * np.power(v2, q - 1.0)
    return FactorSearch(v1, v2, best_val, _a1_value(fam, v1), _a1_value(fam, v2),
                        best_conv, best_start, evals)


def refined_transform(v1, v2, p: float, s: float,
                      space: FiniteMetricMeasureSpace | None = None,
                      search: FactorSearch | None = None) -> FactorPair:
    """Pointwise transform (v1, v2) -> (w1, w2) = (v1**(1/s), v2**(1-p)).

    When a space is given, the certificate constants of all four vectors
    are computed and attached.
    """
    _exponents(p=p, s=s)
    v1, v2 = (_float_array(v, NonpositiveWeight, "factor input") for v in (v1, v2))
    if v1.ndim != 1 or v1.shape != v2.shape or not np.all(
            (v1 > 0.0) & (v2 > 0.0) & np.isfinite(v1) & np.isfinite(v2)):
        raise NonpositiveWeight("factor inputs must be positive finite vectors of one length")
    w1 = np.power(v1, 1.0 / s)
    w2 = np.power(v2, 1.0 - p)
    q = s * (p - 1.0) + 1.0
    certificates = {}
    if space is not None:
        calls = {"a1_v1": (a1_constant, v1), "a1_v2": (a1_constant, v2),
                 "a1_w1": (a1_constant, w1), "rhs_w1": (rhs_constant, w1, s),
                 "ap_w2": (ap_constant, w2, p), "rhinf_w2": (rhinf_constant, w2)}
        certificates = {name: res.value for name, res in
                        zip(calls, evaluate(space, list(calls.values())))}
    return FactorPair(v1, v2, w1, w2, p, s, q, certificates, search)


def refined_jones(space: FiniteMetricMeasureSpace, w, p: float, s: float,
                  options: FactorOptions | None = None) -> FactorPair:
    """Factor w = w1 * w2 with w1 in A_1 and RH_s, w2 in A_p and RH_inf.

    Pipeline: u = w**s, q = s(p-1)+1, jones_factor, refined_transform.
    """
    _exponents(p=p, s=s)
    w = _as_weight(space, w)
    u = np.power(w, s)
    if u.min() < np.finfo(float).tiny:
        # a subnormal keeps only a few digits, so w1 * w2 could not
        # reconstruct w within RECONSTRUCTION_RTOL
        raise InvalidParams("w**s underflows to a subnormal; the weight's dynamic "
                            "range is too wide to factor")
    q = s * (p - 1.0) + 1.0
    search = jones_factor(space, u, q, options)
    return refined_transform(search.v1, search.v2, p, s, space, search)


@_stepped
def verify_factorization(space: FiniteMetricMeasureSpace, w, pair: FactorPair,
                         tol: Tolerances = Tolerances(), inputs: str = "",
                         ) -> list[CheckReport]:
    """Hard checks on a factor pair against its target weight.

    (a) w1 * w2 reconstructs w within relative RECONSTRUCTION_RTOL;
    (b) A_1(w1) and RH_s(w1) are at most A_1(v1)**(1/s);
    (c) A_p(w2) is at most A_1(v2)**(p-1);
    (d) RH_inf(w2) <= exp((p-1) ||log v2||_BLO) <= A_1(v2)**(p-1).

    The derived fields of the pair are revalidated first; a tampered pair
    raises InconsistentPair.
    """
    w = _as_weight(space, w)
    p, s = pair.p, pair.s
    _exponents(p=p, s=s)
    if np.shape(pair.v1) != w.shape or np.shape(pair.v2) != w.shape:
        raise InconsistentPair(f"the pair's vectors do not have w's shape {w.shape}")
    if not np.array_equal(pair.w1, np.power(pair.v1, 1.0 / s)):
        raise InconsistentPair("w1 is not v1**(1/s)")
    if not np.array_equal(pair.w2, np.power(pair.v2, 1.0 - p)):
        raise InconsistentPair("w2 is not v2**(1-p)")
    if pair.q != s * (p - 1.0) + 1.0:
        raise InconsistentPair("q does not match s(p-1)+1")

    rel_dev = float(np.abs(pair.w1 * pair.w2 / w - 1.0).max())
    recon = inequality_report(
        "factorization.reconstruction",
        [("max_rel_dev", rel_dev, 0.0)], RECONSTRUCTION_RTOL, inputs,
        witness={"point": int(np.abs(pair.w1 * pair.w2 / w - 1.0).argmax())},
    )
    a1_v1, a1_v2, a1_w1, rhs_w1, ap_w2, blo_v2, rhinf_w2 = (r.value for r in (
        yield [(a1_constant, pair.v1), (a1_constant, pair.v2), (a1_constant, pair.w1),
               (rhs_constant, pair.w1, s), (ap_constant, pair.w2, p),
               (blo_norm, np.log(pair.v2)), (rhinf_constant, pair.w2)]))
    root = float(a1_v1 ** (1.0 / s))
    w1_bounds = inequality_report(
        "factorization.w1_bounds",
        [("a1", a1_w1, root), ("rhs", rhs_w1, root)],
        tol.ineq, inputs, detail={"a1_v1": a1_v1},
    )
    pow_bound = float(a1_v2 ** (p - 1.0))
    w2_ap = inequality_report(
        "factorization.w2_ap",
        [("ap", ap_w2, pow_bound)],
        tol.ineq, inputs, detail={"a1_v2": a1_v2},
    )
    exp_blo = float(np.exp((p - 1.0) * blo_v2))
    w2_rhinf = inequality_report(
        "factorization.w2_rhinf",
        [("rhinf", rhinf_w2, exp_blo), ("blo_chain", exp_blo, pow_bound)],
        tol.ineq, inputs, detail={"a1_v2": a1_v2},
    )
    return [recon, w1_bounds, w2_ap, w2_rhinf]
