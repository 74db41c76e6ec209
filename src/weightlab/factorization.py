"""Refined two-factor decompositions w = w1 * w2 with certified constants.

The pipeline mirrors the power-transform route: given w and exponents
p, s > 1, set u = w**s and q = s(p-1)+1, split u = v1 * v2**(1-q) with both
A_1 constants small, then transform w1 = v1**(1/s), w2 = v2**(1-p). The
split is structural (v1 is defined as u * v2**(q-1), so any positive v2
yields an exact factorization); the search only shrinks the certificates.

Search. In x = log v2 the objective log max(A_1(v1), A_1(v2)) is the max,
over the balls B and both factors, of log avg_B e^a - min_B a, with
a = log u + (q-1) x for v1 and a = x for v2. Each term is convex in x, so
one active-set (Kelley) loop minimizes the max and certifies the result.
Each round scans v1 and v2 once, each with a witness `Sup`, adds both
witness balls to a model of the balls seen so far, and minimizes the
model's max of those few terms by direct sums over the balls. The model's
minimum is a lower bound on the objective's, so the search stops, certified,
once a scanned objective is within GAP_RTOL of it, or when no new ball
enters. It never returns an objective above its value at v2 = 1.

There are two search spaces. On the power-split line x = t log u / (1-q),
t in [0, 1], where v1 = u**(1-t), log A_1 on a ball of w**alpha rises with
alpha >= 0, so the model's v1 terms fall in t and its v2 terms rise: its
minimum is their crossing, found by bisection. Over all of x, from the
line's optimum and with its balls, the model is solved by a log barrier
with Newton steps (Boyd-Vandenberghe, Convex Optimization, 2004, 11.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPair, InvalidParams, NonpositiveWeight
from .operators import _stepped, evaluate
from .report import CheckReport, Tolerances, inequality_report
from .space import FiniteMetricMeasureSpace, Sup, _float_array
from .weights import (_as_weight, _exponents, a1_constant, ap_constant, blo_norm,
                      rhinf_constant, rhs_constant)

RECONSTRUCTION_RTOL = 1e-12

GAP_RTOL = 1e-9  # certified: the objective is within this of the lower bound, relatively
BARRIER_GROWTH = 4.0  # factor of the barrier weight t between centrings


@dataclass(frozen=True)
class FactorOptions:
    """Search space of the A_1-certificate search: the power-split line, or all of log v2."""

    line_only: bool = False


# preset used inside randomized suites, where the certificate bounds hold
# for any positive v2: the best power split w = w**(1-t) * w**t alone,
# certified in a few scans
SUITE_OPTIONS = FactorOptions(line_only=True)


@dataclass(frozen=True, eq=False)
class FactorSearch:
    """Outcome of one jones_factor call.

    lower_bound is at most the objective's minimum over the search space,
    converged means the objective is within GAP_RTOL of it, and
    evaluations counts the scans (each of v1 and v2 together).
    """

    v1: np.ndarray
    v2: np.ndarray
    objective: float
    lower_bound: float
    a1_v1: float
    a1_v2: float
    converged: bool
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
            "lower_bound": None if self.search is None else self.search.lower_bound,
        }


def jones_factor(space: FiniteMetricMeasureSpace, u, q: float,
                 options: FactorOptions | None = None) -> FactorSearch:
    """Split u = v1 * v2**(1-q) with max(A_1(v1), A_1(v2)) minimized, and a lower bound.

    v1 is defined from v2 as u * v2**(q-1), so the reconstruction identity
    is structural. The search space is the power-split line with
    SUITE_OPTIONS, all of log v2 by default. Deterministic.
    """
    _exponents(q=q)
    u = _as_weight(space, u)
    fam, n, mu = space.ball_family, space.n, space.measure
    log_u = np.log(u)
    d = log_u / (1.0 - q)  # the power split: log v2 = t d, v1 = u**(1-t)
    # the model: one row per witness ball, its members, and whether it is a ball of v2
    member, of_v2 = np.zeros((0, n), dtype=bool), np.zeros((0, 1), dtype=bool)
    best, scans = (np.inf,), 0  # best: objective, log v2, v1, v2, A_1(v1), A_1(v2)

    def scan(x1, x2) -> bool:
        """A_1 of v1 at log v2 = x1 and of v2 at x2, in one scan; True if a witness ball is new."""
        nonlocal best, scans, member, of_v2
        scans += 1
        v1 = u * np.power(np.exp(x1), q - 1.0)
        (a1_v1, ref1), (a1_v2, ref2) = fam.scan([
            Sup(fam, ((v, "avg"), (v, "min")), lambda rows, avg, low: avg / low)
            for v in (v1, np.exp(x2))])
        # the line's first scan is of v2 at the other end; at x1 = 0, v2 = 1 and A_1(1) = 1
        a1_v2 = a1_v2 if x1 is x2 else 1.0
        objective = float(np.maximum(a1_v1, a1_v2))  # NaN, from an overflow, is never best
        if objective < best[0]:
            best = objective, x1, v1, np.exp(x1), a1_v1, a1_v2
        size = len(member)
        for side, ref in enumerate((ref1, ref2)):
            row = space.dist[ref.center] <= ref.radius  # the closed ball at a realized distance
            if not np.any(np.all(member == row, axis=1) & (of_v2[:, 0] == side)):
                member, of_v2 = np.vstack([member, row]), np.vstack([of_v2, [[bool(side)]]])
        return len(member) > size

    def certified(lower: float) -> bool:
        return best[0] <= float(np.exp(lower)) * (1.0 + GAP_RTOL)

    def kelley(solve, new: bool) -> float:
        """Kelley rounds: scan at the model's minimum until certified or no ball is new."""
        lower = -np.inf
        while new:
            x, bound = solve()
            lower = max(lower, bound)
            new = not certified(lower) and scan(x, x)
        return lower

    def line_min():
        """The crossing of the model's falling v1 and rising v2 terms, by bisection in t."""
        # on the line a = beta l on each ball, with beta = 1 - t and l = log u for
        # v1, beta = t / (q-1) and l = -log u for v2; its log A_1 is
        # log avg e^(beta (l - max l)) + beta (max l - min l)
        ell = np.where(of_v2, -log_u, log_u)
        top = np.where(member, ell, -np.inf).max(1, keepdims=True)
        spread = top + np.where(member, -ell, -np.inf).max(1, keepdims=True)
        below, weight = np.where(member, ell - top, 0.0), member * mu / (member @ mu)[:, None]

        def sides(t: float):
            beta = np.where(of_v2, t / (q - 1.0), 1.0 - t)
            terms = np.log((np.exp(beta * below) * weight).sum(1, keepdims=True)) + beta * spread
            return terms[~of_v2].max(), terms[of_v2].max()

        lo, hi = (0.0, *sides(0.0)), (1.0, *sides(1.0))  # (t, v1 side, v2 side)
        while hi[0] - lo[0] > 2.0 ** -52:
            mid = ((lo[0] + hi[0]) / 2, *sides((lo[0] + hi[0]) / 2))
            lo, hi = (mid, hi) if mid[1] > mid[2] else (lo, mid)
        t = min(lo, hi, key=lambda end: max(end[1:]))[0]
        # v1 terms fall and v2 terms rise: left of lo, right of hi, and between
        return t * d, min(lo[1], hi[2], max(hi[1], lo[2]))

    def full_min():
        """The model's minimum over all of log v2, by a log barrier from the best point.

        Minimizes tau subject to log avg_B e^a - a(y) <= tau for every model
        ball B and y in B. Shifting log v2 by a constant on a connected
        component of the balls' members moves no term, so the Newton matrix
        is singular: each step is its least-norm solution.
        """
        ball, point = np.nonzero(member)  # one constraint per (ball, member)
        slope = np.where(of_v2[:, 0], 1.0, q - 1.0)[ball]
        # the parts of every Newton step's matrices that the step does not move
        at_point, tau_column = np.eye(n)[point], -np.ones((ball.size, 1))
        without_tau = np.r_[np.ones(n), 0.0]

        def slack(z, t):
            """Each point's share of its ball's avg e^a, the slacks, and the barrier objective / t.

            The objective is +inf where a slack is not positive.
            """
            a = np.where(of_v2, z[:-1], log_u + (q - 1.0) * z[:-1])
            top = np.where(member, a, -np.inf).max(1, keepdims=True)
            e = np.exp(np.where(member, a - top, -np.inf)) * mu
            total = e.sum(1, keepdims=True)
            s = z[-1] - (np.log(total / (member @ mu)[:, None]) + top)[ball, 0] + a[ball, point]
            return e / total, s, z[-1] - np.log(s).sum() / t if np.all(s > 0.0) else np.inf

        z = np.append(best[1], 0.0)
        z[-1] = 1.0 - slack(z, 1.0)[1].min()
        t, centred = float(ball.size), (best[1], -np.inf)
        while True:
            for _ in range(50):  # Newton steps; 50 without centring is a numerical failure
                share, s, now = slack(z, t)
                w = 1.0 / s
                jac = np.hstack([slope[:, None] * (share[ball] - at_point), tau_column])
                # a ball's log-avg-exp Hessian, slope^2 (diag(share) - share share^T),
                # is the sum over its members of share * (their row of jac, without
                # tau)^2: a sum of squares stays definite in rounding, a difference not
                curv = np.bincount(ball, w)[ball] * share[ball, point]
                rows = np.vstack([jac * w[:, None],
                                  jac * np.sqrt(curv)[:, None] * without_tau])
                grad = jac.T @ w + np.r_[np.zeros(n), t]
                step = -np.linalg.lstsq(rows.T @ rows, grad)[0]
                decrement = -grad @ step  # a NaN fails the Armijo test below
                if decrement <= 1e-6:  # centred; at large t rounding stalls it near 1e-9
                    break
                # backtracking, with the Armijo test on the barrier objective over t
                alpha = next((alpha for alpha in 0.5 ** np.arange(34) if slack(
                    z + alpha * step, t)[2] <= now - 0.25 * alpha * decrement / t), None)
                if alpha is None:
                    return centred
                z = z + alpha * step
            else:
                return centred
            # a lower bound on the model's minimum at a centred point only
            centred = z[:-1], z[-1] - ball.size / t
            if ball.size / t <= GAP_RTOL / 2.0:
                return centred
            t *= BARRIER_GROWTH

    # a weight whose dynamic range overflows the certificates gives inf or
    # NaN objectives; that is reported below, not warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lower = kelley(line_min, scan(np.zeros(n), d))
        if not (options or FactorOptions()).line_only and best[0] < np.inf:
            lower = kelley(full_min, True)
    if not best[0] < np.inf:
        raise InvalidParams("factor search objective is non-finite at every probed point; "
                            "the weight's dynamic range overflows the A_1 certificates")
    objective, _, v1, v2, a1_v1, a1_v2 = best
    return FactorSearch(v1, v2, objective, min(float(np.exp(lower)), objective),
                        a1_v1, a1_v2, certified(lower), scans)


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
