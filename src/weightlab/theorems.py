"""Machine checks of the constant-explicit weight inequalities.

Each check computes both sides of an inequality or equality from the
operator and constant modules and emits CheckReports. Hard checks assert
relations whose every term is computable: limiting-class sandwiches,
commutation gaps, Harnack bounds, power and duality identities. Claims
whose constants are unspecified functions of the doubling constant are
reported without assertion (report_unquantified).

Conventions. All suprema and pointwise extrema are over the realized
balls / the n points; inequalities pass at relative slack tol.ineq on the
passing side; equalities at tol.eq, relaxed when the weight's dynamic
range makes exp/log round-off dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import factorization, operators
from .operators import (
    _memo_scope,
    _stepped,
    maximal,
    minimal,
    natural_maximal,
    natural_minimal,
)
from .report import (
    CheckReport,
    Tolerances,
    aggregate_verdict,
    digest,
    equality_report,
    error_report,
    hasher,
    inequality_report,
    soft_report,
)
from .space import CHUNK_CELLS, FiniteMetricMeasureSpace
from .weights import (
    a1_constant,
    ainf_constant,
    ap_constant,
    blo_norm,
    bmo_norm,
    buo_norm,
    harnack_constant,
    rhinf_constant,
    rhs_constant,
    _as_weight,
    _exponents,
)


def _worst_point(arr: np.ndarray) -> dict:
    i = int(arr.argmax())
    return {"point": i, "value": float(arr[i])}


@_stepped
def check_commutation(space, w, tol: Tolerances = Tolerances(),
                      inputs: str = "") -> list[CheckReport]:
    """Gap of log against the natural extremal operators on a positive weight.

    Asserts, pointwise, 0 <= log(Mnat w) - Mnat(log w) <= log A_inf(w) and
    the same for the natural minimal operator.
    """
    w = _as_weight(space, w)
    logw = np.log(w)
    ainf, *ops = yield [(ainf_constant, w), (natural_maximal, w), (natural_maximal, logw),
                        (natural_minimal, w), (natural_minimal, logw)]
    bound = float(np.log(ainf.value))
    out = []
    for name, of_w, of_logw in (("natural_max", *ops[:2]), ("natural_min", *ops[2:])):
        gap = np.log(of_w.values) - of_logw.values
        out.append(inequality_report(
            f"commutation.{name}",
            [("nonneg", 0.0, float(gap.min())), ("upper", float(gap.max()), bound)],
            tol.ineq, inputs,
            witness=_worst_point(gap),
        ))
    return out


@_stepped
def check_oscillation_characterization(space, f, tol: Tolerances = Tolerances(),
                                       inputs: str = "") -> list[CheckReport]:
    """Oscillation norms against the natural extremal deviation.

    || f ||_BLO equals max_x (Mnat f - f)(x), and || f ||_BUO equals
    max_x (f - mnat f)(x); exact on a finite space, where every point is a
    Lebesgue point.
    """
    f = np.asarray(f, dtype=np.float64)
    up, down, blo, buo = yield [(natural_maximal, f), (natural_minimal, f),
                                (blo_norm, f), (buo_norm, f)]
    dev_up, dev_dn = up.values - f, f - down.values
    return [
        equality_report("oscillation.blo", [("blo", blo.value, float(dev_up.max()))],
                        tol.eq, inputs, witness=_worst_point(dev_up)),
        equality_report("oscillation.buo", [("buo", buo.value, float(dev_dn.max()))],
                        tol.eq, inputs, witness=_worst_point(dev_dn)),
    ]


@_stepped
def check_harnack(space, w, p: float, tol: Tolerances = Tolerances(),
                  inputs: str = "") -> list[CheckReport]:
    """Two Harnack bounds on the ball oscillation of a positive weight.

    (i)  max_B w <= A_1(w) A_1(1/w) min_B w for every ball;
    (ii) max_B w <= C(w) A_p(w) C(1/w) A_p(1/w) min_B w, with C the RH_inf
         constants, following the chain that composes the two conditions.
    """
    w = _as_weight(space, w)
    winv = 1.0 / w
    osc, a1_w, a1_inv, rhinf_w, ap_w, rhinf_inv, ap_inv = yield [
        (harnack_constant, w), (a1_constant, w), (a1_constant, winv), (rhinf_constant, w),
        (ap_constant, w, p), (rhinf_constant, winv), (ap_constant, winv, p)]
    lhs, ref = osc.value, osc.witness
    rhs1 = a1_w.value * a1_inv.value
    rhs2 = rhinf_w.value * ap_w.value * rhinf_inv.value * ap_inv.value
    wit = {"center": ref.center, "rank": ref.rank, "radius": ref.radius}
    return [
        inequality_report("harnack.a1_pair", [("bound", lhs, rhs1)],
                          tol.ineq, inputs, witness=wit),
        inequality_report("harnack.rhinf_ap_pair", [("bound", lhs, rhs2)],
                          tol.ineq, inputs, witness=wit,
                          detail={"p": p}),
    ]


@_stepped
def check_a1_characterization(space, w, tol: Tolerances = Tolerances(),
                              inputs: str = "") -> CheckReport:
    """Sandwich exp(||log w||_BLO) <= A_1(w) <= A_inf(w) exp(||log w||_BLO)."""
    w = _as_weight(space, w)
    blo, mid, ainf = (r.value for r in (
        yield [(blo_norm, np.log(w)), (a1_constant, w), (ainf_constant, w)]))
    lo, hi = float(np.exp(blo)), float(ainf * np.exp(blo))
    return inequality_report(
        "a1_characterization",
        [("lower", lo, mid), ("upper", mid, hi)],
        tol.ineq, inputs,
        detail={"blo_log_w": blo, "a1": mid, "ainf": ainf},
    )


@_stepped
def check_rhinf_characterization(space, w, tol: Tolerances = Tolerances(),
                                 inputs: str = "") -> CheckReport:
    """Sandwich C <= exp(||log w||_BUO) <= C * A_inf(w), C the RH_inf constant."""
    w = _as_weight(space, w)
    c, buo, ainf = (r.value for r in (
        yield [(rhinf_constant, w), (buo_norm, np.log(w)), (ainf_constant, w)]))
    mid = float(np.exp(buo))
    return inequality_report(
        "rhinf_characterization",
        [("lower", c, mid), ("upper", mid, float(c * ainf))],
        tol.ineq, inputs,
        detail={"rhinf": c, "exp_buo": mid, "ainf": ainf},
    )


@_stepped
def check_converse_chain(space, w, tol: Tolerances = Tolerances(),
                         inputs: str = "") -> list[CheckReport]:
    """The three-step chain bounding M(Mw) by a computable multiple of Mw.

    (a) Mnat(log w) <= log Mw <= log A_inf(w) + Mnat(log w), pointwise;
    (b) the same sandwich for Mw in place of w;
    (c) M(Mw) <= A_inf(Mw) A_inf(w) exp(||Mnat log w||_BLO) Mw, pointwise.
    """
    w = _as_weight(space, w)
    mw, mnat_logw, ainf_w = yield [(maximal, w), (natural_maximal, np.log(w)), (ainf_constant, w)]
    mw, mnat_logw, ainf_w = mw.values, mnat_logw.values, ainf_w.value
    log_mw = np.log(mw)
    mmw, mnat_logmw, ainf_mw, blo_mnat = yield [(maximal, mw), (natural_maximal, log_mw),
                                                (ainf_constant, mw), (blo_norm, mnat_logw)]
    mmw, mnat_logmw, ainf_mw, blo_mnat = (mmw.values, mnat_logmw.values,
                                          ainf_mw.value, blo_mnat.value)

    def sandwich(check_id, low_arr, mid_arr, const):
        gap_lo = low_arr - mid_arr
        gap_hi = mid_arr - low_arr
        return inequality_report(
            check_id,
            [("lower", float(gap_lo.max()), 0.0),
             ("upper", float(gap_hi.max()), float(np.log(const)))],
            tol.ineq, inputs, witness=_worst_point(gap_hi),
        )

    k = float(ainf_mw * ainf_w * np.exp(blo_mnat))
    ratio = mmw / mw
    return [
        sandwich("converse_chain.w", mnat_logw, log_mw, ainf_w),
        sandwich("converse_chain.mw", mnat_logmw, np.log(mmw), ainf_mw),
        inequality_report("converse_chain.final",
                          [("bound", float(ratio.max()), k)],
                          tol.ineq, inputs, witness=_worst_point(ratio),
                          detail={"blo_mnat_log_w": blo_mnat}),
    ]


@_stepped
def check_power_props(space, w, s: float, p: float,
                      tol: Tolerances = Tolerances(),
                      inputs: str = "") -> list[CheckReport]:
    """Power-transform relations between the weight classes.

    (a) ||log w**s||_BLO = s ||log w||_BLO and the BUO twin (exact);
    (b) A_1(w) <= A_inf(w) A_1(w**s)**(1/s);
    (c) A_q(w**s) <= (A_p(w) RH_s(w))**s with q = s(p-1)+1;
    (d) A_p(w) <= A_q(w**s)**(1/s) and RH_s(w) <= A_q(w**s)**(1/s).
    """
    _exponents(s=s, p=p)
    w = _as_weight(space, w)
    q = s * (p - 1.0) + 1.0
    ws = np.power(w, s)
    logw, logws = np.log(w), np.log(ws)
    eq_tol = tol.eq_for(ws)
    blo_ws, blo_w, buo_ws, buo_w, a1_ws, a1_w, ainf_w, aq_ws, ap_w, rhs_w = (r.value for r in (
        yield [(blo_norm, logws), (blo_norm, logw), (buo_norm, logws), (buo_norm, logw),
               (a1_constant, ws), (a1_constant, w), (ainf_constant, w),
               (ap_constant, ws, q), (ap_constant, w, p), (rhs_constant, w, s)]))
    a = equality_report(
        "power_props.log_scaling",
        [("blo", blo_ws, s * blo_w), ("buo", buo_ws, s * buo_w)],
        eq_tol, inputs, detail={"s": s},
    )
    b = inequality_report(
        "power_props.a1_from_power",
        [("bound", a1_w, float(ainf_w * a1_ws ** (1.0 / s)))],
        tol.ineq, inputs, detail={"s": s, "a1_ws": a1_ws},
    )
    c = inequality_report(
        "power_props.ap_forward",
        [("bound", aq_ws, float((ap_w * rhs_w) ** s))],
        tol.ineq, inputs, detail={"q": q, "ap_w": ap_w, "rhs_w": rhs_w},
    )
    d = inequality_report(
        "power_props.ap_converse",
        [("ap", ap_w, float(aq_ws ** (1.0 / s))),
         ("rhs", rhs_w, float(aq_ws ** (1.0 / s)))],
        tol.ineq, inputs, detail={"q": q, "aq_ws": aq_ws},
    )
    return [a, b, c, d]


@_stepped
def check_multiplier(space, phi, w, tol: Tolerances = Tolerances(),
                     inputs: str = "") -> CheckReport:
    """Products of weights on the upper-oscillation side.

    || log(phi w) ||_BUO <= ||log phi||_BUO + ||log w||_BUO, and the product's
    RH_inf constant is controlled by exp of its BUO norm.
    """
    phi = _as_weight(space, phi)
    w = _as_weight(space, w)
    log_phi, log_w = np.log(phi), np.log(w)
    # log phi + log w, not log(phi w): the product may round to a subnormal
    buo_prod, buo_phi, buo_w, rhinf_prod = (r.value for r in (
        yield [(buo_norm, log_phi + log_w), (buo_norm, log_phi), (buo_norm, log_w),
               (rhinf_constant, phi * w)]))
    return inequality_report(
        "multiplier",
        [("subadd", buo_prod, float(buo_phi + buo_w)),
         ("rhinf", rhinf_prod, float(np.exp(buo_prod)))],
        tol.ineq, inputs,
    )


@_stepped
def check_duality(space, w, p: float, tol: Tolerances = Tolerances(),
                  inputs: str = "") -> list[CheckReport]:
    """Conjugate-exponent identities for the power w**(1-p).

    A_p(w**(1-p)) = A_p'(w)**(p-1) with 1/p + 1/p' = 1, and
    ||log w**(1-p)||_BUO = (p-1) ||log w||_BLO.
    """
    _exponents(p=p)
    w = _as_weight(space, w)
    p_conj = p / (p - 1.0)
    wdual = np.power(w, 1.0 - p)
    eq_tol = tol.eq_for(wdual)
    ap_dual, ap_conj, buo_dual, blo_w = (r.value for r in (
        yield [(ap_constant, wdual, p), (ap_constant, w, p_conj),
               (buo_norm, np.log(wdual)), (blo_norm, np.log(w))]))
    return [
        equality_report(
            "duality.ap",
            [("identity", ap_dual, float(ap_conj ** (p - 1.0)))],
            eq_tol, inputs, detail={"p": p, "p_conj": p_conj},
        ),
        equality_report(
            "duality.oscillation",
            [("identity", buo_dual, float((p - 1.0) * blo_w))],
            eq_tol, inputs, detail={"p": p},
        ),
    ]


@_stepped
def report_unquantified(space, w, s: float, tol: Tolerances = Tolerances(),
                        inputs: str = "") -> list[CheckReport]:
    """Constants the general theory leaves as unspecified functions of C_d.

    Computes and reports, without asserting: the reverse Holder and A_1
    constants of Mw, the A_1 constant of (M w**s)**(1/s), and the
    oscillation-to-BMO ratios of the four extremal operators at f = log w.
    Hard-asserts only that the sweep behind those operators agrees with
    balls summed one by one (_naive_extremal_report).
    """
    _exponents(s=s)
    w = _as_weight(space, w)
    f = np.log(w)
    mw, mws, bmo, *ops = yield [(maximal, w), (maximal, np.power(w, s)), (bmo_norm, f),
                                (maximal, f), (natural_maximal, f), (natural_minimal, f),
                                (minimal, f)]
    mw, mws_root, f_bmo = mw.values, np.power(mws.values, 1.0 / s), bmo.value
    mf, mnat_f, mnat_min_f, minimal_f = (op.values for op in ops)
    rhs_mw, a1_mw, a1_root, *norms = (r.value for r in (
        yield [(rhs_constant, mw, s), (a1_constant, mw), (a1_constant, mws_root),
               (blo_norm, mnat_f), (blo_norm, mf), (buo_norm, mnat_min_f), (buo_norm, minimal_f)]))
    quantities = {"rhs_Mw": rhs_mw, "a1_Mw": a1_mw, "a1_root_Mws": a1_root,
                  "bmo_f": f_bmo, "s": s}
    for name, val in zip(("ratio_blo_Mnat_f", "ratio_blo_Mf", "ratio_buo_mnat_f",
                          "ratio_buo_mf"), norms):
        quantities[name] = val / f_bmo if f_bmo > 0.0 else None
    (naive,) = yield [(_naive_extremal_report, f, tol.eq_for(w), inputs)]
    return [soft_report("unquantified.constants", quantities, inputs), naive]


def _probe_points(n: int) -> np.ndarray:
    """Four point ids spread evenly over 0..n-1 (all of them when n < 4)."""
    return np.unique(np.linspace(0, n - 1, min(n, 4)).astype(np.int64))


@_stepped
def _naive_extremal_report(space, f: np.ndarray, tol: float,
                           inputs: str) -> CheckReport:
    """Mnat f and mnat f at a few probe points against balls summed one by one.

    At each probe point x the reported witness ball is rebuilt as
    dist[c] <= r and averaged by a dot product; that average must equal
    the reported value (side `<op>.witness`, NaN when the ball misses x).
    Every ball of every probe center that contains x is averaged the same
    way, and none may beat the value (side `<op>.balls` reads the better of
    the two). No arithmetic is shared with the sweep, so a defect in it
    shows here.
    """
    points = _probe_points(space.n)
    dist, mu, muf = space.dist, space.measure, space.measure * f
    # every ball of every probe center, as (center, radius) rows, built and
    # averaged CHUNK_CELLS cells at a time; per probe point, the best
    # average of a ball holding it
    radii = [np.unique(dist[c]) for c in points]
    centers = np.repeat(points, [r.size for r in radii])
    radii = np.concatenate(radii)
    best = {"max": np.full(points.size, -np.inf), "min": np.full(points.size, np.inf)}
    step = max(1, CHUNK_CELLS // space.n)
    for r0 in range(0, radii.size, step):
        balls = dist[centers[r0:r0 + step]] <= radii[r0:r0 + step, None]
        avgs = ((balls @ muf) / (balls @ mu))[:, None]
        inside = balls[:, points]
        np.maximum(best["max"], np.where(inside, avgs, -np.inf).max(axis=0), out=best["max"])
        np.minimum(best["min"], np.where(inside, avgs, np.inf).min(axis=0), out=best["min"])
    up, down = yield [(natural_maximal, f), (natural_minimal, f)]
    sides, detail = [], {}
    for name, out, pick in (("max", up, np.max), ("min", down, np.min)):
        value = out.values[points]
        wit = dist[out.witness_center[points]] <= out.witness_radius[points][:, None]
        naive = np.where(wit[np.arange(points.size), points],
                         (wit @ muf) / (wit @ mu), np.nan)
        for side, lhs in (("witness", naive), ("balls", pick([best[name], value], axis=0))):
            gap = np.abs(lhs - value) / np.maximum(np.maximum(np.abs(lhs), np.abs(value)), 1.0)
            i = int(np.argmax(gap))  # the first NaN, if any
            sides.append((f"{name}.{side}", float(lhs[i]), float(value[i])))
            detail[f"{name}.{side}.point"] = int(points[i])
    return equality_report("unquantified.naive_extremal", sides, tol, inputs,
                           witness={"points": points.tolist()}, detail=detail)


@dataclass(frozen=True)
class SuiteParams:
    p: float = 2.0
    s: float = 2.0
    tol: Tolerances = field(default_factory=Tolerances)
    include_factorization: bool = True  # of the first weight; one per instance suffices
    include_soft: bool = True

    def __post_init__(self):
        _exponents(p=self.p, s=self.s)


def run_suite(space: FiniteMetricMeasureSpace, weights: dict[str, np.ndarray],
              params: SuiteParams = SuiteParams(), label: str = "",
              ) -> list[CheckReport]:
    """Run every check on a space and its named weights.

    Per-check errors become failed report entries; the suite never aborts.
    The aggregate verdict is pass exactly when every hard check passes.
    Report order is fixed by (weight name in given order, check id).

    The checks share one memo scope, so each constant, norm and operator
    sweep of a given input is computed once per call. A weight's checks are
    one batch of the step loop, whose every round is one ``BallFamily.scan``
    that builds each table it reads once. The multiplier runs after the
    weights. Nothing outlives the call.
    """
    names = list(weights)
    p, s, tol = params.p, params.s, params.tol
    # the space is hashed once; each weight's digest goes on from a copy
    space_hash = hasher(space.dist, space.measure)
    suites = []  # (tag, inputs, {check name: its call}), run in this order
    for name in names:
        w = np.asarray(weights[name], dtype=np.float64)
        inp = digest(w, p, s, start=space_hash)
        checks = {
            "commutation": (check_commutation, w, tol, inp),
            "oscillation": (_oscillation_of_log, w, tol, inp),
            "harnack": (check_harnack, w, p, tol, inp),
            "a1_characterization": (check_a1_characterization, w, tol, inp),
            "rhinf_characterization": (check_rhinf_characterization, w, tol, inp),
            "converse_chain": (check_converse_chain, w, tol, inp),
            "power_props": (check_power_props, w, s, p, tol, inp),
            "duality": (check_duality, w, p, tol, inp),
        }
        if params.include_soft:
            checks["unquantified"] = (report_unquantified, w, s, tol, inp)
        if params.include_factorization and name == names[0]:
            checks["factorization"] = (_factorization_reports, w, params, inp)
        suites.append((f"{label}{name}", inp, checks))
    if names:
        phi_name, w_name = names[0], names[1 % len(names)]
        phi, w = weights[phi_name], weights[w_name]
        inp = digest(phi, w, start=space_hash)
        suites.append((f"{label}{phi_name}*{w_name}", inp,
                       {"multiplier": (check_multiplier, phi, w, tol, inp)}))
    reports: list[CheckReport] = []
    with _memo_scope():
        for tag, inp, checks in suites:
            for name, out in zip(checks, operators._outcomes(space, list(checks.values()))):
                if isinstance(out, Exception):  # a failed entry, never an aborted suite
                    reports.append(error_report(f"{tag}.{name}", out, inp))
                else:
                    reports += [replace(r, check_id=f"{tag}.{r.check_id}")
                                for r in (out if isinstance(out, list) else [out])]
    return reports


@_stepped
def _oscillation_of_log(space, w, tol: Tolerances, inputs: str):
    """The oscillation check on log w."""
    return (yield [(check_oscillation_characterization, np.log(_as_weight(space, w)),
                    tol, inputs)])[0]


@_stepped
def _factorization_reports(space, w, params: SuiteParams, inputs: str):
    """The checks of the suite's factor pair of w."""
    pair = factorization.refined_jones(space, w, params.p, params.s,
                                       factorization.SUITE_OPTIONS)
    return (yield [(factorization.verify_factorization, w, pair, params.tol, inputs)])[0]


__all__ = [
    "CheckReport", "Tolerances", "SuiteParams", "aggregate_verdict",
    "check_commutation", "check_oscillation_characterization", "check_harnack",
    "check_a1_characterization", "check_rhinf_characterization",
    "check_converse_chain", "check_power_props", "check_multiplier",
    "check_duality", "report_unquantified", "run_suite",
]
