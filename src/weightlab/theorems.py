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
    evaluate,
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
)


def _worst_point(arr: np.ndarray) -> dict:
    i = int(arr.argmax())
    return {"point": i, "value": float(arr[i])}


def check_commutation(space, w, tol: Tolerances = Tolerances(),
                      inputs: str = "") -> list[CheckReport]:
    """Gap of log against the natural extremal operators on a positive weight.

    Asserts, pointwise, 0 <= log(Mnat w) - Mnat(log w) <= log A_inf(w) and
    the same for the natural minimal operator.
    """
    w = _as_weight(space, w)
    logw = np.log(w)
    bound = float(np.log(ainf_constant(space, w).value))
    out = []
    for name, op in (("natural_max", natural_maximal), ("natural_min", natural_minimal)):
        gap = np.log(op(space, w).values) - op(space, logw).values
        out.append(inequality_report(
            f"commutation.{name}",
            [("nonneg", 0.0, float(gap.min())), ("upper", float(gap.max()), bound)],
            tol.ineq, inputs,
            witness=_worst_point(gap),
        ))
    return out


def check_oscillation_characterization(space, f, tol: Tolerances = Tolerances(),
                                       inputs: str = "") -> list[CheckReport]:
    """Oscillation norms against the natural extremal deviation.

    || f ||_BLO equals max_x (Mnat f - f)(x), and || f ||_BUO equals
    max_x (f - mnat f)(x); exact on a finite space, where every point is a
    Lebesgue point.
    """
    f = np.asarray(f, dtype=np.float64)
    dev_up = natural_maximal(space, f).values - f
    dev_dn = f - natural_minimal(space, f).values
    return [
        equality_report("oscillation.blo",
                        [("blo", blo_norm(space, f).value, float(dev_up.max()))],
                        tol.eq, inputs, witness=_worst_point(dev_up)),
        equality_report("oscillation.buo",
                        [("buo", buo_norm(space, f).value, float(dev_dn.max()))],
                        tol.eq, inputs, witness=_worst_point(dev_dn)),
    ]


def check_harnack(space, w, p: float, tol: Tolerances = Tolerances(),
                  inputs: str = "") -> list[CheckReport]:
    """Two Harnack bounds on the ball oscillation of a positive weight.

    (i)  max_B w <= A_1(w) A_1(1/w) min_B w for every ball;
    (ii) max_B w <= C(w) A_p(w) C(1/w) A_p(1/w) min_B w, with C the RH_inf
         constants, following the chain that composes the two conditions.
    """
    w = _as_weight(space, w)
    winv = 1.0 / w
    osc = harnack_constant(space, w)
    lhs, ref = osc.value, osc.witness
    rhs1 = a1_constant(space, w).value * a1_constant(space, winv).value
    rhs2 = (rhinf_constant(space, w).value * ap_constant(space, w, p).value
            * rhinf_constant(space, winv).value * ap_constant(space, winv, p).value)
    wit = {"center": ref.center, "rank": ref.rank, "radius": ref.radius}
    return [
        inequality_report("harnack.a1_pair", [("bound", lhs, rhs1)],
                          tol.ineq, inputs, witness=wit),
        inequality_report("harnack.rhinf_ap_pair", [("bound", lhs, rhs2)],
                          tol.ineq, inputs, witness=wit,
                          detail={"p": p}),
    ]


def check_a1_characterization(space, w, tol: Tolerances = Tolerances(),
                              inputs: str = "") -> CheckReport:
    """Sandwich exp(||log w||_BLO) <= A_1(w) <= A_inf(w) exp(||log w||_BLO)."""
    w = _as_weight(space, w)
    blo = blo_norm(space, np.log(w)).value
    mid = a1_constant(space, w).value
    ainf = ainf_constant(space, w).value
    lo, hi = float(np.exp(blo)), float(ainf * np.exp(blo))
    return inequality_report(
        "a1_characterization",
        [("lower", lo, mid), ("upper", mid, hi)],
        tol.ineq, inputs,
        detail={"blo_log_w": blo, "a1": mid, "ainf": ainf},
    )


def check_rhinf_characterization(space, w, tol: Tolerances = Tolerances(),
                                 inputs: str = "") -> CheckReport:
    """Sandwich C <= exp(||log w||_BUO) <= C * A_inf(w), C the RH_inf constant."""
    w = _as_weight(space, w)
    c = rhinf_constant(space, w).value
    mid = float(np.exp(buo_norm(space, np.log(w)).value))
    ainf = ainf_constant(space, w).value
    return inequality_report(
        "rhinf_characterization",
        [("lower", c, mid), ("upper", mid, float(c * ainf))],
        tol.ineq, inputs,
        detail={"rhinf": c, "exp_buo": mid, "ainf": ainf},
    )


def check_converse_chain(space, w, tol: Tolerances = Tolerances(),
                         inputs: str = "") -> list[CheckReport]:
    """The three-step chain bounding M(Mw) by a computable multiple of Mw.

    (a) Mnat(log w) <= log Mw <= log A_inf(w) + Mnat(log w), pointwise;
    (b) the same sandwich for Mw in place of w;
    (c) M(Mw) <= A_inf(Mw) A_inf(w) exp(||Mnat log w||_BLO) Mw, pointwise.
    """
    w = _as_weight(space, w)
    logw = np.log(w)
    mw = maximal(space, w).values
    log_mw = np.log(mw)
    mnat_logw = natural_maximal(space, logw).values
    ainf_w = ainf_constant(space, w).value
    mmw = maximal(space, mw).values
    mnat_logmw = natural_maximal(space, log_mw).values
    ainf_mw = ainf_constant(space, mw).value

    def sandwich(check_id, low_arr, mid_arr, const):
        gap_lo = low_arr - mid_arr
        gap_hi = mid_arr - low_arr
        return inequality_report(
            check_id,
            [("lower", float(gap_lo.max()), 0.0),
             ("upper", float(gap_hi.max()), float(np.log(const)))],
            tol.ineq, inputs, witness=_worst_point(gap_hi),
        )

    blo_mnat = blo_norm(space, mnat_logw).value
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


def check_power_props(space, w, s: float, p: float,
                      tol: Tolerances = Tolerances(),
                      inputs: str = "") -> list[CheckReport]:
    """Power-transform relations between the weight classes.

    (a) ||log w**s||_BLO = s ||log w||_BLO and the BUO twin (exact);
    (b) A_1(w) <= A_inf(w) A_1(w**s)**(1/s);
    (c) A_q(w**s) <= (A_p(w) RH_s(w))**s with q = s(p-1)+1;
    (d) A_p(w) <= A_q(w**s)**(1/s) and RH_s(w) <= A_q(w**s)**(1/s).
    """
    w = _as_weight(space, w)
    q = s * (p - 1.0) + 1.0
    ws = np.power(w, s)
    logw, logws = np.log(w), np.log(ws)
    eq_tol = tol.eq_for(ws)
    a = equality_report(
        "power_props.log_scaling",
        [("blo", blo_norm(space, logws).value, s * blo_norm(space, logw).value),
         ("buo", buo_norm(space, logws).value, s * buo_norm(space, logw).value)],
        eq_tol, inputs, detail={"s": s},
    )
    a1_ws = a1_constant(space, ws).value
    b = inequality_report(
        "power_props.a1_from_power",
        [("bound", a1_constant(space, w).value,
          float(ainf_constant(space, w).value * a1_ws ** (1.0 / s)))],
        tol.ineq, inputs, detail={"s": s, "a1_ws": a1_ws},
    )
    aq_ws = ap_constant(space, ws, q).value
    ap_w = ap_constant(space, w, p).value
    rhs_w = rhs_constant(space, w, s).value
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
    buo_prod = buo_norm(space, log_phi + log_w).value
    return inequality_report(
        "multiplier",
        [("subadd", buo_prod,
          float(buo_norm(space, log_phi).value + buo_norm(space, log_w).value)),
         ("rhinf", rhinf_constant(space, phi * w).value, float(np.exp(buo_prod)))],
        tol.ineq, inputs,
    )


def check_duality(space, w, p: float, tol: Tolerances = Tolerances(),
                  inputs: str = "") -> list[CheckReport]:
    """Conjugate-exponent identities for the power w**(1-p).

    A_p(w**(1-p)) = A_p'(w)**(p-1) with 1/p + 1/p' = 1, and
    ||log w**(1-p)||_BUO = (p-1) ||log w||_BLO.
    """
    w = _as_weight(space, w)
    p_conj = p / (p - 1.0)
    wdual = np.power(w, 1.0 - p)
    eq_tol = tol.eq_for(wdual)
    return [
        equality_report(
            "duality.ap",
            [("identity", ap_constant(space, wdual, p).value,
              float(ap_constant(space, w, p_conj).value ** (p - 1.0)))],
            eq_tol, inputs, detail={"p": p, "p_conj": p_conj},
        ),
        equality_report(
            "duality.oscillation",
            [("identity", buo_norm(space, np.log(wdual)).value,
              float((p - 1.0) * blo_norm(space, np.log(w)).value))],
            eq_tol, inputs, detail={"p": p},
        ),
    ]


def report_unquantified(space, w, s: float, tol: Tolerances = Tolerances(),
                        inputs: str = "") -> list[CheckReport]:
    """Constants the general theory leaves as unspecified functions of C_d.

    Computes and reports, without asserting: the reverse Holder and A_1
    constants of Mw, the A_1 constant of (M w**s)**(1/s), and the
    oscillation-to-BMO ratios of the four extremal operators at f = log w.
    Hard-asserts only that the sweep behind those operators agrees with
    balls summed one by one (_naive_extremal_report).
    """
    w = _as_weight(space, w)
    f = np.log(w)
    mw = maximal(space, w).values
    mws_root = np.power(maximal(space, np.power(w, s)).values, 1.0 / s)
    f_bmo = bmo_norm(space, f).value
    mf = maximal(space, f).values
    quantities = {
        "rhs_Mw": rhs_constant(space, mw, s).value,
        "a1_Mw": a1_constant(space, mw).value,
        "a1_root_Mws": a1_constant(space, mws_root).value,
        "bmo_f": f_bmo,
        "s": s,
    }
    blo_mnat_f = blo_norm(space, natural_maximal(space, f).values).value
    blo_mf = blo_norm(space, mf).value
    buo_mnat_min_f = buo_norm(space, natural_minimal(space, f).values).value
    buo_minimal_f = buo_norm(space, minimal(space, f).values).value
    for name, val in (("ratio_blo_Mnat_f", blo_mnat_f),
                      ("ratio_blo_Mf", blo_mf),
                      ("ratio_buo_mnat_f", buo_mnat_min_f),
                      ("ratio_buo_mf", buo_minimal_f)):
        quantities[name] = val / f_bmo if f_bmo > 0.0 else None
    return [soft_report("unquantified.constants", quantities, inputs),
            _naive_extremal_report(space, f, tol.eq_for(w), inputs)]


def _probe_points(n: int) -> np.ndarray:
    """Four point ids spread evenly over 0..n-1 (all of them when n < 4)."""
    return np.unique(np.linspace(0, n - 1, min(n, 4)).astype(np.int64))


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
    sides, detail = [], {}
    for name, out, pick in (("max", natural_maximal(space, f), np.max),
                            ("min", natural_minimal(space, f), np.min)):
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


def run_suite(space: FiniteMetricMeasureSpace, weights: dict[str, np.ndarray],
              params: SuiteParams = SuiteParams(), label: str = "",
              ) -> list[CheckReport]:
    """Run every check on a space and its named weights.

    Per-check errors become failed report entries; the suite never aborts.
    The aggregate verdict is pass exactly when every hard check passes.
    Report order is fixed by (weight name in given order, check id).

    The checks share one memo scope: each constant, norm and operator sweep
    of a given input is computed once per call and reused by every check
    that asks for it again. Before a weight's checks, the calls they make
    are evaluated in a few batches, one ``BallFamily.scan`` each, so every
    table they read is built once. Nothing outlives the call, so a second
    call recomputes everything.
    """
    with _memo_scope():
        return _run_suite(space, weights, params, label)


def _run_suite(space, weights, params: SuiteParams, label: str) -> list[CheckReport]:
    reports: list[CheckReport] = []
    names = list(weights)

    def run(check_id, fn, inputs):
        try:
            result = fn()
            reports.extend(result if isinstance(result, list) else [result])
        except Exception as exc:  # a failed entry, never an aborted suite
            reports.append(error_report(check_id, exc, inputs))

    for name in names:
        w = np.asarray(weights[name], dtype=np.float64)
        tag = f"{label}{name}"
        inp = digest(space.dist, space.measure, w, params.p, params.s)
        tol = params.tol
        _prefetch(space, lambda: _weight_calls(space, w, params.p, params.s))
        _prefetch(space, lambda: _maximal_calls(space, w))
        if params.include_soft:
            _prefetch(space, lambda: _soft_calls(space, w, params.s))
        run(f"{tag}.commutation", lambda: _prefix(
            tag, check_commutation(space, w, tol, inp)), inp)
        run(f"{tag}.oscillation", lambda: _prefix(
            tag, check_oscillation_characterization(
                space, np.log(_as_weight(space, w)), tol, inp)), inp)
        run(f"{tag}.harnack", lambda: _prefix(
            tag, check_harnack(space, w, params.p, tol, inp)), inp)
        run(f"{tag}.a1_characterization", lambda: _prefix(
            tag, [check_a1_characterization(space, w, tol, inp)]), inp)
        run(f"{tag}.rhinf_characterization", lambda: _prefix(
            tag, [check_rhinf_characterization(space, w, tol, inp)]), inp)
        run(f"{tag}.converse_chain", lambda: _prefix(
            tag, check_converse_chain(space, w, tol, inp)), inp)
        run(f"{tag}.power_props", lambda: _prefix(
            tag, check_power_props(space, w, params.s, params.p, tol, inp)), inp)
        run(f"{tag}.duality", lambda: _prefix(
            tag, check_duality(space, w, params.p, tol, inp)), inp)
        if params.include_soft:
            run(f"{tag}.unquantified", lambda: _prefix(
                tag, report_unquantified(space, w, params.s, tol, inp)), inp)
        if params.include_factorization and name == names[0]:
            run(f"{tag}.factorization", lambda: _prefix(
                tag, _factorization_reports(space, w, params, inp)), inp)
    if names:
        phi_name, w_name = (names[0], names[1 % len(names)])
        inp = digest(space.dist, space.measure, weights[phi_name], weights[w_name])
        _prefetch(space, lambda: _multiplier_calls(space, weights[phi_name], weights[w_name]))
        run(f"{label}{phi_name}*{w_name}.multiplier", lambda: _prefix(
            f"{label}{phi_name}*{w_name}",
            [check_multiplier(space, weights[phi_name], weights[w_name],
                              params.tol, inp)]), inp)
    return reports


def _prefetch(space, stage) -> None:
    """Evaluate the calls `stage()` lists as one batch, into the suite's memo scope.

    The checks then read every result from the scope. A call that raises
    stays out of it, so the check that makes the call raises and reports
    it exactly as it would alone; a batch that cannot be formed or run
    leaves the checks to compute everything themselves. A floating-point
    event that would warn raises here instead, so every warning comes from
    a check's own call, as without the batch.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            evaluate(space, stage())
    except Exception:  # reported by the check that makes the failing call
        pass


def _weight_calls(space, w, p: float, s: float) -> list:
    """Every memoized call one weight's checks make on w and its transforms.

    Listed so that the calls reading one vector's tables sit together,
    which keeps few tables held in each block of the scan.
    """
    w = _as_weight(space, w)
    logw, winv, ws = np.log(w), 1.0 / w, np.power(w, s)
    wdual = np.power(w, 1.0 - p)
    logws = np.log(ws)
    kernel = operators._natural_extremal
    return [
        (kernel, -w),
        (a1_constant, winv), (rhinf_constant, winv), (ap_constant, winv, p),
        (ap_constant, wdual, p), (blo_norm, -np.log(wdual)),
        (ap_constant, w, p), (ap_constant, w, p / (p - 1.0)), (a1_constant, w),
        (harnack_constant, w), (rhinf_constant, w), (rhs_constant, w, s), (ainf_constant, w),
        (kernel, logw), (blo_norm, logw), (kernel, -logw), (blo_norm, -logw),
        (a1_constant, ws), (ap_constant, ws, s * (p - 1.0) + 1.0),
        (blo_norm, logws), (blo_norm, -logws),
    ]


def _maximal_calls(space, w) -> list:
    """The calls of `check_converse_chain` on Mw and Mnat(log w), read from the first batch."""
    w = _as_weight(space, w)
    mw = maximal(space, w).values
    mnat_logw = natural_maximal(space, np.log(w)).values
    kernel = operators._natural_extremal
    return [(kernel, mw), (ainf_constant, mw), (kernel, np.log(mw)), (blo_norm, mnat_logw)]


def _soft_calls(space, w, s: float) -> list:
    """The calls of `report_unquantified` on vectors the first two batches computed."""
    w = _as_weight(space, w)
    f = np.log(w)
    mw = maximal(space, w).values
    mws_root = np.power(maximal(space, np.power(w, s)).values, 1.0 / s)
    kernel = operators._natural_extremal
    return [(bmo_norm, f), (kernel, np.abs(f)), (kernel, -np.abs(f)), (rhs_constant, mw, s),
            (a1_constant, mw), (a1_constant, mws_root),
            (blo_norm, -natural_minimal(space, f).values)]


def _multiplier_calls(space, phi, w) -> list:
    """The calls of `check_multiplier` on the product phi w."""
    phi, w = _as_weight(space, phi), _as_weight(space, w)
    return [(blo_norm, -(np.log(phi) + np.log(w))), (rhinf_constant, phi * w)]


def _prefix(tag: str, reports: list[CheckReport]) -> list[CheckReport]:
    return [replace(r, check_id=f"{tag}.{r.check_id}") for r in reports]


def _factorization_reports(space, w, params: SuiteParams, inputs: str):
    pair = factorization.refined_jones(space, w, params.p, params.s,
                                       factorization.SUITE_OPTIONS)
    return factorization.verify_factorization(space, w, pair, params.tol,
                                              inputs=inputs)


__all__ = [
    "CheckReport", "Tolerances", "SuiteParams", "aggregate_verdict",
    "check_commutation", "check_oscillation_characterization", "check_harnack",
    "check_a1_characterization", "check_rhinf_characterization",
    "check_converse_chain", "check_power_props", "check_multiplier",
    "check_duality", "report_unquantified", "run_suite",
]
