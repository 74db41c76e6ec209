"""Machine-readable verdicts for single inequality or equality checks.

A CheckReport records one checked relation: the binding left and right
hand sides, the margin, a pass/fail/soft-report verdict, and the witness
that produced the binding values. Multi-sided relations (sandwiches) fold
into one report whose lhs/rhs are the binding side; all sides are kept in
`detail`.

Comparisons are relative with a unit floor: a side passes when
    rhs - lhs >= -tol * max(|lhs|, |rhs|, 1)      (inequalities)
    |lhs - rhs| <= tol * max(|lhs|, |rhs|, 1)     (equalities)
so near-zero quantities compare at absolute tolerance tol. An inequality
side with one infinite term has slack rhs - lhs = +inf or -inf, so it
passes or fails outright; equal infinities and NaN fail.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams

DEFAULT_INEQ_TOL = 1e-9
DEFAULT_EQ_TOL = 1e-12
# equality tolerance degrades once the weight's dynamic range passes this
EQ_RELAX_RANGE = 1e6
EQ_RELAXED_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    ineq: float = DEFAULT_INEQ_TOL
    eq: float = DEFAULT_EQ_TOL

    def __post_init__(self):
        # a NaN or negative tolerance would fail every hard check
        for name, tol in (("ineq", self.ineq), ("eq", self.eq)):
            if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0.0):
                raise InvalidParams(f"tolerance {name} must be finite and >= 0, got {tol!r}")

    def eq_for(self, w) -> float:
        w = np.asarray(w, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflowing range is inf, and relaxes
            relax = w.size and w.min() > 0 and w.max() / w.min() > EQ_RELAX_RANGE
        return max(self.eq, EQ_RELAXED_TOL) if relax else self.eq


def _scale(lhs: float, rhs: float) -> float:
    return max(abs(lhs), abs(rhs), 1.0)


def _slack(lhs: float, rhs: float) -> float:
    """Relative slack of lhs <= rhs; an infinite difference is kept, not inf/inf."""
    diff = rhs - lhs
    return diff if math.isinf(diff) else diff / _scale(lhs, rhs)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    inputs: str
    lhs: float
    rhs: float
    margin: float
    verdict: str  # pass | fail | soft-report | error
    witness: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    kind: str = "inequality"  # inequality | equality | report
    tolerance: float = DEFAULT_INEQ_TOL

    @property
    def hard(self) -> bool:
        return self.kind in ("inequality", "equality")

    def to_dict(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else None

        return {
            "id": self.check_id,
            "inputs": self.inputs,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "margin": num(self.margin),
            "verdict": self.verdict,
            "witness": self.witness,
            "detail": self.detail,
            "kind": self.kind,
            "tolerance": self.tolerance,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def inequality_report(check_id: str, sides, tol: float, inputs: str = "",
                      witness: dict | None = None, detail: dict | None = None,
                      ) -> CheckReport:
    """One report asserting every `(name, lhs, rhs)` side with lhs <= rhs."""
    return _report("inequality", [-_slack(lhs, rhs) for _, lhs, rhs in sides],
                   check_id, sides, tol, inputs, witness, detail)


def equality_report(check_id: str, sides, tol: float, inputs: str = "",
                    witness: dict | None = None, detail: dict | None = None,
                    ) -> CheckReport:
    """One report asserting every `(name, lhs, rhs)` side with lhs == rhs."""
    return _report("equality", [abs(rhs - lhs) / _scale(lhs, rhs) for _, lhs, rhs in sides],
                   check_id, sides, tol, inputs, witness, detail)


def _report(kind: str, gaps, check_id, sides, tol, inputs, witness, detail) -> CheckReport:
    """Binding at the first largest (or NaN) gap; passes when every gap is <= tol."""
    name, lhs, rhs = sides[int(np.argmax(gaps))]
    info = dict(detail or {})
    for nm, lo, hi in sides:
        info[f"{nm}.lhs"] = lo
        info[f"{nm}.rhs"] = hi
    info["binding"] = name
    verdict = "pass" if all(g <= tol for g in gaps) else "fail"
    margin = float(rhs - lhs if kind == "inequality" else abs(lhs - rhs))
    return CheckReport(check_id, inputs, float(lhs), float(rhs), margin, verdict,
                       witness or {}, info, kind, tol)


def soft_report(check_id: str, quantities: dict, inputs: str = "",
                witness: dict | None = None) -> CheckReport:
    """An informational report; never fails, carries named quantities."""
    return CheckReport(check_id, inputs, float("nan"), float("nan"), float("nan"),
                       "soft-report", witness or {}, dict(quantities), "report", 0.0)


def error_report(check_id: str, exc: Exception, inputs: str = "") -> CheckReport:
    return CheckReport(check_id, inputs, float("nan"), float("nan"), float("nan"),
                       "error", {}, {"error": f"{type(exc).__name__}: {exc}"},
                       "inequality", 0.0)


def hasher(*parts, start=None):
    """A sha1 fed with each part in turn, after a copy of `start`, a hasher, where given."""
    h = hashlib.sha1() if start is None else start.copy()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part))  # no copy of a contiguous array
        else:
            h.update(repr(part).encode())
    return h


def digest(*parts, start=None) -> str:
    """12 hex digits of the sha1 of the parts, after those of `start` (a `hasher`)."""
    return hasher(*parts, start=start).hexdigest()[:12]


def reports_to_jsonl(reports) -> str:
    return "".join(r.to_json_line() + "\n" for r in reports)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "inputs", "lhs", "rhs", "margin", "verdict", "kind"])
    for r in reports:
        writer.writerow([r.check_id, r.inputs, repr(r.lhs), repr(r.rhs),
                         repr(r.margin), r.verdict, r.kind])
    return buf.getvalue()


def aggregate_verdict(reports) -> bool:
    """True when every hard check passed; soft reports never count."""
    return all(r.verdict == "pass" for r in reports if r.hard)
