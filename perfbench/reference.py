"""Naive reference evaluations for the benchmark's output gate.

Each function recomputes a quantity straight from its definition, one ball
at a time, without the ``BallFamily`` index: a ball of center c is the set
``dist[c] <= r`` for a distance r that occurs in row c. They are O(n^2) or
O(n^3) per center, so the gate evaluates them on a few sampled centers plus
the witness center the fast path reported. At the witness the two must
agree; elsewhere no sampled ball may beat the reported supremum.
"""

from __future__ import annotations

import numpy as np


def _balls(space, center: int):
    row = space.dist[center]
    for radius in np.unique(row):
        yield float(radius), np.flatnonzero(row <= radius)


def _avg(space, members: np.ndarray, v: np.ndarray) -> float:
    mu = space.measure[members]
    return float(mu @ v[members] / mu.sum())


def ball_forms(p: float, s: float):
    """Per-ball expressions of the eight sup functionals, keyed like the analyze items.

    Each takes (space, members, w, f) with f = log w.
    """
    def ap(sp, m, w, f):
        return _avg(sp, m, w) * _avg(sp, m, np.power(w, -1.0 / (p - 1.0))) ** (p - 1.0)

    def bmo(sp, m, w, f):
        if m.size == 1:
            return 0.0
        return _avg(sp, m, np.abs(f - _avg(sp, m, f)))

    return {
        "ap": ap,
        "a1": lambda sp, m, w, f: _avg(sp, m, w) / float(w[m].min()),
        "ainf": lambda sp, m, w, f: _avg(sp, m, w) * float(np.exp(-_avg(sp, m, f))),
        "rhs": lambda sp, m, w, f: _avg(sp, m, np.power(w, s)) ** (1.0 / s) / _avg(sp, m, w),
        "rhinf": lambda sp, m, w, f: float(w[m].max()) / _avg(sp, m, w),
        "bmo": bmo,
        "blo": lambda sp, m, w, f: _avg(sp, m, f) - float(f[m].min()),
        "buo": lambda sp, m, w, f: float(f[m].max()) - _avg(sp, m, f),
    }


def sup_over_centers(space, centers, form, w: np.ndarray) -> float:
    f = np.log(w)
    return max(form(space, m, w, f) for c in centers for _, m in _balls(space, c))


def extremal_at_points(space, centers, points, f: np.ndarray, mode: str) -> np.ndarray:
    """Per point, the best average of |f| over the sampled centers' balls containing it."""
    g = np.abs(f)
    pick = max if mode == "max" else min
    out = []
    for x in points:
        vals = [_avg(space, m, g) for c in centers for r, m in _balls(space, c)
                if space.dist[c, x] <= r]
        out.append(pick(vals))
    return np.array(out)


def ball_average(space, center: int, radius: float, f: np.ndarray) -> float:
    members = np.flatnonzero(space.dist[center] <= radius)
    return _avg(space, members, np.abs(f))


def doubling_over_centers(space, centers) -> float:
    """max(1, sup mu(B(x, 2r)) / mu(B(x, r))) over open balls, r at the breakpoints."""
    best = 1.0
    for c in centers:
        row = space.dist[c]
        d = np.unique(row)
        radii = np.unique(np.concatenate([d, d / 2.0]))
        radii = radii[radii > 0.0]
        inner = (row[None, :] < radii[:, None]) @ space.measure
        outer = (row[None, :] < 2.0 * radii[:, None]) @ space.measure
        best = max(best, float((outer / inner).max()))
    return best


def annular_over_centers(space, centers, alpha: float, r_min: float) -> float:
    """Annular decay ratio at the critical (r, delta) pairs of the sampled centers.

    For each distinct distance e_i with a right neighbour at or beyond r_min,
    r = max(e_i, r_min) and delta = 1 - e_j / r for each 0 < e_j < r; the
    annulus is {e_j <= d <= e_i} and the ball {d <= e_i}.
    """
    best = 0.0
    for c in centers:
        row = space.dist[c]
        e = np.unique(row)
        m = len(e) - 1
        if m == 0:
            continue
        le = (row[None, :] <= e[:, None]) @ space.measure  # mass of {d <= e_i}
        lt = (row[None, :] < e[:, None]) @ space.measure  # mass of {d < e_j}
        right = np.append(e[1:], np.inf)
        for i in np.flatnonzero(right >= r_min):
            r_star = max(float(e[i]), r_min)
            js = np.arange(1, i + 1)
            deltas = 1.0 - e[js] / r_star
            ok = deltas > 0.0
            if not ok.any():
                continue
            ratios = (le[i] - lt[js[ok]]) / (deltas[ok] ** alpha * le[i])
            best = max(best, float(ratios.max()))
    return best
