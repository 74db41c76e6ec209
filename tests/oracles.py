"""Independent brute-force reference implementations for the tests.

Everything here enumerates balls or triples directly and sums member
lists with plain numpy reductions, sharing no code path with the package's
prefix-sum machinery.
"""

import functools
import math
import weakref

import numpy as np

from weightlab.space import BallRef


def _once_per_space(table):
    """Compute table(space) once per space, kept read-only while the space lives."""
    kept = weakref.WeakKeyDictionary()

    @functools.wraps(table)
    def read(space):
        if space not in kept:
            kept[space] = table(space)
            kept[space].flags.writeable = False
        return kept[space]

    return read


@_once_per_space
def ball_ends(space):
    """Which (center, position) cells end a ball, by the full-array formula.

    Position i of a center's order ends a ball iff the next point is
    farther, or i is the last position.
    """
    fam = space.ball_family
    sorted_dist = np.take_along_axis(space.dist, fam.order, axis=1)
    ends = np.empty((space.n, space.n), dtype=bool)
    np.greater(sorted_dist[:, 1:], sorted_dist[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    return ends


@_once_per_space
def ball_keys(space):
    """rank * n + center at every (center, position), by the full-array formula.

    rank counts the ball ends up to the position, so at a ball end the
    entry is that ball's key.
    """
    n, dtype = space.n, space.ball_family.index_dtype
    key = np.cumsum(ball_ends(space), axis=1, dtype=dtype) * dtype(n)
    return key + np.arange(n, dtype=dtype)[:, None]


@_once_per_space
def prefix_measure(space):
    """Mass of every prefix of every center's order, by the full-array cumsum."""
    return np.cumsum(space.measure[space.ball_family.order], axis=1)


def balls_naive(space):
    """All realized balls as member-index arrays, deduplicated."""
    seen = set()
    out = []
    for c in range(space.n):
        for radius in np.unique(space.dist[c]):
            members = np.nonzero(space.dist[c] <= radius)[0]
            key = tuple(members)
            if key not in seen:
                seen.add(key)
                out.append(members)
    return out


def _avg(space, members, f):
    mu = space.measure[members]
    return float(np.sum(mu * f[members]) / np.sum(mu))


def extremal_naive(space, f, mode="max", use_abs=False):
    """Triple loop over (point, center, radius): the operator definitions."""
    f = np.abs(f) if use_abs else np.asarray(f, dtype=float)
    out = np.full(space.n, -math.inf if mode == "max" else math.inf)
    for c in range(space.n):
        for radius in np.unique(space.dist[c]):
            members = np.nonzero(space.dist[c] <= radius)[0]
            avg = _avg(space, members, f)
            for y in members:
                if mode == "max":
                    out[y] = max(out[y], avg)
                else:
                    out[y] = min(out[y], avg)
    return out


def extremal_witness_rowwise(space, f):
    """Mnat f with witnesses as (values, centers, ranks, radii), ball by ball.

    Loops over every center and ball end on the package's own averages
    table, so the values compare with ==. Each point takes the largest
    average of a ball containing it and, among the balls attaining it, the
    smallest (rank, center); ranks are counted here, not read from the index.
    """
    fam = space.ball_family
    avg = fam.averages_at_pos(np.asarray(f, dtype=float))
    n = space.n
    values = np.full(n, -math.inf)
    best = [(n + 1, n, math.nan)] * n  # (rank, center, radius)
    ends = ball_ends(space)
    for c in range(n):
        rank = 0
        for pos in np.flatnonzero(ends[c]):
            rank += 1
            a = avg[c, pos]
            radius = float(space.dist[c, fam.order[c, pos]])
            for y in fam.order[c, :pos + 1]:
                if a > values[y] or (a == values[y] and (rank, c) < best[y][:2]):
                    values[y] = a
                    best[y] = (rank, c, radius)
    ranks, centers, radii = (np.array(col) for col in zip(*best))
    return values, centers, ranks, radii


def sup_over_balls_naive(space, per_ball):
    return max(per_ball(members) for members in balls_naive(space))


def ap_naive(space, w, p):
    w = np.asarray(w, dtype=float)
    return sup_over_balls_naive(
        space,
        lambda m: _avg(space, m, w) * _avg(space, m, w ** (-1.0 / (p - 1.0))) ** (p - 1.0),
    )


def a1_naive(space, w):
    w = np.asarray(w, dtype=float)
    return sup_over_balls_naive(space, lambda m: _avg(space, m, w) / w[m].min())


def ainf_naive(space, w):
    w = np.asarray(w, dtype=float)
    return sup_over_balls_naive(
        space, lambda m: _avg(space, m, w) * math.exp(-_avg(space, m, np.log(w))))


def rhs_naive(space, w, s):
    w = np.asarray(w, dtype=float)
    return sup_over_balls_naive(
        space, lambda m: _avg(space, m, w ** s) ** (1.0 / s) / _avg(space, m, w))


def rhinf_naive(space, w):
    w = np.asarray(w, dtype=float)
    return sup_over_balls_naive(space, lambda m: w[m].max() / _avg(space, m, w))


def bmo_naive(space, f):
    f = np.asarray(f, dtype=float)
    return sup_over_balls_naive(
        space, lambda m: _avg(space, m, np.abs(f - _avg(space, m, f))))


def bmo_rowwise(space, f):
    """BMO as (value, BallRef), summing every center's row in full.

    The per-center loop `weights.bmo_norm` ran before it screened centers,
    kept verbatim: it is the bit-level reference for the screened norm.
    """
    f = np.asarray(f, dtype=float)
    fam = space.ball_family
    a = fam.averages_at_pos(f)
    n = space.n
    vals = np.empty((n, n))
    tri = np.tril(np.ones((n, n)), k=0)
    dev = np.empty((n, n))
    prefix = prefix_measure(space)
    for c in range(n):
        order = fam.order[c]
        np.subtract(f[order][None, :], a[c][:, None], out=dev)
        np.abs(dev, out=dev)
        dev *= space.measure[order][None, :]
        dev *= tri
        vals[c] = dev.sum(axis=1) / prefix[c]
    vals[:, 0] = 0.0
    return sup_over_table(space, vals)


def bmo_ball_rows(space, f):
    """`bmo_rowwise` with only the rows at ball ends summed: the same bytes, O(n) per ball."""
    return sup_over_table(space, bmo_ball_rows_table(space, f))


def bmo_ball_rows_table(space, f):
    """The (center, position) table of `bmo_ball_rows`.

    Each center's row j is the same full-length masked row as in
    `bmo_rowwise`, with the same operations; rows that end no ball read
    -inf, which `sup_over_table` never reads.
    """
    f = np.asarray(f, dtype=float)
    fam = space.ball_family
    a = fam.averages_at_pos(f)
    n = space.n
    vals = np.full((n, n), -np.inf)
    tri = np.tril(np.ones((n, n)), k=0)
    at_ends, prefix = ball_ends(space), prefix_measure(space)
    for c in range(n):
        order = fam.order[c]
        ends = np.flatnonzero(at_ends[c])
        dev = f[order][None, :] - a[c, ends][:, None]
        np.abs(dev, out=dev)
        dev *= space.measure[order][None, :]
        dev *= tri[ends]
        vals[c, ends] = dev.sum(axis=1) / prefix[c, ends]
    vals[:, 0] = 0.0
    return vals


def sup_over_table(space, table):
    """(value, BallRef) of a full (center, position) table, in one reduction.

    The max over ball ends, NaN propagating; the witness is the attaining
    (or NaN) ball of smallest rank * n + center, the rank counted here from
    the ball ends. Reference for the streamed `BallFamily.sup_over_balls`.
    """
    fam = space.ball_family
    ends = ball_ends(space)
    value = table.max(where=ends, initial=-np.inf)
    hits = table == value if value == value else np.isnan(table)
    hits &= ends
    ranks = np.cumsum(ends, axis=1)
    c, p = min(zip(*np.nonzero(hits)), key=lambda cp: (ranks[cp], cp[0]))
    radius = float(space.dist[c, fam.order[c, p]])
    return float(value), BallRef(int(c), int(ranks[c, p]), radius)


def blo_naive(space, f):
    f = np.asarray(f, dtype=float)
    return sup_over_balls_naive(space, lambda m: _avg(space, m, f) - f[m].min())


def buo_naive(space, f):
    f = np.asarray(f, dtype=float)
    return sup_over_balls_naive(space, lambda m: f[m].max() - _avg(space, m, f))


def doubling_naive(space):
    best = 1.0
    for x in range(space.n):
        ds = [d for d in np.unique(space.dist[x]) if d > 0.0]
        samples = sorted(set(ds) | {d / 2.0 for d in ds})
        for r in samples:
            num = space.measure[space.dist[x] < 2.0 * r].sum()
            den = space.measure[space.dist[x] < r].sum()
            best = max(best, float(num / den))
    return best


def doubling_rowwise(space):
    """Doubling as (value, BallRef or None, sample radius), one center at a time.

    The per-center loop `space.doubling_constant` ran before it scanned
    blocks of centers, its samples r in D_x union D_x/2 and its arithmetic
    kept verbatim: it is the bit-level reference for the scan, which
    samples r in D_x alone. A NaN ratio never wins. Across centers the
    witness B(x, r) of smallest (rank, center) wins, and the sample radius
    is the right end of its interval, the next distinct distance.
    """
    best = 1.0
    wit = None  # (rank, center, distinct distances of the center)
    fam = space.ball_family
    ends, prefix = ball_ends(space), prefix_measure(space)
    for c in range(space.n):
        sd = space.dist[c, fam.order[c]]
        e = sd[ends[c]]
        samples = np.unique(np.concatenate([e, e / 2.0]))
        samples = samples[samples > 0.0]
        if samples.size == 0:
            continue
        # open-ball mass at radius r: prefix mass of points with dist < r
        lo = np.searchsorted(sd, samples, side="left")
        hi = np.searchsorted(sd, 2.0 * samples, side="left")
        ratios = prefix[c, hi - 1] / prefix[c, lo - 1]
        ratios[np.isnan(ratios)] = -np.inf
        top = float(ratios.max())
        # the rank of B(c, r): the center's distinct distances below r
        rank = int(np.cumsum(ends[c])[lo - 1][ratios == top].min())
        if top > best or (top == best and wit is not None and rank < wit[0]):
            best, wit = top, (rank, c, e)
    if wit is None:
        return best, None, None
    rank, c, e = wit
    return best, BallRef(c, rank, float(e[rank - 1])), float(e[rank])


def annular_naive(space, alpha, r_min):
    """Direct scan of the critical (x, r, delta) triples."""
    best = 0.0
    for x in range(space.n):
        dists = [float(d) for d in np.unique(space.dist[x])]
        for i in range(len(dists)):
            right = dists[i + 1] if i + 1 < len(dists) else math.inf
            if right < r_min:
                continue
            r = max(dists[i], r_min)
            ball = np.nonzero(space.dist[x] <= dists[i])[0]
            mass_ball = float(space.measure[ball].sum())
            for dprime in dists:
                if dprime <= 0.0 or dprime > dists[i]:
                    continue
                delta = 1.0 - dprime / r
                if delta <= 0.0:
                    continue
                ann = ball[space.dist[x][ball] >= dprime]
                ratio = float(space.measure[ann].sum()) / (delta ** alpha * mass_ball)
                best = max(best, ratio)
    return best


def annular_rowwise(space, alpha, r_min):
    """Annular decay as (value, center, radius, delta), every cell of every center.

    The per-center loop `space.annular_decay_constant` ran before it
    screened (interval, delta) blocks, kept verbatim: it is the bit-level
    reference for the screened scan.
    """
    best = 0.0
    wit = (None, None, None)
    for c, e, r_star, ratios in annular_tables(space, alpha, r_min):
        m = len(e) - 1
        k, j = divmod(int(ratios.argmax()), m)  # first maximum, as a row scan finds it
        if ratios[k, j] > best:
            best = float(ratios[k, j])
            wit = (c, float(r_star[k]), float(1.0 - e[j + 1] / r_star[k]))
    return best, wit[0], wit[1], wit[2]


def annular_tables(space, alpha, r_min):
    """Each center's full (interval, j) table of computed cells: (c, e, r*, table).

    Non-samples read -inf; a center with no other point is skipped. The
    table is a view of a buffer that the next center overwrites.
    """
    fam = space.ball_family
    # one set of (interval, j) buffers per call, viewed at each center's size:
    # fresh per-center temporaries made the speed depend on the allocator
    n = space.n
    bufs = (np.empty(n * n), np.empty(n * n), np.empty(n * n, dtype=bool))
    at_ends, prefix = ball_ends(space), prefix_measure(space)
    for c in range(n):
        ends = at_ends[c]
        e = space.dist[c, fam.order[c, ends]]  # distinct distances, e[0] == 0
        m = len(e) - 1
        if m == 0:
            continue
        cum = prefix[c, ends]  # mass of {d <= e[i]}
        # interval i covers r in (e[i], e[i+1]] for i < m, and (e[m], inf);
        # rows are the intervals reaching r_min, columns the j = 1..m
        i = np.arange(np.searchsorted(np.append(e[1:], np.inf), r_min), m + 1)
        r_star = np.maximum(e[i], r_min)
        deltas, ratios, bad = (b[:len(i) * m].reshape(len(i), m) for b in bufs)
        np.divide(e[None, 1:], r_star[:, None], out=deltas)
        np.subtract(1.0, deltas, out=deltas)
        # columns j > i have e[j] >= r_star, hence delta <= 0: this one test
        # masks them along with the deltas outside (0, 1)
        np.less_equal(deltas, 0.0, out=bad)
        np.subtract(cum[i, None], cum[None, :-1], out=ratios)
        with np.errstate(divide="ignore", invalid="ignore"):
            deltas **= alpha
            deltas *= cum[i, None]
            np.divide(ratios, deltas, out=ratios)
        np.copyto(ratios, -np.inf, where=bad)
        yield c, e, r_star, ratios


def annular_ratio(space, alpha, x, r, delta):
    """mu(B(x,r) minus B(x,(1-delta)r)) / (delta**alpha mu(B(x,r))) at one triple.

    The scan samples r at the left end of an interval on which the open
    ball is constant, so B(x, r) is taken as its limit from above,
    {d <= r}. The inner radius (1-delta) r is a realized distance up to
    round-off; it is snapped to that distance, which the open inner ball
    excludes.
    """
    d = space.dist[x]
    inner = d[np.abs(d - (1.0 - delta) * r).argmin()]
    ball = d <= r
    annulus = ball & (d >= inner)
    return float(space.measure[annulus].sum()
                 / (delta ** alpha * space.measure[ball].sum()))


def jones_objective_naive(space, u, q, x):
    """max of the two A_1 certificates at log v2 = x, via ball enumeration."""
    u = np.asarray(u, dtype=float)
    v2 = np.exp(np.asarray(x, dtype=float))
    v1 = u * v2 ** (q - 1.0)

    def a1(v):
        return max(_avg(space, m, v) / v[m].min() for m in balls_naive(space))

    return max(a1(v1), a1(v2))


def jones_grid_oracle(space, u, q, lo=-2.0, hi=2.0, step=0.1, refine_rounds=8):
    """Grid search over log v2 with the gauge x[0] = 0, then local refinement.

    The objective is invariant under constant shifts of log v2, so fixing
    the first coordinate loses nothing. Refinement halves the step around
    the incumbent until the grid resolves the minimum well below the
    comparison tolerances.
    """
    u = np.asarray(u, dtype=float)
    n = space.n
    members_list = balls_naive(space)
    mu = space.measure

    def batch_objective(X):
        V2 = np.exp(X)
        V1 = u[None, :] * V2 ** (q - 1.0)
        best = np.full(X.shape[0], 1.0)
        for m in members_list:
            mm = mu[m]
            mass = mm.sum()
            for V in (V1, V2):
                ratio = (V[:, m] @ mm) / mass / V[:, m].min(axis=1)
                np.maximum(best, ratio, out=best)
        return best

    axes = [np.arange(lo, hi + step / 2, step) for _ in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij") if n > 1 else []
    if n == 1:
        return float(batch_objective(np.zeros((1, 1)))[0]), np.zeros(1)
    X = np.column_stack([np.zeros(grids[0].size)]
                        + [g.ravel() for g in grids])
    vals = batch_objective(X)
    best_idx = int(vals.argmin())
    best_x, best_val = X[best_idx].copy(), float(vals[best_idx])
    h = step
    for _ in range(refine_rounds):
        h /= 2.0
        offsets = np.array(np.meshgrid(*[[-h, 0.0, h]] * (n - 1),
                                       indexing="ij")).reshape(n - 1, -1).T
        cand = np.column_stack([np.zeros(len(offsets)),
                                best_x[1:][None, :] + offsets])
        vals = batch_objective(cand)
        i = int(vals.argmin())
        if vals[i] < best_val:
            best_val, best_x = float(vals[i]), cand[i].copy()
    return best_val, best_x
