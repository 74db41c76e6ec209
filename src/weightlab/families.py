"""Seeded sampling of spaces and weights for the randomized suites."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .space import GENERATOR_KINDS, FiniteMetricMeasureSpace, generate

SPACE_KINDS = GENERATOR_KINDS
WEIGHT_FAMILIES = ("power-law", "exp-bmo", "uniform-log")


def sample_space(rng: np.random.Generator, max_n: int,
                 kind: str | None = None) -> FiniteMetricMeasureSpace:
    """Draw a space of at most max_n >= 2 points from the generator families."""
    if max_n < 2:
        raise InvalidParams(f"sample_space needs max_n >= 2, got {max_n}")
    kind = kind or str(rng.choice(SPACE_KINDS))
    seed = int(rng.integers(0, 2**31))
    measure = str(rng.choice(["uniform", "random"]))
    if kind == "snowflake":
        base = sample_space(rng, max_n, str(rng.choice(SPACE_KINDS[:-1])))
        eps = float(rng.uniform(0.3, 1.0))
        return generate("snowflake", {"base": base, "eps": eps}, seed)
    if kind == "grid":
        nx = int(rng.integers(2, max(int(np.sqrt(max_n)), 2) + 1))
        ny = int(rng.integers(1, max(max_n // nx, 1) + 1))
        metric = str(rng.choice(["linf", "euclidean", "l1"]))
        return generate("grid", {"nx": nx, "ny": ny, "metric": metric,
                                 "measure": measure}, seed)
    n = int(rng.integers(2, max_n + 1))
    if kind == "path":
        return generate("path", {"n": n, "measure": measure}, seed)
    if kind == "tree":
        return generate("tree", {"n": n, "measure": measure}, seed)
    dim = int(rng.integers(1, 4))
    return generate("random-points", {"n": n, "dim": dim, "measure": measure}, seed)


def sample_weight(rng: np.random.Generator, space: FiniteMetricMeasureSpace,
                  family: str | None = None) -> np.ndarray:
    """Draw a strictly positive weight with moderate dynamic range."""
    family = family or str(rng.choice(WEIGHT_FAMILIES))
    n = space.n
    if family == "power-law":
        anchor = int(rng.integers(0, n))
        row = space.dist[anchor]
        positive = row[row > 0.0]
        floor = float(positive.min()) if positive.size else 1.0
        a = float(rng.uniform(-1.5, 1.5))
        return np.power(row + floor, a)
    if family == "exp-bmo":
        return np.exp(rng.uniform(-1.0, 1.0, size=n))
    if family == "uniform-log":
        return np.exp(rng.uniform(-1.5, 1.5, size=n))
    raise InvalidParams(f"unknown weight family {family!r}")


def sample_instance(rng: np.random.Generator, max_n: int):
    """One suite instance: a space and two named weights (w, phi)."""
    space = sample_space(rng, max_n)
    return space, {"w": sample_weight(rng, space),
                   "phi": sample_weight(rng, space)}
