"""Exception types shared across the toolkit."""


class WeightlabError(Exception):
    """Base class for all toolkit errors."""


class SpaceValidationError(WeightlabError):
    """A candidate space violates a metric-measure invariant."""


class AsymmetricDistance(SpaceValidationError):
    pass


class ZeroDistanceDistinctPoints(SpaceValidationError):
    pass


class TriangleViolation(SpaceValidationError):
    """Triangle inequality fails beyond tolerance; carries the worst triple."""

    def __init__(self, i: int, j: int, k: int, excess: float):
        self.triple = (i, j, k)
        self.excess = excess
        super().__init__(
            f"dist({i},{k}) exceeds dist({i},{j}) + dist({j},{k}) by {excess:.3e}"
        )


class NonpositiveMeasure(SpaceValidationError):
    pass


class NonpositiveWeight(WeightlabError):
    """An operation requiring a (strictly) positive weight got a bad entry."""


class InvalidFunction(WeightlabError, ValueError):
    """A function argument has the wrong shape or a non-finite entry."""


class EmptyRadiusRange(WeightlabError):
    """No admissible radius sample at or above the requested cutoff."""


class InvalidParams(WeightlabError):
    """Generator or run parameters outside the supported range."""


class ParseError(WeightlabError):
    """A space document could not be decoded; carries field diagnostics."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class InconsistentPair(WeightlabError):
    """A factor pair whose derived fields do not match its base fields."""
