"""Exception hierarchy shared across the package."""


class SteinbreakError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPartition(SteinbreakError):
    """Break times are out of range, non-increasing, or leave an empty segment."""


class SegmentRankDeficient(SteinbreakError):
    """A segment's rows are numerically rank deficient.

    ``segments`` lists the 0-based half-open ``(start, end)`` ranges of
    every segment that failed, when the raiser tested the segments of one
    partition; it is empty otherwise.
    """

    def __init__(self, message: str = "", segments: tuple[tuple[int, int], ...] = ()):
        self.segments = tuple(segments)
        super().__init__(message)


class DimensionMismatch(SteinbreakError):
    """Array shapes are inconsistent with the model dimensions."""


class RestrictionRankDeficient(SteinbreakError):
    """The restriction matrix does not have full row rank."""


class InfeasibleConfig(SteinbreakError):
    """No partition satisfies the requested break count and minimum segment length."""


class BudgetExceeded(SteinbreakError):
    """Exhaustive search aborted because the partition count exceeds the budget."""

    def __init__(self, partition_count: int, budget: int):
        self.partition_count = partition_count
        self.budget = budget
        super().__init__(
            f"exhaustive search over {partition_count} partitions exceeds budget {budget}"
        )


class SingularConstraintGram(SteinbreakError):
    """The constrained least-squares problem is singular, or its solve misses
    the constraint; the constraint cannot be imposed."""


class KTooSmall(SteinbreakError):
    """The restriction rank is too small for a Stein-type rule (needs k > 2)."""


class MismatchedPartitions(SteinbreakError):
    """Estimates being combined were fitted on different partitions."""


class DivergentMoment(SteinbreakError):
    """The requested inverse moment does not exist for this degrees of freedom."""


class NonConvergence(SteinbreakError):
    """An iterative computation hit its iteration cap before reaching tolerance."""


class SingularFactorization(SteinbreakError):
    """A covariance factorization failed (matrix not positive semidefinite)."""


class ConfigError(SteinbreakError):
    """A run configuration is malformed (unknown keys, missing or invalid values)."""
