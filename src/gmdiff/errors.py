"""Exception hierarchy shared across the package."""


class GmdiffError(Exception):
    """Base class for all errors raised by this package."""


# --- mixture validation ---

class EmptyMixture(GmdiffError):
    pass


class DimensionMismatch(GmdiffError):
    pass


class NonSymmetricCovariance(GmdiffError):
    pass


class NotPositiveDefinite(GmdiffError):
    pass


class WeightsDoNotSumToOne(GmdiffError):
    pass


class NonFiniteParameter(GmdiffError):
    pass


class MalformedSpec(GmdiffError):
    """A spec, or a field of one, that is not numbers in the expected shape."""


# --- forward process ---

class NegativeTime(GmdiffError):
    pass


class ZeroScale(GmdiffError):
    pass


# --- bounds ---

class ParamsOutOfRange(GmdiffError):
    pass


class TooFewSamples(GmdiffError):
    pass


# --- schedules ---

class InvalidHorizon(GmdiffError):
    pass


class DeltaExceedsHorizon(GmdiffError):
    pass


class StepBudgetViolated(GmdiffError):
    """Raised when the decay-schedule step budget c exceeds 1/(K*d).

    Carries ``min_steps``, the smallest step count that restores the
    constraint for the same horizon and Lipschitz constant.
    """

    def __init__(self, message: str, min_steps: int):
        super().__init__(message)
        self.min_steps = min_steps


# --- solvers ---

class NegativeEpsilon(GmdiffError):
    pass


class NonFiniteState(GmdiffError):
    """Raised when a sampler chain diverges; carries the failing step index,
    the forward time of the failing state and the first bad chain."""

    def __init__(self, message: str, step_index: int, t_forward: float, chain: int):
        super().__init__(message)
        self.step_index = step_index
        self.t_forward = t_forward
        self.chain = chain


# --- metrics ---

class DimensionTooHigh(GmdiffError):
    pass


class EmptyBatch(GmdiffError):
    pass


class NoPointsInRegion(GmdiffError):
    pass
