"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid root-system type/rank or sweep configuration."""


class DomainError(ValueError):
    """An argument lies outside the domain of an operation."""


class ConditionError(ValueError):
    """A closed-form evaluation was requested for a pair that fails the
    chain condition.  Carries the three labels so callers can report the
    mismatch."""

    def __init__(self, message, lambda_set=None, chain_min=None, chain_max=None):
        super().__init__(message)
        self.lambda_set = lambda_set
        self.chain_min = chain_min
        self.chain_max = chain_max


class InvariantError(RuntimeError):
    """A mathematical invariant that must always hold was found broken;
    the result cannot be trusted."""


class BudgetError(RuntimeError):
    """A sweep would exceed the configured size budget."""


class UnluckyPointError(RuntimeError):
    """A sampled spectral point hit a vanishing denominator.  Retryable:
    resample the point and try again."""
