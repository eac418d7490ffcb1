"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's domain (negative index, nonpositive argument, ...)."""


class HypothesisViolationError(ValueError):
    """Arguments do not satisfy the hypothesis a checker assumes."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget and was abandoned."""


class RhoBudgetError(ResourceLimitError):
    """A factorization spent its rho steps and ECM curves without splitting a composite.

    Each composite goes through one chain of divisors, rho and then ECM
    among them, and this is raised once the composites left have been
    through it with the budgets spent. `whole` is the number whose
    factorization was abandoned and `stuck` the product of the composite
    divisors of it that could not be split.
    """

    def __init__(self, whole: int, stuck: int):
        super().__init__(whole, stuck)
        self.whole = whole
        self.stuck = stuck

    def __str__(self) -> str:
        return f"rho budget exhausted factoring {self.whole} (stuck on {self.stuck})"
