"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's domain (negative index, nonpositive argument, ...)."""


class HypothesisViolationError(ValueError):
    """Arguments do not satisfy the hypothesis a checker assumes."""


class ParameterMismatchError(ValueError):
    """Operands were built over different defining coefficients."""


class DegenerateDiscriminantError(ValueError):
    """Repeated characteristic root where two distinct roots are required."""


class NondegenerateDiscriminantError(ValueError):
    """Distinct characteristic roots where a repeated root is required."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget and was abandoned."""


class RhoBudgetError(ResourceLimitError):
    """Pollard rho spent its step budget without splitting a composite.

    On the primitive part of F_n, ECM runs after rho and this is raised once
    ECM has spent its curves as well. `whole` is the number whose
    factorization was abandoned and `stuck` the composite divisor of it that
    could not be split.
    """

    def __init__(self, whole: int, stuck: int):
        super().__init__(whole, stuck)
        self.whole = whole
        self.stuck = stuck

    def __str__(self) -> str:
        return f"rho budget exhausted factoring {self.whole} (stuck on {self.stuck})"
