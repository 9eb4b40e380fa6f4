"""Exception hierarchy shared across the package.

Two broad families matter to callers: ``ValidationError`` covers bad user
input (rejected configs, illegal actions, out-of-range arguments) and maps
to CLI exit code 2; ``InvariantViolation`` covers broken solver guarantees
(structures the theory says cannot occur) and maps to exit code 3.
"""

from __future__ import annotations


class DividendError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DividendError):
    """Invalid user input or arguments outside an operation's domain."""


class NegativeMass(ValidationError):
    """A probability mass is negative."""


class NotNormalized(ValidationError):
    """Probability masses do not sum to one within tolerance."""


class NoRuinRisk(ValidationError):
    """The income distribution has no mass on negative values."""


class IllegalAction(ValidationError):
    """A dividend payment outside the admissible set for the state."""


class DomainError(ValidationError):
    """Argument outside the domain or range of a utility transform."""


class CapTooSmall(ValidationError):
    """The surplus cap x_max lies below the certified barrier bound."""


class ValueUnderflow(ValidationError):
    """The value bracket at the surplus cap would underflow double precision."""


class InadmissiblePolicy(ValidationError):
    """A decision rule that fails the pay-down admissibility condition."""


class TooLarge(ValidationError):
    """Brute-force enumeration would exceed the node budget."""


class UndefinedAction(ValidationError):
    """A policy leaves a reachable state without an action."""


class PolicyUndefined(UndefinedAction):
    """A simulated path reached a state the policy does not cover."""


class ConfigParse(ValidationError):
    """A config file that cannot be parsed or has a wrong key set."""


class UnknownSubcommand(ValidationError):
    """CLI invoked with a subcommand it does not define."""


class InvariantViolation(DividendError):
    """A mathematical guarantee of the solver failed; indicates a bug."""


class NotABand(InvariantViolation):
    """An extracted decision rule is not a band function."""


class BarrierViolation(InvariantViolation):
    """A zero-payment state above the certified barrier bound."""


class MaxIterations(InvariantViolation):
    """Policy or value iteration hit its iteration cap before converging."""

    def __init__(self, iterations: int, gap: float):
        self.iterations = iterations
        self.gap = gap
        super().__init__(
            f"no convergence after {iterations} iterations (gap {gap:.3e})"
        )
