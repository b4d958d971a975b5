"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3.  Everything else is a plain bug.
"""


class SwakitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigError(SwakitError):
    """Invalid configuration value, malformed config file, or bad input file."""


class TraceParseError(ConfigError):
    """A trace CSV failed validation; the message names the file and the row."""


class DistributionError(ConfigError):
    """A distribution was constructed or deserialized with invalid parameters."""


class GeneratorValidationError(DistributionError):
    """A phase-type generator matrix violates the structural constraints.

    ``violations`` lists human-readable descriptions, one per offending
    entry, each naming the (row, col) coordinate.
    """

    def __init__(self, violations):
        super().__init__("invalid generator: " + "; ".join(violations))
        self.violations = list(violations)


class NoSolutionError(SwakitError):
    """A parameter search exhausted its range without meeting the target."""


class InstabilityError(SwakitError):
    """Offered load meets or exceeds capacity in a model that requires rho < 1.

    ``suggested_servers`` is the smallest server count that would make the
    system stable at the given rates.
    """

    def __init__(self, message, suggested_servers=None):
        super().__init__(message)
        self.suggested_servers = suggested_servers


class StateSpaceError(SwakitError):
    """The Markov-chain state space is too large for a direct solve."""


class NumericalError(SwakitError):
    """A numerical routine failed (singular system, non-convergence, ...)."""
