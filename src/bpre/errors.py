"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so estimator code should raise
the most specific class that applies.
"""


class BpreError(Exception):
    """Base class for all package errors."""


class ValidationError(BpreError):
    """Bad input: violated precondition, malformed config, unknown name.

    ``field`` names the offending config field or argument when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.message = message
        super().__init__(message if field is None else f"{field}: {message}")


class NotSubcriticalError(ValidationError):
    """Model has nonnegative mean log offspring mean; the subcritical
    machinery does not apply."""

    def __init__(self, e_log_m: float):
        self.e_log_m = e_log_m
        super().__init__(f"model is not subcritical: E[log m] = {e_log_m:.6g} >= 0")


class NonLatticeError(ValidationError):
    """Log offspring means do not lie on a common lattice, so the exact
    dynamic-programming oracle is unavailable."""


class DegenerateTiltError(ValidationError):
    """Requested tilted importance sampling would have exponentially
    degenerate weights (tilted walk not centered at a boundary tilt)."""


class ConditioningStarvationError(BpreError):
    """Too few effective conditioning events survived even after replicate
    escalation; the conditional estimate would be meaningless."""

    def __init__(self, effective: float, required: float):
        self.effective = effective
        self.required = required
        super().__init__(
            f"conditioning starved: effective surviving events {effective:.1f} "
            f"< required {required:g}"
        )


class UnderflowError(BpreError):
    """A Monte Carlo estimate came out exactly 0.0 although some replicate's
    probability is positive: it underflowed in linear scale and would be
    silently wrong."""


class PopulationCapError(BpreError):
    """A simulated population exceeded the configured cap."""

    def __init__(self, cap: int, generation: int):
        self.cap = cap
        self.generation = generation
        super().__init__(f"population exceeded cap {cap} at generation {generation}")


class CrossCheckError(BpreError):
    """Two independent computations of the same quantity disagree beyond
    tolerance. Indicates a bug, not bad input."""
