"""Exception types shared across the package."""


class FockmetError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(FockmetError):
    """State construction left more than the allowed mass above the cutoff."""


class InteriorAccuracyError(FockmetError):
    """An operation needed more headroom than the Hilbert spec provides."""


class FilterStarvationError(FockmetError):
    """A post-selected filter branch retained essentially zero probability."""


class ModelBreakdownError(FockmetError):
    """A perturbative model was evaluated outside its validity domain."""


class SubstepLimitError(FockmetError):
    """A Lindblad generator needs more Taylor substeps than the propagator allows."""


class AllocationLimitError(FockmetError):
    """An operator assembly would allocate more entries than its stated ceiling."""


class ConfigError(FockmetError):
    """Run configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
