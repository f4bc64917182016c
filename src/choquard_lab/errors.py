"""Exception hierarchy shared by all modules."""


class ChoquardLabError(Exception):
    """Base class for all library errors."""


class InvalidConfiguration(ChoquardLabError):
    """Grid or run configuration violates a precondition."""


class IncompatibleGrid(ChoquardLabError):
    """Fields/tables attached to different grids were combined."""


class InvalidParameter(ChoquardLabError):
    """Exponent or coupling outside its admissible range."""


class NoProjection(ChoquardLabError):
    """Nehari projection undefined (all nonlinear terms vanish)."""


class UndefinedDefect(ChoquardLabError):
    """Stationarity defects requested for the zero field."""


class ShootingFailure(ChoquardLabError):
    """No bisection bracket found for the shooting parameter."""


class ResolutionError(ChoquardLabError):
    """Grid does not resolve the scales of a requested profile."""


class RescaleInconsistency(ChoquardLabError):
    """Rescaled candidate fails its PDE residual check."""


class BracketFailure(ChoquardLabError):
    """Threshold scan's upper coupling does not attain; `scan_table` holds its solve."""

    def __init__(self, message, scan_table=None):
        super().__init__(message)
        self.scan_table = scan_table
