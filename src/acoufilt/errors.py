"""Exception hierarchy shared across the toolkit."""


class AcoufiltError(Exception):
    """Base class for all toolkit errors."""


class DomainError(AcoufiltError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InfeasibleCouplingError(DomainError):
    """Requested electromechanical coupling exceeds the model's upper bound."""


class SearchError(AcoufiltError):
    """An extremum search failed to bracket an interior optimum."""


class GridAlignmentError(AcoufiltError):
    """Two-port blocks on different frequency grids were combined."""


class SingularConversionError(AcoufiltError):
    """ABCD to S conversion hit a singular denominator."""

    def __init__(self, frequency_hz: float):
        self.frequency_hz = frequency_hz
        super().__init__(f"singular ABCD->S conversion at {frequency_hz:g} Hz")


class BandEdgeError(AcoufiltError):
    """A dB crossing required for a bandwidth metric is not bracketed."""

    def __init__(self, side: str, level_db: float):
        self.side = side
        self.level_db = level_db
        super().__init__(
            f"{level_db:g} dB crossing not bracketed on the {side} side of the passband"
        )


class DegeneratePassbandError(AcoufiltError):
    """The transmission magnitude has no interior maximum."""


class StopbandError(AcoufiltError):
    """No grid points fall inside the out-of-band evaluation region."""


class StructureError(AcoufiltError):
    """An admittance curve lacks the resonance structure needed for a guess."""


class FormatError(AcoufiltError):
    """Malformed text input (Touchstone or design file)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
