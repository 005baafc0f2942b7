"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 2, data problems 3,
numeric failures 4, calibration failures 5.
"""

from __future__ import annotations


class UsageError(ValueError):
    """A caller violated a documented precondition (bad argument, bad combo)."""


class ShapeError(UsageError):
    """Array dimensions do not line up."""


class IngestionError(ValueError):
    """Input data could not be parsed or failed validation."""


class FitError(IngestionError):
    """Statistics needed for preprocessing cannot be computed (e.g. constant column)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class TrainingDiverged(NumericError):
    """Training objective or parameters left the finite, bounded regime.

    Carries where: ``step`` within ``phase`` (both counted from 1), and
    ``epsilon``, the privacy spent on the releases made up to that step;
    ``training.train`` fills in the last two."""

    def __init__(self, reason: str, step: int, phase: int | None = None, epsilon: float | None = None):
        super().__init__(reason, step, phase, epsilon)
        self.reason, self.step, self.phase, self.epsilon = reason, step, phase, epsilon

    def __str__(self) -> str:
        where = f" of phase {self.phase}" if self.phase is not None else ""
        spent = f"; epsilon spent so far {self.epsilon:g}" if self.epsilon is not None else ""
        return f"{self.reason} at step {self.step}{where}{spent}"


class MetricError(NumericError):
    """A metric is undefined for the given inputs (e.g. degenerate bandwidth)."""


class CalibrationError(RuntimeError):
    """Noise calibration could not reach the target privacy budget."""
