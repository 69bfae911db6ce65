"""Exception hierarchy.

Exit-code mapping used by the CLI:
  2 -> configuration / invalid input
  3 -> numerical guard tripped (degeneracy, saturation, overflow, step failure)
  4 -> reconstruction failure (rows, phases, post-selection)
"""


class SvdFlowError(Exception):
    exit_code = 1

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(SvdFlowError):
    exit_code = 2


class InvalidInputError(ConfigError):
    """Malformed or non-finite input to a numerical operation."""


class InvalidGateError(InvalidInputError):
    """Matrix handed to the emulator is not unitary."""


class NumericalGuardError(SvdFlowError):
    exit_code = 3


class DegenerateSingularValuesError(NumericalGuardError):
    """Singular values too close for the factor-flow generators to be well-scaled."""


class SigmaSaturationError(NumericalGuardError):
    """A rescaled singular value approached 1, blowing up the phase generator."""


class StepFailureError(NumericalGuardError):
    """Cayley resolvent (I - h/2 S) is singular; the caller may shrink h."""


class OverflowGuardError(NumericalGuardError):
    """Integration produced non-finite values."""


class ProjectionUndefinedError(NumericalGuardError):
    """Nearest-orthogonal projection of a rank-deficient matrix."""


class ReconstructionError(SvdFlowError):
    exit_code = 4


class RowReconstructionError(ReconstructionError):
    """Sampled row magnitudes unusable (all-zero counts)."""


class PhaseReconstructionError(ReconstructionError):
    """Interferometric contrast too low to recover a relative phase."""


class PostSelectionStarvedError(ReconstructionError):
    """No shots survived ancilla post-selection."""

