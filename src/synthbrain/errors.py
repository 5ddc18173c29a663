"""Exception types shared across the package."""


class SynthBrainError(Exception):
    """Base class for all synthbrain errors."""


class GeometryMismatch(SynthBrainError):
    """Operands do not live on compatible voxel grids."""


class DegenerateGrid(SynthBrainError):
    """Grid too small (or otherwise degenerate) for the requested operation."""


class EmptyMask(SynthBrainError):
    """A mask selected zero voxels."""


class BadMagic(SynthBrainError):
    """NIfTI magic string is not the single-file 'n+1' form."""


class UnsupportedDatatype(SynthBrainError):
    """NIfTI datatype code outside the supported {uint8, int16, float32} set."""


class UnsupportedDimension(SynthBrainError):
    """NIfTI dim[] layout outside the supported 3D scalar / 5D vector subset."""


class TruncatedData(SynthBrainError):
    """Byte stream ends before the declared data does."""


class NonPositivePixdim(SynthBrainError):
    """NIfTI pixdim holds a zero, negative or non-finite spacing."""


class NonFiniteField(SynthBrainError):
    """A velocity or displacement field contains NaN or Inf."""


class NotInvertible(SynthBrainError):
    """Fixed-point inversion met a field that reverses orientation, left the
    grid, or did not converge below one voxel."""


class MissingLabelParams(SynthBrainError):
    """Contrast parameters missing for labels present in the map."""

    def __init__(self, labels):
        self.labels = tuple(int(lab) for lab in labels)
        super().__init__(f"no contrast parameters for labels {list(self.labels)}")


class EmptyLabelSet(SynthBrainError):
    """A label map contains no foreground labels."""


class ChannelMismatch(SynthBrainError):
    """Channel counts of feature stacks do not agree."""


class TooSmallForScales(SynthBrainError):
    """Volume too small for the requested multi-scale decomposition."""


class ZeroEstimate(SynthBrainError):
    """Estimated bias field is identically zero on the evaluation mask."""


class SingularSystem(SynthBrainError):
    """Normal equations are rank-deficient and no ridge term was given."""


class NotASimplex(SynthBrainError):
    """Per-voxel probabilities do not form a simplex."""


class NonPositiveLambda(SynthBrainError):
    """Loss weight must be strictly positive."""
