"""Contrast-agnostic synthetic brain imaging: generation, corruption, evaluation.

The pipeline starts from an anatomical label map, deforms it, paints a
random contrast on the labeled regions, and degrades the result (bias
field, resolution, noise) at a chosen severity. Alongside the generator
live the evaluation pieces: NIfTI-1 I/O, similarity metrics, the
feature-robustness protocol, and closed-form one-layer task adapters.
"""

from .adaptation import (
    LinearAdapter,
    adapter_from_json,
    adapter_to_json,
    apply_adapter,
    fit_adapter,
    fit_residual,
    l2_loss,
    load_adapter,
    save_adapter,
    soft_dice_ce_loss,
)
from .corruption import (
    SEVERITY_LEVELS,
    CorruptionRecord,
    SeverityConfig,
    apply_corruption,
    corrupt,
    sample_corruption_record,
)
from .deformation import (
    SVF,
    AffineParams,
    DeformationConfig,
    DeformationField,
    affine_to_field,
    build_deformation,
    compose,
    identity_field,
    integrate_svf,
    invert,
    sample_affine,
    sample_svf,
    warp_labels,
    warp_stack,
    warp_volume,
)
from .errors import (
    BadMagic,
    ChannelMismatch,
    DegenerateGrid,
    EmptyLabelSet,
    EmptyMask,
    GeometryMismatch,
    MissingLabelParams,
    NonFiniteField,
    NonPositiveLambda,
    NonPositivePixdim,
    NotASimplex,
    NotInvertible,
    SingularSystem,
    SynthBrainError,
    TooSmallForScales,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDimension,
    ZeroEstimate,
)
from .generator import (
    Sample,
    SampleBatch,
    SubjectRecord,
    batch_loss,
    generate_batch,
    severity_ladder,
    write_batch,
)
from .metrics import (
    DiceScores,
    MetricReport,
    dice,
    interior_mask,
    l1,
    ms_ssim,
    norm_l2_bias,
    psnr,
    robustness_protocol,
    ssim,
)
from .nifti import (
    NiftiHeader,
    StackReader,
    read_header,
    read_nifti,
    read_nifti_file,
    read_volume_stack,
    read_volume_stack_file,
    write_nifti,
    write_nifti_file,
)
from .seeding import derive_seed, make_rng
from .synthesis import ContrastParams, paint, sample_contrast_params
from .volume import (
    LabelMap,
    Volume,
    VolumeStack,
    minmax_normalize,
    same_geometry,
    spatial_gradient,
)

__version__ = "0.1.0"
