"""Stochastic, pipeline-based image augmentation with reproducible seeding.

Compose an ordered pipeline of probability-gated, parameter-randomised
image operations, then sample as many augmented images as needed from a
source dataset; every byte of output is determined by the master seed.
"""

from .config import canonical_text, parse_config
from .dataio import (
    DatasetEntry,
    DatasetIndex,
    load_image,
    save_image,
    scan_dataset,
    split_by_class,
    output_name,
)
from .errors import (
    AugpipeError,
    ConfigError,
    DatasetError,
    DecodeError,
    GeometryError,
    OpError,
    OutputCollisionError,
    UnsupportedImageError,
)
from .geometry import CropRect, Homography, Quad, inscribed_crop_rect, shear_crop_rect, solve_homography
from .imagecore import (
    Image,
    PixelFormat,
    RngStream,
    clamp_round,
    derive_sample_rng,
    mix64,
    round_half_away,
)
from .ops import (
    CropCentre,
    CropRandom,
    Elastic,
    Equalize,
    Flip,
    Greyscale,
    Invert,
    OpApplication,
    OpSpec,
    Resize,
    Rotate,
    RotateCardinal,
    Scale,
    Shear,
    Skew,
    Zoom,
    apply_op,
)
from .pipeline import (
    CollectingSink,
    DirectorySink,
    Pipeline,
    TraceRecord,
    process,
    run_sample,
    sample,
    write_trace,
)
from .warp import AffineTransform, DisplacementGrid

__version__ = "0.1.0"
