"""Stochastic, pipeline-based image augmentation with reproducible seeding.

Compose an ordered pipeline of probability-gated, parameter-randomised
image operations, then sample as many augmented images as needed from a
source dataset; every byte of output is determined by the master seed.
"""

from .config import *
from .dataio import *
from .errors import *
from .geometry import *
from .imagecore import *
from .ops import *
from .pipeline import *
from .warp import *

__version__ = "0.1.0"
