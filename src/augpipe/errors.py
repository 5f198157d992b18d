"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "AugpipeError",
    "ConfigError",
    "GeometryError",
    "OpError",
    "DecodeError",
    "UnsupportedImageError",
    "DatasetError",
    "OutputCollisionError",
    "WorkerLostError",
]


class AugpipeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(AugpipeError):
    """Invalid configuration or operation parameters.

    ``field`` names the offending field when it is known, so front ends
    can point the user at the exact key.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class GeometryError(AugpipeError):
    """Domain error in a geometric computation (angle out of range,
    degenerate quad, horizon crossing the image, collapsed crop)."""


class OpError(AugpipeError):
    """An augmentation kernel failed at apply time.

    ``OpSpec.apply_batch`` raises every kernel failure as one, with
    ``op_kind`` the op's kind and ``drawn`` the dict of values the op
    drew when a single image failed (None for a group). ``Elastic.draw``
    refuses before drawing, so it sets only ``op_kind``. A pipeline run
    sets ``op_index``, the index of the failing operation.
    """

    def __init__(
        self,
        message: str,
        op_kind: str | None = None,
        drawn: dict | None = None,
        op_index: int | None = None,
    ):
        super().__init__(message)
        self.op_kind = op_kind
        self.drawn = drawn
        self.op_index = op_index


class DecodeError(AugpipeError):
    """Corrupt or truncated image file."""


class UnsupportedImageError(AugpipeError):
    """Image file uses a feature outside the supported subset
    (bit depth, interlacing, colour type, codec)."""


class DatasetError(AugpipeError):
    """Dataset directory is missing, unreadable, or contains no images."""


class OutputCollisionError(AugpipeError):
    """An output file already exists and overwriting was not requested."""


class WorkerLostError(AugpipeError):
    """A pool worker process ended before it returned a chunk's records,
    killed by a signal or the OOM killer, say."""
