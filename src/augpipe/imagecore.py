"""Image buffers and the deterministic random streams that drive sampling.

Two contracts everything downstream relies on are fixed here. Images are
immutable 8-bit rasters whose pixel (i, j) covers the unit square
[i, i+1) x [j, j+1), so its center sits at (i + 0.5, j + 0.5) and the
continuous domain of a w x h image is [0, w] x [0, h]. Randomness comes
from explicit single-owner streams derived from (master seed, sample
index), so any sample can be regenerated in isolation and results do not
depend on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Image",
    "RngStream",
    "derive_sample_rng",
    "mix64",
    "clamp_round_array",
    "round_half_away",
]

# The largest image, in pixels, that augpipe holds (8192 x 8192). A
# decode, an op's output and a contact sheet over it are each refused
# from their size, before their pixels are allocated.
_MAX_PIXELS = 1 << 26

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64


@dataclass(frozen=True, eq=False)
class Image:
    """Immutable raster: row-major, channel-interleaved uint8 pixels.

    The image is its pixel array, of shape (height, width, channels) and
    marked read-only, so instances can be shared freely across threads
    and cached without defensive copies. Its size is read off that
    shape, and so is its format: 1 channel is grey, 3 RGB, 4 RGBA.
    """

    pixels: np.ndarray

    def __post_init__(self):
        shape = self.pixels.shape
        if (self.pixels.dtype != np.uint8 or len(shape) != 3 or shape[0] < 1 or shape[1] < 1
                or shape[2] not in (1, 3, 4)):
            raise ValueError(
                f"pixel buffer {shape}/{self.pixels.dtype} is not (height >= 1, width >= 1, "
                f"1, 3 or 4 channels)/uint8"
            )

    def __setstate__(self, state):
        # Unpickled arrays are writable; an image from another process is
        # as immutable as one made here.
        state["pixels"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """Build an image from an array of whole numbers in [0, 255], copying
        it (the copy is then frozen).

        Accepts (h, w) for single-channel data or (h, w, channels).
        """
        arr = np.asarray(arr)
        if arr.dtype != np.uint8 and not np.all((arr >= 0) & (arr <= 255) & (arr == np.floor(arr))):
            raise ValueError("pixel values must be whole numbers from 0 to 255")
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        return cls._wrap(arr.astype(np.uint8, order="C"))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Image":
        """The image of arr, (h, w, channels) uint8. Takes ownership: keep
        no writable reference to arr."""
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.flags.writeable = False
        return cls(arr)


def round_half_away(value: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if value >= 0:
        return int(math.floor(value + 0.5))
    return int(math.ceil(value - 0.5))


def clamp_round_array(values: np.ndarray) -> np.ndarray:
    """Quantise real channel values: round half away from zero, then clamp
    to [0, 255]; returns uint8.

    Works in place: a float64 array argument is overwritten. Negative
    values clamp to 0 whichever way they round, so floor(v + 0.5) agrees
    with rounding halves away from zero on everything the clamp keeps.
    """
    values = np.asarray(values, dtype=np.float64)
    values += 0.5
    np.floor(values, out=values)
    np.maximum(values, 0.0, out=values)
    np.minimum(values, 255.0, out=values)
    return values.astype(np.uint8)


def mix64(z: int) -> int:
    """Avalanching 64-bit finalizer (splitmix64 style).

    The single hash behind all seed derivation; a one-bit change in the
    input flips about half the output bits.
    """
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Deterministic 64-bit generator (xoshiro256**, splitmix64-seeded).

    Identical seeds give bit-identical draw sequences across runs and
    process restarts. A stream is single-owner: never share one between
    samples or threads; derive one stream per unit of work instead.

    Each uniform_* call counts as one logical draw for ordering purposes,
    even when rejection sampling consumes several raw words internally.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        acc = seed & _MASK64
        words = []
        for _ in range(4):
            acc = (acc + _GOLDEN) & _MASK64
            words.append(mix64(acc))
        if not any(words):
            words[0] = _GOLDEN
        self._s0, self._s1, self._s2, self._s3 = words

    def next_word(self) -> int:
        """Next raw 64-bit output word."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def unit_real(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_word() >> 11) * 1.1102230246251565e-16  # 2**-53

    def uniform_real(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        return lo + self.unit_real() * (hi - lo)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Rejection sampling on raw words, so every value is equally likely
        (no modulo bias).
        """
        n = hi - lo + 1
        if n < 1:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        if n > _TWO64:
            raise ValueError(f"range [{lo}, {hi}] holds more than 2**64 integers")
        limit = (_TWO64 // n) * n
        w = self.next_word()
        while w >= limit:
            w = self.next_word()
        return lo + (w % n)

    def choice(self, options):
        """One of options, uniformly: options[uniform_int(0, len - 1)]."""
        return options[self.uniform_int(0, len(options) - 1)]


def derive_sample_rng(master_seed: int, sample_index: int) -> RngStream:
    """Independent stream for one sample, keyed by (master seed, index).

    The stream seed is output number ``sample_index`` of a splitmix64
    sequence started at ``master_seed``, so streams for distinct indices
    are statistically independent and the same pair always reproduces the
    identical stream regardless of evaluation order or worker count.
    """
    if sample_index < 0:
        raise ValueError(f"sample_index must be >= 0, got {sample_index}")
    seed = mix64((master_seed + (sample_index + 1) * _GOLDEN) & _MASK64)
    return RngStream(seed)
