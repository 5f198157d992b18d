"""Closed-form geometry behind fill-free warps.

Rotation and shear kernels avoid blank borders by cropping to the largest
usable rectangle before resizing back; the formulas for those rectangles
live here, next to the 4-point homography solver used by perspective
tilts. Everything is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = [
    "CropRect",
    "Quad",
    "Homography",
    "inscribed_crop_rect",
    "shear_crop_rect",
    "solve_homography",
]

# Grace for float noise when snapping analytically exact values to the
# pixel grid (e.g. tan(a)*H that is mathematically an integer).
_SNAP = 1e-9


@dataclass(frozen=True)
class CropRect:
    """Axis-aligned crop: top-left offset (x, y) and extent (w, h) in pixels.

    Offsets may be fractional when the rect feeds a composed warp (exact
    centring matters there); pixel-copy crops require integral offsets.
    """

    x: float
    y: float
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise GeometryError(f"crop extent must be >= 1, got {self.w}x{self.h}")


@dataclass(frozen=True)
class Quad:
    """Four corners in order top-left, top-right, bottom-right, bottom-left."""

    corners: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.corners) != 4:
            raise ValueError("a quad has exactly four corners")

    @classmethod
    def from_rect(cls, width: float, height: float) -> "Quad":
        return cls(((0.0, 0.0), (width, 0.0), (width, height), (0.0, height)))


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 projective map with m[2][2] normalised to 1.

    Maps (x, y) to ((m00 x + m01 y + m02) / d, (m10 x + m11 y + m12) / d)
    with d = m20 x + m21 y + 1.
    """

    m: np.ndarray

    def __post_init__(self):
        if self.m.shape != (3, 3):
            raise ValueError(f"homography matrix must be 3x3, got {self.m.shape}")


def inscribed_crop_rect(width: int, height: int, theta_deg: float) -> CropRect:
    """Largest same-aspect, centred, axis-aligned rect inside a rotated image.

    For a width x height image rotated by theta about its center, returns
    the maximal rectangle with aspect ratio width:height that contains no
    out-of-source pixels, positioned inside the rotated bounding box of
    size (ceil(W c + H s), ceil(W s + H c)). Extents are floored so the
    rect stays strictly inside after rasterisation; the offset keeps it
    exactly centred and may be fractional.

    Raises GeometryError for |theta| > 45 or when the maximal rect
    collapses below one pixel (extreme aspect ratio at a steep angle).
    """
    if abs(theta_deg) > 45:
        raise GeometryError(f"rotation angle must satisfy |theta| <= 45, got {theta_deg}")
    rad = math.radians(abs(theta_deg))
    s, c = math.sin(rad), math.cos(rad)
    bound_w = width * c + height * s
    bound_h = width * s + height * c
    k = min(width / bound_w, height / bound_h)
    w = int(math.floor(k * width + _SNAP))
    h = int(math.floor(k * height + _SNAP))
    if w < 1 or h < 1:
        raise GeometryError(
            f"rotation by {theta_deg} deg leaves no usable crop in a {width}x{height} image"
        )
    bw = int(math.ceil(bound_w - _SNAP))
    bh = int(math.ceil(bound_h - _SNAP))
    return CropRect((bw - w) / 2, (bh - h) / 2, w, h)


def shear_crop_rect(width: int, height: int, axis: str, t: float) -> CropRect:
    """Maximal axis-aligned rect covered by a sheared image.

    ``t`` is the shear factor (tan of the shear angle). An x-shear maps
    (x, y) to (x + t y, y); the full-height strip that survives is
    x in [t H, W] for t > 0, mirrored for t < 0. The y case is the
    transpose. Offsets are ceiled and extents floored so the integer rect
    never leaves the covered region.

    Raises GeometryError when the shear consumes the whole image
    (|t| H >= W for axis x, |t| W >= H for axis y, or nothing full-sized
    survives rounding).
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if axis == "x":
        span = abs(t) * height
        if span >= width:
            raise GeometryError(f"shear exceeds image extent: |t|*H = {span} >= W = {width}")
        w = int(math.floor(width - span + _SNAP))
        if w < 1:
            raise GeometryError("shear exceeds image extent: no full-height strip survives")
        x0 = int(math.ceil(span - _SNAP)) if t > 0 else 0
        return CropRect(x0, 0, w, height)
    span = abs(t) * width
    if span >= height:
        raise GeometryError(f"shear exceeds image extent: |t|*W = {span} >= H = {height}")
    h = int(math.floor(height - span + _SNAP))
    if h < 1:
        raise GeometryError("shear exceeds image extent: no full-width strip survives")
    y0 = int(math.ceil(span - _SNAP)) if t > 0 else 0
    return CropRect(0, y0, width, h)


def solve_homography(src: Quad, dst: Quad) -> Homography:
    """Homography H with H(dst_i) = src_i for all four corner pairs.

    Note the direction: destination to source, ready for inverse-mapping
    warps. Solved as the standard 8x8 linear system by Gaussian
    elimination with partial pivoting; corner residuals are below 1e-9 px
    for non-degenerate quads.
    """
    a = np.zeros((8, 8), dtype=np.float64)
    b = np.zeros(8, dtype=np.float64)
    for i in range(4):
        dx, dy = dst.corners[i]
        sx, sy = src.corners[i]
        a[2 * i] = (dx, dy, 1.0, 0.0, 0.0, 0.0, -dx * sx, -dy * sx)
        b[2 * i] = sx
        a[2 * i + 1] = (0.0, 0.0, 0.0, dx, dy, 1.0, -dx * sy, -dy * sy)
        b[2 * i + 1] = sy
    h = _solve_linear(a, b)
    m = np.array(
        [
            [h[0], h[1], h[2]],
            [h[3], h[4], h[5]],
            [h[6], h[7], 1.0],
        ],
        dtype=np.float64,
    )
    return Homography(m)


def _solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting; raises on tiny pivots."""
    n = a.shape[0]
    a = a.copy()
    b = b.copy()
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < 1e-12:
            raise GeometryError("degenerate quad: homography system is singular")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        inv = 1.0 / a[col, col]
        for row in range(col + 1, n):
            factor = a[row, col] * inv
            if factor != 0.0:
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.zeros(n, dtype=np.float64)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x
