"""Inverse-mapping resampling engine.

Every warp walks the destination lattice and pulls a source coordinate
for each pixel center, so outputs are gap-free by construction. Source
coordinates live in the continuous plane (pixel centers at half-integers);
neighbour indices that fall off the raster clamp to the nearest edge
pixel. Interpolation is bilinear and per channel; callers get real
values and the warps quantise once at the end, which keeps identity
mappings bit-exact.

The order of the bilinear floating-point operations is part of the
byte contract. With p00, p10, p01, p11 the four neighbours and fx, fy
the fractions past the lower neighbour, every bilinear value is the
float64 expression

    (p00 * (1 - fx) + p10 * fx) * (1 - fy) + (p01 * (1 - fx) + p11 * fx) * fy

evaluated in exactly this order, and the mesh warp blends its node
offsets with the same expression. The fast paths only share work around
it: a resize blends each source row it reads along x once (the column
fractions do not depend on the row), the mesh warp blends each node row
along x once, and a zoom computes only the visible window of its
enlargement. Large outputs are sampled and quantised in bands of rows,
and their source coordinates are computed band by band.
Reordering, fusing or narrowing any of these operations changes output
bytes, and the golden digests in tests/test_golden.py pin them.

``warp_batch`` is the one entry for every destination-to-source map
(AffineTransform, Homography or DisplacementGrid): it picks the map
type's coordinate builder, stacks same-shape images at most one band of
source pixels at a time, and gathers from each stack at once.
``warp_affine``, ``warp_projective`` and ``warp_mesh`` are its one-image
case. It and ``resize`` share one band loop, ``_warp``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError
from .geometry import CropRect, Homography
from .imagecore import Image, clamp_round_array

__all__ = [
    "AffineTransform",
    "DisplacementGrid",
    "SamplingMonitor",
    "monitor_source_bounds",
    "sample",
    "warp_batch",
    "warp_affine",
    "warp_projective",
    "warp_mesh",
    "resize",
]


@dataclass(frozen=True)
class AffineTransform:
    """2x3 destination-to-source matrix (linear part plus translation)."""

    m: np.ndarray

    def __post_init__(self):
        if self.m.shape != (2, 3):
            raise ValueError(f"affine matrix must be 2x3, got {self.m.shape}")

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]]))

    def map_points(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = self.m
        return (
            m[0, 0] * xs + m[0, 1] * ys + m[0, 2],
            m[1, 0] * xs + m[1, 1] * ys + m[1, 2],
        )


@dataclass(frozen=True)
class DisplacementGrid:
    """Node offsets of a gw x gh cell lattice over a host image.

    nodes has shape (gh + 1, gw + 1, 2) holding (dx, dy) per node; node
    (a, b) rests at (a * W / gw, b * H / gh) on a W x H host. Boundary
    nodes must carry zero offset, which pins the image border in place.
    """

    gw: int
    gh: int
    nodes: np.ndarray

    def __post_init__(self):
        if self.gw < 1 or self.gh < 1:
            raise ValueError(f"grid must have >= 1 cell per axis, got {self.gw}x{self.gh}")
        expected = (self.gh + 1, self.gw + 1, 2)
        if self.nodes.shape != expected:
            raise ValueError(f"node array shape {self.nodes.shape} does not match {expected}")
        # A nonzero boundary node is a nonzero value outside the interior.
        if np.count_nonzero(self.nodes) != np.count_nonzero(self.nodes[1:-1, 1:-1]):
            raise ValueError("boundary nodes must have zero offset")

    @classmethod
    def zero(cls, gw: int, gh: int) -> "DisplacementGrid":
        return cls(gw, gh, np.zeros((gh + 1, gw + 1, 2), dtype=np.float64))


class SamplingMonitor:
    """Collects out-of-domain source coordinates seen while active.

    A coordinate is a violation when it leaves [0, W] x [0, H] before
    edge clamping. Used by tests to prove the no-fill guarantee.
    """

    def __init__(self):
        self.warps = 0
        self.violations = 0
        self.worst = 0.0  # largest excursion outside the domain, in pixels

    def observe(self, xs: np.ndarray, ys: np.ndarray, width: int, height: int) -> None:
        self.warps += 1
        excess = max(
            float(-xs.min()),
            float(xs.max() - width),
            float(-ys.min()),
            float(ys.max() - height),
            0.0,
        )
        if excess > 0.0:
            self.violations += 1
            self.worst = max(self.worst, excess)


_active_monitors: list[SamplingMonitor] = []

# Output pixels per band of rows that a warp samples and quantises at a
# time: small enough that the band's float64 temporaries stay in cache.
_BAND_PIXELS = 1 << 14


@contextmanager
def monitor_source_bounds():
    """Context manager yielding a SamplingMonitor wired into the sampler."""
    monitor = SamplingMonitor()
    _active_monitors.append(monitor)
    try:
        yield monitor
    finally:
        _active_monitors.remove(monitor)


@lru_cache(maxsize=64)
def _centers(start: int, count: int) -> np.ndarray:
    """Pixel-center coordinates start + 0.5, ..., start + count - 0.5."""
    centers = np.arange(start, start + count, dtype=np.float64) + 0.5
    centers.flags.writeable = False
    return centers


def _observe(width: int, height: int, xs: np.ndarray, ys: np.ndarray) -> None:
    # xs and ys carry a leading axis of one coordinate array per image.
    for monitor in _active_monitors:
        for image_xs, image_ys in zip(xs, ys):
            monitor.observe(image_xs, image_ys, width, height)


def _clamp(indices: np.ndarray, top: int) -> np.ndarray:
    # In place; np.clip costs several times more on small arrays.
    np.maximum(indices, 0, out=indices)
    return np.minimum(indices, top, out=indices)


def _bilinear_taps(coords: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped lower and upper neighbour indices and the fraction past the lower."""
    u = coords - 0.5
    lower = np.floor(u)
    frac = np.subtract(u, lower, out=u)
    i0 = lower.astype(np.intp)
    i1 = i0 + 1
    return _clamp(i0, size - 1), _clamp(i1, size - 1), frac


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a * g + b * f with g = 1 - f, evaluated in exactly that order.

    uint8 operands promote to float64 exactly. float64 operands must be
    scratch arrays: they are overwritten, and the result reuses a.
    """
    a = np.multiply(a, g, out=a if a.dtype == np.float64 else None)
    b = np.multiply(b, f, out=b if b.dtype == np.float64 else None)
    a += b
    return a


def _sample_bilinear(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample per-channel real values at continuous coordinates.

    pixels stacks same-shape images as (count, height, width, channels);
    xs and ys have shape (count, rows, columns), and entry k of their
    leading axis addresses image k. Returns float64 with shape
    xs.shape + (channels,).
    """
    count, height, width, channels = pixels.shape
    x0, x1, fx = _bilinear_taps(xs, width)
    y0, y1, fy = _bilinear_taps(ys, height)
    if count > 1:
        # Image k's rows follow the k * height rows of the images before it.
        first_rows = np.arange(0, count * height, height, dtype=np.intp)[:, None, None]
        y0 += first_rows
        y1 += first_rows
    # In place: the flat index of the first pixel of each tap's row.
    y0 *= width
    y1 *= width
    flat = pixels.reshape(-1, channels)
    fx = fx[..., None]
    gx = 1.0 - fx
    top = _lerp(flat.take(y0 + x0, axis=0), flat.take(y0 + x1, axis=0), fx, gx)
    bottom = _lerp(flat.take(y1 + x0, axis=0), flat.take(y1 + x1, axis=0), fx, gx)
    fy = fy[..., None]
    return _lerp(top, bottom, fy, 1.0 - fy)


def _resize_bilinear(img: Image, x_taps: tuple, sy: np.ndarray) -> np.ndarray:
    """Bilinear samples on the grid of columns x_taps by rows sy, separably.

    x_taps is (x0, x1, fx, 1 - fx) with the fractions shaped (w, 1). Each
    source row that some output row reads is blended along x once; output
    rows then blend two of those rows. Every output value is the same
    expression, in the same order, as in _sample_bilinear.
    """
    x0, x1, fx, gx = x_taps
    y0, y1, fy = _bilinear_taps(sy, img.height)
    needed = np.zeros(img.height, dtype=bool)
    needed[y0] = True
    needed[y1] = True
    position = np.cumsum(needed) - 1  # source row -> its row in blended
    src = img.pixels[needed]
    blended = _lerp(src[:, x0], src[:, x1], fx, gx)
    fy = fy[:, None, None]
    return _lerp(blended[position[y0]], blended[position[y1]], fy, 1.0 - fy)


def sample(img: Image, x: float, y: float) -> tuple[float, ...]:
    """Per-channel real values at one continuous coordinate."""
    xs, ys = np.full((1, 1, 1), x, dtype=np.float64), np.full((1, 1, 1), y, dtype=np.float64)
    _observe(img.width, img.height, xs, ys)
    return tuple(float(v) for v in _sample_bilinear(img.pixels[None], xs, ys)[0, 0, 0])


def _warp(count: int, height: int, width: int, fmt, sample_rows) -> list[Image]:
    """Build count height x width images in bands of rows.

    ``sample_rows(rows)`` returns the real values of the output rows in
    the slice ``rows`` of every image, (count, rows, width, channels), or
    without the leading axis when count is 1. A band is the same rows of
    every image, at most _BAND_PIXELS pixels unless one row of each is
    more; it is sampled and quantised on its own, so no full-size float64
    array is ever held.
    """
    out = np.empty((count, height, width, fmt.channels), dtype=np.uint8)
    step = max(1, _BAND_PIXELS // (count * width))
    for start in range(0, height, step):
        rows = slice(start, start + step)
        out[:, rows] = clamp_round_array(sample_rows(rows))
    return [Image._wrap(image, fmt) for image in out]


def _check_size(out_w: int, out_h: int) -> None:
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output dimensions must be >= 1, got {out_w}x{out_h}")


def _affine_coordinates(transforms, out_w: int, out_h: int):
    """coords(rows): the source coordinates (xs, ys) of the output rows in
    the slice rows, through each transform; two (count, rows, out_w)
    arrays."""
    m = np.stack([t.m for t in transforms])[:, :, :, None, None]
    xs, ys = _centers(0, out_w), _centers(0, out_h)[:, None]

    def coords(rows):
        # The constant terms are added in place: a temporary plus a
        # broadcast operand would otherwise cost a second array.
        sx = m[:, 0, 0] * xs + m[:, 0, 1] * ys[rows]
        sx += m[:, 0, 2]
        sy = m[:, 1, 0] * xs + m[:, 1, 1] * ys[rows]
        sy += m[:, 1, 2]
        return sx, sy

    return coords


def _projective_coordinates(homs, out_w: int, out_h: int):
    """As _affine_coordinates, through each homography; coords raises
    GeometryError where a denominator vanishes."""
    m = np.stack([hom.m for hom in homs])[:, :, :, None, None]
    xs, ys = _centers(0, out_w), _centers(0, out_h)[:, None]

    def coords(rows):
        # In place, as in _affine_coordinates.
        den = m[:, 2, 0] * xs + m[:, 2, 1] * ys[rows]
        den += m[:, 2, 2]
        if np.min(np.abs(den)) < 1e-9:
            raise GeometryError("horizon inside image: projective denominator vanishes")
        sx = m[:, 0, 0] * xs + m[:, 0, 1] * ys[rows]
        sx += m[:, 0, 2]
        sx /= den
        sy = m[:, 1, 0] * xs + m[:, 1, 1] * ys[rows]
        sy += m[:, 1, 2]
        sy /= den
        return sx, sy

    return coords


def _mesh_coordinates(grids, out_w: int, out_h: int):
    """As _affine_coordinates: each output pixel center plus its grid's
    displacement there, with the lattice laid over the output.

    A column's cell and fraction depend only on x, a row's only on y, so
    every node row is blended along x once and the output rows blend two
    of those.
    """
    gw, gh = grids[0].gw, grids[0].gh
    xs, ys = _centers(0, out_w), _centers(0, out_h)
    tx = xs * (gw / out_w)
    ty = ys * (gh / out_h)
    ax = _clamp(np.floor(tx).astype(np.intp), gw - 1)
    by = _clamp(np.floor(ty).astype(np.intp), gh - 1)
    fx = tx - ax
    fy = (ty - by)[:, None]
    gy = 1.0 - fy
    # (2, count, gh + 1, gw + 1): the dx and dy planes of every grid.
    offsets = np.stack([grid.nodes for grid in grids]).transpose(3, 0, 1, 2)
    node_rows = _lerp(offsets[..., ax], offsets[..., ax + 1], fx, 1.0 - fx)

    def coords(rows):
        lower, upper = by[rows], by[rows] + 1
        sx = _lerp(node_rows[0][:, lower], node_rows[0][:, upper], fy[rows], gy[rows])
        sy = _lerp(node_rows[1][:, lower], node_rows[1][:, upper], fy[rows], gy[rows])
        sx += xs
        sy += ys[rows, None]
        return sx, sy

    return coords


_COORDINATES = {
    AffineTransform: _affine_coordinates,
    Homography: _projective_coordinates,
    DisplacementGrid: _mesh_coordinates,
}


def warp_batch(imgs, maps, out_w: int, out_h: int) -> list[Image]:
    """Resample each of some same-shape images through its own
    destination-to-source map onto an out_w x out_h output.

    The maps are all AffineTransforms, all Homographies, or all
    DisplacementGrids of one lattice size; a grid's lattice lies over the
    output, which a mesh warp gives the image's size. The images are
    stacked in groups of at most one band (_BAND_PIXELS) of source
    pixels, and each group is gathered at once; every output is the
    one-image warp's. Raises GeometryError if a projective denominator
    vanishes at a destination pixel center (horizon crossing the output).
    """
    _check_size(out_w, out_h)
    coordinates = _COORDINATES[type(maps[0])]
    width, height, fmt = imgs[0].width, imgs[0].height, imgs[0].format
    step = max(1, _BAND_PIXELS // (width * height))
    out = []
    for start in range(0, len(imgs), step):
        group = imgs[start : start + step]
        coords = coordinates(maps[start : start + step], out_w, out_h)
        if _active_monitors:
            _observe(width, height, *coords(slice(0, out_h)))
        pixels = np.stack([img.pixels for img in group]) if len(group) > 1 else group[0].pixels[None]
        out += _warp(len(group), out_h, out_w, fmt, lambda rows: _sample_bilinear(pixels, *coords(rows)))
    return out


def warp_affine(img: Image, transform: AffineTransform, out_w: int, out_h: int) -> Image:
    """Resample through a destination-to-source affine map."""
    return warp_batch([img], [transform], out_w, out_h)[0]


def warp_projective(img: Image, hom: Homography, out_w: int, out_h: int) -> Image:
    """Resample through a destination-to-source homography.

    Raises GeometryError if the projective denominator vanishes at any
    destination pixel center (horizon crossing the output).
    """
    return warp_batch([img], [hom], out_w, out_h)[0]


def warp_mesh(img: Image, grid: DisplacementGrid) -> Image:
    """Elastic mesh warp driven by a displacement grid.

    Output dimensions equal the input's. Each destination pixel center p
    in cell (a, b) samples the source at p plus the bilinear blend of the
    four surrounding node offsets, evaluated at p's fractional position
    within the cell; shared nodes make the field continuous across cell
    boundaries, and zero boundary nodes pin the image border.
    """
    return warp_batch([img], [grid], img.width, img.height)[0]


def resize(img: Image, out_w: int, out_h: int, *, window: CropRect | None = None) -> Image:
    """Bilinear resize: destination centers map proportionally to source.

    A same-size resize is bit-identical to the input. With a window, only
    that integral sub-rectangle of the out_w x out_h result is computed
    and returned; its pixels equal those of the full resize.
    """
    _check_size(out_w, out_h)
    if window is None:
        window = CropRect(0, 0, out_w, out_h)
    x, y = window.x, window.y
    if x != int(x) or y != int(y) or x < 0 or y < 0 or x + window.w > out_w or y + window.h > out_h:
        raise ValueError(f"window {window} is not an integral part of {out_w}x{out_h}")
    sx = _centers(int(x), window.w) * (img.width / out_w)
    sy = _centers(int(y), window.h) * (img.height / out_h)
    _observe(img.width, img.height, sx[None], sy[None])
    x0, x1, fx = _bilinear_taps(sx, img.width)
    fx = fx[:, None]
    x_taps = (x0, x1, fx, 1.0 - fx)
    return _warp(1, window.h, window.w, img.format,
                 lambda rows: _resize_bilinear(img, x_taps, sy[rows]))[0]
