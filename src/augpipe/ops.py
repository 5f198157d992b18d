"""Augmentation operation catalogue.

Two layers live here. The kernels are deterministic image transforms
(rotate, shear, skew, elastic, zoom, crop, flips, pixel ops). On top of
them, each OpSpec subclass is an immutable, validated description of one
configured operation; ``apply_op`` turns a spec plus random streams into
applied transformations, recording every value drawn along the way.

The direct subclasses of OpSpec are also the config schema: each field is
one config key, named by ``metadata={"key": ...}`` where it differs from
the attribute. Numeric fields are required in a config; str and bool
fields default.

Draw order is part of the determinism contract. Per variant:

- rotate:           angle = real(-max_left, +max_right)
- rotate_cardinal:  int(0, 2) -> {90, 180, 270}   (only when which=random)
- flip:             int(0, 1) -> {horizontal, vertical}   (only when random)
- shear:            axis int(0, 1) if random, then angle = real(-max, +max)
- skew:             kind int(0, 3) if random, then
                    d = int(0, floor(severity * min(W, H) / 2))
- elastic:          per interior node, row-major: dx = int(-m, m), dy = int(-m, m)
- zoom:             factor = real(min_factor, max_factor)
- crop_random:      x = int(0, W - cw), then y = int(0, H - ch)
- everything else:  draws nothing

Geometric kernels that could leave blank borders (rotate, shear, skew)
crop to the largest usable region and resize back, composed into a single
inverse-mapping warp, so every source sample stays inside the image.

A ``draw`` is plain code against one sample's RngStream and may branch
on a value it drew. ``apply_op`` takes a list of same-shape images, each
with its own stream, a single image being a list of one: it draws for
each image in turn, then applies the op to all of them. The warp ops
(rotate, shear, skew, elastic) give their map through ``transform`` and
are warped in batches; the other ops ``apply`` image by image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, ClassVar

import numpy as np

from .errors import ConfigError, GeometryError, OpError
from .geometry import _SNAP, CropRect, Homography, Quad, inscribed_crop_rect, shear_crop_rect, solve_homography
from .imagecore import Image, PixelFormat, RngStream, clamp_round_array, round_half_away
# perfbench/spans.py times the warps through these names, warp_mesh included.
from .warp import (  # noqa: F401
    _BAND_PIXELS,
    AffineTransform,
    DisplacementGrid,
    resize,
    warp_affine,
    warp_affine_batch,
    warp_mesh,
    warp_mesh_batch,
    warp_projective,
    warp_projective_batch,
)

__all__ = [
    "OpSpec",
    "OpApplication",
    "apply_op",
    "Rotate",
    "RotateCardinal",
    "Flip",
    "Shear",
    "Skew",
    "Elastic",
    "Zoom",
    "CropRandom",
    "CropCentre",
    "Resize",
    "Scale",
    "Greyscale",
    "Invert",
    "Equalize",
    "rotate_arbitrary",
    "rotate_cardinal",
    "flip",
    "shear_kernel",
    "skew_kernel",
    "zoom_kernel",
    "crop_kernel",
    "greyscale",
    "invert",
    "equalize",
]

# Largest image, in pixels, that an op may make (8192 x 8192); sizes come
# from the config, and a bigger one is refused before anything is allocated.
_MAX_OUTPUT_PIXELS = 1 << 26

# --------------------------------------------------------------------------
# Kernels


def rotate_arbitrary(img: Image, theta_deg: float) -> Image:
    """Rotate about the center without introducing fill regions.

    Conceptually: rotate onto the expanded bounding box, crop to the
    largest same-aspect inscribed rectangle, resize back to the input
    size. Implemented as one composed destination-to-source affine warp.
    Positive angles turn clockwise, negative counter-clockwise.
    """
    w, h = img.width, img.height
    return warp_affine(img, _rotation(w, h, theta_deg), w, h)


def _rotation(w: int, h: int, theta_deg: float) -> AffineTransform:
    if abs(theta_deg) > 45:
        raise GeometryError(f"rotation angle must satisfy |theta| <= 45, got {theta_deg}")
    crop = inscribed_crop_rect(w, h, theta_deg)
    rad = math.radians(theta_deg)
    cs, sn = math.cos(rad), math.sin(rad)
    kx = crop.w / w
    ky = crop.h / h
    a, b = cs * kx, sn * ky
    d, e = -sn * kx, cs * ky
    c = w / 2 - a * (w / 2) - b * (h / 2)
    f = h / 2 - d * (w / 2) - e * (h / 2)
    return AffineTransform(np.array([[a, b, c], [d, e, f]], dtype=np.float64))


def rotate_cardinal(img: Image, k: int) -> Image:
    """Lossless quarter-turn rotation (clockwise); 90/270 swap dimensions."""
    px = img.pixels
    if k == 90:
        out = px.transpose(1, 0, 2)[:, ::-1]
    elif k == 180:
        out = px[::-1, ::-1]
    elif k == 270:
        out = px.transpose(1, 0, 2)[::-1]
    else:
        raise ValueError(f"cardinal rotation must be 90, 180 or 270, got {k}")
    return Image._wrap(np.ascontiguousarray(out), img.format)


def flip(img: Image, axis: str) -> Image:
    """Exact mirror: 'horizontal' swaps left-right, 'vertical' top-bottom."""
    if axis == "horizontal":
        out = img.pixels[:, ::-1]
    elif axis == "vertical":
        out = img.pixels[::-1]
    else:
        raise ValueError(f"flip axis must be 'horizontal' or 'vertical', got {axis!r}")
    return Image._wrap(np.ascontiguousarray(out), img.format)


def shear_kernel(img: Image, axis: str, angle_deg: float) -> Image:
    """Shear along one axis, cropped and stretched back to the input size.

    Composed into a single affine warp; all source samples stay in-bounds.
    """
    w, h = img.width, img.height
    return warp_affine(img, _shear(w, h, axis, angle_deg), w, h)


def _shear(w: int, h: int, axis: str, angle_deg: float) -> AffineTransform:
    t = math.tan(math.radians(angle_deg))
    try:
        crop = shear_crop_rect(w, h, axis, t)
    except GeometryError as exc:
        raise OpError(str(exc), op_kind="shear") from exc
    if axis == "x":
        m = np.array([[crop.w / w, -t, crop.x], [0.0, 1.0, 0.0]], dtype=np.float64)
    else:
        m = np.array([[1.0, 0.0, 0.0], [-t, crop.h / h, crop.y]], dtype=np.float64)
    return AffineTransform(m)


def _skew_quad(kind: str, w: int, h: int, d: int) -> Quad:
    if kind == "forward":
        corners = ((float(d), 0.0), (float(w - d), 0.0), (float(w), float(h)), (0.0, float(h)))
    elif kind == "backward":
        corners = ((0.0, 0.0), (float(w), 0.0), (float(w - d), float(h)), (float(d), float(h)))
    elif kind == "left":
        corners = ((0.0, float(d)), (float(w), 0.0), (float(w), float(h)), (0.0, float(h - d)))
    elif kind == "right":
        corners = ((0.0, 0.0), (float(w), float(d)), (float(w), float(h - d)), (0.0, float(h)))
    else:
        raise ValueError(f"skew kind must be forward/backward/left/right, got {kind!r}")
    return Quad(corners)


def skew_kernel(img: Image, kind: str, d: int) -> Image:
    """Perspective tilt: two corners of the source move inward by d pixels.

    The source quad stays inside the image, so the warp needs no fill.
    """
    w, h = img.width, img.height
    return warp_projective(img, _skew(w, h, kind, d), w, h)


def _skew(w: int, h: int, kind: str, d: int) -> Homography:
    if not 0 <= d < min(w, h) / 2:
        raise OpError(
            f"skew displacement {d} out of range [0, {min(w, h) / 2}) for {w}x{h}",
            op_kind="skew",
        )
    src = _skew_quad(kind, w, h, d)
    return solve_homography(src, Quad.from_rect(w, h))


@lru_cache(maxsize=16)
def _node_names(gw: int, gh: int) -> tuple[tuple[str, str], ...]:
    """The dx and dy draw names of each interior node, row-major; boundary
    nodes stay pinned. Made once per lattice: every sample's trace record
    keeps them until the trace is written."""
    return tuple((f"dx_{a}_{b}", f"dy_{a}_{b}") for b in range(1, gh) for a in range(1, gw))


def _grid_from_offsets(gw: int, gh: int, values) -> DisplacementGrid:
    # values are dx, dy per interior node in _node_names order.
    nodes = np.zeros((gh + 1, gw + 1, 2), dtype=np.float64)
    nodes[1:gh, 1:gw] = np.reshape(np.array(values, dtype=np.float64), (gh - 1, gw - 1, 2))
    return DisplacementGrid(gw, gh, nodes)


def _scaled_size(img: Image, factor: float, kind: str) -> tuple[int, int]:
    """Both dimensions times factor, rounded; OpError if either is not
    finite or the image would exceed _MAX_OUTPUT_PIXELS."""
    w, h = img.width * factor, img.height * factor
    if not (math.isfinite(w) and math.isfinite(h)):
        raise OpError(f"{kind} factor {factor} gives a non-finite image size", op_kind=kind)
    w, h = round_half_away(w), round_half_away(h)
    if w * h > _MAX_OUTPUT_PIXELS:
        raise OpError(
            f"{kind} output {w}x{h} exceeds the limit of {_MAX_OUTPUT_PIXELS} pixels", op_kind=kind
        )
    return w, h


def zoom_kernel(img: Image, factor: float) -> Image:
    """Enlarge by factor >= 1, then centre-crop back to the input size."""
    if factor < 1:
        raise OpError(f"zoom-out would require padding (factor {factor} < 1)", op_kind="zoom")
    w, h = img.width, img.height
    nw, nh = _scaled_size(img, factor, "zoom")
    # Only the centred w x h window of the enlargement is computed.
    return resize(img, nw, nh, window=CropRect((nw - w) // 2, (nh - h) // 2, w, h))


def crop_kernel(img: Image, region: CropRect, resize_back: bool = False) -> Image:
    """Exact sub-rectangle copy, optionally resized back to the input size."""
    x, y = region.x, region.y
    if x != int(x) or y != int(y):
        raise OpError(f"pixel crops need integral offsets, got ({x}, {y})", op_kind="crop")
    x, y = int(x), int(y)
    if x < 0 or y < 0 or x + region.w > img.width or y + region.h > img.height:
        raise OpError(
            f"crop region ({x}, {y}, {region.w}, {region.h}) exceeds "
            f"{img.width}x{img.height} image",
            op_kind="crop",
        )
    sub = Image._wrap(np.ascontiguousarray(img.pixels[y : y + region.h, x : x + region.w]), img.format)
    if resize_back and (region.w, region.h) != (img.width, img.height):
        return resize(sub, img.width, img.height)
    return sub


def greyscale(img: Image) -> Image:
    """Luma conversion (BT.601 weights); alpha is dropped. Identity on Gray8."""
    if img.format is PixelFormat.GRAY8:
        return img
    rgb = img.pixels[..., :3].astype(np.float64)
    y = clamp_round_array(0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2])
    return Image._wrap(y[..., None], PixelFormat.GRAY8)


def invert(img: Image) -> Image:
    """Negate every colour channel (v -> 255 - v); alpha untouched."""
    arr = img.pixels.copy()
    cc = img.format.color_channels
    arr[..., :cc] = 255 - arr[..., :cc]
    return Image._wrap(arr, img.format)


def equalize(img: Image) -> Image:
    """Histogram equalisation, independently per colour channel.

    Remaps v to (cdf(v) - cdf_min) / (N - cdf_min) * 255 where cdf_min is
    the smallest nonzero cdf value; a channel with a single intensity is
    left unchanged. Alpha untouched.
    """
    arr = img.pixels.copy()
    n = img.width * img.height
    for ch in range(img.format.color_channels):
        channel = arr[..., ch]
        hist = np.bincount(channel.ravel(), minlength=256)
        cdf = np.cumsum(hist)
        cdf_min = int(cdf[np.nonzero(hist)[0][0]])
        if cdf_min == n:
            continue
        lut = clamp_round_array((cdf - cdf_min) / (n - cdf_min) * 255.0)
        arr[..., ch] = lut[channel]
    return Image._wrap(arr, img.format)


# --------------------------------------------------------------------------
# Operation specs


@dataclass(frozen=True)
class OpApplication:
    """Audit record of one operation within one sample.

    drawn_params preserves draw order and is empty when the op was
    skipped by its probability gate.
    """

    op_kind: str
    applied: bool
    drawn_params: tuple[tuple[str, Any], ...] = ()

    def params_dict(self) -> dict[str, Any]:
        return dict(self.drawn_params)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field} {message}", field=field)


@dataclass(frozen=True)
class OpSpec:
    """Base of all operation descriptions; every op has a gate probability."""

    probability: float
    kind: ClassVar[str] = ""

    def __post_init__(self):
        _require(
            isinstance(self.probability, (int, float)) and 0.0 <= self.probability <= 1.0,
            "probability",
            f"must be in [0, 1], got {self.probability}",
        )

    def draw(self, rng: RngStream, width: int, height: int) -> list[tuple[str, Any]]:
        """Draw this op's random parameters from one sample's stream, in
        the documented order."""
        return []

    def transform(self, drawn: list[tuple[str, Any]], width: int, height: int):
        """A warp op's destination-to-source map for a width x height image
        (AffineTransform, Homography or DisplacementGrid); None otherwise.

        Ops that give a map need no apply: the map is warped onto an image
        of the same size, batched when many images share one shape.
        """
        return None

    def apply(self, img: Image, drawn: list[tuple[str, Any]]) -> Image:
        """An op without a transform: its kernel on one image, with its draws."""
        raise NotImplementedError

    def apply_batch(self, imgs: list[Image], drawn: list[list[tuple[str, Any]]]) -> list[Image]:
        """apply on each of some same-shape images, with its own draws."""
        w, h = imgs[0].width, imgs[0].height
        maps = [self.transform(values, w, h) for values in drawn]
        if maps[0] is None:
            return [self.apply(img, values) for img, values in zip(imgs, drawn)]
        if isinstance(maps[0], DisplacementGrid):
            return warp_mesh_batch(imgs, maps)
        if isinstance(maps[0], Homography):
            return warp_projective_batch(imgs, maps, w, h)
        return warp_affine_batch(imgs, maps, w, h)


@dataclass(frozen=True)
class Rotate(OpSpec):
    """Continuous rotation; angle drawn from [-max_left, +max_right] degrees."""

    max_left: float = field(default=0.0, metadata={"key": "max_left_rotation"})
    max_right: float = field(default=0.0, metadata={"key": "max_right_rotation"})
    kind: ClassVar[str] = "rotate"

    def __post_init__(self):
        super().__post_init__()
        _require(0.0 <= self.max_left <= 45.0, "max_left_rotation",
                 f"must be in [0, 45], got {self.max_left}")
        _require(0.0 <= self.max_right <= 45.0, "max_right_rotation",
                 f"must be in [0, 45], got {self.max_right}")

    def draw(self, rng, width, height):
        return [("angle", rng.uniform_real(-self.max_left, self.max_right))]

    def transform(self, drawn, width, height):
        return _rotation(width, height, dict(drawn)["angle"])


@dataclass(frozen=True)
class RotateCardinal(OpSpec):
    """Lossless 90/180/270 rotation, fixed or uniformly random."""

    which: str = "random"
    kind: ClassVar[str] = "rotate_cardinal"

    def __post_init__(self):
        super().__post_init__()
        _require(self.which in ("r90", "r180", "r270", "random"), "which",
                 f"must be one of r90/r180/r270/random, got {self.which!r}")

    def draw(self, rng, width, height):
        if self.which == "random":
            return [("degrees", rng.choice((90, 180, 270)))]
        return []

    def apply(self, img, drawn):
        if self.which == "random":
            return rotate_cardinal(img, dict(drawn)["degrees"])
        return rotate_cardinal(img, int(self.which[1:]))


@dataclass(frozen=True)
class Flip(OpSpec):
    """Mirror along a fixed or randomly chosen axis."""

    axis: str = "random"
    kind: ClassVar[str] = "flip"

    def __post_init__(self):
        super().__post_init__()
        _require(self.axis in ("horizontal", "vertical", "random"), "axis",
                 f"must be horizontal/vertical/random, got {self.axis!r}")

    def draw(self, rng, width, height):
        if self.axis == "random":
            return [("axis", rng.choice(("horizontal", "vertical")))]
        return []

    def apply(self, img, drawn):
        return flip(img, dict(drawn).get("axis", self.axis))


@dataclass(frozen=True)
class Shear(OpSpec):
    """Shear by a random angle, along a fixed or random axis."""

    max_angle: float = 0.0
    axis: str = "random"
    kind: ClassVar[str] = "shear"

    def __post_init__(self):
        super().__post_init__()
        _require(0.0 <= self.max_angle < 45.0, "max_angle",
                 f"must be in [0, 45), got {self.max_angle}")
        _require(self.axis in ("x", "y", "random"), "axis",
                 f"must be x/y/random, got {self.axis!r}")

    def draw(self, rng, width, height):
        drawn = []
        if self.axis == "random":
            drawn.append(("axis", rng.choice(("x", "y"))))
        drawn.append(("angle", rng.uniform_real(-self.max_angle, self.max_angle)))
        return drawn

    def transform(self, drawn, width, height):
        d = dict(drawn)
        return _shear(width, height, d.get("axis", self.axis), d["angle"])


@dataclass(frozen=True)
class Skew(OpSpec):
    """Perspective tilt with displacement scaled by severity.

    The displacement is an integer drawn from
    [0, floor(severity * min(W, H) / 2)].
    """

    severity: float = 1.0
    skew_kind: str = field(default="random", metadata={"key": "kind"})
    kind: ClassVar[str] = "skew"

    def __post_init__(self):
        super().__post_init__()
        _require(0.0 < self.severity <= 1.0, "severity",
                 f"must be in (0, 1], got {self.severity}")
        _require(self.skew_kind in ("forward", "backward", "left", "right", "random"), "kind",
                 f"must be forward/backward/left/right/random, got {self.skew_kind!r}")

    def draw(self, rng, width, height):
        drawn = []
        if self.skew_kind == "random":
            drawn.append(("kind", rng.choice(("forward", "backward", "left", "right"))))
        d_max = int(math.floor(self.severity * min(width, height) / 2 + _SNAP))
        drawn.append(("displacement", rng.uniform_int(0, d_max)))
        return drawn

    def transform(self, drawn, width, height):
        d = dict(drawn)
        return _skew(width, height, d.get("kind", self.skew_kind), d["displacement"])


@dataclass(frozen=True)
class Elastic(OpSpec):
    """Grid-based elastic distortion; grid size sets the granularity and
    magnitude bounds the node displacement per axis."""

    grid_width: int = 1
    grid_height: int = 1
    magnitude: int = 0
    kind: ClassVar[str] = "elastic"

    def __post_init__(self):
        super().__post_init__()
        _require(isinstance(self.grid_width, int) and self.grid_width >= 1, "grid_width",
                 f"must be an integer >= 1, got {self.grid_width}")
        _require(isinstance(self.grid_height, int) and self.grid_height >= 1, "grid_height",
                 f"must be an integer >= 1, got {self.grid_height}")
        _require(isinstance(self.magnitude, int) and 0 <= self.magnitude < 1 << 63, "magnitude",
                 f"must be an integer in [0, 2**63), got {self.magnitude}")

    def draw(self, rng, width, height):
        if self.grid_width * self.grid_height > width * height:
            raise OpError(
                f"elastic grid {self.grid_width}x{self.grid_height} has more cells than "
                f"the {width}x{height} image has pixels",
                op_kind=self.kind,
            )
        drawn = []
        m = self.magnitude
        for dx, dy in _node_names(self.grid_width, self.grid_height):
            drawn.append((dx, rng.uniform_int(-m, m)))
            drawn.append((dy, rng.uniform_int(-m, m)))
        return drawn

    def transform(self, drawn, width, height):
        return _grid_from_offsets(self.grid_width, self.grid_height, [v for _, v in drawn])


@dataclass(frozen=True)
class Zoom(OpSpec):
    """Zoom in by a factor drawn from [min_factor, max_factor]."""

    min_factor: float = 1.0
    max_factor: float = 1.0
    kind: ClassVar[str] = "zoom"

    def __post_init__(self):
        super().__post_init__()
        _require(self.min_factor >= 1.0, "min_factor",
                 f"must be >= 1, got {self.min_factor}")
        _require(self.max_factor >= self.min_factor, "max_factor",
                 f"must be >= min_factor, got {self.max_factor}")

    def draw(self, rng, width, height):
        return [("factor", rng.uniform_real(self.min_factor, self.max_factor))]

    def apply(self, img, drawn):
        return zoom_kernel(img, dict(drawn)["factor"])


@dataclass(frozen=True)
class CropRandom(OpSpec):
    """Randomly positioned crop keeping area_fraction of the image area.

    Crop extent is round(dim * sqrt(area_fraction)) per axis, so the
    retained area fraction is as requested and the aspect ratio is kept.
    """

    area_fraction: float = 1.0
    resize_back: bool = False
    kind: ClassVar[str] = "crop_random"

    def __post_init__(self):
        super().__post_init__()
        _require(0.0 < self.area_fraction <= 1.0, "area_fraction",
                 f"must be in (0, 1], got {self.area_fraction}")

    def _extent(self, width: int, height: int) -> tuple[int, int]:
        side = math.sqrt(self.area_fraction)
        return round_half_away(width * side), round_half_away(height * side)

    def draw(self, rng, width, height):
        cw, ch = self._extent(width, height)
        cw, ch = min(cw, width), min(ch, height)
        return [("x", rng.uniform_int(0, width - cw)), ("y", rng.uniform_int(0, height - ch))]

    def apply(self, img, drawn):
        d = dict(drawn)
        cw, ch = self._extent(img.width, img.height)
        cw, ch = min(cw, img.width), min(ch, img.height)
        return crop_kernel(img, CropRect(d["x"], d["y"], cw, ch), resize_back=self.resize_back)


@dataclass(frozen=True)
class CropCentre(OpSpec):
    """Fixed-size crop from the image center."""

    width: int = 1
    height: int = 1
    kind: ClassVar[str] = "crop_centre"

    def __post_init__(self):
        super().__post_init__()
        _require(isinstance(self.width, int) and self.width >= 1, "width",
                 f"must be an integer >= 1, got {self.width}")
        _require(isinstance(self.height, int) and self.height >= 1, "height",
                 f"must be an integer >= 1, got {self.height}")

    def apply(self, img, drawn):
        if self.width > img.width or self.height > img.height:
            raise OpError(
                f"centre crop {self.width}x{self.height} exceeds image "
                f"{img.width}x{img.height}",
                op_kind=self.kind,
            )
        ox = (img.width - self.width) // 2
        oy = (img.height - self.height) // 2
        return crop_kernel(img, CropRect(ox, oy, self.width, self.height))


@dataclass(frozen=True)
class Resize(OpSpec):
    """Resize to fixed dimensions."""

    width: int = 1
    height: int = 1
    kind: ClassVar[str] = "resize"

    def __post_init__(self):
        super().__post_init__()
        _require(isinstance(self.width, int) and self.width >= 1, "width",
                 f"must be an integer >= 1, got {self.width}")
        _require(isinstance(self.height, int) and self.height >= 1, "height",
                 f"must be an integer >= 1, got {self.height}")
        _require(self.width * self.height <= _MAX_OUTPUT_PIXELS, "width",
                 f"x height must be at most {_MAX_OUTPUT_PIXELS} pixels, "
                 f"got {self.width}x{self.height}")

    def apply(self, img, drawn):
        return resize(img, self.width, self.height)


@dataclass(frozen=True)
class Scale(OpSpec):
    """Uniformly scale both dimensions by a fixed factor."""

    factor: float = 1.0
    kind: ClassVar[str] = "scale"

    def __post_init__(self):
        super().__post_init__()
        _require(self.factor > 0.0, "factor", f"must be > 0, got {self.factor}")
        # Even a 1x1 source must fit the output budget.
        _require(math.isfinite(self.factor)
                 and round_half_away(self.factor) ** 2 <= _MAX_OUTPUT_PIXELS, "factor",
                 f"must scale a 1x1 image to at most {_MAX_OUTPUT_PIXELS} pixels, "
                 f"got {self.factor}")

    def apply(self, img, drawn):
        nw, nh = _scaled_size(img, self.factor, self.kind)
        if nw < 1 or nh < 1:
            raise OpError(f"scale factor {self.factor} collapses the image", op_kind=self.kind)
        return resize(img, nw, nh)


@dataclass(frozen=True)
class Greyscale(OpSpec):
    kind: ClassVar[str] = "greyscale"

    def apply(self, img, drawn):
        return greyscale(img)


@dataclass(frozen=True)
class Invert(OpSpec):
    kind: ClassVar[str] = "invert"

    def apply(self, img, drawn):
        return invert(img)


@dataclass(frozen=True)
class Equalize(OpSpec):
    kind: ClassVar[str] = "equalize"

    def apply(self, img, drawn):
        return equalize(img)


def apply_op(
    spec: OpSpec, imgs: list[Image], rngs: list[RngStream]
) -> tuple[list[Image], list[OpApplication]]:
    """Apply spec to same-shape images, image k drawing from rngs[k]:
    the draws image by image, then the kernel on batches of at most
    _BAND_PIXELS pixels. Returns the outputs and a record of each image's
    draws; image k's output and draws do not depend on the other images.

    Probability gating happens in the pipeline; apply_op always applies.
    A kernel failure surfaces as an OpError; for a single image it carries
    the drawn values, so the failing sample can be reproduced exactly.
    """
    w, h = imgs[0].width, imgs[0].height
    drawn = [spec.draw(rng, w, h) for rng in rngs]
    # A group's error does not say which image failed, so it carries no draws.
    failed_draws = tuple(drawn[0]) if len(drawn) == 1 else None
    step = max(1, _BAND_PIXELS // (w * h))
    out = []
    try:
        for start in range(0, len(imgs), step):
            out += spec.apply_batch(imgs[start : start + step], drawn[start : start + step])
    except OpError as exc:
        raise OpError(str(exc), op_kind=spec.kind, drawn=failed_draws) from exc
    except GeometryError as exc:
        raise OpError(f"{spec.kind}: {exc}", op_kind=spec.kind, drawn=failed_draws) from exc
    return out, [OpApplication(spec.kind, True, tuple(values)) for values in drawn]
