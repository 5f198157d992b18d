"""Augmentation operation catalogue.

Each op is declared once: a plain class that subclasses OpSpec
directly and holds only its fields, its draw and its kernel. OpSpec
makes it a frozen dataclass and names its ``kind``, the class name in
snake_case (CropRandom -> crop_random); a class that decorates itself or
sets its own kind is refused when it is defined. A spec is an
immutable, validated description of one configured operation, it draws
its random parameters, and it holds its kernel.
``apply_op`` turns a spec plus random streams into applied
transformations, recording every value drawn along the way.

The direct subclasses of OpSpec are also the config schema: each field is
one config key, named by ``metadata={"key": ...}`` where it differs from
the attribute. Numeric fields are required in a config; str and bool
fields default. A field declares its own rule: its type is its
annotation, and its metadata may add a ``"range"`` such as ``"[0, 45)"``
or ``"(0, 1]"`` or a tuple of allowed ``"choices"``. ``OpSpec`` checks
every field of every op against these rules when a spec is built, from
Python or from a config alike, and holds a float field's value as a
float. An op defines ``__post_init__`` only for a rule that spans fields
or needs a computed budget.

Draw order is part of the determinism contract. Each op's docstring
gives it in one ``Draws:`` line: the names its ``draw`` records, in the
order drawn, each with the range it is drawn from (``real(lo, hi)`` is
[lo, hi), ``int(lo, hi)`` is [lo, hi], ``choice(...)`` one of its
values); W and H are the image's size.

A ``draw`` is plain code against one sample's RngStream and may branch
on a value it drew; it returns one dict of its values by name, in draw
order. That dict is what the kernel reads (``drawn["angle"]``), what
the trace records as the op's ``params``, and what a failing sample's
OpError carries. ``apply_op`` takes a list of same-shape images, each
with its own stream, a single image being a list of one: it draws for
each image in turn, then applies the op to all of them.

The warp ops (rotate, shear, skew, elastic) define only ``transform``,
which gives their destination-to-source map: a Homography for rotate,
shear (both affine, with bottom row (0, 0, 1)) and skew, a
DisplacementGrid for elastic. ``apply_batch`` hands the maps to
``warp.warp_batch``, which alone knows how each map type is warped and
how many images it stacks at a time. Rotate, shear and skew, which
could leave blank borders, crop to the largest usable region and resize
back within that one map, so every source sample stays inside the
image. Every other op holds its kernel in ``apply``, run image by image.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, ClassVar

import numpy as np

from .errors import ConfigError, GeometryError, OpError
from .geometry import (_SNAP, CropRect, Homography, Quad, inscribed_crop_rect, shear_crop_rect,
                       solve_homography)
from .imagecore import _MAX_PIXELS, Image, RngStream, clamp_round_array, round_half_away
# perfbench/spans.py times the warps through these names; the one-image
# warp_affine, warp_projective and warp_mesh are imported for it alone.
from .warp import (  # noqa: F401
    DisplacementGrid,
    resize,
    warp_affine,
    warp_batch,
    warp_mesh,
    warp_projective,
)

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


def _scaled_size(img: Image, factor: float, kind: str) -> tuple[int, int]:
    """Both dimensions times factor, rounded; OpError if either is not
    finite or the image would exceed _MAX_PIXELS."""
    w, h = img.width * factor, img.height * factor
    if not (math.isfinite(w) and math.isfinite(h)):
        raise OpError(f"{kind} factor {factor} gives a non-finite image size")
    w, h = round_half_away(w), round_half_away(h)
    if w * h > _MAX_PIXELS:
        raise OpError(f"{kind} output {w}x{h} exceeds the limit of {_MAX_PIXELS} pixels")
    return w, h


def _crop(img: Image, region: CropRect, resize_back: bool = False) -> Image:
    """Exact sub-rectangle copy, optionally resized back to the input size."""
    x, y = region.x, region.y
    if x != int(x) or y != int(y):
        raise OpError(f"pixel crops need integral offsets, got ({x}, {y})")
    x, y = int(x), int(y)
    if x < 0 or y < 0 or x + region.w > img.width or y + region.h > img.height:
        raise OpError(f"crop region ({x}, {y}, {region.w}, {region.h}) exceeds "
                      f"{img.width}x{img.height} image")
    sub = Image._wrap(img.pixels[y : y + region.h, x : x + region.w])
    if resize_back and (region.w, region.h) != (img.width, img.height):
        return resize(sub, img.width, img.height)
    return sub


# --------------------------------------------------------------------------
# Operation specs


@dataclass(frozen=True)
class OpApplication:
    """Audit record of one operation within one sample.

    drawn_params is the op's draw, in draw order, and is empty when the
    op was skipped by its probability gate.
    """

    op_kind: str
    applied: bool
    drawn_params: dict[str, Any] = field(default_factory=dict)


# Field annotation -> (accepted value types, phrase for the error).
_TYPES = {
    "float": ((int, float), "a number"),
    "int": (int, "an integer"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _shown(value) -> str:
    """repr of value; an int too long for repr is described by its size."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"an integer of about {int(value.bit_length() * math.log10(2))} digits"


def _in_range(value, bounds: str) -> bool:
    """Whether value lies in an interval written like "[0, 45)"."""
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    above = lo <= value if bounds[0] == "[" else lo < value
    return above and (value <= hi if bounds[-1] == "]" else value < hi)


@dataclass(frozen=True)
class OpSpec:
    """Base of all operation descriptions; every op has a gate probability."""

    probability: float = field(metadata={"range": "[0, 1]"})
    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs):
        """Make each op a frozen dataclass whose kind is its class name in
        snake_case; a kind the class sets itself would be replaced, so it
        is refused."""
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            raise TypeError(f"{cls.__name__} sets kind; an op's kind is its class name "
                            f"in snake_case")
        cls.kind = "".join(f"_{c.lower()}" if c.isupper() else c for c in cls.__name__)[1:]
        dataclass(frozen=True)(cls)

    def __post_init__(self):
        """Check every field against its declared type, range and choices;
        a ConfigError names the field by its config key."""
        for f in fields(self):
            key, value = f.metadata.get("key", f.name), getattr(self, f.name)
            accepted, phrase = _TYPES[f.type]
            # bool is a subclass of int, but True/False is never a number.
            if not isinstance(value, accepted) or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{key} must be {phrase}, got {_shown(value)}", field=key)
            if f.type == "float":
                # Refuses inf, nan and an int beyond the float range alike.
                if not -sys.float_info.max <= value <= sys.float_info.max:
                    raise ConfigError(f"{key} must be a finite number, got {_shown(value)}",
                                      field=key)
                # Held as a float, so the canonical printout writes 5 as 5.0.
                object.__setattr__(self, f.name, float(value))
            if "range" in f.metadata and not _in_range(value, f.metadata["range"]):
                raise ConfigError(f"{key} must be in {f.metadata['range']}, got {_shown(value)}",
                                  field=key)
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                choices = "/".join(f.metadata["choices"])
                raise ConfigError(f"{key} must be one of {choices}, got {_shown(value)}", field=key)

    def draw(self, rng: RngStream, width: int, height: int) -> dict[str, Any]:
        """Draw this op's random parameters from one sample's stream, in
        the order of its class docstring's Draws: line."""
        return {}

    def transform(self, drawn: dict[str, Any], width: int, height: int):
        """A warp op's destination-to-source map for a width x height image
        (a Homography, affine when its bottom row is (0, 0, 1), or a
        DisplacementGrid); None otherwise.

        Ops that give a map need no apply: the map is warped onto an image
        of the same size, batched when many images share one shape.
        """
        return None

    def apply(self, img: Image, drawn: dict[str, Any]) -> Image:
        """An op without a transform: its kernel on one image, with its draws
        by name."""
        raise NotImplementedError

    def apply_batch(self, imgs: list[Image], drawn: list[dict[str, Any]]) -> list[Image]:
        """The op on each of some same-shape images, each with its own
        draws by name: the transforms warped together by warp_batch, or
        apply image by image.

        The one place where a kernel's failure becomes this op's: an
        OpError, GeometryError or ValueError from transform, apply or
        warp_batch, or a KeyError for a draw the kernel reads that drawn
        lacks, is raised as an OpError of this kind, carrying the draws of
        a single image, so that sample can be reproduced exactly.
        Anything else, MemoryError too, passes unchanged."""
        w, h = imgs[0].width, imgs[0].height
        try:
            maps = [self.transform(values, w, h) for values in drawn]
            if maps[0] is None:
                return [self.apply(img, values) for img, values in zip(imgs, drawn)]
            return warp_batch(imgs, maps, w, h)
        except (OpError, GeometryError, ValueError, KeyError) as exc:
            message = f"no draw named {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            # A group's error does not say which image failed, so it carries no draws.
            raise OpError(message, op_kind=self.kind,
                          drawn=drawn[0] if len(drawn) == 1 else None) from exc


class Rotate(OpSpec):
    """Continuous rotation by up to max_left degrees anticlockwise or
    max_right clockwise.

    Draws: angle = real(-max_left, max_right).
    """

    max_left: float = field(default=0.0, metadata={"key": "max_left_rotation", "range": "[0, 45]"})
    max_right: float = field(default=0.0, metadata={"key": "max_right_rotation", "range": "[0, 45]"})

    def draw(self, rng, width, height):
        return {"angle": rng.uniform_real(-self.max_left, self.max_right)}

    def transform(self, drawn, width, height):
        """Rotate about the centre onto the expanded bounding box, crop to
        the largest same-aspect inscribed rectangle, resize back: one
        affine map. Positive angles turn clockwise."""
        theta = drawn["angle"]
        crop = inscribed_crop_rect(width, height, theta)
        rad = math.radians(theta)
        cs, sn = math.cos(rad), math.sin(rad)
        kx = crop.w / width
        ky = crop.h / height
        a, b = cs * kx, sn * ky
        d, e = -sn * kx, cs * ky
        c = width / 2 - a * (width / 2) - b * (height / 2)
        f = height / 2 - d * (width / 2) - e * (height / 2)
        return Homography(np.array([[a, b, c], [d, e, f], [0.0, 0.0, 1.0]], dtype=np.float64))


class RotateCardinal(OpSpec):
    """Lossless 90/180/270 rotation, fixed or uniformly random.

    Draws: degrees = choice(90, 180, 270), only when which is random.
    """

    which: str = field(default="random", metadata={"choices": ("r90", "r180", "r270", "random")})

    def draw(self, rng, width, height):
        if self.which == "random":
            return {"degrees": rng.choice((90, 180, 270))}
        return {}

    def apply(self, img, drawn):
        """Lossless quarter turn, clockwise; 90 and 270 swap dimensions."""
        k = drawn["degrees"] if self.which == "random" else int(self.which[1:])
        px = img.pixels
        if k == 90:
            out = px.transpose(1, 0, 2)[:, ::-1]
        elif k == 180:
            out = px[::-1, ::-1]
        elif k == 270:
            out = px.transpose(1, 0, 2)[::-1]
        else:
            raise ValueError(f"cardinal rotation must be 90, 180 or 270, got {k}")
        return Image._wrap(out)


class Flip(OpSpec):
    """Mirror along a fixed or randomly chosen axis.

    Draws: axis = choice(horizontal, vertical), only when axis is random.
    """

    axis: str = field(default="random", metadata={"choices": ("horizontal", "vertical", "random")})

    def draw(self, rng, width, height):
        if self.axis == "random":
            return {"axis": rng.choice(("horizontal", "vertical"))}
        return {}

    def apply(self, img, drawn):
        """Exact mirror: horizontal swaps left-right, vertical top-bottom."""
        axis = drawn.get("axis", self.axis)
        if axis not in ("horizontal", "vertical"):
            raise ValueError(f"flip axis must be horizontal or vertical, got {axis!r}")
        return Image._wrap(img.pixels[:, ::-1] if axis == "horizontal" else img.pixels[::-1])


class Shear(OpSpec):
    """Shear by a random angle, along a fixed or random axis.

    Draws: axis = choice(x, y) when axis is random, then
    angle = real(-max_angle, max_angle).
    """

    max_angle: float = field(default=0.0, metadata={"range": "[0, 45)"})
    axis: str = field(default="random", metadata={"choices": ("x", "y", "random")})

    def draw(self, rng, width, height):
        drawn = {}
        if self.axis == "random":
            drawn["axis"] = rng.choice(("x", "y"))
        drawn["angle"] = rng.uniform_real(-self.max_angle, self.max_angle)
        return drawn

    def transform(self, drawn, width, height):
        """Shear, crop to the widest fully covered strip, stretch back to
        the input size: one affine map, every source sample in bounds."""
        axis = drawn.get("axis", self.axis)
        t = math.tan(math.radians(drawn["angle"]))
        crop = shear_crop_rect(width, height, axis, t)
        if axis == "x":
            rows = [[crop.w / width, -t, crop.x], [0.0, 1.0, 0.0]]
        else:
            rows = [[1.0, 0.0, 0.0], [-t, crop.h / height, crop.y]]
        return Homography(np.array([*rows, [0.0, 0.0, 1.0]], dtype=np.float64))


class Skew(OpSpec):
    """Perspective tilt with displacement scaled by severity.

    At severity 1, the default, an image whose smaller side is even can
    draw a displacement of exactly half that side, which the kernel
    refuses with an OpError (exit 3): one sample in min(W, H) / 2 + 1,
    1 in 15 for a 28x28 image. The draw range is part of the byte
    contract, so it stays as it is.

    Draws: kind = choice(forward, backward, left, right) when kind is
    random, then displacement = int(0, floor(severity * min(W, H) / 2)).
    """

    severity: float = field(default=1.0, metadata={"range": "(0, 1]"})
    skew_kind: str = field(default="random", metadata={
        "key": "kind", "choices": ("forward", "backward", "left", "right", "random")})

    def draw(self, rng, width, height):
        drawn = {}
        if self.skew_kind == "random":
            drawn["kind"] = rng.choice(("forward", "backward", "left", "right"))
        d_max = int(math.floor(self.severity * min(width, height) / 2 + _SNAP))
        drawn["displacement"] = rng.uniform_int(0, d_max)
        return drawn

    def transform(self, drawn, width, height):
        """Perspective tilt: two corners of the source move inward by the
        displacement. The source quad stays inside the image: no fill."""
        shift = drawn["displacement"]
        if not 0 <= shift < min(width, height) / 2:
            raise OpError(f"skew displacement {shift} out of range "
                          f"[0, {min(width, height) / 2}) for {width}x{height}")
        src = _skew_quad(drawn.get("kind", self.skew_kind), width, height, shift)
        return solve_homography(src, Quad.from_rect(width, height))


class Elastic(OpSpec):
    """Grid-based elastic distortion; grid size sets the granularity and
    magnitude bounds the node displacement per axis.

    Draws: dx_a_b = int(-magnitude, magnitude), dy_a_b = int(-magnitude,
    magnitude) per interior node (a, b), row-major: b from 1 to
    grid_height - 1, and within it a from 1 to grid_width - 1.
    """

    grid_width: int = field(default=1, metadata={"range": "[1, inf)"})
    grid_height: int = field(default=1, metadata={"range": "[1, inf)"})
    # uniform_int(-m, m) needs 2m + 1 <= 2**64 values.
    magnitude: int = field(default=0, metadata={"range": f"[0, {1 << 63})"})

    @cached_property
    def _draw_names(self) -> tuple[str, ...]:
        """The draw names: dx then dy of each interior node, row-major;
        boundary nodes stay pinned. Made once per spec: every sample's
        trace record shares them until the trace is written."""
        gw, gh = self.grid_width, self.grid_height
        return tuple(f"d{axis}_{a}_{b}" for b in range(1, gh) for a in range(1, gw)
                     for axis in "xy")

    def draw(self, rng, width, height):
        if self.grid_width * self.grid_height > width * height:
            raise OpError(
                f"elastic grid {_shown(self.grid_width)}x{_shown(self.grid_height)} has more "
                f"cells than the {width}x{height} image has pixels",
                op_kind=self.kind,
            )
        m = self.magnitude
        return {name: rng.uniform_int(-m, m) for name in self._draw_names}

    def transform(self, drawn, width, height):
        # drawn holds dx, dy per interior node in self._draw_names order.
        gw, gh = self.grid_width, self.grid_height
        nodes = np.zeros((gh + 1, gw + 1, 2), dtype=np.float64)
        offsets = np.array(list(drawn.values()), dtype=np.float64)
        nodes[1:gh, 1:gw] = np.reshape(offsets, (gh - 1, gw - 1, 2))
        return DisplacementGrid(nodes)


class Zoom(OpSpec):
    """Zoom in by a factor from [min_factor, max_factor].

    Draws: factor = real(min_factor, max_factor).
    """

    min_factor: float = field(default=1.0, metadata={"range": "[1, inf)"})
    max_factor: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.max_factor < self.min_factor:
            raise ConfigError(
                f"max_factor must be >= min_factor, got {self.max_factor}", field="max_factor"
            )

    def draw(self, rng, width, height):
        return {"factor": rng.uniform_real(self.min_factor, self.max_factor)}

    def apply(self, img, drawn):
        """Enlarge by the factor, then centre-crop back to the input size."""
        factor = drawn["factor"]
        if factor < 1:
            raise OpError(f"zoom-out would require padding (factor {factor} < 1)")
        w, h = img.width, img.height
        nw, nh = _scaled_size(img, factor, self.kind)
        # Only the centred w x h window of the enlargement is computed.
        return resize(img, nw, nh, window=CropRect((nw - w) // 2, (nh - h) // 2, w, h))


class CropRandom(OpSpec):
    """Randomly positioned crop keeping area_fraction of the image area.

    Crop extent is round(dim * sqrt(area_fraction)) per axis, so the
    retained area fraction is as requested and the aspect ratio is kept.

    Draws: x = int(0, W - cw), then y = int(0, H - ch).
    """

    area_fraction: float = field(default=1.0, metadata={"range": "(0, 1]"})
    resize_back: bool = False

    def _extent(self, width: int, height: int) -> tuple[int, int]:
        side = math.sqrt(self.area_fraction)
        return min(round_half_away(width * side), width), min(round_half_away(height * side), height)

    def draw(self, rng, width, height):
        cw, ch = self._extent(width, height)
        return {"x": rng.uniform_int(0, width - cw), "y": rng.uniform_int(0, height - ch)}

    def apply(self, img, drawn):
        cw, ch = self._extent(img.width, img.height)
        return _crop(img, CropRect(drawn["x"], drawn["y"], cw, ch), resize_back=self.resize_back)


class CropCentre(OpSpec):
    """Fixed-size crop from the image center.

    Draws: nothing.
    """

    width: int = field(default=1, metadata={"range": "[1, inf)"})
    height: int = field(default=1, metadata={"range": "[1, inf)"})

    def apply(self, img, drawn):
        if self.width > img.width or self.height > img.height:
            raise OpError(f"centre crop {_shown(self.width)}x{_shown(self.height)} exceeds "
                          f"image {img.width}x{img.height}")
        ox = (img.width - self.width) // 2
        oy = (img.height - self.height) // 2
        return _crop(img, CropRect(ox, oy, self.width, self.height))


class Resize(OpSpec):
    """Resize to fixed dimensions.

    Draws: nothing.
    """

    width: int = field(default=1, metadata={"range": "[1, inf)"})
    height: int = field(default=1, metadata={"range": "[1, inf)"})

    def __post_init__(self):
        super().__post_init__()
        if self.width * self.height > _MAX_PIXELS:
            raise ConfigError(
                f"width x height must be at most {_MAX_PIXELS} pixels, "
                f"got {_shown(self.width)}x{_shown(self.height)}",
                field="width",
            )

    def apply(self, img, drawn):
        return resize(img, self.width, self.height)


class Scale(OpSpec):
    """Uniformly scale both dimensions by a fixed factor.

    Draws: nothing.
    """

    factor: float = field(default=1.0, metadata={"range": "(0, inf)"})

    def __post_init__(self):
        super().__post_init__()
        # Even a 1x1 source must fit the output budget.
        if round_half_away(self.factor) ** 2 > _MAX_PIXELS:
            raise ConfigError(
                f"factor must scale a 1x1 image to at most {_MAX_PIXELS} pixels, "
                f"got {self.factor}",
                field="factor",
            )

    def apply(self, img, drawn):
        nw, nh = _scaled_size(img, self.factor, self.kind)
        if nw < 1 or nh < 1:
            raise OpError(f"scale factor {self.factor} collapses the image")
        return resize(img, nw, nh)


class Greyscale(OpSpec):
    """Luma conversion (BT.601 weights); alpha is dropped. Identity on Gray8.

    Draws: nothing.
    """

    def apply(self, img, drawn):
        if img.channels == 1:
            return img
        rgb = img.pixels[..., :3].astype(np.float64)
        y = clamp_round_array(0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2])
        return Image._wrap(y[..., None])


class Invert(OpSpec):
    """Negate every colour channel (v -> 255 - v); alpha untouched.

    Draws: nothing.
    """

    def apply(self, img, drawn):
        arr = img.pixels.copy()
        cc = min(img.channels, 3)  # alpha untouched
        arr[..., :cc] = 255 - arr[..., :cc]
        return Image._wrap(arr)


class Equalize(OpSpec):
    """Histogram equalisation, independently per colour channel.

    Remaps v to (cdf(v) - cdf_min) / (N - cdf_min) * 255 where cdf_min
    is the smallest nonzero cdf value; a channel with a single intensity
    is left unchanged. Alpha untouched.

    Draws: nothing.
    """

    def apply(self, img, drawn):
        arr = img.pixels.copy()
        n = img.width * img.height
        for ch in range(min(img.channels, 3)):
            channel = arr[..., ch]
            hist = np.bincount(channel.ravel(), minlength=256)
            cdf = np.cumsum(hist)
            cdf_min = int(cdf[np.nonzero(hist)[0][0]])
            if cdf_min == n:
                continue
            lut = clamp_round_array((cdf - cdf_min) / (n - cdf_min) * 255.0)
            arr[..., ch] = lut[channel]
        return Image._wrap(arr)


def apply_op(
    spec: OpSpec, imgs: list[Image], rngs: list[RngStream]
) -> tuple[list[Image], list[OpApplication]]:
    """Apply spec to same-shape images, image k drawing from rngs[k]:
    the draws image by image, then one apply_batch on them all. Returns
    the outputs and a record of each image's draws, the very dict its
    draw returned; image k's output and draws do not depend on the other
    images.

    Probability gating happens in the pipeline; apply_op always applies.
    A kernel's failure is apply_batch's OpError.
    """
    w, h = imgs[0].width, imgs[0].height
    drawn = [spec.draw(rng, w, h) for rng in rngs]
    out = spec.apply_batch(imgs, drawn)
    return out, [OpApplication(spec.kind, True, values) for values in drawn]


# Every op class is exported, found as parse_config finds it.
__all__ = ["OpSpec", "OpApplication", "apply_op", *(spec.__name__ for spec in OpSpec.__subclasses__())]
