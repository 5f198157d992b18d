"""Shared test helpers: deterministic image generators, corpus builders,
non-default op specs, references (clamp_round, map_point, the one-shot
PNG encoder, the PNG row filters), the one-point sampler, the
source-bounds monitor and the tracemalloc peak of a call."""

from __future__ import annotations

import dataclasses
import json
import struct
import tracemalloc
import zlib
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from augpipe import (ConfigError, DisplacementGrid, Homography, Image, apply_op,
                     save_image, warp)
from augpipe.imagecore import round_half_away
from augpipe.ops import _in_range

# The elastic + gated-rotation recipe used across integration tests.
DIGITS_RECIPE = {
    "version": 1,
    "operations": [
        {"op": "elastic", "probability": 1, "grid_width": 4, "grid_height": 4, "magnitude": 5},
        {"op": "rotate", "probability": 0.5, "max_left_rotation": 10, "max_right_rotation": 10},
    ],
}


def filled(width: int, height: int, channels: int, value) -> Image:
    """Constant image; value is a scalar or a per-channel sequence."""
    arr = np.empty((height, width, channels), dtype=np.uint8)
    arr[:] = value
    return Image._wrap(arr)


def zero_grid(gw: int, gh: int) -> DisplacementGrid:
    """A gw x gh displacement grid that moves no node."""
    return DisplacementGrid(np.zeros((gh + 1, gw + 1, 2), dtype=np.float64))


def map_point(hom: Homography, x: float, y: float) -> tuple[float, float]:
    """Where the homography takes the point (x, y)."""
    m = hom.m
    d = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    return (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / d, (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / d


def clamp_round(value: float) -> int:
    """Scalar reference for imagecore.clamp_round_array: round half away
    from zero, clamp to [0, 255]."""
    return min(max(round_half_away(value), 0), 255)


def png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def encode_png_one_shot(img: Image) -> bytes:
    """Reference for dataio._encode_png: every filter row built at once,
    filter type 0, and deflated in one zlib.compress call at level 6."""
    color = {1: 0, 3: 2, 4: 6}[img.channels]
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color, 0, 0, 0)
    stride = img.width * img.channels
    rows = np.zeros((img.height, stride + 1), dtype=np.uint8)
    rows[:, 1:] = img.pixels.reshape(img.height, stride)
    return b"".join([b"\x89PNG\r\n\x1a\n", png_chunk(b"IHDR", ihdr),
                     png_chunk(b"IDAT", zlib.compress(rows, 6)), png_chunk(b"IEND", b"")])


def filter_scanlines(data: np.ndarray, bpp: int, types: np.ndarray) -> bytes:
    """Apply PNG filter types[y] to row y of an (h, stride) uint8 array."""
    x = data.astype(np.int16)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    upleft = np.zeros_like(x)
    upleft[:, bpp:] = up[:, :-bpp]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    preds = np.stack([np.zeros_like(x), left, up, (left + up) // 2, paeth])
    rows = np.empty((x.shape[0], x.shape[1] + 1), dtype=np.uint8)
    rows[:, 0] = types
    rows[:, 1:] = (x - preds[types, np.arange(x.shape[0])]) & 0xFF
    return rows.tobytes()


def peak_bytes(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_image(rng: np.random.Generator, width: int, height: int,
                 channels: int = 1) -> Image:
    arr = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
    return Image.from_array(arr)


def digit_like(rng: np.random.Generator, size: int = 28) -> Image:
    """Synthetic stroke blob, vaguely handwriting-shaped, on black."""
    arr = np.zeros((size, size), dtype=np.uint8)
    for _ in range(int(rng.integers(2, 5))):
        x0, y0 = rng.integers(4, size - 4, 2)
        x1, y1 = rng.integers(4, size - 4, 2)
        steps = max(abs(int(x1) - int(x0)), abs(int(y1) - int(y0)), 1) * 2
        xs = np.linspace(x0, x1, steps).round().astype(int)
        ys = np.linspace(y0, y1, steps).round().astype(int)
        value = int(rng.integers(160, 256))
        for x, y in zip(xs, ys):
            arr[max(y - 1, 0) : y + 1, max(x - 1, 0) : x + 1] = value
    return Image.from_array(arr)


def build_digit_corpus(root: Path, classes: int = 10, per_class: int = 100,
                       size: int = 28) -> Path:
    """Class-per-folder corpus of synthetic digit-like images."""
    rng = np.random.default_rng(873245)
    for label in range(classes):
        folder = root / str(label)
        folder.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            save_image(digit_like(rng, size), folder / f"{i:04d}.png")
    return root


def non_default_spec(spec_cls):
    """A spec of spec_cls with every field away from its default, inside
    its declared range or choices, and no two fields alike, so a swapped
    key shows. Numbers rise field by field, probability first, so a field
    declared after another (zoom's max_factor after min_factor) is never
    below it: each is the least multiple of 0.25 (1 for an int) above the
    number before it that its range admits. Fails naming the op when no
    such spec can be built."""
    values = {}
    floor = 0.0
    for f in dataclasses.fields(spec_cls):
        if f.type == "bool":
            values[f.name] = not f.default
        elif f.type == "str":
            values[f.name] = next((c for c in f.metadata.get("choices", ()) if c != f.default), None)
        else:
            step = 1 if f.type == "int" else 0.25
            bounds = f.metadata.get("range", "(-inf, inf)")
            values[f.name] = floor = next(
                (v for v in (k * step for k in range(1, 400))
                 if v > floor and v != f.default and _in_range(v, bounds)), None)
        if values[f.name] is None:
            pytest.fail(f"{spec_cls.kind}: no non-default value for {f.name}")
    try:
        return spec_cls(**values)
    except ConfigError as exc:
        pytest.fail(f"{spec_cls.kind}: no valid non-default spec: {exc}")


def apply_one(spec, img: Image, rng):
    """apply_op on one image with its stream: the output and its record."""
    outs, applications = apply_op(spec, [img], [rng])
    return outs[0], applications[0]


def run_op(spec, img: Image, **drawn) -> Image:
    """spec on one image with fixed draws, named as its draw names them,
    through apply_batch as the pipeline runs it."""
    return spec.apply_batch([img], [drawn])[0]


def sample(img: Image, x: float, y: float) -> tuple[float, ...]:
    """Per-channel real values at one continuous coordinate, through the
    warps' bilinear sampler."""
    xs, ys = np.full((1, 1, 1), x, dtype=np.float64), np.full((1, 1, 1), y, dtype=np.float64)
    return tuple(float(v) for v in warp._sample_bilinear(img.pixels[None], xs, ys)[:, 0, 0, 0])


@contextmanager
def monitor_source_bounds():
    """Watch the warps of this process while active; yields a monitor.

    ``warp._warp``, the one band loop, is entered once per warp group or
    resize, and ``monitor.warps`` adds up the images it builds.
    ``warp._bilinear_taps`` receives every source coordinate array before
    clamping; an array with a value outside [0, size] counts as one
    violation, and ``monitor.worst`` is the largest excursion in pixels.
    Only work done in this process is seen, so not that of jobs > 1.
    """
    monitor = SimpleNamespace(warps=0, violations=0, worst=0.0)
    band_loop, taps = warp._warp, warp._bilinear_taps

    def counting_band_loop(count, *args):
        monitor.warps += count
        return band_loop(count, *args)

    def checking_taps(coords, size):
        excess = max(float(-coords.min()), float(coords.max() - size), 0.0)
        if excess > 0.0:
            monitor.violations += 1
            monitor.worst = max(monitor.worst, excess)
        return taps(coords, size)

    warp._warp, warp._bilinear_taps = counting_band_loop, checking_taps
    try:
        yield monitor
    finally:
        warp._warp, warp._bilinear_taps = band_loop, taps


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Map of relative file path to file contents, for tree comparisons."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = p.read_bytes()
    return out


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(24601)
