"""Shared test helpers: deterministic image generators, corpus builders,
the one-point sampler and the source-bounds monitor."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from augpipe import Image, PixelFormat, apply_op, save_image, warp

# The elastic + gated-rotation recipe used across integration tests.
DIGITS_RECIPE = {
    "version": 1,
    "operations": [
        {"op": "elastic", "probability": 1, "grid_width": 4, "grid_height": 4, "magnitude": 5},
        {"op": "rotate", "probability": 0.5, "max_left_rotation": 10, "max_right_rotation": 10},
    ],
}


def random_image(rng: np.random.Generator, width: int, height: int,
                 fmt: PixelFormat = PixelFormat.GRAY8) -> Image:
    arr = rng.integers(0, 256, (height, width, fmt.channels), dtype=np.uint8)
    return Image.from_array(arr, fmt)


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
    return Image.from_array(arr, PixelFormat.GRAY8)


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


def apply_one(spec, img: Image, rng):
    """apply_op on one image with its stream: the output and its record."""
    outs, applications = apply_op(spec, [img], [rng])
    return outs[0], applications[0]


def run_op(spec, img: Image, **drawn) -> Image:
    """spec on one image with fixed draws, named as its draw names them,
    through apply_batch as the pipeline runs it."""
    return spec.apply_batch([img], [list(drawn.items())])[0]


def sample(img: Image, x: float, y: float) -> tuple[float, ...]:
    """Per-channel real values at one continuous coordinate, through the
    warps' bilinear sampler."""
    xs, ys = np.full((1, 1, 1), x, dtype=np.float64), np.full((1, 1, 1), y, dtype=np.float64)
    return tuple(float(v) for v in warp._sample_bilinear(img.pixels[None], xs, ys)[0, 0, 0])


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
