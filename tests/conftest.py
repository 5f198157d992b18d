"""Shared test helpers: deterministic image generators and corpus builders."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from augpipe import Image, PixelFormat, apply_op, save_image

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
