"""Benchmark inputs: an adaptive-filter PNG writer and seeded corpora.

augpipe's own encoder writes every row with filter 0, but PNGs from
outside encoders (libpng and everything built on it) filter each row
adaptively. The writer here picks, per row, the filter whose output has
the smallest sum of absolute values when its bytes are read as signed
(libpng's minimum-sum heuristic), so the decoder meets filters 1-4 as it
would on real files. Ties go to the lower filter type.

Corpora are a pure function of the workload seed and are written once
per seed; a manifest written last marks a complete corpus.
"""

from __future__ import annotations

import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")

DIGIT_CLASSES = 10
DIGITS_PER_CLASS = 100
DIGIT_SIZE = 28
PHOTO_SIZES = ((1024, 1), (256, 8))  # (side, count) of square RGB sources

_MANIFEST = "corpus.json"


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def filter_rows(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter every row of an (h, w, c) uint8 array by the minimum-sum rule.

    Returns the filtered scanlines, each prefixed by its filter byte, as
    an (h, stride + 1) uint8 array, and the chosen filter type per row.
    """
    h, w, c = pixels.shape
    x = pixels.reshape(h, w * c).astype(np.int16)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, c:] = x[:, :-c]
    upleft = np.zeros_like(x)
    upleft[:, c:] = up[:, :-c]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    candidates = np.stack(
        [x, x - left, x - up, x - (left + up) // 2, x - paeth]
    ).astype(np.uint8)  # wraps modulo 256, as the PNG filters are defined
    signed = candidates.astype(np.int8).astype(np.int32)
    chosen = np.argmin(np.abs(signed).sum(axis=2), axis=0)  # first minimum wins ties
    rows = np.empty((h, w * c + 1), dtype=np.uint8)
    rows[:, 0] = chosen
    rows[:, 1:] = candidates[chosen, np.arange(h)]
    return rows, chosen


def encode_png(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode an (h, w, 1) grey or (h, w, 3) RGB uint8 array as an 8-bit PNG.

    Returns the file bytes and the number of rows per filter type.
    """
    h, w, c = pixels.shape
    color = {1: 0, 3: 2}[c]
    rows, chosen = filter_rows(pixels)
    data = b"".join([
        PNG_SIG,
        _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)),
        _chunk(b"IDAT", zlib.compress(rows.tobytes(), 6)),
        _chunk(b"IEND", b""),
    ])
    return data, np.bincount(chosen, minlength=len(FILTER_NAMES))


def digit_like(rng: np.random.Generator) -> np.ndarray:
    """A 28x28 grey image of a few bright strokes on black."""
    size = DIGIT_SIZE
    arr = np.zeros((size, size), dtype=np.uint8)
    for _ in range(int(rng.integers(2, 5))):
        (x0, y0), (x1, y1) = rng.integers(4, size - 4, (2, 2))
        steps = 2 * max(abs(int(x1 - x0)), abs(int(y1 - y0)), 1)
        xs = np.linspace(x0, x1, steps).round().astype(int)
        ys = np.linspace(y0, y1, steps).round().astype(int)
        value = int(rng.integers(160, 256))
        for x, y in zip(xs, ys):
            arr[max(y - 1, 0) : y + 1, max(x - 1, 0) : x + 1] = value
    return arr[..., None]


def photo_like(rng: np.random.Generator, side: int) -> np.ndarray:
    """A side x side RGB image: smooth gradients and waves, a few flat
    shapes, a dark border band and mild sensor-like noise."""
    yy, xx = np.mgrid[0:side, 0:side] / side
    out = np.empty((side, side, 3), dtype=np.float64)
    for ch in range(3):
        a, b, f1, f2, ph = rng.uniform(-1, 1, 5)
        out[..., ch] = (
            110 + 70 * a * xx + 50 * b * yy
            + 30 * np.sin(2 * np.pi * (3 + 4 * abs(f1)) * xx + 6 * ph)
            * np.cos(2 * np.pi * (2 + 3 * abs(f2)) * yy)
        )
    for _ in range(int(rng.integers(3, 7))):
        cx, cy, r = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.2)
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 < r * r
        out[mask] = rng.uniform(20, 235, 3)
    out += rng.normal(0.0, 2.0, out.shape)
    out[: side // 32] = 0.0  # flat rows: every filter ties, so filter 0 is kept
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _build(root: Path, images) -> dict:
    """Write (rel_path, array) pairs as adaptive PNGs; return the manifest."""
    filters = np.zeros(len(FILTER_NAMES), dtype=np.int64)
    sizes: dict[str, int] = {}
    for rel, arr in images:
        data, counts = encode_png(arr)
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        filters += counts
        key = f"{arr.shape[1]}x{arr.shape[0]}x{arr.shape[2]}"
        sizes[key] = sizes.get(key, 0) + 1
    return {
        "sources": sum(sizes.values()),
        "sizes": sizes,
        "rows_per_filter": dict(zip(FILTER_NAMES, filters.tolist())),
    }


def _digit_images(seed: int):
    rng = np.random.default_rng([seed, 1])
    for label in range(DIGIT_CLASSES):
        for i in range(DIGITS_PER_CLASS):
            yield f"{label}/{i:04d}.png", digit_like(rng)


def _photo_images(seed: int):
    rng = np.random.default_rng([seed, 2])
    for side, count in PHOTO_SIZES:
        for i in range(count):
            yield f"s{side:04d}_{i:02d}.png", photo_like(rng, side)


GENERATORS = {"digits": _digit_images, "photo": _photo_images}


def verify_round_trip(root: Path, images, load_image) -> None:
    """Check that load_image returns exactly the array each file was built from."""
    for rel, arr in images:
        decoded = load_image(root / rel).pixels
        if decoded.shape != arr.shape or not np.array_equal(decoded, arr):
            raise RuntimeError(f"corpus file {rel} does not decode to its source array")


def ensure_corpus(work: Path, family: str, seed: int, load_image) -> tuple[Path, dict]:
    """Return the corpus directory for (family, seed), writing it if absent.

    A fresh corpus is decoded back through ``load_image`` before its
    manifest is written, so a listed corpus is known to round-trip.
    """
    root = work / "corpus" / f"{family}-{seed}"
    manifest = root / _MANIFEST
    if manifest.is_file():
        return root / "images", json.loads(manifest.read_text())
    shutil.rmtree(root, ignore_errors=True)
    arrays = list(GENERATORS[family](seed))
    info = _build(root / "images", arrays)
    verify_round_trip(root / "images", arrays, load_image)
    manifest.write_text(json.dumps(info, sort_keys=True))
    return root / "images", info
