"""Golden SHA-256 digests of op outputs on a fixed synthetic corpus.

Run-against-run comparisons cannot catch a refactor that changes every
run the same way; these digests can. Each case runs ops, with fixed or
seeded draws and through the path the pipeline takes, or a resize, over six
images (GRAY8, RGB8 and RGBA8, each square and non-square) built from a
closed-form pattern, so the inputs depend on no random generator. A
case's digest covers the shape and the bytes of all six outputs.

The decode cases do the same for the PNG decoder. ``save_image`` writes
every row with filter 0, so these files are built here with the filter
types 0-4 cycling over the rows, as outside encoders write them, in each
colour type the decoder reads and at sizes on both sides of the width
from which it unfilters by wavefront instead of row by row.

The mixed cases run ``sample(..., per_class=True)`` and ``process()``
with every op on sources of three shapes and formats, one of them above
a warp band, and pin the records and pixels a ``CollectingSink`` gets.

The flat-class case does the same with per-class calls over a corpus
with images in its root as well as in class folders.

A digest may change only together with a declared change of the output
contract. The canonical-config digest pins ``canonical_text`` for a config
that names every op, with every optional key both omitted and set. To
print the current values, run this file as a script:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from augpipe import (
    CollectingSink,
    CropCentre,
    CropRandom,
    Elastic,
    Equalize,
    Flip,
    Greyscale,
    Image,
    Invert,
    Pipeline,
    Resize,
    Rotate,
    RotateCardinal,
    Scale,
    Shear,
    Skew,
    Zoom,
    canonical_text,
    derive_sample_rng,
    load_image,
    parse_config,
    process,
    sample,
    scan_dataset,
    save_image,
)
from augpipe.dataio import _decode_png, _encode_png, _encode_pnm, _use_wavefront
from augpipe.warp import resize
from conftest import apply_one, run_op

SIZES = ((32, 32), (45, 29))
FORMATS = (1, 3, 4)


def pattern(width: int, height: int, channels: int) -> Image:
    """Texture with smooth ramps, hard edges and per-channel offsets."""
    y, x, c = np.meshgrid(np.arange(height), np.arange(width), np.arange(channels),
                          indexing="ij")
    ramp = x * 37 + y * 91 + c * 53
    value = (ramp ^ (x * y)) + np.where((x // 5 + y // 7) % 2 == 0, 0, 97)
    return Image.from_array((value % 256).astype(np.uint8))


def corpus() -> list[Image]:
    return [pattern(w, h, fmt) for fmt in FORMATS for w, h in SIZES]


def _spec(spec, index):
    return lambda img: apply_one(spec, img, derive_sample_rng(77, index))[0]


def _fixed(spec, **drawn):
    return lambda img: run_op(spec, img, **drawn)


def _window_resize_back(img):
    # The 17x11 window at (3, 2) stretched back to the image's size: the
    # centred crop of the image's 23x15 corner, then a resize.
    corner = Image.from_array(img.pixels[:15, :23])
    window = run_op(CropCentre(probability=1, width=17, height=11), corner)
    return run_op(Resize(probability=1, width=img.width, height=img.height), window)


CASES = {
    "rotate_pos": _fixed(Rotate(probability=1), angle=7.3),
    "rotate_neg": _fixed(Rotate(probability=1), angle=-31.0),
    "shear_x": _fixed(Shear(probability=1, axis="x"), angle=12.5),
    "shear_y": _fixed(Shear(probability=1, axis="y"), angle=-9.0),
    "skew_forward": _fixed(Skew(probability=1, skew_kind="forward"), displacement=5),
    "skew_backward": _fixed(Skew(probability=1, skew_kind="backward"), displacement=3),
    "skew_left": _fixed(Skew(probability=1, skew_kind="left"), displacement=6),
    "skew_right": _fixed(Skew(probability=1, skew_kind="right"), displacement=4),
    "elastic_4x4": _spec(Elastic(probability=1, grid_width=4, grid_height=4, magnitude=5), 1),
    "elastic_3x2": _spec(Elastic(probability=1, grid_width=3, grid_height=2, magnitude=9), 2),
    "zoom_small": _fixed(Zoom(probability=1), factor=1.05),
    "zoom_large": _fixed(Zoom(probability=1), factor=1.37),
    "crop_resize_back": _spec(CropRandom(probability=1, area_fraction=0.6, resize_back=True), 3),
    "crop_window_resize_back": _window_resize_back,
    "resize_up": lambda img: resize(img, 71, 53),
    "resize_down": lambda img: resize(img, 13, 9),
    "resize_anisotropic": lambda img: resize(img, 60, 14),
    "scale": _spec(Scale(probability=1, factor=0.7), 4),
}

# PNG colour type -> bytes per pixel.
DECODE_COLOURS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
# Per bytes per pixel, the narrowest width that 300 rows take to the
# wavefront unfilter; the decode cases use it and the width one below.
WAVEFRONT_WIDTH_AT_300_ROWS = {1: 598, 2: 200, 3: 133, 4: 100}
DECODE_HEIGHTS = (1, 12, 300)


def decode_widths(bpp: int) -> tuple[int, ...]:
    edge = WAVEFRONT_WIDTH_AT_300_ROWS[bpp]
    return (7, edge - 1, edge, 300)


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


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def scanline_pattern(width: int, height: int, bpp: int) -> np.ndarray:
    """Unfiltered (height, width * bpp) bytes: ramps, xor texture, stripes."""
    y, x, c = np.meshgrid(np.arange(height), np.arange(width), np.arange(bpp),
                          indexing="ij")
    value = (x * 29 + y * 71 + c * 101) ^ (x * y // 3) ^ np.where((x + y) % 9 < 3, 200, 0)
    return (value % 256).astype(np.uint8).reshape(height, width * bpp)


def adaptive_png(width: int, height: int, colour: int) -> bytes:
    """PNG of the scanline pattern, row y filtered with type (y + width) % 5."""
    bpp = DECODE_COLOURS[colour]
    data = scanline_pattern(width, height, bpp)
    types = (np.arange(height) + width) % 5
    chunks = [_png_chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, colour, 0, 0, 0))]
    if colour == 3:
        chunks.append(_png_chunk(b"PLTE", bytes((i * 7 + k * 85) % 256
                                                for i in range(256) for k in range(3))))
    chunks.append(_png_chunk(b"IDAT", zlib.compress(filter_scanlines(data, bpp, types), 6)))
    chunks.append(_png_chunk(b"IEND", b""))
    return b"\x89PNG\r\n\x1a\n" + b"".join(chunks)


# Every op with its optional keys omitted, then each op that has optional
# keys again with all of them set. Integral floats are given as integers,
# so the digest also pins their conversion.
CANONICAL_CONFIG = {
    "version": 1,
    "seed": 8675309,
    "operations": [
        {"op": "rotate", "probability": 0.5, "max_left_rotation": 10, "max_right_rotation": 7.5},
        {"op": "rotate_cardinal", "probability": 0.3},
        {"op": "rotate_cardinal", "probability": 1, "which": "r270"},
        {"op": "flip", "probability": 0.5},
        {"op": "flip", "probability": 1, "axis": "vertical"},
        {"op": "shear", "probability": 0.25, "max_angle": 12},
        {"op": "shear", "probability": 1, "max_angle": 3.5, "axis": "x"},
        {"op": "skew", "probability": 0.7, "severity": 0.3},
        {"op": "skew", "probability": 1, "severity": 1, "kind": "backward"},
        {"op": "elastic", "probability": 1, "grid_width": 4, "grid_height": 3, "magnitude": 5},
        {"op": "zoom", "probability": 0.9, "min_factor": 1, "max_factor": 1.5},
        {"op": "crop_random", "probability": 0.6, "area_fraction": 0.5},
        {"op": "crop_random", "probability": 1, "area_fraction": 0.81, "resize_back": True},
        {"op": "crop_centre", "probability": 1, "width": 20, "height": 18},
        {"op": "resize", "probability": 0, "width": 64, "height": 48},
        {"op": "scale", "probability": 0.1, "factor": 0.75},
        {"op": "greyscale", "probability": 1},
        {"op": "invert", "probability": 0.5},
        {"op": "equalize", "probability": 0.125},
    ],
}


def canonical_digest() -> str:
    text = canonical_text(parse_config(json.dumps(CANONICAL_CONFIG)))
    return hashlib.sha256(text.encode()).hexdigest()


def decode_digest(colour: int) -> str:
    bpp = DECODE_COLOURS[colour]
    return _digest(_decode_png(adaptive_png(w, h, colour))
                   for w in decode_widths(bpp) for h in DECODE_HEIGHTS)


DIGESTS = {
    "rotate_pos": "6ab9f959f6b7618f8553c9cb275039fab23752e0c5077c7b981ec30af850786a",
    "rotate_neg": "61c89082a3e0396a7c72ec3abe8c106d40d7474b580c4d810e4db87001878f66",
    "shear_x": "be1459a665e52eef8d3aa757cfcd9f96a5c0a1b11805de562014988e3695c87c",
    "shear_y": "95dff259f12a573fb83f383cb14333b571541e713b9879762e087a6aa7cd0a75",
    "skew_forward": "9f4aa4d559134eafae832f8060104206690a7d5b9e848cbd45311f885dfff45a",
    "skew_backward": "03efa4814cead6f13815084a1fe589060ee976deb6f2df66cc0cfd1b2490e3e6",
    "skew_left": "72a5be296b7bfc6e28f5fed48da5020360183955491356abef5746c08c0fd1fb",
    "skew_right": "30c368c5a1e48abf90551eaf19da0b70e4ead2e43196476fb3cdc9f4ed395e6a",
    "elastic_4x4": "d8aa47c535a50cdead2888460f082bab3701d4f6a1ce17d8413cbe063fa309ff",
    "elastic_3x2": "ab5cdfaae383c47d68d36e843ce6c34dbd6422a443a580661c0f97b9aa2b4979",
    "zoom_small": "857fa0225c3380068525f818d1860d172fd4335f4edfdfddda99c2949fd46deb",
    "zoom_large": "ac8b3691c7ae07c876843f6be24c4ce2d478691673dc17da67cc2aeed4ef7f9f",
    "crop_resize_back": "136d9316c10668ec12ec5c55f1fbe9f3a0ad350fc2f41cfcbd73d03ffaee196b",
    "crop_window_resize_back": "98bca26c8ad6785cfd1e4d5016c996a27ea5f8ae5f5ddb103da5ff082eb967c7",
    "resize_up": "672b0f1581c9c33e934cc6013ea51cf61be036a17f004e18c711468c084b54bd",
    "resize_down": "1b6acf5a0d44cfa8b3e32071ef9f542e0a69c076570da917f0e3b2cdd7633203",
    "resize_anisotropic": "c53fe8160f4c4d09fa7c36bbe68fcbb15816111b3580ace05dff4d609600af52",
    "scale": "42567ff0047d7fbefb39873c7e0f7c92b2ac430ffa47a106e200879f42679242",
    "encoded_pipeline": "9ab7c1931a0926369b8a2c5eed0b431a760b3d47fb45a5b3e887488c236110dc",
    "mixed_sample": "324c6794cbc845dbb47ecfe0bd5b2b2b76ad03c5a13c605510434b94f188ea51",
    "mixed_process": "461790dc04d730d9b04557a3a2d7cddc41cfcf303616c95d572dce7e04cecec5",
    "flat_class": "7fdfd7f9a29fdd12f7d036f2a47e1518a6084be3815890c0355eed68a0b6fedf",
    "decode_colour_0": "c0170d3fbf68018b13e0d150faf3137d5a161141e91f3cc2d55413d26e68d375",
    "decode_colour_2": "20329bff2f1321d01e78cf7bf630097473081fe3c3d0d03959282f6a17119c87",
    "decode_colour_3": "9d2b5cd0f44f11ecd6feb5c9b2301dce71a773f74fe10f561deef5f2d31a0714",
    "decode_colour_4": "45936ad301527bdc67bb0086dfb1e87ec5e9d3f37fdcfa87e155c8ea5b69d3d2",
    "decode_colour_6": "e06c1f62cf7215f88455d34eaf56938f0bc425424a9716d2c71e140320bf7cee",
    "canonical_config": "ffc7acd2a001363be249de4db339a7b95095e123fea3711ea79b53ea8c878072",
}


def _digest(images) -> str:
    h = hashlib.sha256()
    for img in images:
        h.update(f"{img.width}x{img.height}x{img.channels};".encode())
        h.update(img.pixels.tobytes())
    return h.hexdigest()


def case_digest(name: str) -> str:
    return _digest(CASES[name](img) for img in corpus())


def encoded_pipeline_digest(root) -> str:
    """Digest of a pipeline run's encoded PNG and PPM/PGM bytes and trace."""
    for i, img in enumerate(corpus()):
        if img.channels != 4:
            save_image(img, root / f"src_{i}.png")
    pipe = (Pipeline(master_seed=5)
            .add(Elastic(probability=0.8, grid_width=2, grid_height=3, magnitude=4))
            .add(CropRandom(probability=0.7, area_fraction=0.5, resize_back=True)))
    sink = CollectingSink()
    records = process(pipe, scan_dataset(root), sink)
    h = hashlib.sha256()
    for (rel, img), record in zip(sink.images, records):
        h.update(rel.encode())
        h.update(_encode_png(img))
        h.update(_encode_pnm(img))
        h.update(record.to_json().encode())
    return h.hexdigest()


# Every op, gated so that samples of one source shape drift apart in shape
# and format; the sources straddle the 16384-pixel warp band (130 x 130).
ALL_OPS_PIPELINE = (
    Pipeline(master_seed=2024)
    .add(Rotate(probability=0.5, max_left=20, max_right=15))
    .add(RotateCardinal(probability=0.3))
    .add(Flip(probability=0.5))
    .add(Shear(probability=0.5, max_angle=12))
    .add(Skew(probability=0.5, severity=0.4))
    .add(Elastic(probability=0.7, grid_width=4, grid_height=3, magnitude=4))
    .add(Zoom(probability=0.5, min_factor=1.05, max_factor=1.4))
    .add(CropRandom(probability=0.5, area_fraction=0.6, resize_back=True))
    .add(Greyscale(probability=0.2))
    .add(Invert(probability=0.3))
    .add(Equalize(probability=0.3))
    .add(Scale(probability=0.3, factor=0.8))
    .add(CropCentre(probability=0.3, width=16, height=16))
    .add(Resize(probability=0.2, width=30, height=20))
)
# Width, height and channels of each source.
MIXED_SOURCES = ((28, 28, 1), (28, 28, 1), (40, 24, 3), (130, 130, 4))


def mixed_corpus(root):
    """Two classes of 28x28 grey, 40x24 RGB and 130x130 RGBA PNGs."""
    for label in ("a", "b"):
        for i, (w, h, fmt) in enumerate(MIXED_SOURCES):
            img = pattern(w, h, fmt)
            if label == "b" or i == 1:
                img = Image.from_array(img.pixels[::-1, ::-1] ^ (40 * (i + 1)))
            save_image(img, root / label / f"{i}.png")
    return scan_dataset(root)


def collected_digest(sink, records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.to_json().encode())
    for rel, img in sink.images:
        h.update(f"{rel};{img.width}x{img.height}x{img.channels};".encode())
        h.update(img.pixels.tobytes())
    return h.hexdigest()


def mixed_sample_digest(root) -> str:
    sink = CollectingSink()
    records = sample(ALL_OPS_PIPELINE, mixed_corpus(root), 100, sink, per_class=True)
    return collected_digest(sink, records)


def mixed_process_digest(root) -> str:
    sink = CollectingSink()
    records = process(ALL_OPS_PIPELINE, mixed_corpus(root), sink)
    return collected_digest(sink, records)


def flat_class_digest(root) -> str:
    """Per-class sample and process calls over images in the root, which
    form the FLAT_LABEL class (its seed and output names come from that
    label), and in two class folders."""
    for i, (w, h, fmt) in enumerate(MIXED_SOURCES):
        save_image(pattern(w, h, fmt), root / ("a" if i == 2 else "b" if i == 3 else "") / f"{i}.png")
    save_image(pattern(28, 28, 3), root / "a" / "x.png")
    dataset = scan_dataset(root)
    sampled, processed = CollectingSink(), CollectingSink()
    records = sample(ALL_OPS_PIPELINE, dataset, 30, sampled, per_class=True)
    records += process(ALL_OPS_PIPELINE, dataset, processed, per_class=True)
    sampled.images += processed.images
    return collected_digest(sampled, records)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_digest(name):
    assert case_digest(name) == DIGESTS[name]


def test_encoded_pipeline_digest(tmp_path):
    assert encoded_pipeline_digest(tmp_path) == DIGESTS["encoded_pipeline"]


@pytest.mark.parametrize("bpp", sorted(WAVEFRONT_WIDTH_AT_300_ROWS))
def test_decode_widths_straddle_the_wavefront_selection(bpp):
    edge = WAVEFRONT_WIDTH_AT_300_ROWS[bpp]
    assert not _use_wavefront(300, edge - 1, bpp)
    assert _use_wavefront(300, edge, bpp)


@pytest.mark.parametrize("colour", (0, 2, 6))
def test_adaptive_png_decodes_to_its_pattern(colour):
    # The digests pin real pixels, not a mis-filtered file's noise.
    bpp = DECODE_COLOURS[colour]
    for width in decode_widths(bpp):
        img = _decode_png(adaptive_png(width, 12, colour))
        assert np.array_equal(img.pixels.reshape(12, -1), scanline_pattern(width, 12, bpp))


@pytest.mark.parametrize("colour", sorted(DECODE_COLOURS))
def test_decode_digest(colour):
    assert decode_digest(colour) == DIGESTS[f"decode_colour_{colour}"]


def test_mixed_sample_digest(tmp_path):
    assert mixed_sample_digest(tmp_path) == DIGESTS["mixed_sample"]


def test_mixed_process_digest(tmp_path):
    assert mixed_process_digest(tmp_path) == DIGESTS["mixed_process"]


def test_sample_replays_from_its_trace_line(tmp_path):
    # A trace line alone regenerates its sample: each applied op's params,
    # in order, through apply_batch on the source.
    sink = CollectingSink()
    records = sample(ALL_OPS_PIPELINE, mixed_corpus(tmp_path), 100, sink, per_class=True)
    for record, (_rel, collected) in zip(records, sink.images, strict=True):
        line = json.loads(record.to_json())
        img = load_image(tmp_path / line["source"])
        for spec, op in zip(ALL_OPS_PIPELINE.ops, line["ops"], strict=True):
            if op["applied"]:
                img = spec.apply_batch([img], [op["params"]])[0]
        assert img.pixels.shape == collected.pixels.shape
        assert img.pixels.tobytes() == collected.pixels.tobytes()


def test_flat_class_digest(tmp_path):
    assert flat_class_digest(tmp_path) == DIGESTS["flat_class"]


def test_canonical_config_digest():
    kinds = {entry["op"] for entry in CANONICAL_CONFIG["operations"]}
    assert len(kinds) == 14
    assert canonical_digest() == DIGESTS["canonical_config"]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for case in sorted(CASES):
        print(f'    "{case}": "{case_digest(case)}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'    "encoded_pipeline": "{encoded_pipeline_digest(Path(tmp))}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'    "mixed_sample": "{mixed_sample_digest(Path(tmp))}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'    "mixed_process": "{mixed_process_digest(Path(tmp))}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'    "flat_class": "{flat_class_digest(Path(tmp))}",')
    for colour in sorted(DECODE_COLOURS):
        print(f'    "decode_colour_{colour}": "{decode_digest(colour)}",')
    print(f'    "canonical_config": "{canonical_digest()}",')
