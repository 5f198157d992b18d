"""Image file I/O, dataset scanning, and output naming.

Codecs are deliberately small and lossless: PNG (8-bit, non-interlaced)
plus binary PPM/PGM with maxval 255. Lossy formats are excluded so a
save/load round trip is always the identity on pixel buffers, which the
reproducibility contract depends on.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DatasetError, DecodeError, UnsupportedImageError
from .imagecore import Image, PixelFormat

__all__ = [
    "DatasetEntry",
    "DatasetIndex",
    "load_image",
    "save_image",
    "scan_dataset",
    "split_by_class",
    "output_name",
    "FLAT_LABEL",
]

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# Deflate codes at most 258 bytes per 2 bits, so no stream inflates to
# more than 1032 times its own size.
_MAX_INFLATE_RATIO = 1032
_IMAGE_SUFFIXES = (".png", ".ppm", ".pgm")
# Images whose anti-diagonals hold at least this many bytes on average are
# unfiltered by the wavefront; smaller ones by the scalar loop. Measured
# crossover: see README, "Implementation notes".
_WAVEFRONT_MIN_BYTES_PER_STEP = 200

# Label used for images sitting directly in the dataset root.
FLAT_LABEL = "·"


class DatasetEntry(NamedTuple):
    rel_path: str  # posix-style, relative to the dataset root
    label: str     # first-level subdirectory, or FLAT_LABEL


@dataclass(frozen=True)
class DatasetIndex:
    """Sorted index of the decodable images below a root directory."""

    root: Path
    entries: tuple[DatasetEntry, ...]

    def path_of(self, entry: DatasetEntry) -> Path:
        return self.root / entry.rel_path


# --------------------------------------------------------------------------
# PNG


def _png_chunks(data: bytes):
    """(type, payload) per chunk; each payload is a view of data, not a copy."""
    view = memoryview(data)
    pos = 8
    while pos < len(data):
        if pos + 8 > len(data):
            raise DecodeError("truncated PNG: chunk header cut short")
        length, ctype = struct.unpack(">I4s", data[pos : pos + 8])
        end = pos + 8 + length
        if end + 4 > len(data):
            raise DecodeError(f"truncated PNG: {ctype!r} chunk cut short")
        payload = view[pos + 8 : end]
        (crc,) = struct.unpack(">I", data[end : end + 4])
        if crc != (zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF):
            raise DecodeError(f"corrupt PNG: bad CRC in {ctype!r} chunk")
        yield ctype, payload
        pos = end + 4


def _unfilter_rows(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    out = bytearray()
    prev = bytearray(stride)
    pos = 0
    for _y in range(height):
        ftype = raw[pos]
        row = bytearray(raw[pos + 1 : pos + 1 + stride])
        pos += 1 + stride
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for x in range(bpp, stride):
                row[x] = (row[x] + row[x - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for x in range(stride):
                row[x] = (row[x] + prev[x]) & 0xFF
        elif ftype == 3:  # Average
            for x in range(stride):
                left = row[x - bpp] if x >= bpp else 0
                row[x] = (row[x] + (left + prev[x]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for x in range(stride):
                a = row[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                row[x] = (row[x] + pred) & 0xFF
        else:
            raise DecodeError(f"corrupt PNG: unknown filter type {ftype}")
        out += row
        prev = row
    return out


# Per filter type 0-3, the predictor is (ka*left + kb*up) >> 1; Paeth rows
# (type 4) start from 0 and are overwritten.
_LINEAR_COEFFS = np.array([[0, 0], [2, 0], [0, 2], [1, 1], [0, 0]], dtype=np.uint16)


def _unfilter_wavefront(raw, height: int, stride: int, bpp: int) -> np.ndarray:
    """Unfilter by anti-diagonals; equal byte for byte to `_unfilter_rows`.

    Pixel (y, x) depends only on (y, x-1), (y-1, x) and (y-1, x-1), so all
    pixels with x + y = d are reconstructed in one numpy step. Rows are
    taken in bands of at most `width`, each in band + width - 1 steps.
    A band is rebuilt in a skewed buffer that holds each diagonal
    contiguously, so every step works on contiguous slices: pixel (y, x)
    of the band sits at skew[x + y + 2, y + 1]. Slot 0 of each diagonal
    holds the row above the band (0 above the image), and the slots that
    no pixel fills stay 0, which is what the filters read left of the
    image. Returns a (height, width, bpp) array.
    """
    width = stride // bpp
    line = stride + 1
    src = np.frombuffer(raw, dtype=np.uint8)
    ftypes = src[::line]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        raise DecodeError(f"corrupt PNG: unknown filter type {ftypes[bad[0]]}")
    # Per byte, so that every operand of a step is contiguous.
    ka, kb = (np.repeat(k, bpp).reshape(height, bpp) for k in _LINEAR_COEFFS[ftypes].T)
    is_paeth = np.repeat(ftypes == 4, bpp).reshape(height, bpp)
    # The trailing 0 only keeps the lookups below in range.
    paeth_rows = np.append(np.flatnonzero(ftypes == 4), 0)

    band = min(height, width)
    most = (band, bpp)
    pred, term = np.empty(most, dtype=np.uint16), np.empty(most, dtype=np.uint16)
    dist_a, dist_b, dist_c = (np.empty(most, dtype=np.int16) for _ in range(3))
    pick_a, mask = np.empty(most, dtype=bool), np.empty(most, dtype=bool)
    out = np.empty((height, width, bpp), dtype=np.uint8)
    for top in range(0, height, band):
        rows = min(band, height - top)
        steps = rows + width - 1
        skew = np.zeros((steps + 2, rows + 1, bpp), dtype=np.uint8)
        if top:
            skew[1 : width + 1, 0] = out[top - 1]  # the row above the band
        # filt[d, y] is the filtered pixel (top + y, d - y); np.ndarray
        # checks the view's extent against the scanlines.
        filt = np.ndarray((steps, rows, bpp), np.uint8, src, 1 + top * line,
                          (bpp, line - bpp, 1))

        # Band rows [y0, y1) lie on diagonal d; its Paeth rows lie in [p0, p1).
        d = np.arange(steps)
        y0s, y1s = np.maximum(0, d - width + 1), np.minimum(rows, d + 1)
        lo = paeth_rows[:-1].searchsorted(y0s + top)
        hi = paeth_rows[:-1].searchsorted(y1s + top)
        p0s = np.where(hi > lo, paeth_rows[lo] - top, 0)
        p1s = np.where(hi > lo, paeth_rows[hi - 1] + 1 - top, 0)
        for d, y0, y1, p0, p1 in zip(range(steps), y0s.tolist(), y1s.tolist(),
                                     p0s.tolist(), p1s.tolist()):
            n, g0, g1 = y1 - y0, top + y0, top + y1
            prev = skew[d + 1]
            a, b, p = prev[y0 + 1 : y1 + 1], prev[y0:y1], pred[:n]
            np.multiply(a, ka[g0:g1], out=p)
            p += np.multiply(b, kb[g0:g1], out=term[:n])
            p >>= 1
            if p1:
                # RFC 2083 6.6: distances |b-c|, |a-c|, |a+b-2c|; ties go a, b, c.
                k, r0, r1 = p1 - p0, p0 - y0, p1 - y0
                a, b, c = a[r0:r1], b[r0:r1], skew[d, p0:p1]
                pa, pb, pc = dist_a[:k], dist_b[:k], dist_c[:k]
                np.subtract(b, c, out=pa, dtype=np.int16)
                np.subtract(a, c, out=pb, dtype=np.int16)
                np.add(pa, pb, out=pc)
                np.abs(pa, out=pa)
                np.abs(pb, out=pb)
                np.abs(pc, out=pc)
                first = np.less_equal(pa, pb, out=pick_a[:k])
                first &= np.less_equal(pa, pc, out=mask[:k])
                paeth_pred = np.where(np.less_equal(pb, pc, out=mask[:k]), b, c)
                np.copyto(paeth_pred, a, where=first)
                np.copyto(p[r0:r1], paeth_pred, where=is_paeth[top + p0 : top + p1])
            np.add(filt[d, y0:y1], p, out=skew[d + 2, y0 + 1 : y1 + 1], casting="unsafe")
        s0, s1, _ = skew.strides
        out[top : top + rows] = np.ndarray((rows, width, bpp), np.uint8, skew,
                                           2 * s0 + s1, (s0 + s1, s0, 1))
    return out


def _use_wavefront(height: int, width: int, bpp: int) -> bool:
    """Whether the wavefront beats the scalar loop for this image.

    The wavefront pays a fixed cost per diagonal step and the scalar loop
    a cost per byte, so the choice rests on the mean number of bytes a
    step rebuilds: band * width * bpp / (band + width - 1).
    """
    band = min(height, width)
    return band * width * bpp >= _WAVEFRONT_MIN_BYTES_PER_STEP * (band + width - 1)


def _unfilter(raw, height: int, width: int, bpp: int) -> np.ndarray:
    """Undo the PNG row filters; returns a (height, width, bpp) uint8 array."""
    if _use_wavefront(height, width, bpp):
        return _unfilter_wavefront(raw, height, width * bpp, bpp)
    flat = np.frombuffer(_unfilter_rows(raw, height, width * bpp, bpp), dtype=np.uint8)
    # Copied so that the image owns its bytes instead of viewing an
    # over-allocated bytearray: the source cache holds many small images.
    return flat.reshape(height, width, bpp).copy()


def _decode_png(data: bytes) -> Image:
    ihdr = None
    palette = None
    idat = bytearray()
    for ctype, payload in _png_chunks(data):
        if ctype == b"IHDR":
            if len(payload) != 13:
                raise DecodeError(f"corrupt PNG: IHDR has {len(payload)} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"PLTE":
            palette = payload
        elif ctype == b"IDAT":
            idat += payload
        elif ctype == b"IEND":
            break
    if ihdr is None:
        raise DecodeError("corrupt PNG: missing IHDR")
    width, height, depth, color, compression, filter_method, interlace = ihdr
    if width < 1 or height < 1:
        raise DecodeError("corrupt PNG: zero dimension")
    if compression != 0 or filter_method != 0:
        raise DecodeError("corrupt PNG: unknown compression or filter method")
    if interlace != 0:
        raise UnsupportedImageError("interlaced PNG is not supported")
    if depth != 8:
        raise UnsupportedImageError(f"unsupported PNG bit depth {depth} (only 8)")
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(color)
    if channels is None:
        raise UnsupportedImageError(f"unsupported PNG colour type {color}")
    if not idat:
        raise DecodeError("corrupt PNG: no IDAT data")
    # Bound memory by the size IHDR promises before inflating anything.
    stride = width * channels
    expected = height * (stride + 1)
    if expected > _MAX_INFLATE_RATIO * len(idat):
        raise DecodeError(f"truncated PNG: {len(idat)} IDAT bytes cannot hold {width}x{height}")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise DecodeError(f"corrupt PNG: {exc}") from exc
    if len(raw) > expected:
        raise DecodeError(
            f"corrupt PNG: pixel data inflates past the {expected} bytes IHDR promises"
        )
    if len(raw) < expected or not inflater.eof:
        raise DecodeError("truncated PNG: pixel data length mismatch")
    del idat  # free the joined IDAT data before the unfilter allocates
    arr = _unfilter(raw, height, width, channels)
    if color == 0:
        return Image._wrap(arr, PixelFormat.GRAY8)
    if color == 2:
        return Image._wrap(arr, PixelFormat.RGB8)
    if color == 3:
        if palette is None or len(palette) % 3 != 0 or len(palette) == 0:
            raise DecodeError("corrupt PNG: missing or malformed palette")
        pal = np.frombuffer(palette, dtype=np.uint8).reshape(-1, 3)
        indices = arr[..., 0]
        if int(indices.max()) >= pal.shape[0]:
            raise DecodeError("corrupt PNG: palette index out of range")
        return Image._wrap(pal[indices], PixelFormat.RGB8)
    if color == 4:  # grey + alpha, expanded to RGBA
        out = np.empty((height, width, 4), dtype=np.uint8)
        out[..., 0] = out[..., 1] = out[..., 2] = arr[..., 0]
        out[..., 3] = arr[..., 1]
        return Image._wrap(out, PixelFormat.RGBA8)
    return Image._wrap(arr, PixelFormat.RGBA8)


def _encode_png(img: Image) -> bytes:
    color = {PixelFormat.GRAY8: 0, PixelFormat.RGB8: 2, PixelFormat.RGBA8: 6}[img.format]
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color, 0, 0, 0)
    stride = img.width * img.channels
    rows = np.zeros((img.height, stride + 1), dtype=np.uint8)
    rows[:, 1:] = img.pixels.reshape(img.height, stride)
    pieces = [_PNG_SIG, _png_chunk(b"IHDR", ihdr)]
    pieces.append(_png_chunk(b"IDAT", zlib.compress(rows.tobytes(), 6)))
    pieces.append(_png_chunk(b"IEND", b""))
    return b"".join(pieces)


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


# --------------------------------------------------------------------------
# PPM / PGM (binary, maxval 255)


_PNM_MAX_DIGITS = 20


# One header piece where it starts: whitespace, a comment (up to the next
# CR or LF) or a number. A number is matched to one digit past the cap, so
# an overlong one is refused without reading all of it.
_PNM_PIECE = re.compile(rb"([ \t\n\r\x0b\x0c]+)|#[^\n\r]*|([0-9]{1,%d})" % (_PNM_MAX_DIGITS + 1))


def _pnm_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integers, honouring # comments.

    A number ends at the first whitespace byte after it, which may follow
    a comment; the returned position is just past the one that ends the
    last number. Each comment, number or run of whitespace is one match.
    """
    tokens: list[int] = []
    pos = start
    number = None  # read, but not yet ended by whitespace
    while len(tokens) < count:
        if pos >= len(data):
            raise DecodeError("truncated PNM header")
        piece = _PNM_PIECE.match(data, pos)
        if piece is None:
            raise DecodeError(f"malformed PNM header near byte {pos}")
        spaces, digits = piece.groups()
        if spaces and number is not None:
            tokens.append(number)
            number = None
            pos += 1
            continue
        if digits:
            # No image has a size or maxval this long; the cap also keeps
            # int() within its digit limit.
            if len(digits) > _PNM_MAX_DIGITS:
                raise DecodeError(f"PNM header number longer than {_PNM_MAX_DIGITS} digits "
                                  f"near byte {pos + _PNM_MAX_DIGITS}")
            number = int(digits)
        pos = piece.end()
    return tokens, pos


def _decode_pnm(data: bytes) -> Image:
    magic = data[:2]
    fmt = PixelFormat.GRAY8 if magic == b"P5" else PixelFormat.RGB8
    (width, height, maxval), pos = _pnm_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise DecodeError(f"corrupt PNM: zero dimension {width}x{height}")
    if maxval != 255:
        raise UnsupportedImageError(f"unsupported PNM maxval {maxval} (only 255)")
    # `pos` is just past the single whitespace byte terminating the header.
    channels = fmt.channels
    need = width * height * channels
    pixels = data[pos : pos + need]
    if len(pixels) != need:
        raise DecodeError("truncated PNM pixel data")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, channels)
    return Image.from_array(arr, fmt)


def _encode_pnm(img: Image) -> bytes:
    if img.format is PixelFormat.GRAY8:
        magic = b"P5"
    elif img.format is PixelFormat.RGB8:
        magic = b"P6"
    else:
        raise UnsupportedImageError("PPM/PGM cannot store RGBA images; use PNG")
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# --------------------------------------------------------------------------
# Public API


def load_image(path) -> Image:
    """Decode a PNG, PPM (P6) or PGM (P5) file."""
    data = Path(path).read_bytes()
    if data[:8] == _PNG_SIG:
        return _decode_png(data)
    if data[:2] in (b"P5", b"P6"):
        return _decode_pnm(data)
    raise UnsupportedImageError(f"unrecognised image format: {path}")


def save_image(img: Image, path, image_format: str = "png") -> None:
    """Losslessly encode to PNG or to the PPM family.

    ``image_format`` is "png" or "ppm"; with "ppm", Gray8 images are
    written as binary PGM and RGB8 as binary PPM. RGBA cannot be stored
    in the PPM family.
    """
    if image_format == "png":
        payload = _encode_png(img)
    elif image_format == "ppm":
        payload = _encode_pnm(img)
    else:
        raise ValueError(f"image_format must be 'png' or 'ppm', got {image_format!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)


def scan_dataset(root) -> DatasetIndex:
    """Index every decodable image under root, sorted by relative path.

    The first-level subdirectory is recorded as the class label; images
    directly in the root get the placeholder label. Ordering is plain
    lexicographic on posix-style relative paths, so it is identical on
    every platform.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root is not a readable directory: {root}")
    entries = []
    for path in root.rglob("*"):
        if not path.is_file() or path.suffix.lower() not in _IMAGE_SUFFIXES:
            continue
        rel = path.relative_to(root).as_posix()
        label = rel.split("/", 1)[0] if "/" in rel else FLAT_LABEL
        entries.append(DatasetEntry(rel, label))
    if not entries:
        raise DatasetError(f"empty dataset: no .png/.ppm/.pgm files under {root}")
    entries.sort(key=lambda e: e.rel_path)
    return DatasetIndex(root=root, entries=tuple(entries))


def split_by_class(dataset: DatasetIndex) -> list[tuple[str, DatasetIndex]]:
    """Partition a dataset by class label, labels in sorted order."""
    by_label: dict[str, list[DatasetEntry]] = {}
    for entry in dataset.entries:
        by_label.setdefault(entry.label, []).append(entry)
    return [
        (label, DatasetIndex(root=dataset.root, entries=tuple(by_label[label])))
        for label in sorted(by_label)
    ]


def output_name(stem: str, sample_index: int, ext: str = "png") -> str:
    """Deterministic output filename: <stem>_aug_<index, zero-padded to 6>."""
    if not stem:
        raise ValueError("output stem must be non-empty")
    if sample_index < 0:
        raise ValueError(f"sample index must be >= 0, got {sample_index}")
    return f"{stem}_aug_{sample_index:06d}.{ext}"
