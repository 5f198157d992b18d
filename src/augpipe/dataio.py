"""Image file I/O, dataset scanning, and output naming.

Codecs are deliberately small and lossless: PNG (8-bit, non-interlaced)
plus binary PPM/PGM with maxval 255. Lossy formats are excluded so a
save/load round trip is always the identity on pixel buffers, which the
reproducibility contract depends on.
"""

from __future__ import annotations

import posixpath
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DatasetError, DecodeError, UnsupportedImageError
from .imagecore import _MAX_PIXELS, Image

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
_PNG_END = b"\0\0\0\0IEND\xaeB`\x82"  # the IEND chunk: no payload, then its CRC
# Deflate codes at most 258 bytes per 2 bits, so no stream inflates to
# more than 1032 times its own size.
_MAX_INFLATE_RATIO = 1032
_IMAGE_SUFFIXES = (".png", ".ppm", ".pgm")
# Images whose anti-diagonals hold at least this many bytes on average are
# unfiltered by the wavefront; smaller ones by the scalar loop. Measured
# crossover: see README, "Implementation notes".
_WAVEFRONT_MIN_BYTES_PER_STEP = 200
# The encoder deflates the filter rows in bands of about this many bytes.
_ENCODE_BAND_BYTES = 1 << 16

# Label used for images sitting directly in the dataset root.
FLAT_LABEL = "·"


class DatasetEntry(NamedTuple):
    rel_path: str  # posix-style, relative to the dataset root

    @property
    def label(self) -> str:
        """The class: the first-level subdirectory, or FLAT_LABEL for an
        image in the root."""
        head, sep, _ = self.rel_path.partition("/")
        return head if sep else FLAT_LABEL


@dataclass(frozen=True)
class DatasetIndex:
    """Sorted index of the decodable images below a root directory."""

    root: Path
    entries: tuple[DatasetEntry, ...]

    def path_of(self, entry: DatasetEntry) -> Path:
        return self.root / entry.rel_path


def _check_budget(kind: str, width: int, height: int) -> None:
    """Refuse, from its header, an image of more than _MAX_PIXELS pixels."""
    if width * height > _MAX_PIXELS:
        raise UnsupportedImageError(
            f"{kind} of {width}x{height} pixels exceeds the limit of {_MAX_PIXELS} pixels")


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


def _unfilter_rows(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Unfilter row by row; filter bytes must be at most 4. Returns a
    (height, width, bpp) array that views bytes of exactly its size."""
    rows = []
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
        rows.append(row)
        prev = row
    return np.ndarray((height, stride // bpp, bpp), np.uint8, b"".join(rows))


# Per filter type 0-3, the predictor is (ka*left + kb*up) >> 1; Paeth rows
# (type 4) start from 0 and are overwritten.
_LINEAR_COEFFS = np.array([[0, 0], [2, 0], [0, 2], [1, 1], [0, 0]], dtype=np.uint16)


def _unfilter_wavefront(raw, height: int, stride: int, bpp: int) -> np.ndarray:
    """Unfilter by anti-diagonals; equal byte for byte to `_unfilter_rows`.

    Pixel (y, x) depends only on (y, x-1), (y-1, x) and (y-1, x-1), so all
    pixels with x + y = d are rebuilt in one numpy step, height + width - 1
    steps in all. A step reads only diagonals d-1 (for a and b) and d-2
    (for c), so a ring of three contiguous (height + 1, bpp) buffers takes
    turns to hold diagonal d, pixel (y, d - y) at slot y + 1, and every
    operand of a step but the filtered bytes is contiguous. Slot 0, the
    row above the image, is never written, and no slot that a step reads
    as left of the image was written by an earlier diagonal in its
    buffer; so the ring, zeroed once, reads 0 wherever the filters do.
    Each finished diagonal is copied into the output through a strided
    view. Filter bytes must be at most 4. Returns a (height, width, bpp)
    array.
    """
    width = stride // bpp
    line = stride + 1
    steps = height + width - 1
    src = np.frombuffer(raw, dtype=np.uint8)
    ftypes = src[::line]
    # Per byte, so that every operand of a step is contiguous.
    ka, kb = (np.repeat(k, bpp).reshape(height, bpp) for k in _LINEAR_COEFFS[ftypes].T)
    is_paeth = np.repeat(ftypes == 4, bpp).reshape(height, bpp)
    # The trailing 0 only keeps the lookups below in range.
    paeth_rows = np.append(np.flatnonzero(ftypes == 4), 0)

    most = (min(height, width), bpp)
    pred, term = np.empty(most, dtype=np.uint16), np.empty(most, dtype=np.uint16)
    dist_a, dist_b, dist_c = (np.empty(most, dtype=np.int16) for _ in range(3))
    pick_a, mask = np.empty(most, dtype=bool), np.empty(most, dtype=bool)
    out = np.empty((height, width, bpp), dtype=np.uint8)
    # Diagonals d-2, d-1 and d at step d, and each as whole pixels.
    ring = np.zeros((3, height + 1, bpp), dtype=np.uint8)
    older, prev, cur = ring
    pixel = np.dtype(f"V{bpp}")
    older_px, prev_px, cur_px = ring.reshape(3, -1).view(pixel)
    # filt[d, y] and diag[d, y] are pixel (y, d - y) of the scanlines and of
    # out, whole pixels, so that a strided copy moves one item per pixel;
    # np.ndarray checks each view's extent against its buffer.
    filt = np.ndarray((steps, height), pixel, src, 1, (bpp, line - bpp))
    diag = np.ndarray((steps, height), pixel, out, 0, (bpp, (width - 1) * bpp))

    # Rows [y0, y1) lie on diagonal d; its Paeth rows lie in [p0, p1).
    d = np.arange(steps)
    y0s, y1s = np.maximum(0, d - width + 1), np.minimum(height, d + 1)
    lo = paeth_rows[:-1].searchsorted(y0s)
    hi = paeth_rows[:-1].searchsorted(y1s)
    p0s = np.where(hi > lo, paeth_rows[lo], 0)
    p1s = np.where(hi > lo, paeth_rows[hi - 1] + 1, 0)
    for d, y0, y1, p0, p1 in zip(range(steps), y0s.tolist(), y1s.tolist(),
                                 p0s.tolist(), p1s.tolist()):
        n = y1 - y0
        a, b, p = prev[y0 + 1 : y1 + 1], prev[y0:y1], pred[:n]
        np.multiply(a, ka[y0:y1], out=p)
        p += np.multiply(b, kb[y0:y1], out=term[:n])
        p >>= 1
        if p1:
            # RFC 2083 6.6: distances |b-c|, |a-c|, |a+b-2c|; ties go a, b, c.
            k, r0, r1 = p1 - p0, p0 - y0, p1 - y0
            a, b, c = a[r0:r1], b[r0:r1], older[p0:p1]
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
            np.copyto(p[r0:r1], paeth_pred, where=is_paeth[p0:p1])
        done = cur[y0 + 1 : y1 + 1]
        cur_px[y0 + 1 : y1 + 1] = filt[d, y0:y1]
        np.add(done, p, out=done, casting="unsafe")
        diag[d, y0:y1] = cur_px[y0 + 1 : y1 + 1]
        older, prev, cur = prev, cur, older
        older_px, prev_px, cur_px = prev_px, cur_px, older_px
    return out


def _use_wavefront(height: int, width: int, bpp: int) -> bool:
    """Whether the wavefront beats the scalar loop for this image.

    The wavefront pays a fixed cost per diagonal step and the scalar loop
    a cost per byte, so the choice rests on the mean number of bytes a
    step rebuilds: band * width * bpp / (band + width - 1), with band =
    min(height, width). The formula and its measured crossover date from
    a wavefront that took rows in bands of at most `width`; it now takes
    all rows in height + width - 1 steps, so for a tall image a step
    rebuilds more than the formula says, and the choice is conservative.
    """
    band = min(height, width)
    return band * width * bpp >= _WAVEFRONT_MIN_BYTES_PER_STEP * (band + width - 1)


def _unfilter(raw, height: int, width: int, bpp: int) -> np.ndarray:
    """Undo the PNG row filters; returns a (height, width, bpp) uint8 array.
    Checks every filter byte, then unfilters with the kernel _use_wavefront picks."""
    for ftype in raw[:: width * bpp + 1]:
        if ftype > 4:
            raise DecodeError(f"corrupt PNG: unknown filter type {ftype}")
    kernel = _unfilter_wavefront if _use_wavefront(height, width, bpp) else _unfilter_rows
    return kernel(raw, height, width * bpp, bpp)


def _inflate(idat: list, expected: int) -> bytes:
    """The scanline bytes of the IDAT payloads, inflated one view at a time
    by one stream that may give at most one byte more than `expected`, so
    that too much data shows without inflating the rest."""
    inflater = zlib.decompressobj()
    pieces = []
    room = expected + 1
    try:
        for payload in idat:
            pieces.append(inflater.decompress(payload, room))
            room -= len(pieces[-1])
            if not room or inflater.eof:
                break
    except zlib.error as exc:
        raise DecodeError(f"corrupt PNG: {exc}") from exc
    if not room:
        raise DecodeError(
            f"corrupt PNG: pixel data inflates past the {expected} bytes IHDR promises"
        )
    if room > 1 or not inflater.eof:
        raise DecodeError("truncated PNG: pixel data length mismatch")
    return b"".join(pieces)


def _decode_png(data: bytes) -> Image:
    ihdr = None
    palette = None
    idat = []
    for ctype, payload in _png_chunks(data):
        if ctype == b"IHDR":
            if len(payload) != 13:
                raise DecodeError(f"corrupt PNG: IHDR has {len(payload)} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"PLTE":
            palette = payload
        elif ctype == b"IDAT":
            idat.append(payload)
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
    idat_bytes = sum(map(len, idat))
    if not idat_bytes:
        raise DecodeError("corrupt PNG: no IDAT data")
    _check_budget("PNG", width, height)
    # Bound memory by the size IHDR promises before inflating anything.
    stride = width * channels
    expected = height * (stride + 1)
    if expected > _MAX_INFLATE_RATIO * idat_bytes:
        raise DecodeError(f"truncated PNG: {idat_bytes} IDAT bytes cannot hold {width}x{height}")
    raw = _inflate(idat, expected)
    arr = _unfilter(raw, height, width, channels)
    if color == 3:
        if palette is None or len(palette) % 3 != 0 or len(palette) == 0:
            raise DecodeError("corrupt PNG: missing or malformed palette")
        pal = np.frombuffer(palette, dtype=np.uint8).reshape(-1, 3)
        indices = arr[..., 0]
        if int(indices.max()) >= pal.shape[0]:
            raise DecodeError("corrupt PNG: palette index out of range")
        arr = pal[indices]
    elif color == 4:  # grey + alpha, expanded to RGBA
        arr = arr[..., [0, 0, 0, 1]]
    return Image._wrap(arr)


def _encode_png(img: Image) -> bytearray:
    """The PNG file of img, filter type 0 on every row, deflated at level 6.

    The filter rows are built one band of about _ENCODE_BAND_BYTES at a
    time and fed to one deflate stream, whose pieces are appended to the
    file as they come, so the encode holds one band of rows and the file.
    """
    color = {1: 0, 3: 2, 4: 6}[img.channels]
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color, 0, 0, 0)
    height, stride = img.height, img.width * img.channels
    scanlines = img.pixels.reshape(height, stride)
    band = max(1, _ENCODE_BAND_BYTES // (stride + 1))
    rows = np.zeros((min(band, height), stride + 1), dtype=np.uint8)
    # The IDAT length, zero here, is patched in once the stream is flushed.
    out = bytearray(_PNG_SIG + _png_chunk(b"IHDR", ihdr) + b"\0\0\0\0IDAT")
    start = len(out)
    deflate = zlib.compressobj(6)
    crc = zlib.crc32(b"IDAT")
    for top in range(0, height, band):
        part = rows[: height - top]
        part[:, 1:] = scanlines[top : top + band]
        piece = deflate.compress(part)
        crc = zlib.crc32(piece, crc)
        out += piece
    piece = deflate.flush()
    out += piece
    out[start - 8 : start - 4] = struct.pack(">I", len(out) - start)
    out += struct.pack(">I", zlib.crc32(piece, crc)) + _PNG_END
    return out


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
    channels = 1 if data[:2] == b"P5" else 3
    (width, height, maxval), pos = _pnm_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise DecodeError(f"corrupt PNM: zero dimension {width}x{height}")
    if maxval != 255:
        raise UnsupportedImageError(f"unsupported PNM maxval {maxval} (only 255)")
    _check_budget("PNM", width, height)
    # `pos` is just past the single whitespace byte terminating the header.
    need = width * height * channels
    pixels = data[pos : pos + need]
    if len(pixels) != need:
        raise DecodeError("truncated PNM pixel data")
    # A view of the slice, which is already a copy of its own.
    return Image._wrap(np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, channels))


def _encode_pnm(img: Image) -> bytes:
    if img.channels == 4:
        raise UnsupportedImageError("PPM/PGM cannot store RGBA images; use PNG")
    magic = b"P5" if img.channels == 1 else b"P6"
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


def _extension(img: Image, image_format: str) -> str:
    """The file extension of img as save_image writes it in image_format."""
    if image_format == "png":
        return "png"
    return "pgm" if img.channels == 1 else "ppm"


def save_image(img: Image, path, image_format: str = "png") -> None:
    """Losslessly encode to PNG or to the PPM family.

    ``image_format`` is "png" or "ppm"; with "ppm", 1-channel images are
    written as binary PGM and 3-channel ones as binary PPM. 4-channel
    (RGBA) images cannot be stored in the PPM family.
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

    An entry's class label is its first-level subdirectory, or the
    placeholder FLAT_LABEL for an image in the root. Ordering is plain
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
        entries.append(DatasetEntry(path.relative_to(root).as_posix()))
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


def output_name(source: str, sample_index: int, ext: str = "png") -> str:
    """The output path of a sample, relative to the output root: the source's
    posix relative path with its name's stem, as Path.stem takes it, then
    _aug_<index, zero-padded to 6>.<ext>."""
    if sample_index < 0:
        raise ValueError(f"sample index must be >= 0, got {sample_index}")
    rel_dir, name = posixpath.split(source)
    if not name:
        raise ValueError(f"source {source!r} names no file")
    # A dot that starts or ends the name begins no suffix.
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return posixpath.join(rel_dir, f"{stem}_aug_{sample_index:06d}.{ext}")
