"""Codec round trips, decode error surface, dataset scanning, output naming."""

import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augpipe import (
    DatasetEntry,
    DatasetError,
    DecodeError,
    UnsupportedImageError,
    load_image,
    output_name,
    save_image,
    scan_dataset,
    split_by_class,
)
from augpipe import cli, dataio, imagecore, ops
from augpipe.dataio import (
    FLAT_LABEL,
    _decode_png,
    _unfilter,
    _unfilter_rows,
    _unfilter_wavefront,
    _use_wavefront,
)
from conftest import DIGITS_RECIPE, random_image, write_config


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(ctype)) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _png(width, height, depth, color, interlace, raw, extra_chunks=()):
    """Hand-assembled PNG for exercising the decoder independently."""
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", width, height, depth, color, 0, 0, interlace)
    body = [sig, _chunk(b"IHDR", ihdr)]
    for ctype, payload in extra_chunks:
        body.append(_chunk(ctype, payload))
    body.append(_chunk(b"IDAT", zlib.compress(raw)))
    body.append(_chunk(b"IEND", b""))
    return b"".join(body)


class TestPngRoundTrip:
    @pytest.mark.parametrize("channels", [1, 3, 4], ids=["GRAY8", "RGB8", "RGBA8"])
    def test_save_load_identity(self, tmp_path, np_rng, channels):
        for i in range(10):
            img = random_image(np_rng, int(np_rng.integers(1, 40)),
                               int(np_rng.integers(1, 40)), channels)
            path = tmp_path / f"{channels}_{i}.png"
            save_image(img, path, "png")
            back = load_image(path)
            assert back.channels == channels
            assert np.array_equal(back.pixels, img.pixels)

    def test_header_fields(self, tmp_path, np_rng):
        # Independent header parse: IHDR must say 28x28, depth 8, colour 0.
        img = random_image(np_rng, 28, 28)
        path = tmp_path / "digit.png"
        save_image(img, path, "png")
        data = path.read_bytes()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        length, ctype = struct.unpack(">I4s", data[8:16])
        assert ctype == b"IHDR" and length == 13
        width, height, depth, color, comp, filt, interlace = struct.unpack(
            ">IIBBBBB", data[16:29]
        )
        assert (width, height, depth, color) == (28, 28, 8, 0)
        assert comp == filt == interlace == 0


class TestPngDecodeSurface:
    def test_sixteen_bit_rejected(self, tmp_path):
        raw = bytes([0, 0, 0, 0, 0])  # one filtered 1x1 row at 16 bits
        path = tmp_path / "deep.png"
        path.write_bytes(_png(1, 1, 16, 0, 0, raw))
        with pytest.raises(UnsupportedImageError):
            load_image(path)

    def test_interlaced_rejected(self, tmp_path):
        raw = bytes([0, 7])
        path = tmp_path / "adam7.png"
        path.write_bytes(_png(1, 1, 8, 0, 1, raw))
        with pytest.raises(UnsupportedImageError):
            load_image(path)

    @pytest.mark.parametrize("colour_type", [1, 5, 7])
    def test_unknown_colour_type_rejected(self, tmp_path, colour_type):
        path = tmp_path / "odd.png"
        path.write_bytes(_png(1, 1, 8, colour_type, 0, bytes([0, 7])))
        with pytest.raises(UnsupportedImageError, match=f"unsupported PNG colour type {colour_type}"):
            load_image(path)

    def test_palette_expands_to_rgb(self, tmp_path):
        palette = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])  # red, green, blue
        raw = bytes([0, 0, 1, 2])  # one row: indices 0, 1, 2
        path = tmp_path / "pal.png"
        path.write_bytes(_png(3, 1, 8, 3, 0, raw, extra_chunks=[(b"PLTE", palette)]))
        img = load_image(path)
        assert img.channels == 3
        assert np.array_equal(img.pixels[0], [[255, 0, 0], [0, 255, 0], [0, 0, 255]])

    def test_grey_alpha_expands_to_rgba(self, tmp_path):
        raw = bytes([0, 40, 200])  # one grey+alpha pixel
        path = tmp_path / "ga.png"
        path.write_bytes(_png(1, 1, 8, 4, 0, raw))
        img = load_image(path)
        assert img.channels == 4
        assert list(img.pixels[0, 0]) == [40, 40, 40, 200]

    @pytest.mark.parametrize("ftype", [1, 2, 3, 4])
    def test_all_filter_types_decode(self, tmp_path, np_rng, ftype):
        # Reference filterer per the PNG spec, applied row by row; the
        # decoder must invert it exactly.
        h, w, ch = 5, 7, 3
        pixels = np_rng.integers(0, 256, (h, w * ch), dtype=np.uint8).astype(int)
        raw = bytearray()
        prev = [0] * (w * ch)
        for y in range(h):
            row = list(pixels[y])
            filtered = [ftype]
            for x in range(w * ch):
                a = row[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                if ftype == 1:
                    pred = a
                elif ftype == 2:
                    pred = b
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                filtered.append((row[x] - pred) & 0xFF)
            raw.extend(filtered)
            prev = row
        path = tmp_path / f"f{ftype}.png"
        path.write_bytes(_png(w, h, 8, 2, 0, bytes(raw)))
        img = load_image(path)
        assert np.array_equal(img.pixels.reshape(h, w * ch), pixels.astype(np.uint8))

    # The file is cut in half, or 5 bytes past its 8-byte signature, inside
    # the length and type that start the IHDR chunk.
    @pytest.mark.parametrize("keep, match", [
        (lambda size: size // 2, "truncated PNG"),
        (lambda size: 8 + 5, "truncated PNG: chunk header cut short"),
    ], ids=["half", "chunk-header"])
    def test_truncated_file(self, tmp_path, np_rng, keep, match):
        img = random_image(np_rng, 10, 10)
        path = tmp_path / "cut.png"
        save_image(img, path, "png")
        whole = path.read_bytes()
        path.write_bytes(whole[: keep(len(whole))])
        with pytest.raises(DecodeError, match=match):
            load_image(path)

    def test_corrupt_crc(self, tmp_path, np_rng):
        img = random_image(np_rng, 6, 6)
        path = tmp_path / "crc.png"
        save_image(img, path, "png")
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # inside IEND's CRC
        path.write_bytes(bytes(data))
        with pytest.raises(DecodeError):
            load_image(path)

    def test_bomb_past_promised_size(self, tmp_path):
        # 1x1 grey promises 2 bytes of scanline data; the IDAT inflates to
        # 10 MB from about 10 kB.
        sig = b"\x89PNG\r\n\x1a\n"
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        idat = zlib.compress(bytes(10_000_000), 9)
        path = tmp_path / "bomb.png"
        path.write_bytes(sig + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
        assert path.stat().st_size < 20_000
        with pytest.raises(DecodeError, match="past"):
            load_image(path)

    def test_promise_larger_than_idat_can_hold(self, tmp_path):
        # No deflate stream inflates past 1032x its size, so this file is
        # rejected before anything is inflated. Its size is within the pixel
        # budget, which is checked first.
        path = tmp_path / "huge.png"
        path.write_bytes(_png(4096, 4096, 8, 6, 0, b"\x00" * 64))
        with pytest.raises(DecodeError, match="cannot hold"):
            load_image(path)

    def test_too_little_pixel_data(self, tmp_path):
        path = tmp_path / "short.png"
        path.write_bytes(_png(4, 4, 8, 0, 0, b"\x00" * 19))
        with pytest.raises(DecodeError, match="mismatch"):
            load_image(path)

    def test_short_ihdr(self, tmp_path):
        sig = b"\x89PNG\r\n\x1a\n"
        path = tmp_path / "ihdr.png"
        path.write_bytes(sig + _chunk(b"IHDR", b"\x00\x00\x00\x01"))
        with pytest.raises(DecodeError, match="IHDR"):
            load_image(path)

    @pytest.mark.parametrize("idat, message", [
        ((), "no IDAT"),
        (((b"IDAT", b"not a deflate stream"),), "corrupt PNG: Error -3"),
    ], ids=["missing", "not-deflate"])
    def test_bad_idat(self, idat, message):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        chunks = [(b"IHDR", ihdr), *idat, (b"IEND", b"")]
        data = b"\x89PNG\r\n\x1a\n" + b"".join(_chunk(*chunk) for chunk in chunks)
        with pytest.raises(DecodeError, match=message):
            _decode_png(data)

    def test_palette_index_past_plte(self):
        data = _png(2, 1, 8, 3, 0, bytes([0, 0, 1]), extra_chunks=[(b"PLTE", bytes(3))])
        with pytest.raises(DecodeError, match="palette index out of range"):
            _decode_png(data)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "what.png"
        path.write_bytes(b"GIF89a not a png")
        with pytest.raises(UnsupportedImageError):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.png")


class TestPixelBudget:
    """No decode holds more than imagecore._MAX_PIXELS pixels: a header
    that promises more is refused before anything is inflated or sliced."""

    @pytest.mark.parametrize("width, height", [(8193, 8192), (2**31 - 1, 2**31 - 1)])
    def test_png_header_over_the_budget_is_refused_cheaply(self, tmp_path, width, height):
        path = tmp_path / "in" / "huge.png"
        path.parent.mkdir()
        # One zero byte of IDAT: far too little for the size, a ratio check
        # that comes second.
        path.write_bytes(_png(width, height, 8, 0, 0, b"\x00"))
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedImageError, match="exceeds the limit of 67108864"):
                load_image(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        config = write_config(tmp_path / "c.json", DIGITS_RECIPE)
        assert cli.main(["run", "--config", str(config), "--input", str(path.parent),
                         "--output", str(tmp_path / "out"), "--mode", "process"]) == 2

    def test_pnm_header_over_the_budget_is_refused(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n8193 8192\n255\n" + bytes(64))
        with pytest.raises(UnsupportedImageError, match="PNM of 8193x8192 pixels exceeds"):
            load_image(path)

    def test_one_budget_at_its_boundary(self, tmp_path, monkeypatch):
        assert dataio._MAX_PIXELS is ops._MAX_PIXELS is cli._MAX_PIXELS is imagecore._MAX_PIXELS
        monkeypatch.setattr(dataio, "_MAX_PIXELS", 12)
        for name, fits, over in [
            ("a.png", _png(4, 3, 8, 0, 0, bytes(15)), _png(13, 1, 8, 0, 0, bytes(14))),
            ("a.pgm", b"P5\n4 3\n255\n" + bytes(12), b"P5\n13 1\n255\n" + bytes(13)),
        ]:
            (tmp_path / name).write_bytes(fits)
            assert load_image(tmp_path / name).pixels.shape == (3, 4, 1)
            (tmp_path / name).write_bytes(over)
            with pytest.raises(UnsupportedImageError):
                load_image(tmp_path / name)


class TestPnm:
    def test_minimal_pgm(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        img = load_image(path)
        assert img.channels == 1
        assert img.pixels[0, 0, 0] == 0

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        img = load_image(path)
        assert list(img.pixels[0, :, 0]) == [1, 2]

    @pytest.mark.parametrize("end", [b"\n", b"\r"])
    def test_comments_between_every_token(self, tmp_path, end):
        # A comment after the magic, after every number (maxval too) and
        # on a line of its own; the pixels start one byte past the line
        # end after maxval's comment, and the first pixel is a newline.
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5#m" + end + b"2#w" + end + b"#own line" + end + b" 1 #h" + end
                         + b"255#after maxval" + end + b"\n\x02")
        img = load_image(path)
        assert (img.width, img.height) == (2, 1)
        assert list(img.pixels[0, :, 0]) == [10, 2]

    def test_round_trips(self, tmp_path, np_rng):
        grey = random_image(np_rng, 9, 4, 1)
        rgb = random_image(np_rng, 3, 8, 3)
        save_image(grey, tmp_path / "g.pgm", "ppm")
        save_image(rgb, tmp_path / "c.ppm", "ppm")
        assert np.array_equal(load_image(tmp_path / "g.pgm").pixels, grey.pixels)
        assert np.array_equal(load_image(tmp_path / "c.ppm").pixels, rgb.pixels)
        assert (tmp_path / "g.pgm").read_bytes()[:2] == b"P5"
        assert (tmp_path / "c.ppm").read_bytes()[:2] == b"P6"

    def test_rgba_to_ppm_rejected(self, tmp_path, np_rng):
        img = random_image(np_rng, 2, 2, 4)
        with pytest.raises(UnsupportedImageError):
            save_image(img, tmp_path / "x.ppm", "ppm")

    def test_unknown_output_format_rejected(self, tmp_path, np_rng):
        with pytest.raises(ValueError, match="image_format must be 'png' or 'ppm', got 'jpg'"):
            save_image(random_image(np_rng, 2, 2), tmp_path / "x.jpg", "jpg")
        assert list(tmp_path.iterdir()) == []

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedImageError):
            load_image(path)

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P6\n3 0\n255\n"])
    def test_zero_dimension_is_decode_error(self, tmp_path, header):
        path = tmp_path / "zero.pgm"
        path.write_bytes(header)
        with pytest.raises(DecodeError):
            load_image(path)

    @pytest.mark.parametrize("digits", [21, 5000])  # int() converts at most 4300
    def test_overlong_header_number_is_decode_error(self, tmp_path, digits):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b"9" * digits + b" 1 255\n\x00")
        with pytest.raises(DecodeError, match="longer than 20 digits"):
            load_image(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(DecodeError):
            load_image(path)

    def test_load_image_formats(self, tmp_path, np_rng):
        for name, channels in (("a.png", 1), ("a.pgm", 1), ("b.png", 3), ("b.ppm", 3)):
            img = random_image(np_rng, 3, 2, channels)
            save_image(img, tmp_path / name, "png" if name.endswith(".png") else "ppm")
            back = load_image(tmp_path / name)
            assert back.channels == channels
            assert np.array_equal(back.pixels, img.pixels)


class TestScanDataset:
    def test_an_entry_is_its_path(self):
        # The class is read from the path, not stored beside it.
        assert DatasetEntry._fields == ("rel_path",)
        assert DatasetEntry("a.png").label == FLAT_LABEL
        assert DatasetEntry("cat/a.png").label == "cat"
        assert DatasetEntry("cat/young/a.png").label == "cat"

    def test_flat_folder(self, tmp_path, np_rng):
        for name in ("c.png", "a.png", "b.png"):
            save_image(random_image(np_rng, 4, 4), tmp_path / name, "png")
        (tmp_path / "notes.txt").write_text("ignore me")
        ds = scan_dataset(tmp_path)
        assert [e.rel_path for e in ds.entries] == ["a.png", "b.png", "c.png"]
        assert all(e.label == FLAT_LABEL for e in ds.entries)

    def test_class_folders(self, tmp_path, np_rng):
        for label in range(3):
            for i in range(4):
                save_image(random_image(np_rng, 4, 4),
                           tmp_path / str(label) / f"{i}.png", "png")
        ds = scan_dataset(tmp_path)
        assert len(ds.entries) == 12
        assert sorted({e.label for e in ds.entries}) == ["0", "1", "2"]
        parts = split_by_class(ds)
        assert [label for label, _ in parts] == ["0", "1", "2"]
        assert all(len(sub.entries) == 4 for _, sub in parts)

    def test_mixed_extensions_case_insensitive(self, tmp_path, np_rng):
        img = random_image(np_rng, 4, 4)
        save_image(img, tmp_path / "a.png", "png")
        save_image(img, tmp_path / "b.pgm", "ppm")
        upper = tmp_path / "c.PNG"
        save_image(img, upper, "png")
        ds = scan_dataset(tmp_path)
        assert len(ds.entries) == 3

    def test_empty_folder(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path / "missing")


class TestOutputName:
    def test_examples(self):
        assert output_name("0001.png", 42) == "0001_aug_000042.png"
        assert output_name("img.ppm", 0) == "img_aug_000000.png"
        assert output_name("3/x.png", 1_000_000) == "3/x_aug_1000000.png"
        assert output_name("a/b/s.pgm", 3, "pgm") == "a/b/s_aug_000003.pgm"
        # The stem as Path.stem takes it: a dot that starts or ends a name
        # begins no suffix.
        assert output_name("c/..png", 1) == "c/._aug_000001.png"
        assert output_name(".a.png", 1) == ".a_aug_000001.png"

    def test_empty_stem_rejected(self):
        for source in ("", "dir/"):
            with pytest.raises(ValueError):
                output_name(source, 1)
        with pytest.raises(ValueError):
            output_name("a.png", -1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50)
    def test_index_always_recoverable(self, index):
        name = output_name("d/stem.png", index)
        assert name.startswith("d/stem_aug_")
        assert int(name[len("d/stem_aug_"):-len(".png")]) == index


def _seed_files() -> list[bytes]:
    """Small valid files of every decodable kind, to mutate."""
    grey = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    raw_grey = b"".join(bytes([f]) + row.tobytes() for f, row in zip((0, 1, 4), grey))
    rgb = (np.arange(2 * 3 * 3, dtype=np.uint8) * 13).reshape(2, 9)
    raw_rgb = b"".join(bytes([f]) + row.tobytes() for f, row in zip((2, 3), rgb))
    return [
        _png(4, 3, 8, 0, 0, raw_grey),
        _png(3, 2, 8, 2, 0, raw_rgb),
        _png(2, 2, 8, 3, 0, b"\x00\x00\x01\x00\x01\x00", [(b"PLTE", bytes(range(6)))]),
        _png(2, 1, 8, 4, 0, b"\x00\x10\x20\x30\x40"),
        _png(1, 2, 8, 6, 0, b"\x00\x01\x02\x03\x04\x00\x05\x06\x07\x08"),
        b"P5\n3 2\n255\n" + bytes(range(6)),
        b"P6\n# c\n2 1\n255\n" + bytes(range(6)),
    ]


@st.composite
def _mutated_file(draw):
    return _mutate(draw, draw(st.sampled_from(_seed_files())), draw(st.integers(1, 4)))


def _mutate(draw, data: bytes, count: int) -> bytes:
    data = bytearray(data)
    for _ in range(count):
        pos = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        if action == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif action == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif action == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        elif action == "truncate":
            del data[pos:]
    return bytes(data)


@st.composite
def _chunked_png(draw):
    """PNGs with valid CRCs around arbitrary header fields and pixel data,
    so the mutations reach the decoder past the checksum check."""
    fields = draw(st.tuples(
        st.sampled_from((0, 1, 3, 7, 2**31, 2**32 - 1)),
        st.sampled_from((0, 1, 2, 5, 2**31, 2**32 - 1)),
        st.sampled_from((1, 8, 16, 255)), st.sampled_from((0, 2, 3, 4, 5, 6)),
        st.sampled_from((0, 1)), st.sampled_from((0, 1)), st.sampled_from((0, 1)),
    ))
    ihdr = struct.pack(">IIBBBBB", *fields)
    ihdr = ihdr[: draw(st.integers(0, 13))] if draw(st.booleans()) else ihdr
    payload = draw(st.binary(max_size=64))
    idat = zlib.compress(payload) if draw(st.booleans()) else payload
    chunks = [(b"IHDR", ihdr)]
    if draw(st.booleans()):
        chunks.append((b"PLTE", draw(st.binary(max_size=12))))
    cut = draw(st.integers(0, len(idat)))
    chunks += [(b"IDAT", idat[:cut]), (b"IDAT", idat[cut:]), (b"IEND", b"")]
    return b"\x89PNG\r\n\x1a\n" + b"".join(_chunk(t, p) for t, p in chunks)


# (width, height, colour type) of images the decoder unfilters by wavefront.
_WIDE_SHAPES = ((300, 60, 6), (140, 300, 2), (256, 256, 4), (420, 420, 0), (420, 420, 3))
_BPP = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


@st.composite
def _wide_png(draw):
    """A valid IHDR of a wavefront-sized image over random filtered
    scanlines with some bytes set, filter bytes included, and at times a
    structural mutation of the file after the checksums."""
    width, height, colour = draw(st.sampled_from(_WIDE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 256, (height, width * _BPP[colour] + 1), dtype=np.uint8)
    rows[:, 0] = rng.integers(0, 5, height)
    raw = rows.reshape(-1)
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, raw.size - 1))] = draw(st.integers(0, 255))
    chunks = [(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, colour, 0, 0, 0))]
    if colour == 3:
        chunks.append((b"PLTE", bytes(range(256)) * draw(st.sampled_from((1, 3)))))
    chunks += [(b"IDAT", zlib.compress(raw.tobytes(), 1)), (b"IEND", b"")]
    data = b"\x89PNG\r\n\x1a\n" + b"".join(_chunk(t, p) for t, p in chunks)
    return _mutate(draw, data, draw(st.integers(0, 1)))


@st.composite
def _filtered_scanlines(draw, max_height: int):
    """(height, stride + 1) scanlines with drawn filter bytes 0-4 and random
    filtered bytes; few byte values make Paeth ties common."""
    bpp = draw(st.integers(1, 4))
    height = draw(st.integers(1, max_height))
    width = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from((1, 3, 256)))
    rows = rng.integers(0, values, (height, width * bpp + 1), dtype=np.uint8)
    rows[:, 0] = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    return rows, bpp


class TestUnfilter:
    """The wavefront unfilter against the row-by-row loop it replaces for
    large images, which stays as the reference."""

    @settings(max_examples=100, deadline=None)
    @given(_filtered_scanlines(max_height=64))
    def test_wavefront_equals_row_loop(self, case):
        rows, bpp = case
        height, stride = rows.shape[0], rows.shape[1] - 1
        raw = rows.tobytes()
        expected = _unfilter_rows(raw, height, stride, bpp)
        got = _unfilter_wavefront(raw, height, stride, bpp)
        assert expected.shape == got.shape == (height, stride // bpp, bpp)
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(_filtered_scanlines(max_height=16), st.data())
    def test_bad_filter_byte_is_named_on_both_paths(self, case, data):
        # _unfilter checks the filter bytes before either kernel runs.
        rows, bpp = case
        height, width = rows.shape[0], (rows.shape[1] - 1) // bpp
        bad = data.draw(st.lists(st.integers(0, height - 1), min_size=1, unique=True))
        for y in bad:
            rows[y, 0] = data.draw(st.integers(5, 255))
        first = rows[min(bad), 0]
        for wavefront in (False, True):
            with mock.patch.object(dataio, "_use_wavefront", lambda *shape: wavefront):
                with pytest.raises(DecodeError, match=f"unknown filter type {first}$"):
                    _unfilter(rows.tobytes(), height, width, bpp)

    def test_selection_switches_at_the_crossover(self, np_rng):
        # 60 rows of 300 RGBA pixels hold 200.6 bytes per diagonal, 59 rows 199.4.
        assert _use_wavefront(60, 300, 4) and not _use_wavefront(59, 300, 4)
        for height in (59, 60):
            rows = np_rng.integers(0, 256, (height, 1201), dtype=np.uint8)
            rows[:, 0] = np.arange(height) % 5
            raw = rows.tobytes()
            assert np.array_equal(_unfilter(raw, height, 300, 4),
                                  _unfilter_rows(raw, height, 1200, 4))


class TestDecodeFuzz:
    """Any byte string given as an image decodes or raises one of the two
    image errors, which the CLI maps to exit code 2."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_mutated_file(), _chunked_png()))
    def test_only_image_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "f.img"
        path.write_bytes(data)
        try:
            img = load_image(path)
        except (DecodeError, UnsupportedImageError):
            return
        assert img.pixels.dtype == np.uint8 and img.width >= 1 and img.height >= 1

    @settings(max_examples=60, deadline=None)
    @given(_wide_png())
    def test_wide_images_only_image_errors(self, data):
        try:
            img = _decode_png(data)
        except (DecodeError, UnsupportedImageError):
            return
        width, height = struct.unpack(">II", data[16:24])
        assert (img.width, img.height) == (width, height)

    def test_wide_shapes_take_the_wavefront(self):
        assert all(_use_wavefront(h, w, _BPP[c]) for w, h, c in _WIDE_SHAPES)
