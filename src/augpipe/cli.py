"""Command-line front end.

Three subcommands: ``run`` generates augmented datasets from a config and
an input folder, ``validate`` checks a config and prints its canonical
form, and ``sheet`` renders a tiled contact sheet of augmented variants
of a single image.

Exit codes: 0 success, 1 usage or validation error, 2 I/O error, 3
runtime operation failure. Seed precedence: --seed flag, then the
config's seed, then 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import pipeline as pipeline_mod
from .config import canonical_text, parse_config
from .dataio import (
    DatasetEntry,
    DatasetIndex,
    load_image,
    save_image,
    scan_dataset,
    split_by_class,  # not used here; perfbench/child.py setup times cli.split_by_class
)
from .errors import (
    AugpipeError,
    ConfigError,
    DatasetError,
    DecodeError,
    OpError,
    OutputCollisionError,
    UnsupportedImageError,
)
from .imagecore import _MAX_PIXELS, Image
from .pipeline import CollectingSink, DirectorySink, Pipeline, write_trace

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_RUNTIME = 3

_SEPARATOR = 2  # white gap between contact sheet tiles, in pixels


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augpipe",
        description="Stochastic image augmentation pipelines with reproducible seeding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate augmented images from a dataset")
    run.add_argument("--config", required=True, help="pipeline config (JSON)")
    run.add_argument("--input", required=True, help="dataset root directory")
    run.add_argument("--output", required=True, help="output root directory")
    run.add_argument("--count", type=int, help="samples to generate (sample mode)")
    run.add_argument("--mode", choices=("sample", "process"), default="sample")
    run.add_argument("--seed", type=int, help="master seed (overrides the config)")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument("--trace", help="write a JSON-lines trace to this file")
    run.add_argument("--format", choices=("png", "ppm"), default="png",
                     help="output image format")
    run.add_argument("--overwrite", action="store_true",
                     help="allow overwriting existing output files")
    run.add_argument("--per-class", action="store_true",
                     help="run the pipeline independently per first-level subdirectory")

    validate = sub.add_parser("validate", help="check a config and print its canonical form")
    validate.add_argument("--config", required=True)

    sheet = sub.add_parser("sheet", help="render a contact sheet of augmented variants")
    sheet.add_argument("--config", required=True)
    sheet.add_argument("--input", required=True, help="a single source image")
    sheet.add_argument("--output", required=True, help="montage PNG to write")
    sheet.add_argument("--rows", type=int, required=True)
    sheet.add_argument("--cols", type=int, required=True)
    sheet.add_argument("--seed", type=int)
    sheet.add_argument("--include-original", action="store_true",
                       help="use the unmodified image as the first tile")
    return parser


def _load_pipeline(config_path: str, seed_flag: int | None) -> Pipeline:
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    pipe = parse_config(text)
    if seed_flag is not None:
        pipe = pipe.with_seed(seed_flag)
    return pipe


def _cmd_run(args) -> int:
    pipe = _load_pipeline(args.config, args.seed)
    if args.mode == "sample" and args.count is None:
        raise ConfigError("--count is required in sample mode")
    if args.mode == "process" and args.count is not None:
        raise ConfigError("--count is not allowed in process mode, which passes every image once")
    if args.count is not None and args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    dataset = scan_dataset(args.input)
    sink = DirectorySink(args.output, image_format=args.format, overwrite=args.overwrite)

    started = time.perf_counter()
    if args.mode == "sample":
        records = pipeline_mod.sample(pipe, dataset, args.count, sink, jobs=args.jobs,
                                      per_class=args.per_class)
    else:
        records = pipeline_mod.process(pipe, dataset, sink, jobs=args.jobs,
                                       per_class=args.per_class)
    elapsed = time.perf_counter() - started

    if args.trace:
        write_trace(records, args.trace)

    print(f"images read: {len(dataset.entries)}")
    print(f"images generated: {len(records)}")
    for position, spec in enumerate(pipe.ops):
        applied = sum(1 for r in records if r.ops[position].applied)
        print(f"applied[{position}] {spec.kind}: {applied}/{len(records)}")
    rate = len(records) / elapsed if elapsed > 0 else float("inf")
    print(f"elapsed: {elapsed:.2f} s ({rate:.1f} images/s)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    pipe = _load_pipeline(args.config, None)
    print(canonical_text(pipe))
    return EXIT_OK


def _promote(img: Image, channels: int) -> Image:
    """img with ``channels`` channels: grey is repeated, and added alpha is opaque."""
    if img.channels == channels:
        return img
    arr = img.pixels
    if img.channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    if channels == 4 and arr.shape[2] == 3:
        alpha = np.full(arr.shape[:2] + (1,), 255, dtype=np.uint8)
        arr = np.concatenate([arr, alpha], axis=2)
    return Image._wrap(arr)


def _sheet_size(tile: Image, rows: int, cols: int) -> tuple[int, int]:
    """Width and height of a sheet of rows x cols tiles the size of tile."""
    return (cols * tile.width + (cols - 1) * _SEPARATOR,
            rows * tile.height + (rows - 1) * _SEPARATOR)


def _montage(tiles: list[Image], rows: int, cols: int) -> Image:
    if len({(t.width, t.height) for t in tiles}) != 1:
        raise OpError(
            "contact sheet tiles have differing sizes; add a resize or "
            "crop_centre operation to the pipeline to make dimensions uniform"
        )
    channels = max(t.channels for t in tiles)
    tiles = [_promote(t, channels) for t in tiles]
    tw, th = tiles[0].width, tiles[0].height
    width, height = _sheet_size(tiles[0], rows, cols)
    canvas = np.full((height, width, channels), 255, dtype=np.uint8)
    for i, tile in enumerate(tiles):
        r, c = divmod(i, cols)
        y = r * (th + _SEPARATOR)
        x = c * (tw + _SEPARATOR)
        canvas[y : y + th, x : x + tw] = tile.pixels
    return Image._wrap(canvas)


def _cmd_sheet(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ConfigError(f"--rows and --cols must be >= 1, got {args.rows}x{args.cols}")
    pipe = _load_pipeline(args.config, args.seed)
    source = Path(args.input)
    if not source.is_file():
        raise FileNotFoundError(f"input image not found: {source}")
    original = load_image(source)

    total = args.rows * args.cols
    variant_count = total - 1 if args.include_original else total
    # A one-image dataset gives sheet variants the exact sampling path
    # (and draw layout) of the run command.
    dataset = DatasetIndex(root=source.parent, entries=(DatasetEntry(source.name),))

    def variants(count: int) -> list[Image]:
        sink = CollectingSink()
        pipeline_mod.sample(pipe, dataset, count, sink)
        return [img for _name, img in sink.images]

    # The first tile sizes the canvas, which is refused before the other
    # variants are sampled if it would exceed the pixel budget. Variant 0
    # is then sampled again with the rest, as sample starts at index 0.
    first = original if args.include_original else variants(1)[0]
    width, height = _sheet_size(first, args.rows, args.cols)
    if width * height > _MAX_PIXELS:
        raise ConfigError(
            f"a {args.rows}x{args.cols} sheet of {first.width}x{first.height} tiles would be "
            f"{width}x{height} pixels, over the limit of {_MAX_PIXELS} pixels")
    tiles = [original] if args.include_original else []
    if variant_count > 0:
        tiles.extend(variants(variant_count))
    montage = _montage(tiles, args.rows, args.cols)
    save_image(montage, args.output, "png")
    print(f"wrote {args.output} ({montage.width}x{montage.height}, "
          f"{len(tiles)} tile{'s' if len(tiles) != 1 else ''})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sheet(args)
    except ConfigError as exc:
        print(f"augpipe: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DatasetError, DecodeError, UnsupportedImageError, OutputCollisionError) as exc:
        print(f"augpipe: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AugpipeError, MemoryError) as exc:
        # A failing sample's draws, as its trace line would give them.
        drawn = f"; drawn {json.dumps(exc.drawn)}" if getattr(exc, "drawn", None) else ""
        print(f"augpipe: runtime error: {exc}{drawn}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())
