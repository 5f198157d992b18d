"""Pipeline assembly and the stochastic sampling loop.

A pipeline is an ordered list of probability-gated operations plus a
master seed. Each generated sample owns an independent random stream
derived from (master seed, sample index), so results are byte-identical
regardless of execution order or worker count: parallelism is free of
coordination by construction.

Within one sample the draw layout is fixed: first the source selection
(sample mode only), then per operation one gate draw, then that op's
parameter draws when the gate passes. The gate draw happens even for
probabilities 0 and 1, which keeps draw sequences structurally identical
across probability edits.

One loop (``_apply_ops``) gates, draws and applies the ops, op-major:
each op is drawn and applied for every sample it is given before the
next op, which keeps each sample's own draw order and so its bytes. A
chunk of samples goes through it in runs (``_generate_chunk``); a run
that fails goes through it again one sample at a time, which is how a
failure is reported. ``run_sample`` is that loop on one image.

Each call decodes its sources into a table of its own (``_Sources``)
that lives only as long as the call, so no call sees another's sources.
"""

from __future__ import annotations

import json
import multiprocessing
import posixpath
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import NoReturn

from .dataio import DatasetEntry, DatasetIndex, load_image, output_name, save_image, split_by_class
from .errors import AugpipeError, DatasetError, OpError, OutputCollisionError
from .imagecore import Image, PixelFormat, RngStream, derive_sample_rng, mix64
from .ops import OpApplication, OpSpec, apply_op
from .warp import _BAND_PIXELS

__all__ = [
    "Pipeline",
    "TraceRecord",
    "run_sample",
    "sample",
    "process",
    "DirectorySink",
    "CollectingSink",
    "write_trace",
]


@dataclass(frozen=True)
class Pipeline:
    """Ordered operations plus the master seed of the sampled distribution."""

    ops: tuple[OpSpec, ...] = ()
    master_seed: int = 0

    def add(self, spec: OpSpec) -> "Pipeline":
        """Return a pipeline with spec appended; insertion order is kept."""
        if not isinstance(spec, OpSpec):
            raise TypeError(f"expected an OpSpec, got {type(spec).__name__}")
        return replace(self, ops=self.ops + (spec,))

    def with_seed(self, master_seed: int) -> "Pipeline":
        return replace(self, master_seed=master_seed)

    def for_class(self, label: str) -> "Pipeline":
        """This pipeline reseeded for one class of a per-class run.

        The class seed is mix64(master seed ^ FNV-1a 64 of the label's
        UTF-8 bytes), so classes are augmented independently yet
        reproducibly, as ``augpipe run --per-class`` does.
        """
        label_hash = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            label_hash = ((label_hash ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return self.with_seed(mix64(self.master_seed ^ label_hash))


@dataclass(frozen=True)
class TraceRecord:
    """Audit record of one generated sample."""

    sample_index: int
    source: str
    ops: tuple[OpApplication, ...]
    output: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "sample": self.sample_index,
                "source": self.source,
                "ops": [
                    {"op": app.op_kind, "applied": app.applied, "params": app.params_dict()}
                    for app in self.ops
                ],
                "output": self.output,
            }
        )


def run_sample(pipeline: Pipeline, img: Image, rng: RngStream) -> tuple[Image, list[OpApplication]]:
    """Pass one image through the pipeline using the given stream."""
    images = [img]
    apps = _apply_ops(pipeline, [rng], images)[0]
    return images[0], apps


class DirectorySink:
    """Writes augmented images under a root directory, mirroring the
    source's relative directory (its class subdirectory in particular).

    Collisions with pre-existing files are an error unless overwrite is
    set; within one run names are unique by construction because the
    sample index is part of every filename.
    """

    def __init__(self, root, image_format: str = "png", overwrite: bool = False):
        if image_format not in ("png", "ppm"):
            raise ValueError(f"image_format must be 'png' or 'ppm', got {image_format!r}")
        self.root = Path(root)
        self.image_format = image_format
        self.overwrite = overwrite

    def _extension(self, img: Image) -> str:
        if self.image_format == "png":
            return "png"
        return "pgm" if img.format is PixelFormat.GRAY8 else "ppm"

    def write(self, rel_dir: str, stem: str, sample_index: int, img: Image) -> str:
        name = output_name(stem, sample_index, self._extension(img))
        rel = f"{rel_dir}/{name}" if rel_dir else name
        target = self.root / rel
        if target.exists() and not self.overwrite:
            raise OutputCollisionError(f"output file already exists: {target} (use overwrite)")
        save_image(img, target, self.image_format)
        return rel


class CollectingSink:
    """Keeps generated images in memory; used by the contact sheet and tests."""

    def __init__(self):
        self.images: list[tuple[str, Image]] = []

    def write(self, rel_dir: str, stem: str, sample_index: int, img: Image) -> str:
        name = output_name(stem, sample_index, "png")
        rel = f"{rel_dir}/{name}" if rel_dir else name
        self.images.append((rel, img))
        return rel


def _start(pipeline: Pipeline, dataset: DatasetIndex, index: int, choose_source: bool):
    """Sample index's stream, and the dataset position of its source: the
    stream's first draw in sample mode, the index itself otherwise."""
    rng = derive_sample_rng(pipeline.master_seed, index)
    position = rng.uniform_int(0, len(dataset.entries) - 1) if choose_source else index
    return rng, position


class _Sources:
    """One call's sources: each dataset entry's image as decoded at its
    first load. Past max_bytes of pixels the oldest decodes are evicted;
    the cap holds 1000 28x28 grey digits (0.8 MB) or a 1024x1024 and eight
    256x256 RGB photos (4.7 MB) several times over."""

    max_bytes = 32 << 20

    def __init__(self):
        self.loaded: dict[DatasetEntry, Image] = {}  # oldest decode first
        self.image_bytes = 0

    def load(self, dataset: DatasetIndex, entry: DatasetEntry) -> Image:
        img = self.loaded.get(entry)
        if img is None:
            img = self.loaded[entry] = load_image(dataset.path_of(entry))
            self.image_bytes += img.pixels.nbytes
            while self.image_bytes > self.max_bytes:
                self.image_bytes -= self.loaded.pop(next(iter(self.loaded))).pixels.nbytes
        return img


def _apply_ops(
    pipeline: Pipeline, rngs: list[RngStream], images: list[Image]
) -> list[list[OpApplication]]:
    """Pass every image through the pipeline, image k drawing from rngs[k];
    images is updated in place.

    Per op: one gate draw from each sample's stream, then one apply_op per
    group of passed samples that share a shape and format. A sample applies
    the op when its gate < probability, else records a skip. Op failures
    are annotated with the index of the failing op.
    """
    applications: list[list[OpApplication]] = [[] for _ in images]
    for index, spec in enumerate(pipeline.ops):
        skipped = OpApplication(spec.kind, False)
        groups: dict[tuple, list[int]] = {}
        for k, rng in enumerate(rngs):
            if rng.unit_real() < spec.probability:
                img = images[k]
                groups.setdefault((img.width, img.height, img.format), []).append(k)
            else:
                applications[k].append(skipped)
        for members in groups.values():
            try:
                outs, applied = apply_op(spec, [images[k] for k in members],
                                         [rngs[k] for k in members])
            except OpError as exc:
                raise OpError(f"op {index} ({spec.kind}): {exc}", op_kind=exc.op_kind,
                              drawn=exc.drawn, op_index=index) from exc
            for k, out, application in zip(members, outs, applied):
                images[k] = out
                applications[k].append(application)
    return applications


# What a sample raises when it fails; a run of samples that raises one of
# these is generated again sample by sample. Anything else is a fault of
# the batched path itself and propagates.
_RERUN_ERRORS = (AugpipeError, OSError, ValueError, MemoryError)


def _raise_named(exc: BaseException, index: int, entry: DatasetEntry) -> NoReturn:
    """Raise exc again with sample index and its source before its message.

    The type stays, so the exit code does not change, and an OpError keeps
    its op kind, draws and op index. Only an AugpipeError or OSError is
    renamed; any other exception is raised as it is.
    """
    message = f"sample {index} (source {entry.rel_path}): {exc}"
    if isinstance(exc, OpError):
        raise OpError(message, op_kind=exc.op_kind, drawn=exc.drawn, op_index=exc.op_index) from exc
    if isinstance(exc, (AugpipeError, OSError)):
        raise type(exc)(message) from exc
    raise exc


def _generate_chunk(chunk, sources: _Sources, stop=lambda: None) -> list[TraceRecord]:
    """Generate a chunk of samples op-major, writing them in index order.

    Each sample draws from its own stream, so its bytes do not depend on
    the run it is in. A run of consecutive samples whose sources add up to
    at most one warp band of pixels goes through the ops together, and is
    written after its last op; a larger source runs alone. So the images
    held at a time are one run's, never a chunk's. A run of several
    samples that raises one of _RERUN_ERRORS is run again one sample at a
    time, each from a freshly derived stream, which writes the samples
    before the first failing one and raises that sample's own error. A
    source that fails to load ends the chunk with its error once the run
    before it is written. Whether it fails at load, in an op or at write,
    a sample's error names the sample and its source (_raise_named).
    sources is the call's source table; stop is called before each run
    and may raise to end the chunk there.
    """
    pipeline, dataset, indices, sink, choose_source = chunk
    records: list[TraceRecord] = []
    pending: list[tuple[int, DatasetEntry, RngStream, Image]] = []  # sample index, source, stream, image
    pending_pixels = 0

    def run(batch) -> None:
        images = [img for _index, _entry, _rng, img in batch]
        try:
            applications = _apply_ops(pipeline, [rng for _index, _entry, rng, _img in batch], images)
        except _RERUN_ERRORS as exc:
            if len(batch) > 1:
                for index, entry, _rng, img in batch:
                    run([(index, entry, _start(pipeline, dataset, index, choose_source)[0], img)])
                return
            _raise_named(exc, *batch[0][:2])
        for (index, entry, _rng, _img), out, apps in zip(batch, images, applications):
            rel_dir, name = posixpath.split(entry.rel_path)
            # The name up to its last dot, as Path.stem takes it: a dot
            # that starts or ends the name begins no suffix.
            dot = name.rfind(".")
            stem = name[:dot] if 0 < dot < len(name) - 1 else name
            try:
                written = sink.write(rel_dir, stem, index, out)
            except Exception as exc:
                _raise_named(exc, index, entry)
            records.append(TraceRecord(index, entry.rel_path, tuple(apps), written))

    def flush():
        nonlocal pending_pixels
        stop()
        run(pending)
        pending.clear()
        pending_pixels = 0

    for index in indices:
        rng, position = _start(pipeline, dataset, index, choose_source)
        entry = dataset.entries[position]
        try:
            img = sources.load(dataset, entry)
        except Exception as exc:
            flush()
            _raise_named(exc, index, entry)
        pixels = img.width * img.height
        if pending and pending_pixels + pixels > _BAND_PIXELS:
            flush()
        pending.append((index, entry, rng, img))
        pending_pixels += pixels
    if pending:
        flush()
    return records


def _run(pipeline, dataset, per_class, count, sink, jobs) -> list[TraceRecord]:
    """Generate samples 0..count-1 of the dataset, or of each class with its
    own seed when per_class; count None passes every image through once.

    Records come in class order, then index order. With jobs > 1 the chunks
    of every class go through one fork pool, which is shut down, its queued
    chunks cancelled, before this returns or raises.
    """
    if per_class:
        runs = [(pipeline.for_class(label), part) for label, part in split_by_class(dataset)]
    else:
        runs = [(pipeline, dataset)]
    chunks = []
    run_positions = []  # per run, the positions of its chunks in chunks
    for run_pipeline, run_dataset in runs:
        indices = range(len(run_dataset.entries) if count is None else count)
        # Contiguous chunks keep per-worker cache locality.
        step = max(1, -(-len(indices) // (jobs * 4)))
        run_chunks = [
            (run_pipeline, run_dataset, indices[i : i + step], sink, count is not None)
            for i in range(0, len(indices), step)
        ]
        run_positions.append(range(len(chunks), len(chunks) + len(run_chunks)))
        chunks.extend(run_chunks)
    if jobs <= 1 or len(chunks) <= 1:
        sources = _Sources()
        return [record for chunk in chunks for record in _generate_chunk(chunk, sources)]
    if isinstance(sink, CollectingSink):
        # Each chunk collects into a sink of its own, shipped empty.
        chunks = [chunk[:3] + (CollectingSink(),) + chunk[4:] for chunk in chunks]
    context = multiprocessing.get_context("fork")
    failed = context.Value("q", len(chunks))
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                               initializer=_init_worker, initargs=(failed,))
    try:
        futures = [None] * len(chunks)
        for position in _round_robin(run_positions):
            futures[position] = pool.submit(_generate_chunk_in_worker, chunks[position], position)
        # Results are read in chunk order, so records, collected images and
        # the error raised are those of a jobs=1 call.
        records = []
        for future in futures:
            part, collected = future.result()
            records.extend(part)
            if collected:
                sink.images.extend(collected)
        return records
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _round_robin(run_positions) -> list[int]:
    """Chunk positions in submission order: the first chunk of every run
    (every class of a per-class call), then the second, and so on.

    Two chunks fewer than C submissions apart, while C runs have chunks
    left, belong to different runs. Classes write into directories of
    their own, so workers seldom create files in one directory at once,
    where each create waits for the directory's lock.
    """
    return [position for layer in zip_longest(*run_positions) for position in layer
            if position is not None]


class _ChunkStopped(Exception):
    """A chunk gave up because a chunk before it failed."""


# In a pool worker, for the lifetime of the call's pool: the shared
# position of the earliest chunk that failed (the number of chunks while
# none has), and the worker's source table.
_failed_chunk = None
_worker_sources = None


def _init_worker(failed) -> None:
    global _failed_chunk, _worker_sources
    _failed_chunk = failed
    _worker_sources = _Sources()


def _generate_chunk_in_worker(chunk, position: int) -> tuple[list[TraceRecord], list]:
    """_generate_chunk, plus the images its CollectingSink gathered: the
    worker's sink is not the caller's, so they go back with the records.

    Once a chunk before it has failed, a chunk stops before its next run
    of samples, so it writes little that a jobs=1 call would not; the
    chunks before the failed one run on, so the error the caller raises
    is the one a jobs=1 call raises."""

    def stop() -> None:
        if _failed_chunk.value < position:
            raise _ChunkStopped

    try:
        records = _generate_chunk(chunk, _worker_sources, stop)
    except _ChunkStopped:
        raise
    except BaseException:
        with _failed_chunk.get_lock():
            _failed_chunk.value = min(_failed_chunk.value, position)
        raise
    sink = chunk[3]
    return records, sink.images if isinstance(sink, CollectingSink) else []


def sample(
    pipeline: Pipeline,
    dataset: DatasetIndex,
    count: int,
    sink,
    jobs: int = 1,
    per_class: bool = False,
) -> list[TraceRecord]:
    """Generate `count` samples, drawing sources with replacement.

    Sample i derives its stream from (master_seed, i) and draws its
    source position as the first value, so outputs and traces depend only
    on (pipeline, dataset, count), never on scheduling.

    With per_class, each class of ``split_by_class(dataset)`` gets `count`
    samples of its own, drawn by ``pipeline.for_class(label)``; records
    come in class order.
    """
    if not dataset.entries:
        raise DatasetError("cannot sample from an empty dataset")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    return _run(pipeline, dataset, per_class, count, sink, jobs)


def process(
    pipeline: Pipeline,
    dataset: DatasetIndex,
    sink,
    jobs: int = 1,
    per_class: bool = False,
) -> list[TraceRecord]:
    """Pass every dataset image through the pipeline exactly once, in
    dataset order; sample i is dataset entry i.

    With per_class, each class of ``split_by_class(dataset)`` is processed
    by ``pipeline.for_class(label)``, with indices from 0 per class.
    """
    if not dataset.entries:
        raise DatasetError("cannot process an empty dataset")
    return _run(pipeline, dataset, per_class, None, sink, jobs)


def write_trace(records: list[TraceRecord], path) -> None:
    """Write one JSON object per line, in sample order, to a temporary
    file that replaces path once complete; if the write fails, path is
    left as it was and the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{multiprocessing.current_process().pid}.tmp")
    # Mode "x" creates with O_CREAT | O_EXCL and mode 0o666, less the umask.
    fh = temporary.open("x", encoding="utf-8")
    try:
        with fh:
            for record in records:
                fh.write(record.to_json())
                fh.write("\n")
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
