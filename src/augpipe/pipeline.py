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

A ``sample`` call decodes its sources into a table of its own
(``_Sources``) that lives only as long as the call, so no call sees
another's sources. A ``process`` call reads each source once, so it
keeps none: each is decoded for its sample and dropped with it.

Only a ``DirectorySink``, whose files every process sees, is written in
pool workers; any other sink is written in the calling process.

``_run`` yields a call's records as their files are written, so a caller
that writes each one away, as ``augpipe run`` does to its trace, holds
none it has written; ``sample`` and ``process`` collect them in a list.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

from .dataio import (DatasetEntry, DatasetIndex, _extension, load_image, output_name, save_image,
                     split_by_class)
from .errors import AugpipeError, DatasetError, OpError, OutputCollisionError, WorkerLostError
from .imagecore import Image, RngStream, derive_sample_rng, mix64
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

        The class seed is mix64(master seed ^ FNV-1a 64 of os.fsencode(label),
        the UTF-8 of any valid name), so classes are augmented independently
        yet reproducibly, as ``augpipe run --per-class`` does.
        """
        label_hash = 0xCBF29CE484222325
        for byte in os.fsencode(label):
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
        """One JSON object. A name that is not UTF-8 (a file name's bytes
        as os.fsdecode escapes them) is written with U+FFFD in their place,
        and its exact bytes follow as hex in source_bytes or output_bytes."""
        record = {
            "sample": self.sample_index,
            "source": self.source,
            "ops": [
                {"op": app.op_kind, "applied": app.applied, "params": app.drawn_params}
                for app in self.ops
            ],
            "output": self.output,
        }
        for key in ("source", "output"):
            try:
                record[key].encode("utf-8")
            except UnicodeEncodeError:
                name = os.fsencode(record[key])
                record[key] = name.decode("utf-8", "replace")
                record[f"{key}_bytes"] = name.hex()
        return json.dumps(record)


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

    def write(self, source: str, sample_index: int, img: Image) -> str:
        rel = output_name(source, sample_index, _extension(img, self.image_format))
        target = self.root / rel
        if target.exists() and not self.overwrite:
            raise OutputCollisionError(f"output file already exists: {target} (use overwrite)")
        save_image(img, target, self.image_format)
        return rel


class CollectingSink:
    """Keeps generated images in memory, written in the calling process at
    any jobs; used by the contact sheet and tests."""

    def __init__(self):
        self.images: list[tuple[str, Image]] = []

    def write(self, source: str, sample_index: int, img: Image) -> str:
        rel = output_name(source, sample_index)
        self.images.append((rel, img))
        return rel


def _start(pipeline: Pipeline, dataset: DatasetIndex, index: int, choose_source: bool):
    """Sample index's stream, and the dataset position of its source: the
    stream's first draw in sample mode, the index itself otherwise."""
    rng = derive_sample_rng(pipeline.master_seed, index)
    position = rng.uniform_int(0, len(dataset.entries) - 1) if choose_source else index
    return rng, position


class _Sources:
    """One sample call's sources: each dataset entry's image as decoded at
    its first load. Past max_bytes of pixels the oldest decodes are
    evicted; the cap holds 1000 28x28 grey digits (0.8 MB) many times
    over. A process call keeps no table, as it reads no source twice."""

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
    group of passed samples whose pixel arrays share a shape. A sample applies
    the op when its gate < probability, else records a skip. Op failures
    are annotated with the index of the failing op.
    """
    applications: list[list[OpApplication]] = [[] for _ in images]
    for index, spec in enumerate(pipeline.ops):
        groups: dict[tuple, list[int]] = {}
        for k, rng in enumerate(rngs):
            if rng.unit_real() < spec.probability:
                groups.setdefault(images[k].pixels.shape, []).append(k)
            else:
                applications[k].append(OpApplication(spec.kind, False))
        for members in groups.values():
            try:
                outs, applied = apply_op(spec, [images[k] for k in members],
                                         [rngs[k] for k in members])
            except OpError as exc:
                raise OpError(f"op {index} ({spec.kind}): {exc}", op_kind=spec.kind,
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
    its op kind, draws and op index. Only an AugpipeError, OSError or
    MemoryError is renamed; any other exception is raised as it is.
    """
    message = f"sample {index} (source {entry.rel_path}): {str(exc) or type(exc).__name__}"
    if isinstance(exc, OpError):
        raise OpError(message, op_kind=exc.op_kind, drawn=exc.drawn, op_index=exc.op_index) from exc
    if isinstance(exc, (AugpipeError, OSError, MemoryError)):
        raise type(exc)(message) from exc
    raise exc


def _generate_chunk(chunk, sources: _Sources, stop=lambda: None) -> Iterator[TraceRecord]:
    """Generate a chunk of samples op-major, writing them in index order,
    and yield each run's records once its files are written.

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
    sources is the call's source table, read in sample mode; in process
    mode each source is decoded for its sample alone, and a run is
    written as soon as no further source fits it, so no source outlives
    its run. stop is called before each run and may raise to end the
    chunk there.
    """
    pipeline, dataset, indices, sink, choose_source = chunk
    pending: list[tuple[int, DatasetEntry, RngStream, Image]] = []  # sample index, source, stream, image
    pending_pixels = 0

    def run(batch) -> list[TraceRecord]:
        images = [img for _index, _entry, _rng, img in batch]
        try:
            applications = _apply_ops(pipeline, [rng for _index, _entry, rng, _img in batch], images)
        except _RERUN_ERRORS as exc:
            if len(batch) > 1:
                records = []
                for index, entry, _rng, img in batch:
                    records += run([(index, entry, _start(pipeline, dataset, index, choose_source)[0],
                                     img)])
                return records
            _raise_named(exc, *batch[0][:2])
        records = []
        for (index, entry, _rng, _img), out, apps in zip(batch, images, applications):
            try:
                written = sink.write(entry.rel_path, index, out)
            except Exception as exc:
                _raise_named(exc, index, entry)
            records.append(TraceRecord(index, entry.rel_path, tuple(apps), written))
        return records

    def flush() -> list[TraceRecord]:
        nonlocal pending_pixels
        stop()
        records = run(pending)
        pending.clear()
        pending_pixels = 0
        return records

    for index in indices:
        rng, position = _start(pipeline, dataset, index, choose_source)
        entry = dataset.entries[position]
        try:
            # No source is read twice in process mode, so none is kept.
            img = (sources.load(dataset, entry) if choose_source
                   else load_image(dataset.path_of(entry)))
        except Exception as exc:
            yield from flush()
            _raise_named(exc, index, entry)
        pixels = img.width * img.height
        if pending and pending_pixels + pixels > _BAND_PIXELS:
            yield from flush()
        pending.append((index, entry, rng, img))
        pending_pixels += pixels
        del img  # pending holds it until its run is written
        if pending_pixels >= _BAND_PIXELS:  # no further source fits the run
            yield from flush()
    if pending:
        yield from flush()


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run(pipeline, dataset, per_class, count, sink, jobs) -> Iterator[TraceRecord]:
    """Generate samples 0..count-1 of the dataset, or of each class with its
    own seed when per_class; count None passes every image through once.

    The arguments are checked here, as sample and process check them,
    before anything is written: an empty dataset is a DatasetError, and a
    count or jobs below what they allow a ValueError. The records then
    come, in class order and then index order, from the iterator returned,
    each once its file is written; close it to end the call early. The
    workers are jobs, capped at the usable CPUs and then at the chunks,
    which are cut from the workers; any sink but a DirectorySink itself (a
    subclass may hold state) gets one, this process. With more than one,
    the chunks of every class go through one fork pool, see _pooled.
    """
    if not dataset.entries:
        raise DatasetError("cannot process an empty dataset" if count is None
                           else "cannot sample from an empty dataset")
    if count is not None and count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if per_class:
        runs = [(pipeline.for_class(label), part) for label, part in split_by_class(dataset)]
    else:
        runs = [(pipeline, dataset)]
    workers = min(jobs, _usable_cpus()) if type(sink) is DirectorySink else 1
    chunks = []
    ranks = []  # each chunk's place within its run
    for run_pipeline, run_dataset in runs:
        indices = range(len(run_dataset.entries) if count is None else count)
        # Contiguous chunks keep per-worker cache locality.
        step = max(1, -(-len(indices) // (workers * 4)))
        starts = range(0, len(indices), step)
        chunks.extend((run_pipeline, run_dataset, indices[i : i + step], sink, count is not None)
                      for i in starts)
        ranks.extend(range(len(starts)))
    # A fork pool forks all its workers at the first submit, so none
    # outnumbers the chunks.
    workers = min(workers, len(chunks))
    if workers <= 1:
        sources = _Sources()
        return (record for chunk in chunks for record in _generate_chunk(chunk, sources))
    return _pooled(chunks, ranks, workers, per_class)


def _pooled(chunks, ranks, workers, per_class) -> Iterator[TraceRecord]:
    """The records of the chunks, generated in a fork pool of workers and
    read in chunk order, so the records and the error raised are those of
    a jobs=1 call. A chunk's records are dropped once yielded; the chunks
    that finish before their turn wait in this process. A worker process
    that ends before it returns a chunk is a WorkerLostError naming the
    first chunk whose records were lost. The pool is shut down, its queued
    chunks cancelled, before this returns, raises or is closed.
    """
    # Imported here: a call with one worker starts no pool.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    failed = context.Value("q", len(chunks))
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=_init_worker, initargs=(failed,))
    try:
        futures = [None] * len(chunks)
        # The first chunk of every run (every class of a per-class call),
        # then the second, and so on; sorted is stable, so runs keep their
        # order within a rank. Classes write into directories of their own,
        # so workers seldom create files in one directory at once, where
        # each create waits for the directory's lock.
        try:
            for position in sorted(range(len(chunks)), key=ranks.__getitem__):
                futures[position] = pool.submit(_generate_chunk_in_worker, chunks[position],
                                                position)
        except BrokenProcessPool:
            pass  # a worker has ended: the chunks left unsubmitted are lost, found below
        for position, future in enumerate(futures):
            try:
                if future is None:
                    raise BrokenProcessPool
                records = future.result()
            except BrokenProcessPool as exc:
                _pipeline, dataset, indices, _sink, _choose = chunks[position]
                where = f"class {dataset.entries[0].label!r}, " if per_class else ""
                raise WorkerLostError(
                    f"a worker process ended before it returned the records of {where}"
                    f"samples {indices[0]}-{indices[-1]}") from exc
            futures[position] = None
            yield from records
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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


def _generate_chunk_in_worker(chunk, position: int) -> list[TraceRecord]:
    """_generate_chunk in a pool worker, whose sink is a DirectorySink: its
    files are the output, so only the records go back to the caller.

    Once a chunk before it has failed, a chunk stops before its next run
    of samples, so it writes little that a jobs=1 call would not; the
    chunks before the failed one run on, so the error the caller raises
    is the one a jobs=1 call raises."""

    def stop() -> None:
        if _failed_chunk.value < position:
            raise _ChunkStopped

    try:
        return list(_generate_chunk(chunk, _worker_sources, stop))
    except BaseException:
        # A stopped chunk comes after the failed one: min() keeps the flag.
        with _failed_chunk.get_lock():
            _failed_chunk.value = min(_failed_chunk.value, position)
        raise


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
    return list(_run(pipeline, dataset, per_class, count, sink, jobs))


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
    return list(_run(pipeline, dataset, per_class, None, sink, jobs))


def write_trace(records: Iterable[TraceRecord], path) -> None:
    """Write one JSON object per line, in sample order, to a temporary
    file that replaces path once complete; if the write fails, or reading
    records raises, path is left as it was and the temporary file is
    removed. records may be any iterable, read once, record by record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The token keeps a file left by a killed run with the same pid from
    # blocking this write; such a file is left alone.
    token = os.urandom(8).hex()
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{token}.tmp")
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
