"""In-memory spans around augpipe's module boundaries, and the per-layer
metrics computed from them.

Nothing under ``src/`` knows about tracing. ``install`` replaces, in the
traced process only, the module attributes through which one augpipe
module calls the next (``pipeline`` finds ``load_image``, ``apply_op``
and friends in its own globals; ``ops`` finds the ``warp_*``, ``resize``
and geometry solvers in its globals), plus ``DirectorySink.write``, each
spec class's ``draw`` and the four ``pathlib.Path`` file calls. A root
span covers the whole process, so the self times of all spans add up to
the root's duration.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import time
from collections import defaultdict

# Op kinds the two recipes use; each gets apply/draw/calls metrics.
OP_KINDS = ("elastic", "rotate", "shear", "skew", "zoom", "crop_random", "flip")
WARPS = (("mesh", "warp_mesh"), ("affine", "warp_affine"),
         ("projective", "warp_projective"), ("resize", "resize"))
FS_CALLS = (("write", "write_bytes"), ("mkdir", "mkdir"), ("exists", "exists"),
            ("read", "read_bytes"))


class Tracer:
    """Spans as parallel lists: name, start/end (ns), parent index, work.

    ``work`` is a layer-specific amount (bytes inflated or encoded, pixels
    warped) used for throughput figures.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self.work.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, fn, name, work=None):
        """Return fn recording a span per call.

        ``name`` is a string or a function of the call's arguments;
        ``work(args, result)`` gives the span's work amount.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if work is not None:
                self.work[index] = work(args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents, "work": self.work}


def _raw_bytes(img) -> int:
    # Bytes of the filtered scanlines the PNG codec inflates or deflates.
    return img.height * (img.width * img.channels + 1)


def _pixels(_args, img) -> int:
    return img.width * img.height


def install(tracer: Tracer) -> None:
    """Wrap augpipe's inter-module calls so every call records a span."""
    from augpipe import cli, ops, pipeline

    wrap = tracer.wrap
    cli.write_trace = wrap(cli.write_trace, "pipeline.write_trace")
    pipeline.sample = wrap(pipeline.sample, "pipeline.sample")
    pipeline.process = wrap(pipeline.process, "pipeline.process")
    pipeline.run_sample = wrap(pipeline.run_sample, "pipeline.run_sample")
    pipeline.derive_sample_rng = wrap(pipeline.derive_sample_rng, "imagecore.derive")
    pipeline.load_image = wrap(pipeline.load_image, "dataio.load_image",
                               lambda _args, img: _raw_bytes(img))
    pipeline.save_image = wrap(pipeline.save_image, "dataio.save_image",
                               lambda args, _result: _raw_bytes(args[0]))
    pipeline.apply_op = wrap(pipeline.apply_op, lambda spec, *_: f"ops.{spec.kind}.apply")
    pipeline.DirectorySink.write = wrap(pipeline.DirectorySink.write, "pipeline.sink_write")
    for spec_cls in ops.OpSpec.__subclasses__():
        spec_cls.draw = wrap(spec_cls.draw, f"ops.{spec_cls.kind}.draw")
    for short, attr in WARPS:
        setattr(ops, attr, wrap(getattr(ops, attr), f"warp.{short}", _pixels))
    for attr in ("inscribed_crop_rect", "shear_crop_rect", "solve_homography"):
        setattr(ops, attr, wrap(getattr(ops, attr), "geometry.solve"))
    for short, attr in FS_CALLS:
        setattr(pathlib.Path, attr, wrap(getattr(pathlib.Path, attr), f"fs.{short}"))


def self_times(spans: dict) -> list[int]:
    """Per span: its duration minus the part of it its children cover."""
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0, start
        for child in sorted(children[index], key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(spans: dict, images: int, trace_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced run (seconds unless named otherwise)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)
    run_sample_us = []
    for name, start, end, own, amount in zip(spans["name"], spans["start"], spans["end"],
                                             self_times(spans), spans["work"]):
        self_s[name] += own / 1e9
        total_s[name] += (end - start) / 1e9
        calls[name] += 1
        work[name] += amount
        if name == "pipeline.run_sample":
            run_sample_us.append((end - start) / 1e3)

    def rate(name, scale):
        return work[name] / scale / self_s[name] if self_s[name] > 0 else 0.0

    samples = calls["pipeline.run_sample"]
    out = {
        "dataio.decode_s": self_s["dataio.load_image"],
        "dataio.decode_mb_per_s": rate("dataio.load_image", 1e6),
        "dataio.encode_s": self_s["dataio.save_image"],
        "dataio.encode_mb_per_s": rate("dataio.save_image", 1e6),
    }
    for short, _attr in FS_CALLS:
        out[f"fs.{short}_s"] = self_s[f"fs.{short}"]
    out["fs.calls_per_image"] = (
        (calls["fs.mkdir"] + calls["fs.exists"] + calls["fs.write"]) / images if images else 0.0
    )
    out["pipeline.self_s"] = (self_s["pipeline.sample"] + self_s["pipeline.process"]
                              + self_s["pipeline.run_sample"])
    out["pipeline.sink_self_s"] = self_s["pipeline.sink_write"]
    out["pipeline.cache_hit_ratio"] = 1.0 - calls["dataio.load_image"] / samples if samples else 0.0
    out["pipeline.trace_write_s"] = total_s["pipeline.write_trace"]
    out["pipeline.trace_bytes"] = float(trace_bytes)
    out["pipeline.run_sample_us_p50"] = _percentile(run_sample_us, 0.5)
    out["pipeline.run_sample_us_p99"] = _percentile(run_sample_us, 0.99)
    for kind in OP_KINDS:
        out[f"ops.{kind}.apply_s"] = self_s[f"ops.{kind}.apply"]
        out[f"ops.{kind}.draw_s"] = self_s[f"ops.{kind}.draw"]
        out[f"ops.{kind}.calls"] = float(calls[f"ops.{kind}.apply"])
    for short, _attr in WARPS:
        out[f"warp.{short}_s"] = self_s[f"warp.{short}"]
        out[f"warp.{short}_mpix_per_s"] = rate(f"warp.{short}", 1e6)
    out["geometry.solve_s"] = self_s["geometry.solve"]
    out["imagecore.derive_s"] = self_s["imagecore.derive"]
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several runs' metric dicts."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
