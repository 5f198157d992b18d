"""Self-tests of the benchmark's own code: PNG writer, span arithmetic,
output digests, and the traced child against an untraced run."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import corpus
import run
import spans
from augpipe import load_image


def test_adaptive_writer_round_trips_and_uses_every_filter(tmp_path):
    rng = np.random.default_rng(7)
    images = [("photo.png", corpus.photo_like(rng, 128)), ("digit.png", corpus.digit_like(rng))]
    filters = np.zeros(len(corpus.FILTER_NAMES), dtype=np.int64)
    for name, arr in images:
        data, counts = corpus.encode_png(arr)
        (tmp_path / name).write_bytes(data)
        filters += counts
    corpus.verify_round_trip(tmp_path, images, load_image)
    assert all(filters > 0), dict(zip(corpus.FILTER_NAMES, filters.tolist()))


def test_filter_choice_is_minimum_sum():
    # A horizontal ramp: Sub leaves a row of constant small steps.
    ramp = np.tile(np.arange(0, 200, 5, dtype=np.uint8), (3, 1))[..., None]
    rows, chosen = corpus.filter_rows(ramp)
    assert chosen.tolist()[0] == 1
    assert rows[0, 2:].tolist() == [5] * (ramp.shape[1] - 1)


def _spans(items):
    names, starts, ends, parents = zip(*items)
    return {"name": list(names), "start": list(starts), "end": list(ends),
            "parent": list(parents), "work": [0] * len(items)}


def test_self_time_subtracts_direct_children():
    nested = _spans([
        ("bench.root", 0, 100, -1),
        ("pipeline.sample", 10, 40, 0),
        ("dataio.load_image", 15, 25, 1),
        ("fs.read", 16, 18, 2),
        ("pipeline.sink_write", 50, 90, 0),
    ])
    own = spans.self_times(nested)
    assert own == [30, 20, 8, 2, 40]
    assert sum(own) == 100  # self times add up to the root span
    metrics = spans.layer_metrics(nested, images=1, trace_bytes=0)
    assert metrics["dataio.decode_s"] == 8e-9
    assert metrics["fs.read_s"] == 2e-9
    assert metrics["pipeline.sink_self_s"] == 40e-9


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"] for m in run._benchmark_spec()["per_layer"]}
    traced = set(spans.layer_metrics(_spans([("bench.root", 0, 1, -1)]), 1, 0))
    harness = {"cli.import_s", "config.parse_s", "dataio.scan_s",
               "pipeline.pool_cpu_ms_per_image", "bench.trace_overhead_frac", "failed_frac"}
    assert declared == traced | harness


def test_digest_flags_one_byte_change(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.png").write_bytes(b"\x00" * 64)
    (tmp_path / "y.png").write_bytes(b"\x01" * 64)
    before, count = run.tree_digest(tmp_path)
    assert count == 2
    data = bytearray((tmp_path / "a" / "x.png").read_bytes())
    data[17] ^= 1
    (tmp_path / "a" / "x.png").write_bytes(bytes(data))
    after, _count = run.tree_digest(tmp_path)
    assert after != before

    runner = run.Runner("digits-seq", 12345, tmp_path, tmp_path / "cfg.json")
    images = run.WORKLOADS["digits-seq"].images
    first = {"code": 0, "images": images, "jobs": 1, "traced": False}
    runner._check(first, (before, "t"), tmp_path / "log")
    second = {"code": 0, "images": images, "jobs": 1, "traced": False}
    runner._check(second, (after, "t"), tmp_path / "log")
    assert first["ok"] and not second["ok"]
    assert (runner.attempted, runner.failed) == (2 * images, images)


def test_traced_child_matches_untraced_run(tmp_path):
    rng = np.random.default_rng(3)
    src = tmp_path / "in"
    for label in ("a", "b"):
        for i in range(3):
            path = src / label / f"{i}.png"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(corpus.encode_png(corpus.digit_like(rng))[0])
    config = tmp_path / "recipe.json"
    config.write_text(json.dumps(run.DIGITS_RECIPE))

    def augpipe_run(prefix, name):
        args = ["run", "--config", str(config), "--input", str(src), "--output",
                str(tmp_path / name), "--count", "4", "--per-class", "--seed", "9",
                "--trace", str(tmp_path / f"{name}.jsonl")]
        subprocess.run(prefix + args, check=True, env=run._child_env(), capture_output=True)
        return run.tree_digest(tmp_path / name), run.file_digest(tmp_path / f"{name}.jsonl")

    span_file = tmp_path / "spans.json"
    traced = augpipe_run([sys.executable, str(run.BENCH / "child.py"), "traced",
                          str(span_file), "--"], "traced")
    plain = augpipe_run([sys.executable, "-m", "augpipe"], "plain")
    assert traced == plain

    recorded = json.loads(span_file.read_text())
    assert recorded["name"][0] == "bench.root"
    root_duration = recorded["end"][0] - recorded["start"][0]
    assert sum(spans.self_times(recorded)) == root_duration
    metrics = spans.layer_metrics(recorded, images=8, trace_bytes=0)
    assert metrics["ops.elastic.calls"] == 8
    assert metrics["fs.calls_per_image"] >= 3
