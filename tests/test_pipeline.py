"""Gating semantics, ordering, determinism, parallel equivalence, trace format."""

import json
import multiprocessing
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augpipe import (
    CollectingSink,
    ConfigError,
    CropCentre,
    CropRandom,
    DatasetError,
    DecodeError,
    DirectorySink,
    Elastic,
    Equalize,
    Flip,
    GeometryError,
    Greyscale,
    Image,
    Invert,
    OpApplication,
    OpError,
    OutputCollisionError,
    Pipeline,
    PixelFormat,
    Resize,
    Rotate,
    RotateCardinal,
    Scale,
    Shear,
    Skew,
    Zoom,
    derive_sample_rng,
    load_image,
    run_sample,
    save_image,
    scan_dataset,
    split_by_class,
    write_trace,
)
from augpipe import pipeline as pipeline_mod
from augpipe.pipeline import TraceRecord
from augpipe.warp import _BAND_PIXELS, monitor_source_bounds
from conftest import random_image, run_op, tree_bytes


def _small_dataset(root, np_rng, count=10, size=12):
    for i in range(count):
        save_image(random_image(np_rng, size, size), root / f"img{i:02d}.png")
    return scan_dataset(root)


class TestRunSample:
    def test_probability_zero_never_applies(self, np_rng):
        img = random_image(np_rng, 8, 8)
        p = Pipeline().add(Invert(probability=0))
        for i in range(20):
            out, apps = run_sample(p, img, derive_sample_rng(1, i))
            assert np.array_equal(out.pixels, img.pixels)
            assert apps[0].applied is False
            assert apps[0].drawn_params == ()

    def test_probability_one_always_applies(self, np_rng):
        img = random_image(np_rng, 8, 8)
        p = Pipeline().add(Invert(probability=1))
        for i in range(20):
            out, apps = run_sample(p, img, derive_sample_rng(1, i))
            assert apps[0].applied is True
            assert np.array_equal(out.pixels, 255 - img.pixels)

    def test_empty_pipeline_copies_input(self, np_rng):
        img = random_image(np_rng, 8, 8)
        out, apps = run_sample(Pipeline(), img, derive_sample_rng(0, 0))
        assert out is img
        assert apps == []

    def test_gate_fraction_near_half(self, np_rng):
        img = random_image(np_rng, 4, 4)
        p = Pipeline().add(Invert(probability=0.5))
        n = 10_000
        applied = sum(
            run_sample(p, img, derive_sample_rng(77, i))[1][0].applied for i in range(n)
        )
        # binomial sigma = 0.005; [0.48, 0.52] is a 4 sigma band
        assert 0.48 <= applied / n <= 0.52

    def test_trace_order_matches_insertion_order(self, np_rng):
        img = random_image(np_rng, 16, 16)
        p = (
            Pipeline()
            .add(Elastic(probability=1, grid_width=2, grid_height=2, magnitude=1))
            .add(Rotate(probability=0.5, max_left=5, max_right=5))
            .add(Invert(probability=0.25))
        )
        for i in range(10):
            _, apps = run_sample(p, img, derive_sample_rng(3, i))
            assert [a.op_kind for a in apps] == ["elastic", "rotate", "invert"]

    def test_gate_always_consumed_even_at_edges(self, np_rng):
        # With the same stream, an all-gates-closed pipeline must leave
        # the stream exactly one draw per op further along.
        img = random_image(np_rng, 8, 8)
        p = Pipeline().add(Invert(probability=0)).add(Invert(probability=0))
        rng = derive_sample_rng(9, 9)
        run_sample(p, img, rng)
        reference = derive_sample_rng(9, 9)
        reference.unit_real()
        reference.unit_real()
        assert rng.next_word() == reference.next_word()

    def test_op_error_carries_op_index(self, np_rng):
        img = random_image(np_rng, 8, 8)
        p = Pipeline().add(Invert(probability=1)).add(
            CropCentre(probability=1, width=64, height=64)
        )
        with pytest.raises(OpError) as info:
            run_sample(p, img, derive_sample_rng(0, 0))
        assert info.value.op_index == 1
        assert "op 1" in str(info.value)


class TestPipelineAssembly:
    def test_add_appends_in_order(self):
        p = Pipeline().add(Elastic(probability=1, grid_width=4, grid_height=4, magnitude=5))
        assert len(p.ops) == 1
        p2 = p.add(Rotate(probability=0.5, max_left=10, max_right=10))
        assert [s.kind for s in p2.ops] == ["elastic", "rotate"]
        assert [s.kind for s in p.ops] == ["elastic"]  # original untouched

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            Pipeline().add(Rotate(probability=1.5))

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            Pipeline().add("rotate")

    @pytest.mark.parametrize("seed, label, class_seed", [
        (42, "3", 0x149322AACB1EA446),
        (0, "chiffre-\u00e9", 0xD72BD9790A1A5CDA),
        (2**64 - 1, "", 0x7DDC93B2B3A915AF),
    ])
    def test_class_seed_is_pinned(self, seed, label, class_seed):
        # mix64(seed ^ FNV-1a 64 of the UTF-8 label); per-class output
        # trees depend on these values.
        p = Pipeline(ops=(Invert(probability=1),), master_seed=seed).for_class(label)
        assert p.master_seed == class_seed
        assert p.ops == (Invert(probability=1),)


class TestSample:
    def test_zero_count(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng)
        sink = CollectingSink()
        records = pipeline_mod.sample(Pipeline(), ds, 0, sink)
        assert records == [] and sink.images == []

    def test_counts_and_names(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=7)
        out = tmp_path / "out"
        p = Pipeline(master_seed=5).add(Invert(probability=0.5))
        records = pipeline_mod.sample(p, ds, 25, DirectorySink(out))
        files = sorted(f.name for f in out.iterdir())
        assert len(files) == 25
        assert [r.sample_index for r in records] == list(range(25))
        for r in records:
            assert r.output.endswith(f"_aug_{r.sample_index:06d}.png")
            assert r.source in {e.rel_path for e in ds.entries}

    def test_empty_dataset_rejected(self, tmp_path):
        from augpipe.dataio import DatasetIndex

        with pytest.raises(DatasetError):
            pipeline_mod.sample(Pipeline(), DatasetIndex(tmp_path, ()), 5, CollectingSink())

    def test_same_seed_is_byte_identical(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng)
        p = Pipeline(master_seed=11).add(
            Elastic(probability=1, grid_width=3, grid_height=3, magnitude=3)
        )
        pipeline_mod.sample(p, ds, 30, DirectorySink(tmp_path / "a"))
        pipeline_mod.sample(p, ds, 30, DirectorySink(tmp_path / "b"))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_worker_count_does_not_change_output(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng)
        p = Pipeline(master_seed=21).add(
            Elastic(probability=1, grid_width=3, grid_height=3, magnitude=3)
        ).add(Rotate(probability=0.5, max_left=8, max_right=8))
        r1 = pipeline_mod.sample(p, ds, 40, DirectorySink(tmp_path / "j1"), jobs=1)
        r3 = pipeline_mod.sample(p, ds, 40, DirectorySink(tmp_path / "j3"), jobs=3)
        assert tree_bytes(tmp_path / "j1") == tree_bytes(tmp_path / "j3")
        assert r1 == r3

    def test_source_draw_uses_per_sample_stream(self, tmp_path, np_rng):
        # The source position is the first draw of the sample's stream.
        ds = _small_dataset(tmp_path / "in", np_rng, count=10)
        p = Pipeline(master_seed=123)
        records = pipeline_mod.sample(p, ds, 15, CollectingSink())
        for r in records:
            expected = derive_sample_rng(123, r.sample_index).uniform_int(0, 9)
            assert r.source == ds.entries[expected].rel_path

    def test_collision_without_overwrite(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=3)
        out = tmp_path / "out"
        p = Pipeline(master_seed=2)
        pipeline_mod.sample(p, ds, 3, DirectorySink(out))
        with pytest.raises(OutputCollisionError) as info:
            pipeline_mod.sample(p, ds, 3, DirectorySink(out))
        assert "sample 0" in str(info.value)
        # overwrite allows the rerun
        pipeline_mod.sample(p, ds, 3, DirectorySink(out, overwrite=True))


class TestSourceCache:
    def _sample_one(self, root):
        sink = CollectingSink()
        pipeline_mod.sample(Pipeline(), scan_dataset(root), 1, sink)
        return sink.images[0][1].pixels

    def test_rewritten_file_is_decoded_again(self, tmp_path, np_rng):
        first, second = random_image(np_rng, 4, 4), random_image(np_rng, 5, 5)
        save_image(first, tmp_path / "a.png")
        assert np.array_equal(self._sample_one(tmp_path), first.pixels)
        save_image(second, tmp_path / "a.png")
        assert np.array_equal(self._sample_one(tmp_path), second.pixels)

    def test_same_size_rewrite_with_new_mtime(self, tmp_path, np_rng):
        # PGM files of equal dimensions have equal sizes, so only the
        # modification time tells the two versions apart.
        path = tmp_path / "a.pgm"
        first = random_image(np_rng, 6, 6)
        second = Image.from_array(255 - first.pixels, first.format)
        save_image(first, path, "ppm")
        assert np.array_equal(self._sample_one(tmp_path), first.pixels)
        stamp, size = path.stat().st_mtime_ns, path.stat().st_size
        save_image(second, path, "ppm")
        os.utime(path, ns=(stamp + 1_000_000, stamp + 1_000_000))
        assert path.stat().st_size == size
        assert np.array_equal(self._sample_one(tmp_path), second.pixels)

    def test_same_size_rewrite_with_same_mtime(self, tmp_path, np_rng):
        # Neither size nor modification time tells the two versions apart:
        # only a call that keeps no sources from an earlier call sees the
        # rewrite.
        path = tmp_path / "a.pgm"
        first = random_image(np_rng, 6, 6)
        second = Image.from_array(255 - first.pixels, first.format)
        save_image(first, path, "ppm")
        assert np.array_equal(self._sample_one(tmp_path), first.pixels)
        before = path.stat()
        save_image(second, path, "ppm")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (path.stat().st_mtime_ns, path.stat().st_size) == (before.st_mtime_ns, before.st_size)
        assert np.array_equal(self._sample_one(tmp_path), second.pixels)

    def test_cache_stays_within_its_cap(self, tmp_path, np_rng, monkeypatch):
        # Each 8x8 grey source decodes to 64 bytes; the cap holds three.
        sources = pipeline_mod._Sources()
        sources.max_bytes = 3 * 64 + 10
        for i in range(5):
            save_image(random_image(np_rng, 8, 8), tmp_path / f"{i}.png")
        ds = scan_dataset(tmp_path)
        entries = list(ds.entries)
        decoded = []
        monkeypatch.setattr(pipeline_mod, "load_image",
                            lambda path: decoded.append(path) or load_image(path))
        for entry in entries:
            img = sources.load(ds, entry)
            assert np.array_equal(img.pixels, load_image(ds.path_of(entry)).pixels)
            assert sum(held.pixels.nbytes for held in sources.loaded.values()) <= 3 * 64 + 10
        assert list(sources.loaded) == entries[2:]
        assert sources.image_bytes == 3 * 64
        sources.load(ds, entries[4])  # still held: not decoded again
        sources.load(ds, entries[0])  # evicted: decoded again
        assert decoded == [ds.path_of(entry) for entry in entries + entries[:1]]
        assert list(sources.loaded) == entries[3:] + entries[:1]
        # A held entry's image is the one decoded at its first load.
        assert sources.load(ds, entries[0]) is sources.loaded[entries[0]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_call_leaves_no_module_state(self, tmp_path, np_rng, jobs):
        ds = _small_dataset(tmp_path, np_rng, count=4, size=8)
        pipe = Pipeline(master_seed=3).add(Invert(probability=0.5))

        def state():
            return {name: (value, dict(value) if isinstance(value, dict) else
                           list(value) if isinstance(value, (list, set)) else None)
                    for name, value in vars(pipeline_mod).items()}

        before = state()
        pipeline_mod.sample(pipe, ds, 40, CollectingSink(), jobs=jobs)
        after = state()
        assert after.keys() == before.keys()
        for name, (value, contents) in before.items():
            assert after[name][0] is value, name
            assert after[name][1] == contents, name
        assert pipeline_mod._failed_chunk is None
        assert pipeline_mod._worker_sources is None


class TestProcess:
    def test_each_image_exactly_once(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=3)
        sink = CollectingSink()
        records = pipeline_mod.process(Pipeline().add(Invert(probability=1)), ds, sink)
        assert len(records) == 3
        assert [r.source for r in records] == [e.rel_path for e in ds.entries]
        assert all(r.ops[0].applied for r in records)

    def test_deterministic(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=4)
        p = Pipeline(master_seed=9).add(
            Elastic(probability=1, grid_width=2, grid_height=2, magnitude=2)
        )
        a = pipeline_mod.process(p, ds, DirectorySink(tmp_path / "a"))
        b = pipeline_mod.process(p, ds, DirectorySink(tmp_path / "b"))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert a == b

    def test_worker_count_does_not_change_output(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=8)
        p = Pipeline(master_seed=14).add(
            Elastic(probability=1, grid_width=2, grid_height=2, magnitude=2)
        )
        r1 = pipeline_mod.process(p, ds, DirectorySink(tmp_path / "j1"), jobs=1)
        r2 = pipeline_mod.process(p, ds, DirectorySink(tmp_path / "j2"), jobs=2)
        assert tree_bytes(tmp_path / "j1") == tree_bytes(tmp_path / "j2")
        assert r1 == r2

    def test_output_names_take_path_stems(self, tmp_path, np_rng):
        # scan_dataset yields names whose only characters before the
        # suffix are dots; Path.stem of "..png" is ".", not "..png".
        for rel in ("..png", "...png", ".a.png", "a.b.png", "c/..PNG", "c/x.y.ppm"):
            save_image(random_image(np_rng, 4, 4), tmp_path / "in" / rel)
        ds = scan_dataset(tmp_path / "in")
        records = pipeline_mod.process(Pipeline(), ds, DirectorySink(tmp_path / "out"))
        expected = []
        for index, entry in enumerate(ds.entries):
            rel = Path(entry.rel_path)
            name = f"{rel.stem}_aug_{index:06d}.png"
            expected.append(name if rel.parent == Path(".") else f"{rel.parent.as_posix()}/{name}")
        assert len(expected) == 6
        assert [record.output for record in records] == expected
        assert sorted(tree_bytes(tmp_path / "out")) == sorted(expected)


class TestPerCallPool:
    def test_no_worker_outlives_a_parallel_call(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng)
        pipeline_mod.sample(Pipeline(master_seed=3).add(Invert(probability=0.5)), ds, 20,
                            CollectingSink(), jobs=2)
        assert multiprocessing.active_children() == []

    def test_parallel_failure_matches_sequential_and_closes_pool(self, tmp_path, np_rng):
        # Only sample 0's source is too small to crop; results are read in
        # chunk order, so every worker count reports that sample first.
        # Once sample 0's chunk fails, the other chunks of 50 stop before
        # they write unless a worker had already begun one, so at most one
        # other chunk writes.
        root = tmp_path / "in"
        save_image(random_image(np_rng, 8, 8), root / "a.png")
        for i in range(399):
            save_image(random_image(np_rng, 16, 16), root / f"b{i:03d}.png")
        ds = scan_dataset(root)
        p = Pipeline().add(CropCentre(probability=1, width=12, height=12))
        messages = []
        for jobs in (1, 2):
            with pytest.raises(OpError) as info:
                pipeline_mod.process(p, ds, DirectorySink(tmp_path / f"j{jobs}"), jobs=jobs)
            messages.append(str(info.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1]
        assert messages[0].startswith("sample 0 (source a.png): op 0 (crop_centre)")
        assert not (tmp_path / "j1").exists()
        assert len(list((tmp_path / "j2").glob("*.png"))) <= 50

    def test_parallel_failure_reports_the_earlier_class(self, tmp_path, np_rng):
        # Class a fails at its last sample, in its last chunk; class b fails
        # at its first, in a chunk submitted second, so b usually fails
        # first in time. The error is a's, as at jobs=1, also with more
        # workers than cores.
        root = tmp_path / "in"
        for label, small in (("a", "z"), ("b", "a")):
            save_image(random_image(np_rng, 8, 8), root / label / f"{small}.png")
            for i in range(39):
                save_image(random_image(np_rng, 16, 16), root / label / f"p{i:02d}.png")
        ds = scan_dataset(root)
        p = Pipeline().add(CropCentre(probability=1, width=12, height=12))
        messages = []
        for jobs in (1, 2, 8):
            with pytest.raises(OpError) as info:
                pipeline_mod.process(p, ds, DirectorySink(tmp_path / f"j{jobs}"), jobs=jobs,
                                     per_class=True)
            messages.append(str(info.value))
        assert messages[1:] == messages[:1] * 2
        assert messages[0].startswith("sample 39 (source a/z.png): op 0 (crop_centre)")

    def test_round_robin_interleaves_runs(self):
        run_positions = [range(0, 8), range(8, 16), range(16, 19)]
        order = pipeline_mod._round_robin(run_positions)
        assert sorted(order) == list(range(19))
        run_of = {position: run for run, positions in enumerate(run_positions)
                  for position in positions}
        for i in range(len(order)):
            runs_left = len({run_of[position] for position in order[i:]})
            window = [run_of[position] for position in order[i : i + runs_left]]
            assert len(set(window)) == len(window)
        assert order[:4] == [0, 8, 16, 1]
        assert pipeline_mod._round_robin([range(5)]) == list(range(5))

    @pytest.mark.parametrize("mode", ["sample", "process"])
    def test_per_class_equals_class_loop(self, tmp_path, np_rng, mode):
        root = tmp_path / "in"
        for label in ("cat", "dog", "emu"):
            for i in range(4):
                save_image(random_image(np_rng, 12, 12), root / label / f"{i}.png")
        ds = scan_dataset(root)
        p = Pipeline(master_seed=31).add(
            Elastic(probability=1, grid_width=2, grid_height=2, magnitude=2)
        ).add(Rotate(probability=0.5, max_left=8, max_right=8))

        def run(pipe, dataset, sink, **kwargs):
            if mode == "sample":
                return pipeline_mod.sample(pipe, dataset, 7, sink, **kwargs)
            return pipeline_mod.process(pipe, dataset, sink, **kwargs)

        loop_sink = DirectorySink(tmp_path / "loop")
        expected = []
        for label, class_dataset in split_by_class(ds):
            expected.extend(run(p.for_class(label), class_dataset, loop_sink))
        got = run(p, ds, DirectorySink(tmp_path / "j2"), jobs=2, per_class=True)
        assert got == expected
        assert tree_bytes(tmp_path / "j2") == tree_bytes(tmp_path / "loop")
        assert len(tree_bytes(tmp_path / "loop")) == (21 if mode == "sample" else 12)


class TestTrace:
    def test_json_lines_shape(self, tmp_path, np_rng):
        ds = _small_dataset(tmp_path / "in", np_rng, count=4)
        p = Pipeline(master_seed=8).add(
            Elastic(probability=1, grid_width=2, grid_height=2, magnitude=1)
        ).add(Rotate(probability=0.5, max_left=3, max_right=3))
        records = pipeline_mod.sample(p, ds, 6, CollectingSink())
        trace_path = tmp_path / "trace.jsonl"
        write_trace(records, trace_path)
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert set(doc) == {"sample", "source", "ops", "output"}
            assert doc["sample"] == i
            assert len(doc["ops"]) == 2
            for op in doc["ops"]:
                assert set(op) == {"op", "applied", "params"}
                if not op["applied"]:
                    assert op["params"] == {}
        rotate_ops = [json.loads(l)["ops"][1] for l in lines]
        assert any(op["applied"] for op in rotate_ops) or len(lines) < 10

    def test_failed_write_keeps_the_old_trace(self, tmp_path, np_rng, monkeypatch):
        ds = _small_dataset(tmp_path / "in", np_rng, count=2)
        records = pipeline_mod.sample(Pipeline(master_seed=5), ds, 3, CollectingSink())
        out = tmp_path / "out"
        trace_path = out / "trace.jsonl"
        out.mkdir()
        trace_path.write_text("an earlier run's trace\n")
        old = trace_path.read_bytes()
        to_json = TraceRecord.to_json
        written = []

        def failing(record):
            if written:
                raise RuntimeError("disk gone")
            written.append(record)
            return to_json(record)

        monkeypatch.setattr(TraceRecord, "to_json", failing)
        with pytest.raises(RuntimeError, match="disk gone"):
            write_trace(records, trace_path)
        assert trace_path.read_bytes() == old
        assert sorted(path.name for path in out.iterdir()) == ["trace.jsonl"]
        monkeypatch.setattr(TraceRecord, "to_json", to_json)
        write_trace(records, trace_path)
        assert len(trace_path.read_text().splitlines()) == 3
        assert sorted(path.name for path in out.iterdir()) == ["trace.jsonl"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(trace_path.stat().st_mode) == 0o666 & ~umask

    def test_skipped_ops_record_no_params(self, np_rng):
        img = random_image(np_rng, 8, 8)
        p = Pipeline().add(Rotate(probability=0, max_left=10, max_right=10))
        _, apps = run_sample(p, img, derive_sample_rng(0, 0))
        assert apps[0].applied is False and apps[0].drawn_params == ()


PROBABILITY = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
# Every op kind, with parameters that usually, not always, succeed on the
# mixed corpus below.
OP_SPECS = st.one_of(
    st.builds(Rotate, probability=PROBABILITY, max_left=st.floats(0, 20), max_right=st.floats(0, 20)),
    st.builds(RotateCardinal, probability=PROBABILITY,
              which=st.sampled_from(["r90", "r180", "r270", "random"])),
    st.builds(Flip, probability=PROBABILITY, axis=st.sampled_from(["horizontal", "vertical", "random"])),
    st.builds(Shear, probability=PROBABILITY, max_angle=st.floats(0, 30),
              axis=st.sampled_from(["x", "y", "random"])),
    st.builds(Skew, probability=PROBABILITY, severity=st.floats(0.05, 1.0),
              skew_kind=st.sampled_from(["forward", "backward", "left", "right", "random"])),
    st.builds(Elastic, probability=PROBABILITY, grid_width=st.integers(1, 5),
              grid_height=st.integers(1, 5), magnitude=st.integers(0, 6)),
    st.tuples(st.floats(1.0, 1.5), st.floats(0.0, 0.5)).flatmap(
        lambda f: st.builds(Zoom, probability=PROBABILITY, min_factor=st.just(f[0]),
                            max_factor=st.just(f[0] + f[1]))),
    st.builds(CropRandom, probability=PROBABILITY, area_fraction=st.floats(0.1, 1.0),
              resize_back=st.booleans()),
    st.builds(CropCentre, probability=PROBABILITY, width=st.integers(1, 30), height=st.integers(1, 30)),
    st.builds(Resize, probability=PROBABILITY, width=st.integers(1, 50), height=st.integers(1, 50)),
    st.builds(Scale, probability=PROBABILITY, factor=st.floats(0.2, 1.5)),
    st.builds(Greyscale, probability=PROBABILITY),
    st.builds(Invert, probability=PROBABILITY),
    st.builds(Equalize, probability=PROBABILITY),
)


@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory):
    """Sources of several shapes and formats, one above a warp band."""
    root = tmp_path_factory.mktemp("mixed")
    rng = np.random.default_rng(77)
    shapes = ((28, 28, PixelFormat.GRAY8), (28, 28, PixelFormat.GRAY8), (40, 24, PixelFormat.RGB8),
              (40, 24, PixelFormat.RGB8), (9, 7, PixelFormat.RGB8), (130, 130, PixelFormat.RGBA8))
    for i, (w, h, fmt) in enumerate(shapes):
        save_image(random_image(rng, w, h, fmt), root / f"s{i}.png")
    return scan_dataset(root)


def _worker_with_empty_sink(chunk, position):
    """The pool's worker function, failing if its chunk carries images the
    caller already collected."""
    assert not chunk[3].images, "a chunk shipped collected images to its worker"
    return _generate_chunk_in_worker(chunk, position)


_generate_chunk_in_worker = pipeline_mod._generate_chunk_in_worker


def _reference_sample(pipe, dataset, index, sink, choose_source):
    """Sample index generated one op at a time on its own image: the gate,
    the op's draws, then the op on that one image. The reference that the op-major chunks are checked against;
    an OpError carries the message, draws and op index the pipeline gives
    a failing sample."""
    rng = derive_sample_rng(pipe.master_seed, index)
    position = rng.uniform_int(0, len(dataset.entries) - 1) if choose_source else index
    entry = dataset.entries[position]
    img = load_image(dataset.path_of(entry))
    applications = []
    for op_index, spec in enumerate(pipe.ops):
        if rng.unit_real() >= spec.probability:
            applications.append(OpApplication(spec.kind, False))
            continue
        where = f"sample {index} (source {entry.rel_path}): op {op_index} ({spec.kind})"
        try:
            drawn = spec.draw(rng, img.width, img.height)
        except OpError as exc:
            # Nothing was drawn that could reproduce the failure.
            raise OpError(f"{where}: {exc}", op_kind=exc.op_kind, op_index=op_index) from exc
        try:
            img = run_op(spec, img, **dict(drawn))
        except OpError as exc:
            raise OpError(f"{where}: {exc}", op_kind=spec.kind, drawn=tuple(drawn),
                          op_index=op_index) from exc
        except GeometryError as exc:
            raise OpError(f"{where}: {spec.kind}: {exc}", op_kind=spec.kind, drawn=tuple(drawn),
                          op_index=op_index) from exc
        applications.append(OpApplication(spec.kind, True, tuple(drawn)))
    rel = Path(entry.rel_path)
    rel_dir = rel.parent.as_posix() if rel.parent != Path(".") else ""
    return TraceRecord(index, entry.rel_path, tuple(applications),
                       sink.write(rel_dir, rel.stem, index, img))


def _outcome(generate):
    """Records, or the error's type, message and draws; then what the sink got."""
    sink = CollectingSink()
    try:
        result = generate(sink)
    except Exception as exc:
        result = (type(exc), str(exc), getattr(exc, "drawn", None))
    return result, [(rel, img.format, img.pixels.shape, img.pixels.tobytes())
                    for rel, img in sink.images]


class TestOpMajorChunks:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(OP_SPECS, max_size=6), seed=st.integers(0, 1 << 64),
           start=st.integers(0, 100), count=st.integers(1, 40), choose_source=st.booleans())
    def test_batched_chunk_equals_per_sample_loop(self, mixed_dataset, ops, seed, start, count,
                                                  choose_source):
        pipe = Pipeline(tuple(ops), seed)
        if choose_source:
            indices = range(start, start + count)
        else:
            indices = range(len(mixed_dataset.entries))

        def chunk(sink):
            return pipeline_mod._generate_chunk((pipe, mixed_dataset, indices, sink, choose_source),
                                                pipeline_mod._Sources())

        def loop(sink):
            return [_reference_sample(pipe, mixed_dataset, i, sink, choose_source)
                    for i in indices]

        expected = _outcome(loop)
        derived = []
        derive = pipeline_mod.derive_sample_rng

        def counted(seed, index):
            derived.append(index)
            return derive(seed, index)

        with mock.patch.object(pipeline_mod, "derive_sample_rng", counted):
            assert _outcome(chunk) == expected
        if isinstance(expected[0], list):
            # Nothing failed, so no run was generated again: each sample's
            # stream was derived once, in index order.
            assert derived == list(indices)

    def test_runs_hold_at_most_one_band_of_sources(self, mixed_dataset, tmp_path, np_rng):
        for i in range(5):
            save_image(random_image(np_rng, 28, 28), tmp_path / f"d{i}.png")
        digits = scan_dataset(tmp_path)
        pipe = Pipeline(master_seed=9).add(Resize(probability=1, width=224, height=224))
        runs = []
        apply_ops = pipeline_mod._apply_ops

        def recorded(pipeline, rngs, images):
            runs.append([img.width * img.height for img in images])
            return apply_ops(pipeline, rngs, images)

        with mock.patch.object(pipeline_mod, "_apply_ops", recorded):
            pipeline_mod.sample(pipe, digits, 200, CollectingSink())
            assert max(len(run) for run in runs) == _BAND_PIXELS // (28 * 28)
            runs.clear()
            pipeline_mod.sample(pipe, mixed_dataset, 200, CollectingSink())
        assert sum(map(len, runs)) == 200
        assert all(len(run) == 1 or sum(run) <= _BAND_PIXELS for run in runs)

    def test_failure_mid_batch_matches_per_sample_loop(self, tmp_path, np_rng):
        # Rotating a 120x4 image by more than about 5.7 degrees leaves no
        # crop. At seed 263 sample 37 is the first to draw such an angle: it
        # sits inside a batch, in the last chunk at --jobs 1 and at --jobs 2,
        # so each worker count writes every sample before it.
        root = tmp_path / "in"
        for i in range(3):
            save_image(random_image(np_rng, 120, 4), root / f"w{i}.png")
        ds = scan_dataset(root)
        pipe = Pipeline(master_seed=263).add(Rotate(probability=1, max_left=6, max_right=6))
        reference = DirectorySink(tmp_path / "loop")
        with pytest.raises(OpError) as info:
            for i in range(40):
                _reference_sample(pipe, ds, i, reference, True)
        assert i == 37
        expected = (str(info.value), info.value.drawn, info.value.op_index,
                    tree_bytes(tmp_path / "loop"))
        assert len(expected[3]) == 37 and expected[1] is not None

        # The batch holding sample 37 fails as a group, whose error cannot
        # name the failing sample's draws ...
        starts = [pipeline_mod._start(pipe, ds, k, True) for k in range(30, 40)]
        images = [load_image(ds.path_of(ds.entries[position])) for _rng, position in starts]
        with pytest.raises(OpError) as info:
            pipeline_mod._apply_ops(pipe, [rng for rng, _position in starts], images)
        assert info.value.drawn is None and info.value.op_index == 0

        # ... so the caller's error comes from sample 37 run on its own.
        for jobs in (1, 2, 8):
            out = tmp_path / f"j{jobs}"
            with pytest.raises(OpError) as info:
                pipeline_mod.sample(pipe, ds, 40, DirectorySink(out), jobs=jobs)
            written = tree_bytes(out)
            # At --jobs 8 sample 37's chunk is not the last: the chunk of
            # samples 38 and 39 may already be running and write its run
            # (README).
            later = {name for name in written if int(name[-10:-4]) > 37}
            assert not later or jobs == 8
            got = (str(info.value), info.value.drawn, info.value.op_index,
                   {name: data for name, data in written.items() if name not in later})
            assert got == expected

    def test_load_failure_writes_the_run_before_it(self, tmp_path, np_rng, monkeypatch):
        # Seven sources make chunks of two at --jobs 1; sample 5, whose
        # source is a bare PNG signature, shares its chunk with sample 4.
        root = tmp_path / "in"
        for i in range(5):
            save_image(random_image(np_rng, 8, 8), root / f"a{i}.png")
        (root / "b.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        save_image(random_image(np_rng, 8, 8), root / "c.png")
        ds = scan_dataset(root)
        loads = []
        monkeypatch.setattr(pipeline_mod, "load_image",
                            lambda path: loads.append(Path(path).name) or load_image(path))
        out = tmp_path / "out"
        with pytest.raises(DecodeError, match="missing IHDR"):
            pipeline_mod.process(Pipeline().add(Invert(probability=1)), ds, DirectorySink(out))
        assert sorted(tree_bytes(out)) == [f"a{i}_aug_{i:06d}.png" for i in range(5)]
        assert loads.count("b.png") == 1 and "c.png" not in loads

    def test_monitor_sees_one_warp_per_applied_warp_op(self, mixed_dataset):
        pipe = (Pipeline(master_seed=12)
                .add(Rotate(probability=0.5, max_left=10, max_right=10))
                .add(Shear(probability=0.5, max_angle=10))
                .add(Skew(probability=0.5, severity=0.3))
                .add(Elastic(probability=0.7, grid_width=3, grid_height=3, magnitude=2)))
        with monitor_source_bounds() as monitor:
            records = pipeline_mod.sample(pipe, mixed_dataset, 60, CollectingSink())
        applied = sum(app.applied for record in records for app in record.ops)
        assert applied > 60
        assert monitor.warps == applied
        assert monitor.violations == 0

    def test_chunks_ship_empty_collecting_sinks(self, mixed_dataset, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "_generate_chunk_in_worker", _worker_with_empty_sink)
        pipe = Pipeline(master_seed=6).add(Invert(probability=0.5))
        sink = CollectingSink()
        records = pipeline_mod.sample(pipe, mixed_dataset, 400, sink, jobs=2)
        assert [rel for rel, _img in sink.images] == [record.output for record in records]

    @pytest.mark.parametrize("mode", ["sample", "process"])
    def test_collecting_sink_gets_worker_images(self, mixed_dataset, mode):
        pipe = Pipeline(master_seed=4).add(Elastic(probability=1, grid_width=2, grid_height=2,
                                                   magnitude=3))
        collected = []
        for jobs in (1, 2):
            sink = CollectingSink()
            if mode == "sample":
                pipeline_mod.sample(pipe, mixed_dataset, 20, sink, jobs=jobs)
            else:
                pipeline_mod.process(pipe, mixed_dataset, sink, jobs=jobs)
            collected.append([(rel, img.pixels.tobytes()) for rel, img in sink.images])
            assert all(not img.pixels.flags.writeable for _rel, img in sink.images)
        assert len(collected[1]) == (20 if mode == "sample" else len(mixed_dataset.entries))
        assert collected[1] == collected[0]

    @pytest.mark.parametrize("mode", ["sample", "process"])
    def test_per_class_collecting_sink_gets_worker_images(self, tmp_path, np_rng, mode):
        for label in ("cat", "dog", "emu"):
            for i in range(5):
                save_image(random_image(np_rng, 12, 12), tmp_path / label / f"{i}.png")
        ds = scan_dataset(tmp_path)
        pipe = Pipeline(master_seed=4).add(Elastic(probability=1, grid_width=2, grid_height=2,
                                                   magnitude=3))
        collected = []
        for jobs in (1, 2):
            sink = CollectingSink()
            if mode == "sample":
                records = pipeline_mod.sample(pipe, ds, 20, sink, jobs=jobs, per_class=True)
            else:
                records = pipeline_mod.process(pipe, ds, sink, jobs=jobs, per_class=True)
            assert [rel for rel, _img in sink.images] == [record.output for record in records]
            collected.append([(rel, img.pixels.tobytes()) for rel, img in sink.images])
        assert len(collected[1]) == (60 if mode == "sample" else 15)
        assert collected[1] == collected[0]
