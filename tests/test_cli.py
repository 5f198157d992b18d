"""CLI behaviour: commands, exit codes, flags, determinism, contact sheets."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from augpipe import (
    DirectorySink,
    Pipeline,
    PixelFormat,
    canonical_text,
    load_image,
    parse_config,
    sample,
    save_image,
    scan_dataset,
    split_by_class,
)
from augpipe.cli import main
from conftest import DIGITS_RECIPE, random_image, tree_bytes, write_config
from test_pipeline import OP_SPECS

REPO = Path(__file__).resolve().parents[1]
# The environment of a fresh interpreter that imports this checkout's augpipe.
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def _augpipe(*args):
    """``python -m augpipe ARGS`` in a fresh interpreter, output captured."""
    return subprocess.run([sys.executable, "-m", "augpipe", *args],
                          capture_output=True, text=True, env=SRC_ENV)


@pytest.fixture
def corpus(tmp_path, np_rng):
    root = tmp_path / "data"
    for label in range(2):
        for i in range(5):
            save_image(random_image(np_rng, 16, 16),
                       root / str(label) / f"im{i}.png")
    return root


@pytest.fixture
def recipe(tmp_path):
    return write_config(tmp_path / "recipe.json", DIGITS_RECIPE)


class TestRun:
    def test_generates_requested_count(self, tmp_path, corpus, recipe, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(out), "--count", "12", "--seed", "3"])
        assert code == 0
        files = [p for p in out.rglob("*.png")]
        assert len(files) == 12
        stdout = capsys.readouterr().out
        assert "images read: 10" in stdout
        assert "images generated: 12" in stdout
        assert "applied[0] elastic: 12/12" in stdout

    def test_zero_count(self, tmp_path, corpus, recipe):
        out = tmp_path / "out"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(out), "--count", "0"]) == 0
        assert list(out.rglob("*.png")) == []

    def test_missing_count_in_sample_mode(self, tmp_path, corpus, recipe):
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(tmp_path / "o")]) == 1

    def test_determinism_same_seed(self, tmp_path, corpus, recipe):
        for name in ("a", "b"):
            assert main(["run", "--config", str(recipe), "--input", str(corpus),
                         "--output", str(tmp_path / name), "--count", "15",
                         "--seed", "7", "--trace", str(tmp_path / f"{name}.jsonl")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_seed_precedence_flag_over_config(self, tmp_path, corpus):
        seeded = dict(DIGITS_RECIPE, seed=5)
        cfg_seeded = write_config(tmp_path / "s5.json", seeded)
        cfg_nine = write_config(tmp_path / "s9.json", dict(DIGITS_RECIPE, seed=9))
        main(["run", "--config", str(cfg_seeded), "--input", str(corpus),
              "--output", str(tmp_path / "flag"), "--count", "8", "--seed", "9"])
        main(["run", "--config", str(cfg_nine), "--input", str(corpus),
              "--output", str(tmp_path / "cfg"), "--count", "8"])
        assert tree_bytes(tmp_path / "flag") == tree_bytes(tmp_path / "cfg")

    def test_process_mode(self, tmp_path, corpus, recipe):
        out = tmp_path / "out"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(out), "--mode", "process", "--seed", "1"]) == 0
        assert len(list(out.rglob("*.png"))) == 10  # one per source image

    def test_per_class_mirrors_structure(self, tmp_path, corpus, recipe):
        out = tmp_path / "out"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(out), "--count", "6", "--per-class",
                     "--seed", "2"]) == 0
        for label in ("0", "1"):
            assert len(list((out / label).glob("*.png"))) == 6

    def test_per_class_classes_draw_differently(self, tmp_path, np_rng, recipe):
        # Same source content in both classes; per-class seeds must still
        # differ so the two classes get different distortion sequences.
        root = tmp_path / "data"
        img = random_image(np_rng, 16, 16)
        for label in ("0", "1"):
            save_image(img, root / label / "same.png")
        out = tmp_path / "out"
        assert main(["run", "--config", str(recipe), "--input", str(root),
                     "--output", str(out), "--count", "4", "--per-class",
                     "--seed", "2"]) == 0
        a = tree_bytes(out / "0")
        b = tree_bytes(out / "1")
        assert list(a) == list(b)  # same names
        assert any(a[k] != b[k] for k in a)  # different bytes

    def test_per_class_equals_library_run_on_class_seeds(self, tmp_path, corpus, recipe):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(cli_out), "--count", "5", "--per-class",
                     "--seed", "11"]) == 0
        pipe = parse_config(json.dumps(DIGITS_RECIPE)).with_seed(11)
        sink = DirectorySink(lib_out)
        for label, class_dataset in split_by_class(scan_dataset(corpus)):
            sample(pipe.for_class(label), class_dataset, 5, sink)
        assert tree_bytes(cli_out) == tree_bytes(lib_out)
        assert len(tree_bytes(lib_out)) == 10

    def test_collision_and_overwrite(self, tmp_path, corpus, recipe):
        out = tmp_path / "out"
        args = ["run", "--config", str(recipe), "--input", str(corpus),
                "--output", str(out), "--count", "4", "--seed", "1"]
        assert main(args) == 0
        assert main(args) == 2  # collision
        assert main(args + ["--overwrite"]) == 0

    def test_ppm_format_writes_pgm_for_gray(self, tmp_path, corpus, recipe):
        out = tmp_path / "out"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(out), "--count", "3", "--format", "ppm",
                     "--seed", "1"]) == 0
        files = list(out.rglob("*.pgm"))
        assert len(files) == 3

    def test_trace_written(self, tmp_path, corpus, recipe):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "--config", str(recipe), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "5",
                     "--trace", str(trace), "--seed", "1"]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert [d["sample"] for d in lines] == list(range(5))

    def test_jobs_flag_identical_output(self, tmp_path, corpus, recipe):
        for jobs, name in (("1", "j1"), ("2", "j2")):
            assert main(["run", "--config", str(recipe), "--input", str(corpus),
                         "--output", str(tmp_path / name), "--count", "10",
                         "--seed", "4", "--jobs", jobs]) == 0
        assert tree_bytes(tmp_path / "j1") == tree_bytes(tmp_path / "j2")


class TestExitCodes:
    def test_bad_config_is_1(self, tmp_path, corpus):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"version": 1, "operations": [{"op": "rotete", "probability": 1}]}')
        assert main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "1"]) == 1

    def test_missing_input_is_2(self, tmp_path, recipe):
        assert main(["run", "--config", str(recipe), "--input", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "o"), "--count", "1"]) == 2

    def test_missing_config_file_is_2(self, tmp_path, corpus):
        assert main(["run", "--config", str(tmp_path / "ghost.json"), "--input",
                     str(corpus), "--output", str(tmp_path / "o"), "--count", "1"]) == 2

    def test_empty_dataset_is_2(self, tmp_path, recipe):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--config", str(recipe), "--input", str(empty),
                     "--output", str(tmp_path / "o"), "--count", "1"]) == 2

    def test_zero_width_pgm_is_2(self, tmp_path, recipe):
        root = tmp_path / "zero"
        root.mkdir()
        (root / "a.pgm").write_bytes(b"P5\n0 4\n255\n")
        assert main(["run", "--config", str(recipe), "--input", str(root),
                     "--output", str(tmp_path / "o"), "--count", "1"]) == 2

    def test_rgba_to_ppm_write_failure_is_2_and_names_sample(self, tmp_path, np_rng,
                                                             recipe, capsys):
        root = tmp_path / "rgba"
        save_image(random_image(np_rng, 16, 16, PixelFormat.RGBA8), root / "a.png")
        code = main(["run", "--config", str(recipe), "--input", str(root),
                     "--output", str(tmp_path / "o"), "--count", "1",
                     "--format", "ppm", "--seed", "0"])
        assert code == 2
        assert "sample 0" in capsys.readouterr().err

    def test_corrupt_source_is_2_and_names_sample_and_source(self, tmp_path, np_rng,
                                                            recipe, capsys):
        root = tmp_path / "in"
        for i in range(3):
            save_image(random_image(np_rng, 8, 8), root / "a" / f"{i}.png")
        data = bytearray((root / "a" / "1.png").read_bytes())
        data[40] ^= 1  # the IDAT chunk type: its CRC no longer matches
        (root / "a" / "1.png").write_bytes(bytes(data))
        out = tmp_path / "o"
        code = main(["run", "--config", str(recipe), "--input", str(root),
                     "--output", str(out), "--mode", "process"])
        assert code == 2
        assert capsys.readouterr().err == (
            "augpipe: i/o error: sample 1 (source a/1.png): "
            "corrupt PNG: bad CRC in b'IDAU' chunk\n")
        assert sorted(tree_bytes(out)) == ["a/0_aug_000000.png"]

    def test_runtime_op_failure_is_3(self, tmp_path, corpus):
        cfg = write_config(tmp_path / "big.json", {
            "version": 1,
            "operations": [
                {"op": "crop_centre", "probability": 1, "width": 64, "height": 64}],
        })
        code = main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "1", "--seed", "0"])
        assert code == 3

    @pytest.mark.parametrize("entry", [
        '{"op": "zoom", "probability": 1, "min_factor": 1, "max_factor": Infinity}',
        '{"op": "scale", "probability": 1, "factor": Infinity}',
        '{"op": "scale", "probability": 1, "factor": NaN}',
    ], ids=["zoom-inf", "scale-inf", "scale-nan"])
    def test_non_finite_parameter_is_1(self, tmp_path, corpus, capsys, entry):
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"version": 1, "operations": [' + entry + ']}')
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "1"]) == 1
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"op": "zoom", "probability": 1, "min_factor": 1e308, "max_factor": 1e308},
    ], ids=["zoom"])
    def test_non_finite_target_size_is_3(self, tmp_path, corpus, capsys, entry):
        cfg = write_config(tmp_path / "huge.json", {"version": 1, "operations": [entry]})
        code = main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "1", "--seed", "0"])
        assert code == 3
        assert "non-finite image size" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        # Fits a 1x1 source, so only the 16x16 source refuses it.
        {"op": "scale", "probability": 1, "factor": 600},
        {"op": "zoom", "probability": 1, "min_factor": 1e6, "max_factor": 1e6},
        {"op": "elastic", "probability": 1, "grid_width": 17, "grid_height": 16, "magnitude": 1},
        {"op": "elastic", "probability": 1, "grid_width": 10**12, "grid_height": 10**12,
         "magnitude": 1},
    ], ids=["scale", "zoom", "elastic", "elastic-huge"])
    def test_oversized_output_is_3(self, tmp_path, np_rng, capsys, entry):
        # Sizes from the config are refused before anything is allocated.
        save_image(random_image(np_rng, 16, 16), tmp_path / "in" / "a.png")
        cfg = write_config(tmp_path / "big.json", {"version": 1, "operations": [entry]})
        code = main(["run", "--config", str(cfg), "--input", str(tmp_path / "in"),
                     "--output", str(tmp_path / "o"), "--count", "2", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"op 0 ({entry['op']})" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").rglob("*.png"))

    @pytest.mark.parametrize("factor", [1e6, 1e308], ids=["1e6", "1e308"])
    def test_oversized_scale_factor_is_1(self, tmp_path, corpus, capsys, factor):
        # A factor no source could take is known from the config alone.
        entry = {"op": "scale", "probability": 1, "factor": factor}
        cfg = write_config(tmp_path / "big.json", {"version": 1, "operations": [entry]})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "2", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count(f"factor must scale a 1x1 image to at most {1 << 26} pixels") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_oversized_resize_target_is_1(self, tmp_path, corpus, capsys):
        # A resize target is known from the config alone.
        entry = {"op": "resize", "probability": 1, "width": 100000, "height": 100000}
        cfg = write_config(tmp_path / "big.json", {"version": 1, "operations": [entry]})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--input", str(corpus),
                     "--output", str(tmp_path / "o"), "--count", "2", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count(f"at most {1 << 26} pixels, got 100000x100000") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestValidate:
    def test_valid_config(self, recipe, capsys):
        assert main(["validate", "--config", str(recipe)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert [op["op"] for op in doc["operations"]] == ["elastic", "rotate"]

    def test_canonical_output_reparses(self, recipe, tmp_path, capsys):
        main(["validate", "--config", str(recipe)])
        canonical = capsys.readouterr().out
        again = write_config(tmp_path / "canon.json", json.loads(canonical))
        assert main(["validate", "--config", str(again)]) == 0
        assert capsys.readouterr().out == canonical

    def test_invalid_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"version": 2, "operations": []}')
        assert main(["validate", "--config", str(cfg)]) == 1

    def test_unknown_op_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"version": 1, "operations": [{"op": "rotete", "probability": 1}]}')
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "rotete" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["seed", "parameter"])
    def test_huge_integer_literal_is_1(self, tmp_path, where):
        # Beyond the interpreter's int conversion limit json.loads raises a
        # plain ValueError, not a JSONDecodeError.
        huge = "9" * 5000
        if where == "seed":
            text = f'{{"version": 1, "seed": {huge}, "operations": []}}'
        else:
            text = ('{"version": 1, "operations": [{"op": "rotate", "probability": 1, '
                    f'"max_left_rotation": {huge}, "max_right_rotation": 5}}]}}')
        cfg = tmp_path / "huge.json"
        cfg.write_text(text)
        proc = _augpipe("validate", "--config", str(cfg))
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSheet:
    def test_single_tile_empty_pipeline_is_the_input(self, tmp_path, np_rng):
        cfg = write_config(tmp_path / "empty.json", {"version": 1, "operations": []})
        src = tmp_path / "src.png"
        img = random_image(np_rng, 9, 7)
        save_image(img, src)
        out = tmp_path / "sheet.png"
        assert main(["sheet", "--config", str(cfg), "--input", str(src),
                     "--output", str(out), "--rows", "1", "--cols", "1"]) == 0
        assert np.array_equal(load_image(out).pixels, img.pixels)

    def test_tiling_arithmetic(self, tmp_path, np_rng, recipe):
        src = tmp_path / "d.png"
        save_image(random_image(np_rng, 28, 28), src)
        out = tmp_path / "sheet.png"
        assert main(["sheet", "--config", str(recipe), "--input", str(src),
                     "--output", str(out), "--rows", "2", "--cols", "3",
                     "--seed", "5"]) == 0
        sheet = load_image(out)
        assert (sheet.width, sheet.height) == (28 * 3 + 2 * 2, 28 * 2 + 2)

    def test_include_original_first_tile(self, tmp_path, np_rng, recipe):
        src = tmp_path / "d.png"
        img = random_image(np_rng, 28, 28)
        save_image(img, src)
        out = tmp_path / "sheet.png"
        assert main(["sheet", "--config", str(recipe), "--input", str(src),
                     "--output", str(out), "--rows", "1", "--cols", "2",
                     "--seed", "5", "--include-original"]) == 0
        sheet = load_image(out)
        first_tile = sheet.pixels[0:28, 0:28]
        assert np.array_equal(first_tile, img.pixels)

    def test_two_by_four_elastic_variants_all_distinct(self, tmp_path, np_rng):
        # Eight elastic variants of one image: every tile differs from
        # every other and from the source.
        cfg = write_config(tmp_path / "el.json", {
            "version": 1,
            "operations": [{"op": "elastic", "probability": 1,
                            "grid_width": 4, "grid_height": 4, "magnitude": 5}],
        })
        src = tmp_path / "d.png"
        img = random_image(np_rng, 28, 28)
        save_image(img, src)
        out = tmp_path / "sheet.png"
        assert main(["sheet", "--config", str(cfg), "--input", str(src),
                     "--output", str(out), "--rows", "2", "--cols", "4",
                     "--seed", "11"]) == 0
        sheet = load_image(out)
        assert (sheet.width, sheet.height) == (28 * 4 + 2 * 3, 28 * 2 + 2)
        tiles = []
        for r in range(2):
            for c in range(4):
                y, x = r * 30, c * 30
                tiles.append(sheet.pixels[y : y + 28, x : x + 28])
        for i in range(len(tiles)):
            assert not np.array_equal(tiles[i], img.pixels)
            for j in range(i + 1, len(tiles)):
                assert not np.array_equal(tiles[i], tiles[j])

    def test_variants_are_deterministic(self, tmp_path, np_rng, recipe):
        src = tmp_path / "d.png"
        save_image(random_image(np_rng, 28, 28), src)
        outs = []
        for name in ("s1.png", "s2.png"):
            out = tmp_path / name
            main(["sheet", "--config", str(recipe), "--input", str(src),
                  "--output", str(out), "--rows", "2", "--cols", "2", "--seed", "9"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_non_uniform_dims_is_3(self, tmp_path, np_rng):
        # scale at probability 0.5: some variants shrink, some keep size.
        cfg = write_config(tmp_path / "mix.json", {
            "version": 1,
            "operations": [{"op": "scale", "probability": 0.5, "factor": 0.5}],
        })
        src = tmp_path / "d.png"
        save_image(random_image(np_rng, 20, 20), src)
        codes = set()
        for seed in range(6):
            codes.add(main(["sheet", "--config", str(cfg), "--input", str(src),
                            "--output", str(tmp_path / f"s{seed}.png"),
                            "--rows", "2", "--cols", "2", "--seed", str(seed)]))
        assert 3 in codes  # at least one seed mixes sizes

    def test_mixed_formats_promoted(self, tmp_path, np_rng):
        cfg = write_config(tmp_path / "grey.json", {
            "version": 1,
            "operations": [{"op": "greyscale", "probability": 0.5}],
        })
        src = tmp_path / "rgb.png"
        save_image(random_image(np_rng, 10, 10, PixelFormat.RGB8), src)
        out = tmp_path / "sheet.png"
        for seed in range(6):
            if main(["sheet", "--config", str(cfg), "--input", str(src),
                     "--output", str(out), "--rows", "1", "--cols", "4",
                     "--seed", str(seed)]) == 0:
                assert load_image(out).format is PixelFormat.RGB8
                return
        pytest.fail("no seed produced a montage")

    def test_missing_input_is_2(self, tmp_path, recipe):
        assert main(["sheet", "--config", str(recipe), "--input",
                     str(tmp_path / "none.png"), "--output", str(tmp_path / "s.png"),
                     "--rows", "1", "--cols", "1"]) == 2


class TestConsoleEntry:
    def test_determinism_across_process_restarts(self, tmp_path, corpus, recipe):
        # Fresh interpreter per run: byte-identical trees must not depend
        # on any in-process state.
        for name in ("p1", "p2"):
            proc = _augpipe("run", "--config", str(recipe), "--input", str(corpus),
                            "--output", str(tmp_path / name), "--count", "10",
                            "--seed", "13", "--trace", str(tmp_path / f"{name}.jsonl"))
            assert proc.returncode == 0, proc.stderr
        assert tree_bytes(tmp_path / "p1") == tree_bytes(tmp_path / "p2")
        assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()

    def test_module_invocation(self, tmp_path, recipe):
        proc = _augpipe("validate", "--config", str(recipe))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["version"] == 1

    def test_module_invocation_failure_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{")
        proc = _augpipe("validate", "--config", str(cfg))
        assert proc.returncode == 1
        assert "config error" in proc.stderr


def test_perfbench_setup_child_reads_cli(tmp_path, corpus, recipe):
    # perfbench/child.py times parse_config, scan_dataset and split_by_class
    # as attributes of augpipe.cli; this keeps those names importable there.
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "setup", str(recipe), str(corpus)],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    times = json.loads(proc.stdout)
    assert set(times) == {"import_s", "parse_s", "scan_s"}
    assert all(isinstance(v, float) and v >= 0 for v in times.values())


# A tiny source: width, height, then how it is stored.
SOURCES = st.tuples(
    st.integers(1, 6), st.integers(1, 6),
    st.sampled_from([("png", PixelFormat.GRAY8), ("png", PixelFormat.RGB8),
                     ("png", PixelFormat.RGBA8), ("pgm", PixelFormat.GRAY8),
                     ("ppm", PixelFormat.RGB8)]),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OP_SPECS, min_size=1, max_size=4), seed=st.integers(0, 1 << 64),
       sources=st.lists(SOURCES, min_size=1, max_size=4), classes=st.booleans(),
       mode=st.sampled_from(["sample", "process"]), count=st.integers(0, 6),
       image_format=st.sampled_from(["png", "ppm"]))
def test_run_on_tiny_sources_exits_with_a_documented_code(ops, seed, sources, classes, mode,
                                                          count, image_format):
    # Ops that fail on such small images, and RGBA written as PPM, must end
    # in an exit code, never in an exception.
    rng = np.random.default_rng(seed % (1 << 32))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (width, height, (suffix, fmt)) in enumerate(sources):
            folder = root / "in" / (str(i % 2) if classes else "")
            save_image(random_image(rng, width, height, fmt), folder / f"s{i}.{suffix}",
                       "png" if suffix == "png" else "ppm")
        config = root / "config.json"
        config.write_text(canonical_text(Pipeline(tuple(ops))))
        args = ["run", "--config", str(config), "--input", str(root / "in"),
                "--output", str(root / "out"), "--mode", mode, "--seed", str(seed),
                "--jobs", "1", "--format", image_format]
        if mode == "sample":
            args += ["--count", str(count)]
        if classes:
            args.append("--per-class")
        code = main(args)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
