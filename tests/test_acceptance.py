"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line with its measured values
(visible with -rA or -s). The heavyweight dataset runs are shared
through session fixtures so each configuration executes exactly once.
"""

import json
import struct
import time

import numpy as np
import pytest

from augpipe import (
    Elastic,
    Flip,
    GeometryError,
    Image,
    Invert,
    OpError,
    PixelFormat,
    Rotate,
    RotateCardinal,
    Shear,
    Skew,
    Zoom,
    derive_sample_rng,
    inscribed_crop_rect,
    load_image,
    save_image,
    shear_crop_rect,
    solve_homography,
)
from augpipe.cli import main as cli_main
from augpipe.warp import monitor_source_bounds, resize
from conftest import (
    DIGITS_RECIPE,
    apply_one,
    build_digit_corpus,
    random_image,
    run_op,
    tree_bytes,
    write_config,
)
from test_geometry import (
    bisect_max_scale,
    corner_residual,
    random_quad,
    rect_fully_covered,
    rotated_back_excursion,
    scaled_rect_contained,
)

CLASSES = 10
PER_CLASS_COUNT = 1000
SEED = 42


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("corpus")
    build_digit_corpus(root, classes=CLASSES, per_class=100, size=28)
    recipe = write_config(tmp_path_factory.mktemp("cfg") / "recipe.json", DIGITS_RECIPE)
    return {"root": root, "recipe": recipe}


def _run(corpus: dict, out_dir, trace_path, jobs: int) -> float:
    """One full per-class generation run through the CLI; returns seconds."""
    args = [
        "run",
        "--config", str(corpus["recipe"]),
        "--input", str(corpus["root"]),
        "--output", str(out_dir),
        "--count", str(PER_CLASS_COUNT),
        "--per-class",
        "--seed", str(SEED),
        "--jobs", str(jobs),
        "--trace", str(trace_path),
    ]
    started = time.perf_counter()
    code = cli_main(args)
    elapsed = time.perf_counter() - started
    assert code == 0, f"generation run exited with {code}"
    return elapsed


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory, corpus) -> dict:
    """The timed single-worker run every other criterion compares against."""
    out = tmp_path_factory.mktemp("run_a")
    trace = out.parent / "trace_a.jsonl"
    elapsed = _run(corpus, out, trace, jobs=1)
    return {"out": out, "trace": trace, "elapsed": elapsed}


def _png_dims(path) -> tuple[int, int]:
    head = path.read_bytes()[:24]
    w, h = struct.unpack(">II", head[16:24])
    return w, h


def test_criterion_1_generation_contract(corpus, reference_run):
    files = sorted(reference_run["out"].rglob("*.png"))
    dims = {_png_dims(p) for p in files}
    ok = (
        len(files) == CLASSES * PER_CLASS_COUNT
        and dims == {(28, 28)}
        and reference_run["elapsed"] < 60.0
    )
    _report(
        1,
        ok,
        f"{len(files)} images (expected {CLASSES * PER_CLASS_COUNT}), "
        f"dims {sorted(dims)}, single-worker elapsed {reference_run['elapsed']:.2f} s "
        f"(budget 60 s)",
    )


def test_criterion_2_determinism(tmp_path_factory, corpus, reference_run):
    ref_tree = tree_bytes(reference_run["out"])
    ref_trace = reference_run["trace"].read_bytes()

    repeat_out = tmp_path_factory.mktemp("run_b")
    repeat_trace = repeat_out.parent / "trace_b.jsonl"
    _run(corpus, repeat_out, repeat_trace, jobs=1)

    wide_out = tmp_path_factory.mktemp("run_c")
    wide_trace = wide_out.parent / "trace_c.jsonl"
    _run(corpus, wide_out, wide_trace, jobs=8)

    same_repeat = tree_bytes(repeat_out) == ref_tree
    same_repeat_trace = repeat_trace.read_bytes() == ref_trace
    same_wide = tree_bytes(wide_out) == ref_tree
    same_wide_trace = wide_trace.read_bytes() == ref_trace
    ok = same_repeat and same_repeat_trace and same_wide and same_wide_trace
    _report(
        2,
        ok,
        f"rerun identical: files={same_repeat} trace={same_repeat_trace}; "
        f"jobs 8 identical: files={same_wide} trace={same_wide_trace}",
    )


def test_criterion_3_gate_statistics(reference_run):
    records = [json.loads(line) for line in reference_run["trace"].read_text().splitlines()]
    assert len(records) == CLASSES * PER_CLASS_COUNT
    applied = sum(1 for r in records if r["ops"][1]["applied"])
    fraction = applied / len(records)
    ok = 0.48 <= fraction <= 0.52
    _report(3, ok, f"rotation gate fired {applied}/{len(records)} = {fraction:.4f} "
                   f"(bound [0.48, 0.52])")


def test_criterion_4_no_fill_guarantee():
    rng = np.random.default_rng(2024)

    def image(w, h):
        return random_image(rng, w, h)

    with monitor_source_bounds() as monitor:
        done = 0
        while done < 1000:
            w, h = int(rng.integers(8, 65)), int(rng.integers(8, 65))
            run_op(Rotate(probability=1), image(w, h), angle=float(rng.uniform(-45, 45)))
            done += 1
        done = 0
        while done < 1000:
            w, h = int(rng.integers(8, 65)), int(rng.integers(8, 65))
            axis = "x" if rng.integers(0, 2) == 0 else "y"
            try:
                run_op(Shear(probability=1, axis=axis), image(w, h),
                       angle=float(rng.uniform(-44.9, 44.9)))
            except OpError:
                continue  # shear exceeded image extent: no warp happened
            done += 1
        done = 0
        while done < 1000:
            w, h = int(rng.integers(8, 65)), int(rng.integers(8, 65))
            kind = ("forward", "backward", "left", "right")[int(rng.integers(0, 4))]
            d = int(rng.integers(0, (min(w, h) - 1) // 2 + 1))
            run_op(Skew(probability=1, skew_kind=kind), image(w, h), displacement=d)
            done += 1
    ok = monitor.violations == 0 and monitor.warps == 3000
    _report(4, ok, f"{monitor.warps} instrumented warps, {monitor.violations} "
                   f"out-of-bounds source coordinates (worst excursion {monitor.worst:.2e} px)")


def test_criterion_5_geometry_oracles():
    rng = np.random.default_rng(31337)

    # Inscribed rotation crops: containment + maximality.
    contained = maximal = degenerate = 0
    checked = 0
    while checked < 1000:
        w, h = int(rng.integers(8, 513)), int(rng.integers(8, 513))
        theta = float(rng.uniform(-45, 45))
        k_max = bisect_max_scale(w, h, theta)
        if k_max * w < 1 or k_max * h < 1:
            with pytest.raises(GeometryError):
                inscribed_crop_rect(w, h, theta)
            degenerate += 1
            continue
        rect = inscribed_crop_rect(w, h, theta)
        if rotated_back_excursion(w, h, theta, rect) <= 1e-6:
            contained += 1
        if not scaled_rect_contained(w, h, theta, k_max + 1e-3):
            maximal += 1
        checked += 1

    # Shear crops: full coverage of the returned rect.
    covered = 0
    shear_checked = 0
    while shear_checked < 1000:
        w, h = int(rng.integers(8, 257)), int(rng.integers(8, 257))
        axis = "x" if rng.integers(0, 2) == 0 else "y"
        t = float(rng.uniform(-0.99, 0.99))
        span = abs(t) * (h if axis == "x" else w)
        if span >= (w if axis == "x" else h) - 1:
            continue
        rect = shear_crop_rect(w, h, axis, t)
        if rect_fully_covered(w, h, axis, t, rect):
            covered += 1
        shear_checked += 1

    # Homographies: corner residuals.
    worst_residual = 0.0
    for _ in range(1000):
        hom_src, hom_dst = random_quad(rng), random_quad(rng)
        hom = solve_homography(hom_src, hom_dst)
        worst_residual = max(worst_residual, corner_residual(hom, hom_src, hom_dst))

    ok = contained == 1000 and maximal == 1000 and covered == 1000 and worst_residual < 1e-9
    _report(
        5,
        ok,
        f"rotation crops: {contained}/1000 contained, {maximal}/1000 maximal "
        f"({degenerate} sub-pixel cases raised as designed); shear coverage "
        f"{covered}/1000; homography worst corner residual {worst_residual:.2e} "
        f"(bound 1e-9)",
    )


def test_criterion_6_identity_involution_suite():
    rng = np.random.default_rng(99)
    failures = []

    def check(name, out, reference):
        if not np.array_equal(out.pixels, reference.pixels):
            failures.append(name)

    for fmt in (PixelFormat.GRAY8, PixelFormat.RGB8, PixelFormat.RGBA8):
        img = random_image(rng, 25, 19, fmt)
        still = Elastic(probability=1, grid_width=4, grid_height=4, magnitude=0)
        check("zero-magnitude elastic", apply_one(still, img, derive_sample_rng(1, 1))[0], img)
        check("zero-angle rotate", run_op(Rotate(probability=1), img, angle=0.0), img)
        check("zero-angle shear", run_op(Shear(probability=1, axis="x"), img, angle=0.0), img)
        check("zero-displacement skew",
              run_op(Skew(probability=1, skew_kind="forward"), img, displacement=0), img)
        check("unit zoom", run_op(Zoom(probability=1), img, factor=1.0), img)
        check("same-size resize", resize(img, 25, 19), img)
        for axis in ("horizontal", "vertical"):
            mirror = Flip(probability=1, axis=axis)
            check(f"double {axis} flip", run_op(mirror, run_op(mirror, img)), img)
        invert = Invert(probability=1)
        check("double invert", run_op(invert, run_op(invert, img)), img)
        turn = RotateCardinal(probability=1)
        quad = img
        for _ in range(4):
            quad = run_op(turn, quad, degrees=90)
        check("quadruple quarter-turn", quad, img)
        check("double half-turn", run_op(turn, run_op(turn, img, degrees=180), degrees=180), img)
    ok = not failures
    _report(6, ok, "all identities bit-exact across Gray8/RGB8/RGBA8"
            if ok else f"bit-exactness broken: {sorted(set(failures))}")


def test_criterion_7_constancy():
    from test_ops import CATALOGUE

    rng_seed = 0
    failures = []
    for spec in CATALOGUE:
        for fmt in (PixelFormat.GRAY8, PixelFormat.RGB8):
            img = Image.filled(24, 24, fmt, 137)
            for i in range(5):
                out, _ = apply_one(spec, img, derive_sample_rng(rng_seed, i))
                expected = 255 - 137 if spec.kind == "invert" else 137
                if not np.all(out.pixels == expected):
                    failures.append((spec.kind, fmt.name, i))
    ok = not failures
    _report(7, ok, f"constant images stay constant across the op catalogue "
                   f"({len(CATALOGUE)} ops x 2 formats x 5 draws)"
            if ok else f"non-constant outputs: {failures[:5]}")


def test_criterion_8_codec_round_trip(tmp_path):
    rng = np.random.default_rng(512)
    cases = [
        ("png", PixelFormat.GRAY8), ("png", PixelFormat.RGB8), ("png", PixelFormat.RGBA8),
        ("ppm", PixelFormat.GRAY8), ("ppm", PixelFormat.RGB8),
    ]
    bad = 0
    total = 0
    for file_format, fmt in cases:
        for i in range(100):
            img = random_image(rng, int(rng.integers(1, 48)), int(rng.integers(1, 48)), fmt)
            path = tmp_path / f"{file_format}_{fmt.name}_{i}"
            save_image(img, path, file_format)
            back = load_image(path)
            total += 1
            if back.format is not fmt or not np.array_equal(back.pixels, img.pixels):
                bad += 1
    ok = bad == 0
    _report(8, ok, f"{total} save/load round trips across PNG(Gray8/RGB8/RGBA8) "
                   f"and PPM/PGM, {bad} mismatches")


def test_criterion_9_parallel_scaling(tmp_path_factory, corpus, reference_run):
    import os

    parallel_out = tmp_path_factory.mktemp("run_d")
    parallel_trace = parallel_out.parent / "trace_d.jsonl"
    parallel_elapsed = _run(corpus, parallel_out, parallel_trace, jobs=4)

    identical = (
        tree_bytes(parallel_out) == tree_bytes(reference_run["out"])
        and parallel_trace.read_bytes() == reference_run["trace"].read_bytes()
    )
    speedup = reference_run["elapsed"] / parallel_elapsed if parallel_elapsed > 0 else 0.0
    ok = identical and speedup >= 3.0
    _report(
        9,
        ok,
        f"jobs 4 vs jobs 1: identical outputs={identical}, speedup {speedup:.2f}x "
        f"(required >= 3.0x; host exposes {os.cpu_count()} CPUs, which caps the "
        f"attainable speedup)",
    )
