"""Operation catalogue: kernels, draw orders, invariants, failure paths."""

import ast
import dataclasses
import gc
import importlib
import inspect
import math
import re
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from augpipe import (
    ConfigError,
    CropCentre,
    CropRandom,
    Elastic,
    Equalize,
    Flip,
    Greyscale,
    Image,
    Invert,
    OpError,
    OpSpec,
    Resize,
    RngStream,
    Rotate,
    RotateCardinal,
    Scale,
    Shear,
    Skew,
    Zoom,
    derive_sample_rng,
)
import augpipe
from augpipe import ops
from augpipe.geometry import Quad, shear_crop_rect, solve_homography
from augpipe.warp import resize, warp_affine, warp_projective
from conftest import (apply_one, filled, map_point, monitor_source_bounds, non_default_spec,
                      random_image, run_op)

ROTATE = Rotate(probability=1)
TURN = RotateCardinal(probability=1)
H_FLIP = Flip(probability=1, axis="horizontal")
V_FLIP = Flip(probability=1, axis="vertical")
SHEAR_X = Shear(probability=1, axis="x")
ZOOM = Zoom(probability=1)
INVERT = Invert(probability=1)
GREYSCALE = Greyscale(probability=1)
EQUALIZE = Equalize(probability=1)


class TestRotate:
    def test_zero_angle_bit_exact(self, np_rng):
        img = random_image(np_rng, 33, 21, 3)
        assert np.array_equal(run_op(ROTATE, img, angle=0.0).pixels, img.pixels)

    def test_constant_input_any_angle(self):
        img = filled(40, 30, 1, 77)
        out = run_op(ROTATE, img, angle=17.3)
        assert (out.width, out.height) == (40, 30)
        assert np.all(out.pixels == 77)

    def test_dimensions_preserved_and_in_bounds(self, np_rng):
        # A border pixel differing from the rest must not leak clamped
        # values in: all source samples stay inside the image.
        arr = np.full((100, 100), 255, dtype=np.uint8)
        arr[0, 0] = 0
        img = Image.from_array(arr)
        with monitor_source_bounds() as monitor:
            out = run_op(ROTATE, img, angle=10.0)
        assert (out.width, out.height) == (100, 100)
        assert monitor.violations == 0

    def test_angle_domain_error(self, np_rng):
        with pytest.raises(Exception):
            run_op(ROTATE, random_image(np_rng, 8, 8), angle=46.0)

    def test_positive_angle_turns_clockwise(self):
        # A bright pixel right of center must move down under a clockwise
        # turn (y grows downward).
        arr = np.zeros((41, 41), dtype=np.uint8)
        arr[20, 32] = 255
        img = Image.from_array(arr)
        out = run_op(ROTATE, img, angle=20.0)
        ys, xs = np.nonzero(out.pixels[:, :, 0] > 100)
        assert ys.mean() > 20.5

    def test_matches_manual_composition(self, np_rng):
        # Crop rect and resize composed by hand must agree bit-exactly
        # with the kernel's single-warp implementation.
        from augpipe.geometry import inscribed_crop_rect

        img = random_image(np_rng, 50, 40)
        theta = -13.7
        crop = inscribed_crop_rect(50, 40, theta)
        rad = math.radians(theta)
        cs, sn = math.cos(rad), math.sin(rad)
        kx, ky = crop.w / 50, crop.h / 40
        m = np.array(
            [
                [cs * kx, sn * ky, 25 - cs * kx * 25 - sn * ky * 20],
                [-sn * kx, cs * ky, 20 + sn * kx * 25 - cs * ky * 20],
            ]
        )
        manual = warp_affine(img, m, 50, 40)
        assert np.array_equal(run_op(ROTATE, img, angle=theta).pixels, manual.pixels)


class TestRotateCardinal:
    def test_permutation_formula(self, np_rng):
        img = random_image(np_rng, 5, 3, 3)
        out = run_op(TURN, img, degrees=90)
        assert (out.width, out.height) == (3, 5)
        for y in range(out.height):
            for x in range(out.width):
                # dst(x, y) = src(y, H - 1 - x)
                assert np.array_equal(out.pixels[y, x], img.pixels[img.height - 1 - x, y])

    def test_two_by_one_column(self):
        img = Image.from_array(np.array([[10, 200]], dtype=np.uint8))
        out = run_op(TURN, img, degrees=90)
        assert (out.width, out.height) == (1, 2)
        assert list(out.pixels[:, 0, 0]) == [10, 200]

    def test_involutions(self, np_rng):
        img = random_image(np_rng, 7, 4)
        assert np.array_equal(run_op(TURN, run_op(TURN, img, degrees=180), degrees=180).pixels, img.pixels)
        out = img
        for _ in range(4):
            out = run_op(TURN, out, degrees=90)
        assert np.array_equal(out.pixels, img.pixels)

    def test_270_is_triple_90(self, np_rng):
        img = random_image(np_rng, 6, 9)
        triple = run_op(TURN, run_op(TURN, run_op(TURN, img, degrees=90), degrees=90), degrees=90)
        assert np.array_equal(run_op(TURN, img, degrees=270).pixels, triple.pixels)

    def test_invalid_angle(self, np_rng):
        with pytest.raises(OpError):
            run_op(TURN, random_image(np_rng, 2, 2), degrees=45)


class TestFlip:
    def test_examples_and_involution(self, np_rng):
        img = Image.from_array(np.array([[1, 2]], dtype=np.uint8))
        assert list(run_op(H_FLIP, img).pixels[0, :, 0]) == [2, 1]
        rnd = random_image(np_rng, 9, 5, 4)
        for spec in (H_FLIP, V_FLIP):
            assert np.array_equal(run_op(spec, run_op(spec, rnd)).pixels, rnd.pixels)

    def test_flip_both_axes_equals_rotate_180(self, np_rng):
        img = random_image(np_rng, 8, 6, 3)
        both = run_op(V_FLIP, run_op(H_FLIP, img))
        assert np.array_equal(both.pixels, run_op(TURN, img, degrees=180).pixels)

    def test_random_spec_without_a_drawn_axis_is_refused(self, np_rng):
        # A random spec's axis comes from its draws; without one there is no mirror to take.
        with pytest.raises(OpError, match="flip axis must be horizontal or vertical, got 'random'"):
            run_op(Flip(probability=1), random_image(np_rng, 4, 3))


class TestShear:
    def test_zero_angle_bit_exact(self, np_rng):
        img = random_image(np_rng, 30, 30)
        assert np.array_equal(run_op(SHEAR_X, img, angle=0.0).pixels, img.pixels)

    def test_constant_any_valid_shear(self):
        img = filled(50, 50, 1, 31)
        for axis in ("x", "y"):
            out = run_op(Shear(probability=1, axis=axis), img, angle=-23.0)
            assert (out.width, out.height) == (50, 50)
            assert np.all(out.pixels == 31)

    def test_matches_manual_composition(self, np_rng):
        # 100x100 at 10 degrees: source window is 82 px wide starting at
        # x = 18, stretched back to 100.
        img = random_image(np_rng, 100, 100)
        t = math.tan(math.radians(10))
        crop = shear_crop_rect(100, 100, "x", t)
        assert (crop.x, crop.w) == (18, 82)
        m = np.array([[crop.w / 100, -t, crop.x], [0.0, 1.0, 0.0]])
        manual = warp_affine(img, m, 100, 100)
        assert np.array_equal(run_op(SHEAR_X, img, angle=10.0).pixels, manual.pixels)

    def test_excess_shear_is_op_error(self, np_rng):
        img = random_image(np_rng, 20, 200)
        with pytest.raises(OpError):
            run_op(SHEAR_X, img, angle=40.0)  # tan(40) * 200 > 20

    def test_in_bounds_sampling(self, np_rng):
        with monitor_source_bounds() as monitor:
            for _ in range(50):
                w = int(np_rng.integers(8, 64))
                h = int(np_rng.integers(8, 64))
                angle = float(np_rng.uniform(-44, 44))
                axis = "x" if np_rng.integers(0, 2) == 0 else "y"
                try:
                    run_op(Shear(probability=1, axis=axis), random_image(np_rng, w, h), angle=angle)
                except OpError:
                    continue
        assert monitor.violations == 0


class TestSkew:
    def test_zero_displacement_bit_exact(self, np_rng):
        img = random_image(np_rng, 25, 35, 3)
        for kind in ("forward", "backward", "left", "right"):
            assert np.array_equal(run_op(Skew(probability=1, skew_kind=kind), img, displacement=0).pixels, img.pixels)

    def test_constant_input(self):
        img = filled(30, 30, 1, 99)
        out = run_op(Skew(probability=1, skew_kind="left"), img, displacement=10)
        assert np.all(out.pixels == 99)
        assert (out.width, out.height) == (30, 30)

    def test_forward_quad_and_equivalence(self, np_rng):
        # forward, 100x100, d=10: source quad (10,0),(90,0),(100,100),(0,100)
        img = random_image(np_rng, 100, 100)
        src = Quad(((10.0, 0.0), (90.0, 0.0), (100.0, 100.0), (0.0, 100.0)))
        hom = solve_homography(src, Quad.from_rect(100, 100))
        for (dx, dy), (sx, sy) in zip(Quad.from_rect(100, 100).corners, src.corners):
            mx, my = map_point(hom, dx, dy)
            assert abs(mx - sx) < 1e-9 and abs(my - sy) < 1e-9
        manual = warp_projective(img, hom, 100, 100)
        assert np.array_equal(run_op(Skew(probability=1, skew_kind="forward"), img, displacement=10).pixels, manual.pixels)

    def test_displacement_range_error(self, np_rng):
        img = random_image(np_rng, 20, 30)
        with pytest.raises(OpError):
            run_op(Skew(probability=1, skew_kind="forward"), img, displacement=10)  # min(20, 30)/2 = 10 is excluded

    def test_in_bounds_sampling(self, np_rng):
        with monitor_source_bounds() as monitor:
            for _ in range(50):
                w = int(np_rng.integers(8, 64))
                h = int(np_rng.integers(8, 64))
                d = int(np_rng.integers(0, (min(w, h) - 1) // 2 + 1))
                kind = ("forward", "backward", "left", "right")[int(np_rng.integers(0, 4))]
                run_op(Skew(probability=1, skew_kind=kind), random_image(np_rng, w, h), displacement=d)
        assert monitor.violations == 0


class TestElastic:
    def test_zero_magnitude_bit_exact(self, np_rng):
        img = random_image(np_rng, 28, 28)
        rng = derive_sample_rng(5, 0)
        spec = Elastic(probability=1, grid_width=4, grid_height=4, magnitude=0)
        assert np.array_equal(apply_one(spec, img, rng)[0].pixels, img.pixels)

    def test_one_cell_grid_is_identity_with_zero_draws(self, np_rng):
        img = random_image(np_rng, 16, 16)
        rng = derive_sample_rng(5, 1)
        before = rng.next_word
        out, _ = apply_one(Elastic(probability=1, grid_width=1, grid_height=1, magnitude=9),
                           img, rng)
        assert np.array_equal(out.pixels, img.pixels)
        # No interior nodes means no draws: the stream is untouched.
        fresh = derive_sample_rng(5, 1)
        assert rng.next_word() == fresh.next_word()

    def test_dims_preserved(self, np_rng):
        img = random_image(np_rng, 28, 28)
        spec = Elastic(probability=1, grid_width=4, grid_height=4, magnitude=5)
        out, _ = apply_one(spec, img, derive_sample_rng(1, 2))
        assert (out.width, out.height) == (28, 28)


class TestZoom:
    def test_factor_one_bit_exact(self, np_rng):
        img = random_image(np_rng, 19, 23, 3)
        assert np.array_equal(run_op(ZOOM, img, factor=1.0).pixels, img.pixels)

    def test_factor_two_matches_resize_then_center_crop(self, np_rng):
        img = random_image(np_rng, 100, 100)
        manual = resize(img, 200, 200)
        manual_crop = Image.from_array(manual.pixels[50:150, 50:150])
        assert np.array_equal(run_op(ZOOM, img, factor=2.0).pixels, manual_crop.pixels)

    def test_zoom_out_rejected(self, np_rng):
        with pytest.raises(OpError):
            run_op(ZOOM, random_image(np_rng, 8, 8), factor=0.9)

    def test_constant_any_factor(self):
        img = filled(21, 13, 1, 55)
        for f in (1.0, 1.3, 2.71):
            out = run_op(ZOOM, img, factor=f)
            assert (out.width, out.height) == (21, 13)
            assert np.all(out.pixels == 55)


class TestCrops:
    def test_full_image_crop_identity(self, np_rng):
        img = random_image(np_rng, 10, 12)
        out = run_op(CropRandom(probability=1, area_fraction=1.0), img, x=0, y=0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_out_of_bounds_rejected(self, np_rng):
        img = random_image(np_rng, 10, 10)
        with pytest.raises(OpError):
            run_op(CropRandom(probability=1, area_fraction=0.36), img, x=5, y=5)

    def test_fractional_offsets_rejected(self, np_rng):
        img = random_image(np_rng, 10, 10)
        with pytest.raises(OpError):
            run_op(CropRandom(probability=1, area_fraction=0.25), img, x=0.5, y=0)

    def test_centre_crop_offset(self, np_rng):
        img = random_image(np_rng, 32, 32)
        out, app = apply_one(CropCentre(probability=1, width=28, height=28), img,
                            derive_sample_rng(0, 0))
        assert np.array_equal(out.pixels, img.pixels[2:30, 2:30])
        assert app.drawn_params == {}

    def test_crop_random_extent(self, np_rng):
        img = random_image(np_rng, 100, 100)
        spec = CropRandom(probability=1, area_fraction=0.25)
        out, app = apply_one(spec, img, derive_sample_rng(3, 1))
        assert (out.width, out.height) == (50, 50)
        drawn = app.drawn_params
        assert 0 <= drawn["x"] <= 50 and 0 <= drawn["y"] <= 50

    def test_crop_random_of_one_pixel_width_is_op_error(self, np_rng):
        spec = CropRandom(probability=1, area_fraction=0.1)
        with pytest.raises(OpError, match="crop extent must be >= 1") as info:
            apply_one(spec, random_image(np_rng, 1, 9), derive_sample_rng(0, 0))
        assert info.value.op_kind == "crop_random"

    def test_crop_random_resize_back(self, np_rng):
        img = random_image(np_rng, 100, 100)
        spec = CropRandom(probability=1, area_fraction=0.25, resize_back=True)
        out, _ = apply_one(spec, img, derive_sample_rng(3, 1))
        assert (out.width, out.height) == (100, 100)


class TestPixelOps:
    def test_invert_is_involution(self, np_rng):
        img = random_image(np_rng, 9, 9, 3)
        assert np.array_equal(run_op(INVERT, run_op(INVERT, img)).pixels, img.pixels)

    def test_invert_leaves_alpha(self, np_rng):
        img = random_image(np_rng, 5, 5, 4)
        out = run_op(INVERT, img)
        assert np.array_equal(out.pixels[..., 3], img.pixels[..., 3])
        assert np.array_equal(out.pixels[..., :3], 255 - img.pixels[..., :3])

    def test_greyscale_of_pure_red(self):
        img = filled(2, 2, 3, (255, 0, 0))
        out = run_op(GREYSCALE, img)
        assert out.channels == 1
        assert np.all(out.pixels == 76)  # 0.299 * 255 = 76.245

    def test_greyscale_identity_on_gray(self, np_rng):
        img = random_image(np_rng, 4, 4)
        assert run_op(GREYSCALE, img) is img

    def test_greyscale_drops_alpha(self, np_rng):
        img = random_image(np_rng, 4, 4, 4)
        assert run_op(GREYSCALE, img).channels == 1

    def test_equalize_two_level_unchanged(self):
        arr = np.zeros((4, 4, 1), dtype=np.uint8)
        arr[2:] = 255
        img = Image.from_array(arr)
        assert np.array_equal(run_op(EQUALIZE, img).pixels, img.pixels)

    def test_equalize_single_intensity_unchanged(self):
        img = filled(6, 6, 1, 120)
        assert np.array_equal(run_op(EQUALIZE, img).pixels, img.pixels)

    def test_equalize_matches_direct_formula(self, np_rng):
        img = random_image(np_rng, 16, 16)
        out = run_op(EQUALIZE, img)
        values = img.pixels[..., 0]
        n = values.size
        hist = np.bincount(values.ravel(), minlength=256)
        cdf = np.cumsum(hist)
        cdf_min = cdf[np.nonzero(hist)[0][0]]
        for v in np.unique(values):
            expected = (cdf[v] - cdf_min) / (n - cdf_min) * 255
            expected = int(np.floor(expected + 0.5)) if expected >= 0 else 0
            got = out.pixels[..., 0][values == v]
            assert np.all(got == min(max(expected, 0), 255))

    def test_equalize_leaves_alpha(self, np_rng):
        img = random_image(np_rng, 6, 6, 4)
        assert np.array_equal(run_op(EQUALIZE, img).pixels[..., 3], img.pixels[..., 3])


class TestSpecsAndApply:
    def test_elastic_draw_layout(self, np_rng):
        img = random_image(np_rng, 28, 28)
        spec = Elastic(probability=1, grid_width=4, grid_height=4, magnitude=5)
        out, app = apply_one(spec, img, derive_sample_rng(42, 0))
        assert (out.width, out.height) == (28, 28)
        assert len(app.drawn_params) == 18  # 9 interior nodes x (dx, dy)
        assert all(isinstance(v, int) and -5 <= v <= 5 for v in app.drawn_params.values())
        names = list(app.drawn_params)
        assert names[:4] == ["dx_1_1", "dy_1_1", "dx_2_1", "dy_2_1"]

    def test_rotate_draw_range(self, np_rng):
        img = random_image(np_rng, 16, 16)
        spec = Rotate(probability=0.5, max_left=10, max_right=10)
        for i in range(50):
            _, app = apply_one(spec, img, derive_sample_rng(9, i))
            angle = app.drawn_params["angle"]
            assert -10 <= angle <= 10

    def test_apply_op_deterministic(self, np_rng):
        img = random_image(np_rng, 20, 20)
        spec = Elastic(probability=1, grid_width=3, grid_height=3, magnitude=4)
        out1, app1 = apply_one(spec, img, derive_sample_rng(12, 3))
        out2, app2 = apply_one(spec, img, derive_sample_rng(12, 3))
        assert np.array_equal(out1.pixels, out2.pixels)
        assert app1 == app2

    def test_spec_without_apply_or_transform_raises(self, np_rng):
        with pytest.raises(NotImplementedError):
            apply_one(OpSpec(probability=1), random_image(np_rng, 4, 4), derive_sample_rng(0, 0))

    def test_invert_applied_twice_restores(self, np_rng):
        img = random_image(np_rng, 6, 6, 3)
        spec = Invert(probability=1)
        once, _ = apply_one(spec, img, derive_sample_rng(0, 0))
        twice, _ = apply_one(spec, once, derive_sample_rng(0, 1))
        assert np.array_equal(twice.pixels, img.pixels)

    def test_shear_random_axis_draw_order(self, np_rng):
        img = random_image(np_rng, 30, 30)
        spec = Shear(probability=1, max_angle=20, axis="random")
        _, app = apply_one(spec, img, derive_sample_rng(2, 2))
        assert list(app.drawn_params) == ["axis", "angle"]

    def test_skew_draw_bounds(self, np_rng):
        img = random_image(np_rng, 28, 28)
        spec = Skew(probability=1, severity=0.9, skew_kind="random")
        for i in range(30):
            _, app = apply_one(spec, img, derive_sample_rng(5, i))
            d = app.drawn_params["displacement"]
            assert 0 <= d <= 12  # floor(0.9 * 28 / 2)

    def test_skew_severity_one_boundary_draw_is_an_op_error(self, np_rng):
        # With severity 1 on an even min dimension the draw range includes
        # min/2, which the kernel domain excludes; that boundary draw must
        # surface as an op error carrying the drawn values, like any other
        # post-draw precondition failure.
        img = random_image(np_rng, 28, 28)
        spec = Skew(probability=1, severity=1.0, skew_kind="forward")
        hit = None
        for i in range(200):
            try:
                apply_one(spec, img, derive_sample_rng(5, i))
            except OpError as exc:
                hit = exc
                break
        assert hit is not None
        assert hit.drawn == {"displacement": 14}

    def test_failed_kernel_error_carries_draws(self, np_rng):
        img = random_image(np_rng, 10, 100)  # tall: x-shear overflows quickly
        spec = Shear(probability=1, max_angle=44, axis="x")
        with pytest.raises(OpError) as info:
            for i in range(200):
                apply_one(spec, img, derive_sample_rng(1, i))
        assert info.value.drawn is not None
        assert info.value.op_kind == "shear"

    @pytest.mark.parametrize("spec, size, drawn", [
        (ROTATE, (28, 28), {"angle": 50.0}),
        (TURN, (28, 28), {"degrees": 45}),
        (Shear(probability=1), (10, 100), {"axis": "x", "angle": 44.0}),
        (Skew(probability=1), (28, 28), {"kind": "forward", "displacement": 14}),
        (CropRandom(probability=1, area_fraction=0.25), (100, 100), {"x": 51, "y": 0}),
        (ZOOM, (28, 28), {"factor": 0.5}),
        (Flip(probability=1), (28, 28), {"axis": "diagonal"}),
        (Skew(probability=1), (28, 28), {"kind": "diagonal", "displacement": 1}),
        (Shear(probability=1), (28, 28), {"axis": "z", "angle": 1.0}),
    ], ids=["rotate", "rotate_cardinal", "shear", "skew", "crop_random", "zoom", "flip",
            "skew_kind", "shear_axis"])
    def test_replayed_failure_is_an_op_error_of_its_op(self, np_rng, spec, size, drawn):
        # apply_batch is what replays a trace line's params: whichever
        # kernel refuses them, the error names the op and carries them.
        with pytest.raises(OpError) as info:
            spec.apply_batch([random_image(np_rng, *size)], [drawn])
        assert info.value.op_kind == spec.kind
        assert info.value.drawn == drawn

    @pytest.mark.parametrize("spec, name", [
        (ROTATE, "angle"),
        (TURN, "degrees"),
        (CropRandom(probability=1, area_fraction=0.25), "x"),
    ], ids=["rotate", "rotate_cardinal", "crop_random"])
    def test_replay_without_a_draw_is_an_op_error_naming_it(self, np_rng, spec, name):
        # A hand-written replay dict may lack a name the kernel reads.
        with pytest.raises(OpError, match=f"no draw named '{name}'") as info:
            spec.apply_batch([random_image(np_rng, 28, 28)], [{}])
        assert info.value.op_kind == spec.kind
        assert info.value.drawn == {}

    def test_scale_that_collapses_the_image_is_op_error(self, np_rng):
        spec = Scale(probability=1, factor=0.01)
        with pytest.raises(OpError, match="collapses the image") as info:
            apply_one(spec, random_image(np_rng, 28, 28), derive_sample_rng(0, 0))
        assert info.value.op_kind == "scale"

    @pytest.mark.parametrize("spec", [
        Elastic(probability=1, grid_width=10**5000, magnitude=1),
        CropCentre(probability=1, width=10**5000),
    ], ids=["elastic", "crop_centre"])
    def test_int_too_long_to_print_fails_as_op_error(self, np_rng, spec):
        with pytest.raises(OpError, match="an integer of about 5000 digits"):
            apply_one(spec, random_image(np_rng, 8, 8), derive_sample_rng(0, 0))

    def test_validation_errors_name_fields(self):
        with pytest.raises(ConfigError) as info:
            Rotate(probability=1.5)
        assert "probability" in str(info.value)
        with pytest.raises(ConfigError) as info:
            Rotate(probability=1, max_left=50)
        assert "max_left" in str(info.value)
        with pytest.raises(ConfigError):
            Shear(probability=1, max_angle=45)
        with pytest.raises(ConfigError):
            Zoom(probability=1, min_factor=0.5, max_factor=2)
        with pytest.raises(ConfigError) as info:
            Zoom(probability=1, min_factor=2, max_factor=1.5)
        assert info.value.field == "max_factor"
        with pytest.raises(ConfigError):
            Elastic(probability=1, grid_width=0, grid_height=2, magnitude=1)
        with pytest.raises(ConfigError):
            CropRandom(probability=1, area_fraction=0.0)
        with pytest.raises(ConfigError):
            Skew(probability=1, severity=2.0)


def test_each_op_is_declared_by_one_class():
    # An op is one direct OpSpec subclass, which holds its kernel in apply
    # or gives its warp map through transform; the module has no public
    # kernel function beside the classes.
    for spec_cls in OpSpec.__subclasses__():
        assert ("apply" in vars(spec_cls)) != ("transform" in vars(spec_cls)), spec_cls.kind
    spec_names = {spec_cls.__name__ for spec_cls in OpSpec.__subclasses__()}
    assert set(ops.__all__) == {"OpSpec", "OpApplication", "apply_op"} | spec_names
    functions = [name for name, value in vars(ops).items() if inspect.isfunction(value)
                 and value.__module__ == ops.__name__ and not name.startswith("_")]
    assert functions == ["apply_op"]


# The kinds that configs, traces and golden digests name.
KINDS = """
    crop_centre crop_random elastic equalize flip greyscale invert resize rotate
    rotate_cardinal scale shear skew zoom
""".split()


def test_each_kind_is_its_class_name_in_snake_case():
    for spec_cls in OpSpec.__subclasses__():
        assert spec_cls.kind == re.sub(r"(?<!^)(?=[A-Z])", "_", spec_cls.__name__).lower()
    assert sorted(spec_cls.kind for spec_cls in OpSpec.__subclasses__()) == KINDS


def test_each_op_is_a_frozen_dataclass():
    for spec_cls in OpSpec.__subclasses__():
        assert spec_cls.__dataclass_params__.frozen, spec_cls.kind
    with pytest.raises(dataclasses.FrozenInstanceError):
        ROTATE.max_left = 1.0


def _refused_op(source: str) -> str:
    """The TypeError message of a class definition that must fail. The
    class is collected before this returns, so OpSpec.__subclasses__(),
    which parse_config and other tests read, is as it was."""
    namespace = {"OpSpec": OpSpec, "dataclass": dataclasses.dataclass}
    try:
        exec(source, namespace)
    except TypeError as exc:
        message = str(exc)
    else:
        pytest.fail("the class definition was accepted")
    namespace.clear()
    gc.collect()
    assert "Refused" not in [spec_cls.__name__ for spec_cls in OpSpec.__subclasses__()]
    return message


def test_an_op_that_sets_its_kind_is_refused():
    # The kind would otherwise be silently replaced by the derived one.
    message = _refused_op('class Refused(OpSpec):\n    kind = "mine"\n')
    assert "Refused" in message and "kind" in message


def test_an_op_decorated_again_is_refused():
    # OpSpec already made it a frozen dataclass; dataclasses refuses to
    # overwrite the __setattr__ that made.
    message = _refused_op("@dataclass(frozen=True)\nclass Refused(OpSpec):\n    pass\n")
    assert "Refused" in message


# The names the package exported while __init__.py listed them one by one,
# bar AffineTransform, as an affine map is now a Homography,
# clamp_round, the scalar reference for clamp_round_array that only the
# tests use, now in conftest, and PixelFormat, as an image's format is its
# channel count.
LISTED_EXPORTS = """
    AugpipeError CollectingSink ConfigError CropCentre CropRandom CropRect
    DatasetEntry DatasetError DatasetIndex DecodeError DirectorySink DisplacementGrid Elastic
    Equalize Flip GeometryError Greyscale Homography Image Invert OpApplication OpError OpSpec
    OutputCollisionError Pipeline Quad Resize RngStream Rotate RotateCardinal Scale
    Shear Skew TraceRecord UnsupportedImageError Zoom apply_op canonical_text
    derive_sample_rng inscribed_crop_rect load_image mix64 output_name parse_config process
    round_half_away run_sample sample save_image scan_dataset shear_crop_rect solve_homography
    split_by_class write_trace
""".split()


def _draws_paragraph(spec_cls) -> str:
    """The Draws: paragraph of an op's class docstring."""
    doc = inspect.cleandoc(spec_cls.__doc__ or "")
    assert doc.count("Draws:") == 1, f"{spec_cls.kind} documents no single Draws: line"
    return doc[doc.index("Draws:"):].split("\n\n")[0]


@pytest.mark.parametrize("spec_cls", OpSpec.__subclasses__(), ids=lambda c: c.kind)
def test_draws_line_names_what_draw_records(spec_cls):
    # Every choice field that can be random is, so each conditional draw
    # happens. A name ending in _a_b stands for one per interior grid
    # node, row-major, as elastic draws them.
    spec = non_default_spec(spec_cls)
    spec = dataclasses.replace(spec, **{f.name: "random" for f in dataclasses.fields(spec)
                                        if "random" in f.metadata.get("choices", ())})
    documented = re.findall(r"(\w+) = ", _draws_paragraph(spec_cls))
    if any(name.endswith("_a_b") for name in documented):
        documented = [f"{name[:-4]}_{a}_{b}" for b in range(1, spec.grid_height)
                      for a in range(1, spec.grid_width) for name in documented]
    drawn = spec.draw(RngStream(5), 24, 24)
    assert type(drawn) is dict and list(drawn) == documented


def test_package_exports_the_union_of_its_modules_all():
    # Each module's __all__ is the one list of its public names: __init__.py
    # star-imports every library module and names no symbol itself, so a new
    # op is importable from augpipe with no edit there.
    package = Path(augpipe.__file__).parent
    library = sorted({path.stem for path in package.glob("*.py")} - {"__init__", "__main__", "cli"})
    declared = set().union(*(importlib.import_module(f"augpipe.{m}").__all__ for m in library))
    exported = {name for name, value in vars(augpipe).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == declared
    assert set(LISTED_EXPORTS) <= exported
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    docstring, *imports, version = init.body
    assert isinstance(docstring.value, ast.Constant)
    assert [(node.module, [alias.name for alias in node.names]) for node in imports] == [
        (module, ["*"]) for module in library]
    assert [target.id for target in version.targets] == ["__version__"]


def _removed_names() -> list[str]:
    """The names README's bullet list of removed public names begins its
    bullets with, before a colon: `Name` or `Type.attr`."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("Removed public names", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- "))
    bullets = []
    for line in lines[start:]:
        if line.startswith("- "):
            bullets.append(line)
        elif line.startswith("  "):
            bullets[-1] += line
        else:
            break
    return [name for bullet in bullets for name in re.findall(r"`([\w.]+)`", bullet.split(":")[0])]


def test_readme_apply_batch_examples_run():
    # README's Library use shows how to run an op with values of one's own
    # choosing; its code block runs as written on a small image.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    [block] = [block for block in blocks if ".apply_batch(" in block]
    assert block.count(".apply_batch(") == 2
    img = filled(24, 16, 3, 90)
    namespace = {"img": img}
    exec(block, namespace)
    for name in ("rotated", "tilted"):
        assert namespace[name].pixels.shape == img.pixels.shape, name


def test_removed_public_names_are_gone():
    names = _removed_names()
    assert {"PixelFormat", "Image.format"} <= set(names)
    for name in names:
        owner, _, attr = name.rpartition(".")
        assert not hasattr(getattr(augpipe, owner) if owner else augpipe, attr), name


CONSTANT_VALUE = 137


def _constant(channels=1, w=24, h=24):
    return filled(w, h, channels, CONSTANT_VALUE)


CATALOGUE = [
    Rotate(probability=1, max_left=30, max_right=30),
    RotateCardinal(probability=1, which="random"),
    Flip(probability=1, axis="random"),
    Shear(probability=1, max_angle=20, axis="random"),
    Skew(probability=1, severity=0.8, skew_kind="random"),
    Elastic(probability=1, grid_width=3, grid_height=4, magnitude=6),
    Zoom(probability=1, min_factor=1.1, max_factor=1.9),
    CropRandom(probability=1, area_fraction=0.5, resize_back=True),
    CropCentre(probability=1, width=10, height=9),
    Resize(probability=1, width=17, height=5),
    Scale(probability=1, factor=1.5),
    Invert(probability=1),
    Equalize(probability=1),
    Greyscale(probability=1),
]


class TestCatalogueInvariants:
    @pytest.mark.parametrize("spec", CATALOGUE, ids=lambda s: s.kind)
    def test_constant_stays_constant(self, spec):
        for i in range(10):
            out, _ = apply_one(spec, _constant(), derive_sample_rng(31, i))
            expected = 255 - CONSTANT_VALUE if spec.kind == "invert" else CONSTANT_VALUE
            if spec.kind == "equalize":
                expected = CONSTANT_VALUE  # single intensity: unchanged
            assert np.all(out.pixels == expected), spec.kind

    @pytest.mark.parametrize(
        "spec",
        [s for s in CATALOGUE if s.kind in
         ("rotate", "shear", "skew", "elastic", "zoom", "flip", "invert", "equalize", "greyscale")],
        ids=lambda s: s.kind,
    )
    def test_dimensions_preserved(self, spec, np_rng):
        img = random_image(np_rng, 26, 31)
        for i in range(5):
            out, _ = apply_one(spec, img, derive_sample_rng(8, i))
            assert (out.width, out.height) == (26, 31), spec.kind
