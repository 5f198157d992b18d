"""Resampler behaviour: exactness on identities, interpolation values,
clamp-to-edge addressing, mesh warps, and the instrumentation hook."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augpipe import (
    DisplacementGrid,
    GeometryError,
    Image,
    Zoom,
    round_half_away,
)
from augpipe import warp
from augpipe.geometry import CropRect, Homography
from augpipe.warp import resize, warp_affine, warp_mesh, warp_projective
from conftest import (filled, monitor_source_bounds, peak_bytes, random_image, run_op, sample,
                      zero_grid)

IDENTITY = np.eye(2, 3)


def _translation(tx, ty):
    """The 2x3 affine matrix of a destination-to-source shift."""
    return np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]])


class TestSample:
    def test_exact_center_hits_give_pixel_values(self, np_rng):
        img = random_image(np_rng, 6, 5, 3)
        for x, y in ((0, 0), (3, 2), (5, 4)):
            got = sample(img, x + 0.5, y + 0.5)
            assert got == tuple(float(v) for v in img.pixels[y, x])

    def test_constant_image_everywhere(self, np_rng):
        img = filled(7, 7, 1, 93)
        coords = np_rng.uniform(-5, 12, size=(50, 2))
        for x, y in coords:
            assert sample(img, x, y)[0] == pytest.approx(93.0, abs=1e-9)

    def test_two_tap_midpoint(self):
        img = Image.from_array(np.array([[0, 100]], dtype=np.uint8))
        # centers at x = 0.5 and 1.5; x = 1.0 is halfway between them
        assert sample(img, 1.0, 0.5) == (50.0,)


class TestWarpAffine:
    def test_identity_is_bit_exact(self, np_rng):
        img = random_image(np_rng, 17, 11, 4)
        out = warp_affine(img, IDENTITY, 17, 11)
        assert np.array_equal(out.pixels, img.pixels)
        assert out.channels == img.channels

    def test_integer_translation_with_edge_replication(self):
        ramp = np.arange(10, dtype=np.uint8)[None, :] * 20
        img = Image.from_array(ramp)
        # dest -> src shift of -3: content moves right, left edge replicates
        out = warp_affine(img, _translation(-3, 0), 10, 1)
        expected = np.array([ramp[0, max(x - 3, 0)] for x in range(10)], dtype=np.uint8)
        assert np.array_equal(out.pixels[0, :, 0], expected)

    def test_constant_survives_any_transform(self, np_rng):
        img = filled(9, 9, 3, (12, 200, 7))
        m = np.array([[0.37, -1.2, 4.0], [0.9, 0.33, -2.5]])
        out = warp_affine(img, m, 13, 6)
        assert np.all(out.pixels == np.array([12, 200, 7], dtype=np.uint8))

    def test_quarter_turn_roundtrip_is_exact(self, np_rng):
        # Rotate 90 degrees onto the swapped-dims canvas and back: centers
        # map to centers, so every bilinear sample is one source pixel.
        img = random_image(np_rng, 8, 5)
        w, h = img.width, img.height

        def rot_matrix(theta_deg, src_w, src_h, dst_w, dst_h):
            rad = np.radians(theta_deg)
            cs, sn = np.cos(rad), np.sin(rad)
            # dest center -> src center, rotating back by -theta
            a, b = cs, sn
            d, e = -sn, cs
            c = src_w / 2 - a * dst_w / 2 - b * dst_h / 2
            f = src_h / 2 - d * dst_w / 2 - e * dst_h / 2
            return np.array([[a, b, c], [d, e, f]])

        turned = warp_affine(img, rot_matrix(90, w, h, h, w), h, w)
        back = warp_affine(turned, rot_matrix(-90, h, w, w, h), w, h)
        assert np.array_equal(back.pixels, img.pixels)

    def test_output_dimension_validation(self, np_rng):
        img = random_image(np_rng, 4, 4)
        with pytest.raises(ValueError):
            warp_affine(img, IDENTITY, 0, 4)


class TestWarpProjective:
    def test_identity_is_bit_exact(self, np_rng):
        img = random_image(np_rng, 12, 9, 3)
        hom = Homography(np.eye(3))
        out = warp_projective(img, hom, 12, 9)
        assert np.array_equal(out.pixels, img.pixels)

    def test_translation_matches_affine_bit_exact(self, np_rng):
        img = random_image(np_rng, 10, 10)
        hom = Homography(np.array([[1.0, 0.0, 2.5], [0.0, 1.0, -1.25], [0.0, 0.0, 1.0]]))
        a = warp_projective(img, hom, 10, 10)
        b = warp_affine(img, _translation(2.5, -1.25), 10, 10)
        assert np.array_equal(a.pixels, b.pixels)

    def test_horizon_inside_image_raises(self, np_rng):
        img = random_image(np_rng, 10, 10)
        # Denominator 1 - x/4.5 vanishes at the destination center x = 4.5.
        hom = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0 / 4.5, 0.0, 1.0]]))
        with pytest.raises(GeometryError):
            warp_projective(img, hom, 10, 10)


class TestWarpMesh:
    def test_zero_grid_is_identity(self, np_rng):
        img = random_image(np_rng, 28, 28)
        out = warp_mesh(img, zero_grid(4, 4))
        assert np.array_equal(out.pixels, img.pixels)

    def test_output_dims_preserved(self, np_rng):
        img = random_image(np_rng, 28, 28)
        nodes = np.zeros((5, 5, 2))
        nodes[1:4, 1:4] = np_rng.integers(-5, 6, (3, 3, 2))
        out = warp_mesh(img, DisplacementGrid(nodes))
        assert (out.width, out.height) == (28, 28)

    def test_single_node_offset_on_constant(self):
        img = filled(16, 16, 1, 131)
        nodes = np.zeros((3, 3, 2))
        nodes[1, 1] = (3, 0)
        out = warp_mesh(img, DisplacementGrid(nodes))
        assert np.all(out.pixels == 131)

    def test_nonzero_boundary_rejected(self):
        nodes = np.zeros((3, 3, 2))
        nodes[0, 1] = (1, 0)
        with pytest.raises(ValueError):
            DisplacementGrid(nodes)

    def test_the_grid_is_its_node_array(self):
        grid = DisplacementGrid(np.zeros((3, 5, 2)))
        assert [f.name for f in dataclasses.fields(DisplacementGrid)] == ["nodes"]
        assert (grid.gw, grid.gh) == (4, 2)
        with pytest.raises(AttributeError):
            grid.gw = 3

    def test_equal_nodes_compare_by_identity(self):
        # An array field has no truth value, so a grid is equal only to
        # itself, and hashes by identity.
        a, b = DisplacementGrid(np.zeros((3, 3, 2))), DisplacementGrid(np.zeros((3, 3, 2)))
        assert a != b and a == a
        assert len({a, b, a}) == 2

    def test_shape_mismatch_rejected(self):
        # No row of cells; no column of cells; no (dx, dy) axis; 3 values
        # per node.
        for shape in ((1, 3, 2), (3, 1, 2), (3, 3), (3, 3, 3)):
            with pytest.raises(ValueError, match="is not"):
                DisplacementGrid(np.zeros(shape))

    def test_displacement_field_is_continuous_across_cells(self, np_rng):
        # Sampling the blend at a shared cell edge from either side gives
        # the same displacement; verify via a linear ramp image warped by
        # a smooth grid staying far from edges (no clamping involved).
        ramp = np.tile(np.arange(64, dtype=np.uint8) * 2, (64, 1))
        img = Image.from_array(ramp)
        nodes = np.zeros((3, 3, 2))
        nodes[1, 1] = (4, -3)
        out = warp_mesh(img, DisplacementGrid(nodes))
        arr = out.pixels[:, :, 0].astype(int)
        # No jumps bigger than the ramp slope times the max local warp
        # gradient; a seam would show as a large discontinuity.
        horiz_jumps = np.abs(np.diff(arr, axis=1))
        assert horiz_jumps.max() <= 6


class TestResize:
    def test_same_size_bilinear_is_bit_exact(self, np_rng):
        img = random_image(np_rng, 13, 7, 3)
        out = resize(img, 13, 7)
        assert np.array_equal(out.pixels, img.pixels)

    def test_four_tap_average_to_single_pixel(self):
        img = Image.from_array(np.array([[0, 100], [200, 60]], dtype=np.uint8))
        out = resize(img, 1, 1)
        assert out.pixels[0, 0, 0] == 90

    def test_constant_any_size(self):
        img = filled(5, 5, 4, (9, 8, 7, 255))
        for w, h in ((1, 1), (3, 9), (17, 2)):
            out = resize(img, w, h)
            assert np.all(out.pixels == np.array([9, 8, 7, 255], dtype=np.uint8))
            assert (out.width, out.height) == (w, h)

    def test_window_equals_crop_of_full_resize(self, np_rng):
        img = random_image(np_rng, 300, 9, 3)
        full = resize(img, 413, 40)
        part = resize(img, 413, 40, window=CropRect(57, 3, 300, 33))
        assert np.array_equal(part.pixels, full.pixels[3:36, 57:357])

    def test_window_must_lie_inside_the_output(self, np_rng):
        img = random_image(np_rng, 8, 8)
        for window in (CropRect(1, 0, 8, 8), CropRect(0.5, 0, 4, 4), CropRect(-1, 0, 2, 2)):
            with pytest.raises(ValueError):
                resize(img, 8, 8, window=window)
        with pytest.raises(TypeError):  # the window is keyword-only
            resize(img, 8, 8, CropRect(0, 0, 8, 8))

    def test_bands_match_one_pass(self, np_rng, monkeypatch):
        # Outputs are sampled in bands of rows; the band size must not
        # show in the bytes or in what the monitor sees.
        img = random_image(np_rng, 40, 30, 4)
        grid = DisplacementGrid(np.zeros((3, 4, 2)))
        grid.nodes[1, 1:3] = ((2.5, -1.0), (-3.0, 4.0))
        kernels = (lambda: resize(img, 77, 41), lambda: warp_mesh(img, grid),
                   lambda: warp_affine(img, _translation(0.3, -0.7), 33, 50))
        one_pass = [kernel().pixels for kernel in kernels]
        monkeypatch.setattr(warp, "_BAND_PIXELS", 7)
        with monitor_source_bounds() as monitor:
            for kernel, expected in zip(kernels, one_pass):
                assert np.array_equal(kernel().pixels, expected)
        assert monitor.warps == 3


class TestWarpBatch:
    @pytest.mark.parametrize("band_pixels", [warp._BAND_PIXELS, 7])
    def test_groups_equal_one_image_warps(self, np_rng, monkeypatch, band_pixels):
        # 50 images of 28x28 stack as groups of 20, 20 and 10 at the real
        # band size, and one by one at 7 pixels.
        monkeypatch.setattr(warp, "_BAND_PIXELS", band_pixels)
        imgs = [random_image(np_rng, 28, 28, 3) for _ in range(50)]
        affines = [Homography(np.vstack((IDENTITY + np_rng.uniform(-0.3, 0.3, (2, 3)), (0, 0, 1))))
                   for _ in imgs]
        homs = []
        for _ in imgs:
            m = np.eye(3) + np_rng.uniform(-0.2, 0.2, (3, 3)) * [[1, 1, 10], [1, 1, 10], [1e-3, 1e-3, 0]]
            homs.append(Homography(m))
        grids = []
        for _ in imgs:
            nodes = np.zeros((5, 5, 2))
            nodes[1:4, 1:4] = np_rng.uniform(-4.0, 4.0, (3, 3, 2))
            grids.append(DisplacementGrid(nodes))
        # The first group of 20 is all affine and divides by no denominator;
        # the later groups mix in projective maps and divide every map by its
        # own, which for an affine map is exactly 1.
        mixed = affines[:20] + [homs[k] if k % 2 else affines[k] for k in range(20, len(imgs))]
        cases = ((affines, 31, 26, lambda img, hom: warp_affine(img, hom.m[:2], 31, 26)),
                 (homs, 26, 31, lambda img, hom: warp_projective(img, hom, 26, 31)),
                 (mixed, 26, 31, lambda img, hom: warp_projective(img, hom, 26, 31)),
                 (grids, 28, 28, warp_mesh))
        for maps, out_w, out_h, one_image in cases:
            with monitor_source_bounds() as monitor:
                batch = warp.warp_batch(imgs, maps, out_w, out_h)
            assert monitor.warps == len(imgs)
            expected = [one_image(img, m).pixels.tobytes() for img, m in zip(imgs, maps)]
            assert [out.pixels.tobytes() for out in batch] == expected
            assert all((out.width, out.height) == (out_w, out_h) for out in batch)


class TestMonitor:
    def test_out_of_domain_coordinates_are_reported(self, np_rng):
        img = random_image(np_rng, 8, 8)
        with monitor_source_bounds() as monitor:
            warp_affine(img, _translation(5.0, 0.0), 8, 8)
        assert monitor.warps == 1
        assert monitor.violations == 1
        assert monitor.worst == pytest.approx(4.5)  # rightmost center 7.5 + 5 - 8

    def test_in_domain_warps_are_clean(self, np_rng):
        img = random_image(np_rng, 8, 8)
        with monitor_source_bounds() as monitor:
            warp_affine(img, IDENTITY, 8, 8)
            resize(img, 4, 4)
        assert monitor.warps == 2
        assert monitor.violations == 0

    def test_out_of_domain_coordinates_in_a_later_band_are_reported(self, np_rng, monkeypatch):
        # One row per band. Node (1, 3) pulls rows 4-7 down past the
        # bottom edge; rows 0-3 sample in place, so the first band is clean.
        monkeypatch.setattr(warp, "_BAND_PIXELS", 8)
        nodes = np.zeros((5, 3, 2))
        nodes[3, 1] = (0.0, 20.0)
        with monitor_source_bounds() as monitor:
            warp_mesh(random_image(np_rng, 8, 8), DisplacementGrid(nodes))
        assert monitor.warps == 1
        assert monitor.violations == 4  # the ys of bands 4-7
        assert monitor.worst == pytest.approx(11.625)  # row center 6.5 + 0.75 * 17.5 - 8


def test_public_names():
    assert warp.__all__ == ["DisplacementGrid", "warp_batch", "warp_affine", "warp_projective",
                            "warp_mesh", "resize"]


def _reference_bilinear(img, xs, ys):
    """Bilinear sampling and quantisation written out directly, as the
    warps first implemented them: the reference for the byte contract."""
    px = img.pixels.astype(np.float64)
    u, v = xs - 0.5, ys - 0.5
    x0, y0 = np.floor(u), np.floor(v)
    fx, fy = (u - x0)[..., None], (v - y0)[..., None]
    x0, y0 = x0.astype(np.int64), y0.astype(np.int64)
    x0c, x1c = np.clip(x0, 0, img.width - 1), np.clip(x0 + 1, 0, img.width - 1)
    y0c, y1c = np.clip(y0, 0, img.height - 1), np.clip(y0 + 1, 0, img.height - 1)
    top = px[y0c, x0c] * (1.0 - fx) + px[y0c, x1c] * fx
    bottom = px[y1c, x0c] * (1.0 - fx) + px[y1c, x1c] * fx
    values = top * (1.0 - fy) + bottom * fy
    rounded = np.where(values >= 0.0, np.floor(values + 0.5), np.ceil(values - 0.5))
    return np.clip(rounded, 0.0, 255.0).astype(np.uint8)


def _reference_centers(width, height):
    xs = np.broadcast_to(np.arange(width, dtype=np.float64) + 0.5, (height, width))
    ys = np.broadcast_to((np.arange(height, dtype=np.float64) + 0.5)[:, None], (height, width))
    return xs, ys


def _reference_linear(img, m, out_w, out_h):
    """The reference through the homography m (3x3), dividing by its
    denominator, which is exactly 1 for an affine map."""
    xs, ys = _reference_centers(out_w, out_h)
    den = m[2, 0] * xs + m[2, 1] * ys + m[2, 2]
    sx = (m[0, 0] * xs + m[0, 1] * ys + m[0, 2]) / den
    sy = (m[1, 0] * xs + m[1, 1] * ys + m[1, 2]) / den
    return _reference_bilinear(img, sx, sy)


def _reference_mesh(img, grid):
    xs, ys = _reference_centers(img.width, img.height)
    tx, ty = xs * (grid.gw / img.width), ys * (grid.gh / img.height)
    ax = np.clip(np.floor(tx).astype(np.int64), 0, grid.gw - 1)
    by = np.clip(np.floor(ty).astype(np.int64), 0, grid.gh - 1)
    fx, fy = (tx - ax)[..., None], (ty - by)[..., None]
    n = grid.nodes
    disp = ((n[by, ax] * (1.0 - fx) + n[by, ax + 1] * fx) * (1.0 - fy)
            + (n[by + 1, ax] * (1.0 - fx) + n[by + 1, ax + 1] * fx) * fy)
    return _reference_bilinear(img, xs + disp[..., 0], ys + disp[..., 1])


_sizes = st.integers(1, 40)


@st.composite
def _image(draw):
    fmt = draw(st.sampled_from((1, 3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_image(rng, draw(_sizes), draw(_sizes), fmt)


class TestBilinearMatchesReference:
    """The fast bilinear paths reproduce the direct formulation byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(_image(), _sizes, _sizes)
    def test_resize(self, img, out_w, out_h):
        xs, ys = _reference_centers(out_w, out_h)
        expected = _reference_bilinear(img, xs * (img.width / out_w), ys * (img.height / out_h))
        assert np.array_equal(resize(img, out_w, out_h).pixels, expected)

    @settings(max_examples=60, deadline=None)
    @given(_image(), st.floats(1.0, 3.0))
    def test_zoom_window(self, img, factor):
        nw, nh = round_half_away(img.width * factor), round_half_away(img.height * factor)
        ox, oy = (nw - img.width) // 2, (nh - img.height) // 2
        full = resize(img, nw, nh).pixels[oy : oy + img.height, ox : ox + img.width]
        assert np.array_equal(run_op(Zoom(probability=1), img, factor=factor).pixels, full)

    @settings(max_examples=60, deadline=None)
    @given(_image(), _sizes, _sizes,
           st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), st.floats(-20.0, 20.0))
    def test_affine(self, img, out_w, out_h, linear, shift):
        m = np.array([[linear[0], linear[1], shift], [linear[2], linear[3], -shift]])
        expected = _reference_linear(img, np.vstack((m, (0.0, 0.0, 1.0))), out_w, out_h)
        assert np.array_equal(warp_affine(img, m, out_w, out_h).pixels, expected)

    @pytest.mark.parametrize("channels", (1, 3, 4))
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), _sizes, _sizes, _sizes, _sizes,
           st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
    def test_projective(self, channels, seed, width, height, out_w, out_h, terms):
        # Perspective terms of at most 0.005 keep the denominator above
        # 0.6 on a 40 x 40 output.
        img = random_image(np.random.default_rng(seed), width, height, channels)
        m = np.array([[1.0 + terms[0], terms[1], 10.0 * terms[2]],
                      [terms[3], 1.0 + terms[4], 10.0 * terms[5]],
                      [terms[6] / 100.0, terms[7] / 100.0, 1.0]])
        expected = _reference_linear(img, m, out_w, out_h)
        assert np.array_equal(warp_projective(img, Homography(m), out_w, out_h).pixels, expected)

    @settings(max_examples=60, deadline=None)
    @given(_image(), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_mesh(self, img, gw, gh, seed):
        nodes = np.zeros((gh + 1, gw + 1, 2))
        nodes[1:-1, 1:-1] = np.random.default_rng(seed).normal(0.0, 4.0, (gh - 1, gw - 1, 2))
        grid = DisplacementGrid(nodes)
        assert np.array_equal(warp_mesh(img, grid).pixels, _reference_mesh(img, grid))

    @pytest.mark.parametrize("channels", (1, 3, 4))
    def test_batch_across_groups_and_bands(self, np_rng, monkeypatch, channels):
        # At 300 band pixels, seven 13x11 images (143 pixels) stack two to
        # a group, and a group's 17x19 linear output is sampled in bands
        # of 8, 8 and 3 rows. A mesh output has its source's size, so a
        # group of them is one band.
        monkeypatch.setattr(warp, "_BAND_PIXELS", 300)
        imgs = [random_image(np_rng, 13, 11, channels) for _ in range(7)]
        affines = [np.vstack((IDENTITY + np_rng.uniform(-0.3, 0.3, (2, 3)), (0.0, 0.0, 1.0)))
                   for _ in imgs]
        homs = [np.vstack((m[:2], (*np_rng.uniform(-0.01, 0.01, 2), 1.0))) for m in affines]
        grids = []
        for _ in imgs:
            nodes = np.zeros((4, 5, 2))
            nodes[1:-1, 1:-1] = np_rng.uniform(-3.0, 3.0, (2, 3, 2))
            grids.append(DisplacementGrid(nodes))
        linear = lambda img, hom: _reference_linear(img, hom.m, 17, 19)
        cases = (([Homography(m) for m in affines], 17, 19, linear),
                 ([Homography(m) for m in homs], 17, 19, linear),
                 (grids, 13, 11, _reference_mesh))
        for maps, out_w, out_h, reference in cases:
            with monitor_source_bounds() as monitor:
                batch = warp.warp_batch(imgs, maps, out_w, out_h)
            assert monitor.warps == len(imgs)
            for img, m, out in zip(imgs, maps, batch):
                assert np.array_equal(out.pixels, reference(img, m))


class TestChannelIndependence:
    """Each channel of an RGB or RGBA result is the grey result of that
    channel: channels never mix, whatever the map or the band."""

    @pytest.mark.parametrize("channels", (3, 4))
    def test_every_map_type_and_a_windowed_resize(self, np_rng, channels):
        # Sources and outputs of about 150 x 150 span more than one band.
        arr = np_rng.integers(0, 256, (130, 150, channels), dtype=np.uint8)
        rotation = Homography(np.array([[0.98, -0.17, 20.0], [0.17, 0.98, -15.0], [0.0, 0.0, 1.0]]))
        projective = Homography(np.array([[1.0, 0.1, -5.0], [0.05, 0.9, 3.0], [1e-3, -5e-4, 1.0]]))
        nodes = np.zeros((5, 6, 2))
        nodes[1:-1, 1:-1] = np_rng.uniform(-6.0, 6.0, (3, 4, 2))
        grid = DisplacementGrid(nodes)
        kernels = {
            "affine": lambda img: warp_affine(img, rotation.m[:2], 160, 140),
            "projective": lambda img: warp_projective(img, projective, 140, 160),
            "mesh": lambda img: warp_mesh(img, grid),
            "windowed resize": lambda img: resize(img, 310, 270, window=CropRect(40, 30, 150, 170)),
        }
        for name, kernel in kernels.items():
            planes = [kernel(Image.from_array(arr[..., k])).pixels[..., 0] for k in range(channels)]
            assert np.array_equal(kernel(Image.from_array(arr)).pixels, np.stack(planes, axis=-1)), name


@pytest.mark.parametrize("kernel", ("affine", "mesh", "windowed resize"))
def test_1024_rgb_warp_peaks_at_6_mb(kernel):
    # About 3 MB of it is the output. A planar copy of the source would
    # add another 3 MB, and a full-size float64 result 24 MB.
    img = random_image(np.random.default_rng(5), 1024, 1024, 3)
    nodes = np.zeros((9, 9, 2))
    nodes[1:-1, 1:-1] = np.random.default_rng(6).normal(0.0, 5.0, (7, 7, 2))
    grid = DisplacementGrid(nodes)
    rotation = np.array([[0.98, -0.17, 100.0], [0.17, 0.98, -50.0]])
    run = {"affine": lambda: warp_affine(img, rotation, 1024, 1024),
           "mesh": lambda: warp_mesh(img, grid),
           "windowed resize": lambda: resize(img, 1400, 1400, window=CropRect(188, 188, 1024, 1024)),
           }[kernel]
    peak = peak_bytes(run)
    assert peak <= 6 * 2**20, f"{kernel}: {peak / 2**20:.2f} MB"
