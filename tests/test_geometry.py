"""Geometry oracles: crop containment/maximality, shear coverage, homography residuals.

The oracles here are independent of the closed-form implementations they
check: containment rotates rectangle corners back into the source frame
and measures excursions, maximality bisects the scale against the raw
containment predicate, and homography accuracy substitutes corners into
the returned matrix.
"""

import math

import numpy as np
import pytest

from augpipe import (
    CropRect,
    GeometryError,
    Homography,
    Quad,
    inscribed_crop_rect,
    shear_crop_rect,
    solve_homography,
)
from conftest import map_point

TOL = 1e-6  # containment grace for float noise; far below the 1-pixel floor slack


# --------------------------------------------------------------------------
# Oracle helpers


def rotated_back_excursion(width, height, theta_deg, rect: CropRect) -> float:
    """Largest distance any rect corner lands outside the source after
    rotating back about the bounding-box center; 0 when fully contained."""
    rad = math.radians(theta_deg)
    s_abs, c_abs = math.sin(abs(rad)), math.cos(abs(rad))
    bw = math.ceil(width * c_abs + height * s_abs - 1e-9)
    bh = math.ceil(width * s_abs + height * c_abs - 1e-9)
    cx, cy = bw / 2, bh / 2
    cs, sn = math.cos(-rad), math.sin(-rad)
    worst = 0.0
    for dx in (rect.x, rect.x + rect.w):
        for dy in (rect.y, rect.y + rect.h):
            qx, qy = dx - cx, dy - cy
            sx = cs * qx - sn * qy + width / 2
            sy = sn * qx + cs * qy + height / 2
            worst = max(worst, -sx, sx - width, -sy, sy - height, 0.0)
    return worst


def scaled_rect_contained(width, height, theta_deg, k) -> bool:
    """Containment predicate for the exact (unfloored) centred rect of scale k.

    Strict tolerance: this predicate anchors the bisection oracle, so it
    must not inherit the grace used for the floored implementation rects.
    """
    strict = 1e-12
    rad = math.radians(abs(theta_deg))
    cs, sn = math.cos(rad), math.sin(rad)
    half_w, half_h = k * width / 2, k * height / 2
    # Corners relative to the bounding-box center; rotation back is the
    # same for either sign of theta by symmetry.
    for qx in (-half_w, half_w):
        for qy in (-half_h, half_h):
            sx = cs * qx + sn * qy + width / 2
            sy = -sn * qx + cs * qy + height / 2
            if sx < -strict or sx > width + strict or sy < -strict or sy > height + strict:
                return False
    return True


def bisect_max_scale(width, height, theta_deg) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if scaled_rect_contained(width, height, theta_deg, mid):
            lo = mid
        else:
            hi = mid
    return lo


def shear_covered(width, height, axis, t, x, y) -> bool:
    """Is sheared-space point (x, y) covered by the sheared image?"""
    if axis == "x":
        u = x - t * y
        return -TOL <= u <= width + TOL and -TOL <= y <= height + TOL
    v = y - t * x
    return -TOL <= x <= width + TOL and -TOL <= v <= height + TOL


def rect_fully_covered(width, height, axis, t, rect: CropRect) -> bool:
    # Coverage is linear in y (or x), so corner checks suffice.
    corners = [
        (rect.x, rect.y),
        (rect.x + rect.w, rect.y),
        (rect.x + rect.w, rect.y + rect.h),
        (rect.x, rect.y + rect.h),
    ]
    return all(shear_covered(width, height, axis, t, cx, cy) for cx, cy in corners)


def corner_residual(hom: Homography, src: Quad, dst: Quad) -> float:
    worst = 0.0
    for (dx, dy), (sx, sy) in zip(dst.corners, src.corners):
        mx, my = map_point(hom, dx, dy)
        worst = max(worst, abs(mx - sx), abs(my - sy))
    return worst


def random_quad(rng: np.random.Generator, size: float = 100.0) -> Quad:
    """Convex quad: rectangle corners jittered inward/outward by < 30%."""
    jitter = 0.3 * size
    tl = (rng.uniform(0, jitter), rng.uniform(0, jitter))
    tr = (size - rng.uniform(0, jitter), rng.uniform(0, jitter))
    br = (size - rng.uniform(0, jitter), size - rng.uniform(0, jitter))
    bl = (rng.uniform(0, jitter), size - rng.uniform(0, jitter))
    return Quad((tl, tr, br, bl))


# --------------------------------------------------------------------------
# Inscribed crop


class TestInscribedCrop:
    def test_identity_rotation(self):
        rect = inscribed_crop_rect(100, 100, 0)
        assert (rect.w, rect.h) == (100, 100)

    def test_square_at_45(self):
        rect = inscribed_crop_rect(100, 100, 45)
        assert (rect.w, rect.h) == (70, 70)
        # scale is 1/(sin45 + cos45)
        assert bisect_max_scale(100, 100, 45) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert rotated_back_excursion(100, 100, 45, rect) <= TOL

    def test_wide_image_at_30_against_scan(self):
        rect = inscribed_crop_rect(200, 100, 30)
        assert (rect.w, rect.h) == (107, 53)
        # Brute-force scan of the scale in 1e-4 steps against the raw
        # containment predicate.
        k = 0.0
        step = 1e-4
        while scaled_rect_contained(200, 100, 30, k + step):
            k += step
        assert math.floor(k * 200) == 107
        assert math.floor(k * 100) == 53

    def test_sign_of_angle_is_irrelevant(self):
        assert inscribed_crop_rect(64, 48, 17) == inscribed_crop_rect(64, 48, -17)

    def test_angle_domain_error(self):
        with pytest.raises(GeometryError):
            inscribed_crop_rect(100, 100, 45.01)

    def test_collapsed_crop_raises(self):
        # Extreme aspect at a steep angle: exact max rect is under a pixel.
        with pytest.raises(GeometryError):
            inscribed_crop_rect(8, 512, 45)

    def test_containment_and_maximality_random(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 300:
            w = int(rng.integers(8, 513))
            h = int(rng.integers(8, 513))
            theta = float(rng.uniform(-45, 45))
            k_max = bisect_max_scale(w, h, theta)
            if k_max * w < 1 or k_max * h < 1:
                with pytest.raises(GeometryError):
                    inscribed_crop_rect(w, h, theta)
                continue
            rect = inscribed_crop_rect(w, h, theta)
            assert rotated_back_excursion(w, h, theta, rect) <= TOL, (w, h, theta)
            # Floored extents match the bisected maximum, and growing the
            # scale by 1e-3 breaks containment.
            assert abs(rect.w - math.floor(k_max * w + 1e-7)) <= 0
            assert abs(rect.h - math.floor(k_max * h + 1e-7)) <= 0
            assert not scaled_rect_contained(w, h, theta, k_max + 1e-3), (w, h, theta)
            checked += 1


# --------------------------------------------------------------------------
# Shear crop


class TestShearCrop:
    def test_zero_shear(self):
        assert shear_crop_rect(100, 100, "x", 0.0) == CropRect(0, 0, 100, 100)

    def test_ten_degree_shear(self):
        rect = shear_crop_rect(100, 100, "x", math.tan(math.radians(10)))
        assert rect == CropRect(18, 0, 82, 100)

    def test_y_axis_example(self):
        rect = shear_crop_rect(100, 50, "y", 0.2)
        assert rect == CropRect(0, 20, 100, 30)

    def test_negative_shear_mirrors(self):
        rect = shear_crop_rect(100, 100, "x", -math.tan(math.radians(10)))
        assert rect == CropRect(0, 0, 82, 100)

    def test_excess_shear_raises(self):
        with pytest.raises(GeometryError):
            shear_crop_rect(20, 200, "x", 0.5)  # |t| * H = 100 >= W

    def test_coverage_random(self):
        rng = np.random.default_rng(987)
        checked = 0
        while checked < 1000:
            w = int(rng.integers(8, 257))
            h = int(rng.integers(8, 257))
            axis = "x" if rng.integers(0, 2) == 0 else "y"
            t = float(rng.uniform(-0.99, 0.99))
            span = abs(t) * (h if axis == "x" else w)
            limit = w if axis == "x" else h
            if span >= limit - 1:  # would raise or collapse; tested separately
                continue
            rect = shear_crop_rect(w, h, axis, t)
            assert rect_fully_covered(w, h, axis, t, rect), (w, h, axis, t)
            # Widening by 2 px on the cropped side must break coverage
            # whenever something was cropped at all.
            if axis == "x" and t > 0 and rect.x > 0:
                wider = CropRect(rect.x - 2, rect.y, rect.w + 2, rect.h)
                assert not rect_fully_covered(w, h, axis, t, wider)
            if axis == "x" and t < 0:
                wider = CropRect(rect.x, rect.y, rect.w + 2, rect.h)
                assert not rect_fully_covered(w, h, axis, t, wider)
            if axis == "y" and t > 0 and rect.y > 0:
                wider = CropRect(rect.x, rect.y - 2, rect.w, rect.h + 2)
                assert not rect_fully_covered(w, h, axis, t, wider)
            if axis == "y" and t < 0:
                wider = CropRect(rect.x, rect.y, rect.w, rect.h + 2)
                assert not rect_fully_covered(w, h, axis, t, wider)
            checked += 1


# --------------------------------------------------------------------------
# Homography


class TestHomography:
    def test_equal_matrices_compare_by_identity(self):
        # An array field has no truth value, so a homography is equal only
        # to itself, and hashes by identity.
        a, b = Homography(np.eye(3)), Homography(np.eye(3))
        assert a != b and a == a
        assert len({a, b, a}) == 2

    def test_identity(self):
        q = Quad(((0, 0), (1, 0), (1, 1), (0, 1)))
        hom = solve_homography(q, q)
        assert np.allclose(hom.m, np.eye(3), atol=1e-12)

    def test_pure_translation(self):
        dst = Quad(((0, 0), (1, 0), (1, 1), (0, 1)))
        src = Quad(((5, 7), (6, 7), (6, 8), (5, 8)))
        hom = solve_homography(src, dst)
        expected = np.array([[1, 0, 5], [0, 1, 7], [0, 0, 1]], dtype=float)
        assert np.allclose(hom.m, expected, atol=1e-12)

    def test_tilt_example_residuals(self):
        dst = Quad(((0, 0), (100, 0), (100, 100), (0, 100)))
        src = Quad(((10, 0), (90, 0), (100, 100), (0, 100)))
        hom = solve_homography(src, dst)
        assert corner_residual(hom, src, dst) < 1e-9

    def test_degenerate_quad_raises(self):
        collinear = Quad(((0, 0), (1, 1), (2, 2), (3, 3)))
        with pytest.raises(GeometryError):
            solve_homography(collinear, Quad.from_rect(1, 1))

    def test_residuals_random(self):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            src = random_quad(rng)
            dst = random_quad(rng)
            hom = solve_homography(src, dst)
            assert corner_residual(hom, src, dst) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            src = random_quad(rng)
            dst = random_quad(rng)
            h1 = solve_homography(src, dst)
            factor = 3.0
            scale = lambda q: Quad(tuple((x * factor, y * factor) for x, y in q.corners))
            h2 = solve_homography(scale(src), scale(dst))
            for px, py in dst.corners + ((37.5, 42.25),):
                x1, y1 = map_point(h1, px, py)
                x2, y2 = map_point(h2, px * factor, py * factor)
                assert abs(x2 - x1 * factor) < 1e-9 * factor * 100
                assert abs(y2 - y1 * factor) < 1e-9 * factor * 100
