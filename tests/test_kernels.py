import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from cavforge import _kernels


def test_hg_profile_order_zero_is_a_plain_gaussian():
    u = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_allclose(_kernels.hg_profile(u, 0), np.exp(-2.0 * u * u),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_hg_profile_matches_hermite_polynomial_oracle(order):
    u = np.linspace(-2.5, 2.5, 37)
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    h = hermval(math.sqrt(2.0) * u, coeffs)
    expected = h * h * np.exp(-2.0 * u * u) / (2.0 ** order * math.factorial(order))
    np.testing.assert_allclose(_kernels.hg_profile(u, order), expected,
                               rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_hg_profile_orders_carry_equal_power(order):
    # the 2^n n! normalization makes every order integrate to sqrt(pi/2),
    # so spot amplitude always means the same optical power
    u = np.linspace(-8.0, 8.0, 4001)
    integral = np.trapezoid(_kernels.hg_profile(u, order), u)
    assert integral == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)


def test_render_spot_separable_values():
    img = np.zeros((5, 7))
    out = _kernels.render_spot(img, 3.0, 2.0, 1.5, 0.8, 0)
    assert out is img
    expected = 0.8 * math.exp(-2.0 * (1.0 / 1.5) ** 2) * math.exp(-2.0 * (2.0 / 1.5) ** 2)
    assert img[0, 2] == pytest.approx(expected, rel=1e-12)
    assert img[2, 3] == pytest.approx(0.8, rel=1e-12)
    _kernels.render_spot(img, 3.0, 2.0, 1.5, 0.8, 0)
    assert img[2, 3] == pytest.approx(1.6, rel=1e-12)  # spots accumulate


def test_render_spot_rejects_bad_waist():
    with pytest.raises(ValueError):
        _kernels.render_spot(np.zeros((4, 4)), 1.0, 1.0, 0.0, 1.0, 0)


def test_frame_moments_frozen_two_pixel_case():
    img = np.zeros((3, 4))
    img[0, 1] = 0.5
    img[2, 3] = 1.5
    total, cx, cy, var_x, var_y, vmax, count = _kernels.frame_moments(img, 0.1)
    assert (total, count, vmax) == (2.0, 2, 1.5)
    assert (cx, cy) == (2.5, 1.5)
    assert var_x == pytest.approx(0.75)
    assert var_y == pytest.approx(0.75)


def test_frame_moments_dark_frame():
    total, cx, cy, var_x, var_y, vmax, count = _kernels.frame_moments(
        np.full((4, 4), 0.01), 0.02)
    assert (total, cx, cy, var_x, var_y, count) == (0.0, 0.0, 0.0, 0.0, 0.0, 0)
    assert vmax == pytest.approx(0.01)


def _loop_hg(u, order):
    # hg_profile for one offset, in plain Python floats
    norm = 1.0
    for k in range(1, order + 1):
        norm *= 2.0 * k
    xi = math.sqrt(2.0) * u
    h_prev, h = 1.0, (1.0 if order == 0 else 2.0 * xi)
    for k in range(1, order):
        h, h_prev = 2.0 * xi * h - 2.0 * k * h_prev, h
    return h * h * math.exp(-2.0 * u * u) / norm


def _loop_render_spot(img, cx, cy, waist_px, amp, order):
    # render_spot one pixel at a time, skipping rows whose factor is 0
    col = [_loop_hg((j - cx) / waist_px, order) for j in range(img.shape[1])]
    for i in range(img.shape[0]):
        uy = (i - cy) / waist_px
        row = amp * math.exp(-2.0 * uy * uy)
        if row == 0.0:
            continue
        for j in range(img.shape[1]):
            img[i, j] += row * col[j]
    return img


def _loop_frame_moments(img, floor):
    # frame_moments as row-major running sums from 0.0
    total = sx = sy = 0.0
    count = 0
    lit = [(i, j, float(img[i, j])) for i in range(img.shape[0])
           for j in range(img.shape[1]) if img[i, j] > floor]
    for i, j, v in lit:
        total += v
        sx += v * j
        sy += v * i
        count += 1
    if count == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, float(img.max()), 0)
    cx, cy = sx / total, sy / total
    mxx = myy = 0.0
    for i, j, v in lit:
        dx, dy = j - cx, i - cy
        mxx += v * dx * dx
        myy += v * dy * dy
    return (total, cx, cy, mxx / total, myy / total, float(img.max()), count)


def _random_spots(rng, height, width, n):
    # centres up to a few frames off the edge, narrow to wide waists, so
    # whole rows underflow to 0 and the reference loop skips them
    for i in range(n):
        yield (float(rng.uniform(-2 * width, 3 * width)),
               float(rng.uniform(-2 * height, 3 * height)),
               float(rng.uniform(0.3, 30.0)), float(rng.uniform(0.05, 2.0)),
               int(i % 6))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fallback_follows_the_compiled_loop_arithmetic(seed):
    # The _loop_* functions transcribe the compiled kernels the seed-42
    # golden value was frozen on; they are the arithmetic reference.
    # Bit-identical, not merely close: a last-bit change moves the outputs.
    rng = np.random.default_rng(seed)
    img_k = np.zeros((18, 24))
    img_loop = np.zeros((18, 24))
    # plus a narrow spot and one centred above the frame: both leave rows
    # whose factor underflows to 0
    spots = [*_random_spots(rng, 18, 24, 6),
             (10.0, 4.0, 0.4, 1.0, 2), (30.0, -12.0, 1.0, 0.7, 1)]
    for args in spots:
        _kernels.render_spot(img_k, *args)
        _loop_render_spot(img_loop, *args)
    np.testing.assert_array_equal(img_k, img_loop)
    for floor in (0.0, 0.01, 0.3):
        assert _kernels.frame_moments(img_k, floor) == \
            _loop_frame_moments(img_loop, floor)
