import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

from cavforge import _kernels, vision
from cavforge.physics import CameraFrame
from cavforge.pipeline import recover_drift
from cavforge.simcore import randomize_knobs


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
    factors = _kernels.spot_factors(5, 7, 3.0, 2.0, 1.5, 0.8, 0)
    out = _kernels.render_spot(img, *factors)
    assert out is img
    expected = 0.8 * math.exp(-2.0 * (1.0 / 1.5) ** 2) * math.exp(-2.0 * (2.0 / 1.5) ** 2)
    assert img[0, 2] == pytest.approx(expected, rel=1e-12)
    assert img[2, 3] == pytest.approx(0.8, rel=1e-12)
    _kernels.render_spot(img, *factors)
    assert img[2, 3] == pytest.approx(1.6, rel=1e-12)  # spots accumulate


def test_render_spot_rejects_bad_waist():
    with pytest.raises(ValueError):
        _kernels.spot_factors(4, 4, 1.0, 1.0, 0.0, 1.0, 0)


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
        _kernels.render_spot(img_k, *_kernels.spot_factors(18, 24, *args))
        _loop_render_spot(img_loop, *args)
    np.testing.assert_array_equal(img_k, img_loop)
    for floor in (0.0, 0.01, 0.3):
        assert _kernels.frame_moments(img_k, floor) == \
            _loop_frame_moments(img_loop, floor)


def _moments_of_every_order(img, floor, top, left):
    # today's arithmetic, as the kernel ran before it took an order
    idx = np.flatnonzero(img > floor)
    if idx.size == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, float(img.max()) if img.size else 0.0, 0)
    w = img.take(idx)
    rows = idx // img.shape[1]
    cols = idx - rows * img.shape[1]
    rows += top
    cols += left
    total = 0.0 + float(np.add.accumulate(w)[-1])
    cx = (0.0 + float(np.add.accumulate(w * cols)[-1])) / total
    cy = (0.0 + float(np.add.accumulate(w * rows)[-1])) / total
    dx, dy = cols - cx, rows - cy
    var_x = (0.0 + float(np.add.accumulate(w * dx * dx)[-1])) / total
    var_y = (0.0 + float(np.add.accumulate(w * dy * dy)[-1])) / total
    return (total, cx, cy, var_x, var_y, float(w.max()), int(idx.size))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 24),
       st.integers(0, 4), st.sampled_from([0.0, 0.01, 0.02, 0.3, 2.0]),
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                 st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_each_moment_order_is_the_full_moments_bit_for_bit(seed, height, width,
                                                          n_spots, floor, corners):
    rng = np.random.default_rng(seed)
    frame = np.zeros((height, width))
    for spot in _random_spots(rng, height, width, n_spots):
        _kernels.render_spot(frame, *_kernels.spot_factors(height, width, *spot))
    np.clip(frame, 0.0, 1.0, out=frame)
    # any window of the frame, an empty one included
    t0, t1 = sorted(int(c * height) for c in corners[:2])
    l0, l1 = sorted(int(c * width) for c in corners[2:])
    window = frame[t0:t1, l0:l1]
    full = _kernels.frame_moments(window, floor, t0, l0)
    assert repr(full) == repr(_moments_of_every_order(window, floor, t0, l0))
    assert repr(full) == repr(_kernels.frame_moments(window, floor, t0, l0, order=2))
    first = _kernels.frame_moments(window, floor, t0, l0, order=1)
    assert repr(first) == repr(full[:3] + (None, None) + full[5:])
    zeroth = _kernels.frame_moments(window, floor, t0, l0, order=0)
    assert repr(zeroth) == repr(full[:1] + (None,) * 4 + full[5:])


def _at_order(moments, order):
    # the moments frame_moments computes at ``order``, None above it
    total, cx, cy, var_x, var_y, vmax, count = moments
    return (total, *((cx, cy) if order >= 1 else (None, None)),
            *((var_x, var_y) if order >= 2 else (None, None)), vmax, count)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 48),
                          st.integers(1, 64), st.integers(0, 5000), st.integers(0, 5000),
                          st.integers(0, 2), st.sampled_from([0.0, 0.02, 0.3])),
                min_size=1, max_size=4))
def test_frame_moments_work_arrays_change_no_bit(frames):
    # frames grow and then shrink back through the same sizes, so every work
    # array is both grown and read past a smaller frame's end
    kept = []
    for seed, height, width, top, left, order, floor in frames + frames[::-1]:
        rng = np.random.default_rng(seed)
        # spots centred on or near the frame, faint to saturating
        spots = [_kernels.spot_factors(height, width, rng.uniform(-0.2, 1.2) * width,
                                       rng.uniform(-0.2, 1.2) * height,
                                       rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-3.0, 0.5), k)
                 for k in range(3)]
        frame = CameraFrame.from_spots((height, width), spots, 0.01)
        kept.append((frame, frame.intensities, frame.intensities.tobytes()))
        img = frame.intensities
        got = _kernels.frame_moments(img, floor, top, left, order=order)
        assert repr(got) == repr(_at_order(_moments_of_every_order(img, floor, top, left),
                                           order))
        # plain numbers: nothing returned is a view of a work array
        assert all(type(v) in (float, int, type(None)) for v in got)
        # and a twin frame measured through its window, drawn on demand
        vision.beam_stats(CameraFrame.from_spots((height, width), spots, 0.01), floor)
    # a frame's kept pixels are never a work array, nor written by one
    for frame, pixels, drawn in kept:
        assert frame.intensities is pixels and pixels.tobytes() == drawn


def _fresh_spot_factors(height, width, cx, cy, waist_px, amp, order):
    # the factors as computed before the profiles were memoized
    ux = (np.arange(width, dtype=np.float64) - cx) / waist_px
    uy = (np.arange(height, dtype=np.float64) - cy) / waist_px
    return amp * _kernels._exp(-2.0 * uy * uy), _kernels.hg_profile(ux, order)


# centres on and off a 24 x 18 sensor: signed zeros, integral floats (whose
# int twins hash alike) and arbitrary floats
_CENTRES = st.one_of(st.sampled_from([-0.0, 0.0]),
                     st.integers(-60, 80).map(float),
                     st.floats(-60.0, 80.0))


@settings(max_examples=150, deadline=None)
@given(_CENTRES, _CENTRES, st.floats(0.05, 40.0), st.floats(0.0, 3.0),
       st.integers(0, 4))
def test_memoized_spot_factors_are_the_fresh_ones_bit_for_bit(cx, cy, waist, amp,
                                                              order):
    # each key is asked for twice, the second time a cache hit, and through
    # the twin that shares its hash: -x for a zero, the int for an integral float
    def twin(c):
        return -c if c == 0.0 else int(c) if c.is_integer() else c

    for args in [(cx, cy), (cx, cy), (twin(cx), twin(cy))]:
        got = _kernels.spot_factors(18, 24, *args, waist, amp, order)
        want = _fresh_spot_factors(18, 24, *args, waist, amp, order)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_the_cached_column_factor_is_read_only():
    row, col = _kernels.spot_factors(5, 7, 3.0, 2.0, 1.5, 0.8, 1)
    assert row.flags.writeable  # amp times the profile, a fresh array
    assert not col.flags.writeable
    with pytest.raises(ValueError):
        col[0] = 1.0
    row_again, col_again = _kernels.spot_factors(5, 7, 3.0, 2.0, 1.5, 0.8, 1)
    assert col_again is col and row_again is not row


def test_the_profile_caches_pay_off_within_one_recovery(state):
    # the README's example: knob creep on the seed-42 bench, one recovery;
    # the gain does not rest on a benchmark repeating its inputs
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    for cache in (_kernels._row_profile, _kernels._column_profile):
        cache.cache_clear()
    recover_drift(state, rng=np.random.default_rng(4))
    infos = [cache.cache_info() for cache in (_kernels._row_profile,
                                              _kernels._column_profile)]
    hits = sum(info.hits for info in infos)
    misses = sum(info.misses for info in infos)
    assert hits + misses > 0
    assert hits > misses
    assert all(info.currsize <= info.maxsize for info in infos)
