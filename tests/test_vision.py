import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _benches import camera
from cavforge import _kernels
from cavforge.errors import WorkspaceError
from cavforge.physics import CameraFrame, CameraHit, render_frame
from cavforge.vision import (DETECTION_FACTOR, beam_stats,
                             centroid, emission_score,
                             log_transform, reflection_centroid,
                             subtract_reference)


def _frame(values):
    return CameraFrame(np.asarray(values, dtype=np.float64), 0.01, "cam")


def _rendered(order, waist_px=40.0, amp=0.9):
    img = np.zeros((480, 640))
    _kernels.render_spot(img, *_kernels.spot_factors(480, 640, 319.5, 239.5,
                                                     waist_px, amp, order))
    return CameraFrame(img, 0.01, "cam")


def test_log_transform_frozen_value_and_endpoints():
    out = log_transform(_frame([[0.0, 0.1, 1.0]])).intensities
    assert out[0, 0] == 0.0
    assert out[0, 2] == 1.0
    # log(1 + 10*0.1) / log(1 + 10)
    assert out[0, 1] == pytest.approx(math.log(2.0) / math.log(11.0), abs=1e-12)


def test_log_transform_is_strictly_monotone():
    levels = np.linspace(0.0, 1.0, 1000)
    out = log_transform(_frame([levels])).intensities[0]
    assert np.all(np.diff(out) > 0)


def test_log_transform_rejects_bad_gain():
    with pytest.raises(WorkspaceError):
        log_transform(_frame([[0.5]]), gain=0.0)
    with pytest.raises(WorkspaceError):
        log_transform(_frame([[0.5]]), gain=-3.0)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
       st.floats(0.01, 500.0))
def test_log_transform_never_reorders_intensities(levels, gain):
    ordered = np.sort(np.asarray(levels))
    out = log_transform(_frame([ordered]), gain=gain).intensities[0]
    assert np.all(np.diff(out) >= 0)


def test_subtract_reference_clamps_at_zero():
    live = _frame([[0.3, 0.5, 1.0]])
    ref = _frame([[0.5, 0.2, 1.0]])
    out = subtract_reference(live, ref).intensities
    assert out.tolist() == [[0.0, pytest.approx(0.3), 0.0]]


def test_subtract_reference_rejects_shape_mismatch():
    with pytest.raises(WorkspaceError):
        subtract_reference(_frame([[0.1, 0.2]]), _frame([[0.1]]))
    with pytest.raises(WorkspaceError, match="frame shapes differ"):
        reflection_centroid(_frame([[0.1, 0.2]]), _frame([[0.1]]))


def test_centroid_detection_gate():
    dark = _frame(np.zeros((8, 8)))
    assert not centroid(dark).detected
    # one above-floor pixel whose total misses DETECTION_FACTOR * floor
    faint = np.zeros((8, 8))
    faint[4, 4] = 0.5
    assert not centroid(_frame(faint)).detected
    bright = np.zeros((8, 8))
    bright[4, 3] = bright[4, 5] = 0.6
    result = centroid(_frame(bright))
    assert result.detected
    assert result.total_intensity >= DETECTION_FACTOR * 0.02
    assert (result.x_px, result.y_px) == (4.0, 4.0)


def test_beam_stats_flags_saturation_even_without_a_spot():
    # saturation reads the raw maximum, before the floor mask drops pixels
    img = np.zeros((8, 8))
    img[0, 0] = 1.0
    stats = beam_stats(_frame(img), noise_floor=2.0)
    assert stats.saturated and not stats.detected
    assert stats.centroid_px is None and stats.m_squared is None


def test_mode_order_maps_to_beam_quality():
    # the order-n mode carries 2n+1 times the fundamental variance, so the
    # width-squared ratio recovers the mode order
    ref = beam_stats(_rendered(0), noise_floor=1e-6)
    sigma_ref = min(ref.sigma_px)
    for order in range(4):
        stats = beam_stats(_rendered(order), noise_floor=1e-6,
                           sigma_ref_px=sigma_ref)
        assert stats.m_squared == pytest.approx(2 * order + 1, rel=0.10)


def test_beam_stats_rejects_bad_reference_width():
    with pytest.raises(WorkspaceError):
        beam_stats(_rendered(0), sigma_ref_px=0.0)


def test_emission_score_forms_and_missing_reference():
    # four unit pixels: total 4, widths (2, 1), so M^2 = 4 against a width of 1
    img = np.zeros((8, 8))
    img[3, 2] = img[3, 6] = img[5, 2] = img[5, 6] = 1.0
    lit = _frame(img)
    assert emission_score(lit, root=True, sigma_ref_px=1.0) == 0.5  # sqrt(4) / 4
    assert emission_score(lit, root=False, sigma_ref_px=1.0) == 1.0  # 4 / 4
    # without a reference width the quality proxy counts as 1
    assert emission_score(lit, root=True) == 2.0
    assert emission_score(lit, root=False) == 4.0
    faint = np.zeros((8, 8))
    faint[4, 4] = 0.5  # above the floor, below the detection gate
    for dark in (_frame(np.zeros((8, 8))), _frame(faint)):
        for sigma_ref_px in (None, 1.0):
            assert emission_score(dark, root=True, sigma_ref_px=sigma_ref_px) == 0.0
            assert emission_score(dark, root=False, sigma_ref_px=sigma_ref_px) == 0.0



def _spot_frame(cam, spots):
    """A fresh, undrawn frame of ``spots`` (as drawn from ``_spots``) on ``cam``."""
    width, height = cam.param("width_px"), cam.param("height_px")
    pitch = cam.param("pixel_pitch_mm")
    hits = [CameraHit("cam", fx * width * pitch, fy * height * pitch,
                      waist_px * pitch, power, "pump", 0, mode_order=order)
            for fx, fy, waist_px, power, order in spots]
    return render_frame(hits, cam)


# one spot: centre offset from the sensor centre in frame sizes (up to two
# frames past the edge, on the edge, or close to the centre so that spots
# overlap), waist in pixels, power (above 1 the clip bites), mode order
_near = st.sampled_from([0.0, 0.02, -0.05, -0.5, 0.5])
_spots = st.lists(st.tuples(st.one_of(_near, st.floats(-2.5, 2.5)),
                            st.one_of(_near, st.floats(-2.5, 2.5)),
                            st.floats(0.3, 30.0), st.floats(0.0, 3.0),
                            st.integers(0, 5)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), _spots,
       st.sampled_from([0.0, 0.02, 0.3, 1.0 - 1e-9, 1.0]),
       st.one_of(st.none(), st.floats(0.5, 20.0)))
# a peak of exactly 1 on a pixel and a floor of 1: nothing clears the floor,
# the window is empty, and only the drawn frame knows the spot saturates
@example(5, 7, [(0.0, 0.0, 2.0, 1.0, 0)], 1.0, None)
def test_window_moments_equal_the_drawn_frame_bit_for_bit(height, width, spots,
                                                          floor, sigma_ref_px):
    cam, _ = camera("cam", 0.0, width_px=width, height_px=height)
    drawn = CameraFrame(_spot_frame(cam, spots).intensities.copy(),
                        cam.param("pixel_pitch_mm"), "cam")
    assert repr(beam_stats(_spot_frame(cam, spots), floor, sigma_ref_px)) == \
        repr(beam_stats(drawn, floor, sigma_ref_px))
    assert repr(centroid(_spot_frame(cam, spots), floor)) == repr(centroid(drawn, floor))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), _spots,
       st.sampled_from([0.0, 0.02, 0.3, 1.0]), st.booleans())
def test_unreferenced_emission_score_is_the_order_2_score_bit_for_bit(
        height, width, spots, floor, root):
    cam, _ = camera("cam", 0.0, width_px=width, height_px=height)
    # the score from the full second-order statistics, with a quality of 1
    stats = beam_stats(_spot_frame(cam, spots), floor)
    expected = 0.0
    if stats.detected:
        total = stats.total_intensity
        expected = (math.sqrt(total) if root else total) / 1.0
    assert repr(emission_score(_spot_frame(cam, spots), root=root,
                               noise_floor=floor)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), _spots, _spots,
       st.one_of(st.just(10.0), st.floats(0.01, 1000.0)),
       st.sampled_from([0.0, 0.02, 0.3, 1.0 - 1e-9, 1.0]),
       st.one_of(st.none(), st.floats(0.0, 2.0)))
def test_reflection_centroid_equals_the_full_frame_composition(
        height, width, live_spots, reference_spots, gain, floor, reference_scale):
    cam, _ = camera("cam", 0.0, width_px=width, height_px=height)
    reference = _spot_frame(cam, reference_spots)
    if reference_scale is not None:
        reference = reference.scaled(reference_scale)
    reference_log = log_transform(reference, gain)
    # two fresh frames: one drawn whole by the composition, one left to the window
    whole = subtract_reference(log_transform(_spot_frame(cam, live_spots), gain),
                               reference_log)
    assert repr(reflection_centroid(_spot_frame(cam, live_spots), reference_log, gain,
                                    floor)) == repr(centroid(whole, floor))
