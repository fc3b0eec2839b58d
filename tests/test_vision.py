import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavforge import _kernels
from cavforge.errors import WorkspaceError
from cavforge.physics import CameraFrame
from cavforge.vision import (DETECTION_FACTOR, BeamStats, beam_stats,
                             centroid, emission_score, log_transform,
                             mm_to_pixels, pixels_to_mm, sensor_center_px,
                             subtract_reference)


def _frame(values):
    return CameraFrame(np.asarray(values, dtype=np.float64), 0.01, "cam")


def _rendered(order, waist_px=40.0, amp=0.9):
    img = np.zeros((480, 640))
    _kernels.render_spot(img, 319.5, 239.5, waist_px, amp, order)
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


def test_pixel_mm_round_trip_is_exact():
    frame = _rendered(0)
    assert sensor_center_px(frame) == (319.5, 239.5)
    for point in [(0.0, 0.0), (1.25, -0.75), (-3.2, 2.4)]:
        back = pixels_to_mm(frame, mm_to_pixels(frame, point))
        assert back[0] == pytest.approx(point[0], abs=1e-12)
        assert back[1] == pytest.approx(point[1], abs=1e-12)
    assert pixels_to_mm(frame, (319.5, 239.5)) == (0.0, 0.0)


def test_emission_score_forms_and_missing_reference():
    lit = BeamStats(True, False, (1.0, 2.0), 16.0, (3.0, 3.0), 2.0)
    assert emission_score(lit, root=True) == 2.0  # sqrt(16) / 2
    assert emission_score(lit, root=False) == 8.0  # 16 / 2
    # without a reference width the quality proxy counts as 1
    unreferenced = BeamStats(True, False, (1.0, 2.0), 16.0, (3.0, 3.0), None)
    assert emission_score(unreferenced, root=True) == 4.0
    assert emission_score(unreferenced, root=False) == 16.0
    dark = BeamStats(False, False, None, 0.5, None, None)
    assert emission_score(dark, root=True) == 0.0
    assert emission_score(dark, root=False) == 0.0

