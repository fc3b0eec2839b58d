import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _benches import bench, camera, make_cavity, mirror, pump
from cavforge import align
from cavforge.align import (align_resonator, crystal_sweep,
                            fit_beam_path, measure_beam_path,
                            newton_correction, newton_solve,
                            optimize_mode, spatial_optimize)
from cavforge.errors import (BeamLostError, DegenerateResponseError,
                             NoLasingError, WorkspaceError)
from cavforge.physics import CameraFrame, camera_view
from cavforge.simcore import (KNOB_DEG, Component, ComponentKind, Pose,
                              apply_knob_readings, knob_readings)


def test_newton_correction_frozen_value():
    # signal 2.0, probe 0.5 raised it to 3.0: unit slope per probe, so the
    # move back to zero is -0.5 * 3.0 / 1.0
    assert newton_correction(2.0, 0.5, 1.0) == pytest.approx(-1.5, abs=1e-15)


def test_newton_correction_rejects_flat_response():
    with pytest.raises(DegenerateResponseError):
        newton_correction(2.0, 0.5, 1e-12)


@given(st.floats(0.1, 10.0), st.booleans(), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0))
# a start whose signal is exactly the tolerance converges without a move
@example(gain=0.1, flip=False, root=0.0, start=1e-8)
def test_newton_solve_nails_affine_maps_in_one_iteration(gain, flip, root, start):
    gain = -gain if flip else gain
    pos = {"x": start}

    def measure():
        return gain * (pos["x"] - root)

    def move(delta):
        pos["x"] += delta
        return delta

    first = measure()
    result = newton_solve(measure, move, probe=0.5, tolerance=1e-9)
    assert result.converged
    assert result.iterations <= 1
    if result.iterations == 0:
        # within tolerance (inclusive) at the start: nothing moved
        assert abs(first) <= 1e-9
        assert result.final_error == first
    else:
        assert abs(result.final_error) < 1e-9


def test_newton_solve_gives_up_on_a_dead_signal():
    with pytest.raises(DegenerateResponseError):
        newton_solve(lambda: 3.0, lambda d: d, probe=0.5, tolerance=1e-9)


def test_spatial_optimize_centers_both_axes_without_noise():
    # the loop walks table y (sensor x); the pump already sits at z = 0
    ws = bench([pump(y=1.7), camera("cam", 300.0)])
    out, trace = spatial_optimize(ws, "pump", "cam")
    pose = out.component("pump").pose
    assert trace.converged
    assert trace.meta["objective_units"] == "mm"
    assert abs(pose.y) < 0.01 and pose.z == 0.0
    assert trace.meta["final_error_mm"] < 0.01
    assert trace.wall_actions > 0  # probes and corrections hit the motors


def test_spatial_optimize_hits_an_explicit_target():
    ws = bench([pump(), camera("cam", 300.0)])
    out, trace = spatial_optimize(ws, "pump", "cam", target_px=(419.5, 239.5))
    # 100 px right of center at 0.01 mm pitch
    assert out.component("pump").pose.y == pytest.approx(1.0, abs=0.01)
    assert trace.converged


def test_spatial_optimize_renders_one_frame_per_trace_entry(frames):
    ws = bench([pump(y=1.7), camera("cam", 300.0)], sigma=0.05)
    _, trace = spatial_optimize(ws, "pump", "cam")
    assert len(trace) >= 3  # a probe and a correction at least
    assert len(frames) == len(trace)


def test_spatial_optimize_never_draws_a_whole_frame(drawn):
    spatial_optimize(bench([pump(y=1.7), camera("cam", 300.0)], sigma=0.05), "pump", "cam")
    assert drawn and (480, 640) not in drawn


def test_spatial_probe_must_exceed_placement_noise():
    ws = bench([pump(), camera("cam", 300.0)], sigma=0.4)
    with pytest.raises(WorkspaceError):
        spatial_optimize(ws, "pump", "cam")


def test_spatial_optimize_raises_when_the_spot_is_gone():
    ws = bench([pump(y=5.0), camera("cam", 300.0)])  # 5 mm: off the sensor
    with pytest.raises(BeamLostError):
        spatial_optimize(ws, "pump", "cam")


def test_beam_path_survey_recovers_the_pump_slope():
    ws = bench([pump(yaw=0.02), camera("cam", 500.0)])
    out, fit = measure_beam_path(ws, "cam")  # stations 260, 340, 420, 500
    assert fit.slope == pytest.approx(math.tan(math.radians(0.02)), rel=1e-3)
    assert fit.rms_residual < 1e-3
    assert out.component("cam").pose.x == 500.0  # back at its home station
    assert len(fit.points) == 4


def test_fit_beam_path_needs_two_distinct_stations():
    with pytest.raises(WorkspaceError):
        fit_beam_path([100.0, 100.0], [0.1, 0.2])


def _retro_bench(tilt_h_deg):
    bs = Component(id="bs", kind=ComponentKind.BEAM_SPLITTER, pose=Pose(0, 0),
                   params={"split_ratio": 0.4, "arm_camera": "cam2"})
    items = [pump(), (bs, Pose(120.0, 0.0)),
             camera("cam2", 120.0, y=100.0, gain_pump=0.5)]
    reference = camera_view(bench(items), "cam2")
    items.append(mirror("oc", ComponentKind.MIRROR_OC, 150.0,
                        tilt_h_deg=tilt_h_deg,
                        pump_transmission=0.5, pump_reflectivity=0.5))
    return bench(items), reference


def test_align_resonator_walks_the_retro_spot_onto_the_anchor():
    ws, reference = _retro_bench(0.1)  # seat error: retro starts 45 px out
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(3))
    assert trace.converged
    assert trace.meta["objective_units"] == "px"
    assert trace.best_objective <= trace.meta["success_radius_px"]
    # the winning readings are applied to the returned workspace
    knobs = out.component("oc").knobs
    assert (knobs.h_deg, knobs.v_deg) == trace.best_params


def test_align_resonator_contract_errors():
    ws, reference = _retro_bench(0.1)
    with pytest.raises(WorkspaceError):
        align_resonator(ws, "bs", "cam2", reference, np.random.default_rng(0))
    dark = CameraFrame(np.zeros_like(reference.intensities), 0.01, "cam2")
    with pytest.raises(BeamLostError):
        align_resonator(ws, "oc", "cam2", dark, np.random.default_rng(0))


def test_align_resonator_is_deterministic_for_a_fixed_seed():
    ws, reference = _retro_bench(0.1)
    _, t1 = align_resonator(ws, "oc", "cam2", reference,
                            np.random.default_rng(11), max_iters=12)
    _, t2 = align_resonator(ws, "oc", "cam2", reference,
                            np.random.default_rng(11), max_iters=12)
    assert t1.best_params == t2.best_params
    assert [i.params for i in t1.iterations] == [i.params for i in t2.iterations]


@pytest.mark.parametrize("search", ["align_resonator", "optimize_mode"])
def test_a_knob_search_keeps_its_last_view_best_readings_and_actions(monkeypatch,
                                                                     search):
    if search == "align_resonator":
        ws, reference = _retro_bench(0.1)
        mirrors = ("oc",)
    else:
        ws = make_cavity(tilt_oc_deg=0.01)
        mirrors = ("ic", "oc")
    views = []

    def recorded(ws, camera_id):
        frame = camera_view(ws, camera_id)
        views.append((ws, frame))
        return frame

    monkeypatch.setattr(align, "camera_view", recorded)
    if search == "align_resonator":
        out, trace = align_resonator(ws, "oc", "cam2", reference,
                                     np.random.default_rng(3), max_iters=8)
    else:
        out, trace = optimize_mode(ws, mirrors, "cam1", np.random.default_rng(0),
                                   max_iters=6, init_samples=3)
    assert len(views) == len(trace)
    last_ws, last_frame = trace.last_view
    assert last_ws is views[-1][0] and last_frame is views[-1][1]
    readings = knob_readings(out, mirrors)
    assert sum((readings[cid] for cid in mirrors), ()) == trace.best_params
    assert trace.wall_actions == out.action_count - ws.action_count


def test_a_knob_search_box_stops_at_the_knob_bound():
    ws = apply_knob_readings(make_cavity(), {"ic": (KNOB_DEG.hi, KNOB_DEG.lo),
                                             "oc": (KNOB_DEG.hi, 0.0)})
    _, trace = optimize_mode(ws, ("ic", "oc"), "cam1", np.random.default_rng(0),
                             max_iters=4, init_samples=4)
    assert all(KNOB_DEG.violation(r) is None
               for it in trace.iterations for r in it.params)


def test_crystal_sweep_parks_near_the_phase_matching_angle():
    ws = make_cavity(theta_err_deg=-1.3)  # start the mount at zero
    out, best_theta, trace = crystal_sweep(ws, "crystal", "cam1")
    assert abs(best_theta - 1.3) <= 0.2  # within one grid step
    assert out.component("crystal").params["theta_deg"] == best_theta
    assert trace.converged
    assert len(trace.iterations) == 16  # 0 to 3 degrees in 0.2 steps


def test_crystal_sweep_raises_when_everything_stays_dark():
    ws = make_cavity(theta_err_deg=-1.3, pump_power=0.0)
    with pytest.raises(NoLasingError):
        crystal_sweep(ws, "crystal", "cam1")


def test_optimize_mode_scores_a_dark_frame_as_positive_zero():
    ws = make_cavity(pump_power=0.0)
    out, trace = optimize_mode(ws, ("ic", "oc"), "cam1",
                               np.random.default_rng(0), max_iters=3,
                               init_samples=3)
    # the trace is written to trace.jsonl, where -0.0 would read differently
    assert [math.copysign(1.0, it.objective) for it in trace.iterations] == [1.0] * 3
    assert math.copysign(1.0, trace.best_objective) == 1.0
    assert trace.meta["knob_axes"] == [["ic", "h"], ["ic", "v"], ["oc", "h"], ["oc", "v"]]
    readings = knob_readings(out, ("ic", "oc"))
    assert readings["ic"] + readings["oc"] == trace.best_params


@pytest.mark.parametrize("sigma_ref_px", [None, 3.0])
def test_optimize_mode_never_draws_a_whole_frame(drawn, sigma_ref_px):
    optimize_mode(make_cavity(tilt_oc_deg=0.01), ("ic", "oc"), "cam1",
                  np.random.default_rng(0), max_iters=4, init_samples=3,
                  sigma_ref_px=sigma_ref_px)
    assert drawn and (480, 640) not in drawn
