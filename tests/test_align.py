import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _benches import bench, camera, make_cavity, mirror, pump
from cavforge import align
from cavforge.align import (align_resonator, crystal_sweep,
                            fit_beam_path, measure_beam_path,
                            newton_correction, newton_solve, newton_step,
                            optimize_mode, spatial_optimize)
from cavforge.errors import (BeamLostError, DegenerateResponseError,
                             NoLasingError, WorkspaceError)
from cavforge.layout import build_workspace
from cavforge.physics import CameraFrame, camera_view
from cavforge.simcore import (KNOB_DEG, Component, ComponentKind, Pose,
                              apply_knob_readings, knob_readings,
                              place_component, set_knob_bias, set_knob_readings)


def test_newton_correction_frozen_value():
    # signal 2.0, probe 0.5 raised it to 3.0: unit slope per probe, so the
    # move back to zero is -0.5 * 3.0 / 1.0
    assert newton_correction(2.0, 0.5, 1.0) == pytest.approx(-1.5, abs=1e-15)


def test_newton_correction_rejects_flat_response():
    with pytest.raises(DegenerateResponseError):
        newton_correction(2.0, 0.5, 1e-12)


def test_newton_step_zeroes_an_affine_vector_signal():
    # J d = -r for r = (2, -1), J = [[2, 1], [0, 4]]: d = (-9/8, 1/4)
    assert newton_step([2.0, -1.0], [[2.0, 1.0], [0.0, 4.0]]).tolist() == [-1.125, 0.25]


@pytest.mark.parametrize("jacobian", [[[1.0, 2.0], [0.5, 1.0]],
                                      [[1.0, 0.0], [0.0, math.nan]]])
def test_newton_step_rejects_a_singular_or_non_finite_response(jacobian):
    with pytest.raises(DegenerateResponseError):
        newton_step([1.0, 1.0], jacobian)


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


def _arm_stage(layout, bias_h_deg, bias_v_deg):
    """The arm stage ``trials.angular_trials`` sets up: the reference on
    cam2, then the output mirror at its station with the given seat bias."""
    ws = build_workspace(layout, 5)
    for cid in ("ndf", "cam2", "bs"):
        ws = place_component(ws, layout.template(cid), layout.record(cid).nominal_pose())
    reference = camera_view(ws, "cam2")
    ws = place_component(ws, layout.template("oc"), layout.record("oc").nominal_pose())
    return set_knob_bias(ws, "oc", bias_h_deg, bias_v_deg), reference


def _holds_the_knob_search_contract(ws, out, trace, max_iters):
    assert len(trace) <= max_iters
    assert [it.index for it in trace.iterations] == list(range(len(trace)))
    assert knob_readings(out, ("oc",))["oc"] == trace.best_params
    assert trace.wall_actions == out.action_count - ws.action_count


def test_align_resonator_needs_no_gp_while_the_spot_is_on_the_sensor():
    ws, reference = _retro_bench(0.1)
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(3))
    assert trace.converged and trace.meta["fallback"] is None
    # the start and one probe of each knob give the Jacobian; an affine
    # spot is then one step from the anchor
    assert len(trace) == 4
    _holds_the_knob_search_contract(ws, out, trace, 30)


def test_the_secant_records_the_readings_the_dials_landed_on(monkeypatch):
    # every turn lands a hair past its target, as a rounded one can
    def overshooting(ws, mirror_id, h_deg, v_deg):
        return set_knob_readings(ws, mirror_id, h_deg + 1e-9, v_deg + 1e-9)

    measured = []

    def recorded(ws, camera_id):
        measured.append(knob_readings(ws, ("oc",))["oc"])
        return camera_view(ws, camera_id)

    monkeypatch.setattr(align, "set_knob_readings", overshooting)
    monkeypatch.setattr(align, "camera_view", recorded)
    ws, reference = _retro_bench(0.1)
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(3))
    assert trace.meta["fallback"] is None
    assert [it.params for it in trace.iterations] == measured
    _holds_the_knob_search_contract(ws, out, trace, 30)


def test_a_reflection_that_starts_off_the_sensor_falls_back_to_the_gp(layout):
    # past the +-115 knob-degrees the angular battery keeps on the sensor
    ws, reference = _arm_stage(layout, 0.0, 210.0)
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(0), span_deg=300.0,
                                 max_iters=30, init_samples=6,
                                 length_scale_deg=60.0, noise_scale=0.02)
    assert trace.meta["fallback"] == "reflection not detected"
    # the off-sensor penalty: two diagonals of the 640 x 480 sensor
    assert trace.iterations[0].objective == 1600.0
    assert trace.converged
    assert trace.best_objective <= trace.meta["success_radius_px"]
    _holds_the_knob_search_contract(ws, out, trace, 30)


@pytest.mark.parametrize("max_iters", [30, 4])
def test_a_blocked_reflection_raises_with_every_evaluation(max_iters):
    bb = Component(id="bb", kind=ComponentKind.BEAM_BLOCK, pose=Pose(0, 0))
    ws, reference = _retro_bench(0.1)
    ws = place_component(ws, bb, Pose(135.0, 0.0))  # between the splitter and the mirror
    with pytest.raises(BeamLostError) as err:
        align_resonator(ws, "oc", "cam2", reference, np.random.default_rng(0),
                        max_iters=max_iters)
    trace = err.value.trace
    assert trace.meta["fallback"] == "reflection not detected"
    # the secant's first reading, then the GP's batch and its widened batch,
    # each of at most init_samples and never past max_iters
    assert len(trace) == min(1 + 2 * 5, max_iters)
    assert {it.objective for it in trace.iterations} == {trace.iterations[0].objective}


def test_a_budget_the_secant_spends_leaves_the_best_reading_on_the_dials():
    ws, reference = _retro_bench(0.1)
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(3), max_iters=2)
    assert trace.meta["fallback"] == "secant budget spent"
    assert not trace.converged
    # the probe pushed the spot farther out, so the dials go back to the start
    assert trace.best_params == trace.iterations[0].params
    _holds_the_knob_search_contract(ws, out, trace, 2)


def test_a_singular_jacobian_hands_the_remaining_budget_to_the_gp(monkeypatch):
    # the spot reads the same at the start and after the first probe, so
    # that knob's column of the Jacobian is zero
    ws, reference = _retro_bench(0.1)
    reads = []

    def stuck(frame, reference_log):
        reads.append(reflection_centroid(frame, reference_log))
        return reads[0] if len(reads) == 2 else reads[-1]

    reflection_centroid = align.reflection_centroid
    monkeypatch.setattr(align, "reflection_centroid", stuck)
    out, trace = align_resonator(ws, "oc", "cam2", reference,
                                 np.random.default_rng(3), max_iters=30)
    assert trace.meta["fallback"] == "singular Jacobian"
    assert trace.iterations[0].objective == trace.iterations[1].objective
    assert trace.converged
    assert len(reads) == len(trace) > 3  # the GP evaluated on after the probes
    _holds_the_knob_search_contract(ws, out, trace, 30)


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
