import copy
import dataclasses

import numpy as np
import pytest

from _benches import make_cavity
from cavforge import align, pipeline
from cavforge.errors import (ConstructionError, NoLasingError,
                             NoSnapshotError, WorkspaceError)
from cavforge.layout import default_layout, validate_layout
from cavforge.physics import camera_view, cavity_response
from cavforge.pipeline import (PipelineState, StepId, measure_power_curve,
                               recover_displacement, recover_drift,
                               run_construction, surveillance_tick)
from cavforge.simcore import (Workspace, inject_displacement, move_component,
                              park_component, randomize_knobs, reseed, take_snapshot,
                              turn_knob)
from cavforge.vision import beam_stats


def test_construction_completes_all_twelve_steps(built):
    assert built.current_step == int(StepId.LASING_VERIFIED)
    assert built.baseline is not None
    assert built.baseline["mode_order"] == 0
    assert built.ws.snapshot is not None
    steps = [entry["step"] for entry in built.log]
    assert steps == sorted(steps)  # stages never log out of order
    assert set(steps) == set(range(1, 13))


def test_baseline_is_frozen_for_the_default_seed(built):
    assert built.baseline["output_power"] == pytest.approx(
        0.28900133699950664, rel=1e-12)


def test_baseline_is_self_consistent(built):
    # threshold and output follow the misalignment metric exactly
    base = built.baseline
    m = base["misalignment"]
    assert base["threshold"] == pytest.approx(1.0 * (1.0 + 0.05 * m * m), rel=1e-9)
    assert base["output_power"] == pytest.approx(
        0.3 * (2.0 - base["threshold"]), rel=1e-9)
    # the pump-sweep fit recovers the same threshold from the outside
    assert base["threshold_fit"] == pytest.approx(base["threshold"], rel=1e-6)
    assert base["slope_fit"] == pytest.approx(0.3, rel=1e-6)


def test_reference_frames_live_in_memory_with_real_spots(built):
    assert built.reference_frames
    for camera_id, frame in built.reference_frames.items():
        assert frame.camera_id == camera_id
        assert beam_stats(frame).detected


def test_pipeline_state_round_trips_through_dicts(built):
    d1 = built.to_dict()
    d2 = PipelineState.from_dict(copy.deepcopy(d1)).to_dict()
    assert d1 == d2


def test_surveillance_classifies_the_bench(state):
    assert surveillance_tick(state)["status"] == "ok"

    nudged = dataclasses.replace(state)
    nudged.ws = inject_displacement(state.ws, "lens", dy=5.0)
    report = surveillance_tick(nudged)
    assert report["status"] == "displacement"
    assert [d["id"] for d in report["displaced"]] == ["lens"]
    assert report["displaced"][0]["distance_mm"] == pytest.approx(5.0, abs=0.001)

    crept = dataclasses.replace(state)
    crept.ws = randomize_knobs(state.ws, ["ic", "oc"], 120.0, 150.0)
    assert surveillance_tick(crept)["status"] == "signal_lost"


def test_surveillance_never_draws_a_whole_frame(state, drawn):
    assert surveillance_tick(state)["status"] == "ok"
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    surveillance_tick(state)
    assert drawn and (480, 640) not in drawn


def test_resonator_alignment_never_draws_a_whole_frame(layout, drawn, monkeypatch):
    # The reference is drawn before each alignment starts, so every spot
    # drawn during it comes from an objective evaluation's live frame.
    objective_draws = []
    align_resonator = pipeline.align_resonator

    def recorded(ws, mirror_id, camera_id, reference, *args, **kwargs):
        reference.intensities
        mark = len(drawn)
        out = align_resonator(ws, mirror_id, camera_id, reference, *args, **kwargs)
        objective_draws.append(drawn[mark:])
        return out

    monkeypatch.setattr(pipeline, "align_resonator", recorded)
    run_construction(layout, 42)
    assert len(objective_draws) == 2  # the output coupler, then the input mirror
    for shapes in objective_draws:
        assert shapes and (480, 640) not in shapes


def test_surveillance_requires_a_completed_build(state):
    state.current_step = int(StepId.PLACE_BPF)
    with pytest.raises(WorkspaceError):
        surveillance_tick(state)


def test_recover_displacement_is_a_no_op_on_a_healthy_bench(state):
    report = recover_displacement(state)
    assert report.success
    assert report.attempts == 0
    assert report.details["placements"] == 1
    assert report.details["displaced"] == []
    assert report.ratio == pytest.approx(1.0, abs=1e-6)


def test_recover_displacement_restores_a_bumped_lens(state):
    state.ws = inject_displacement(state.ws, "lens", dy=6.0, dx=2.0)
    assert surveillance_tick(state)["status"] == "displacement"
    report = recover_displacement(state)
    assert report.success
    assert report.details["displaced"] == ["lens"]
    assert report.actions >= 1
    assert report.ratio >= 0.9
    assert surveillance_tick(state)["status"] == "ok"


def test_a_displacement_that_cannot_be_restored_reports_its_measured_ratio(state):
    # the lens goes back, but crept knobs keep the cavity below 25%
    state.ws = inject_displacement(state.ws, "lens", dy=3.0)
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    report = recover_displacement(state)
    assert not report.success
    assert 0.0 < report.ratio < 0.25
    assert report.ratio == pipeline._objective_ratio(state)


def test_recover_displacement_renders_one_frame_per_placement_pass(state, frames):
    state.ws = inject_displacement(state.ws, "lens", dy=6.0, dx=2.0)
    report = recover_displacement(state)
    assert report.success
    assert len(frames) == report.attempts + 1


def test_a_bench_state_is_drawn_once_per_camera(state, frames):
    held = state.view("cam1")
    assert frames == ["cam1"]
    np.testing.assert_array_equal(held.intensities,
                                  camera_view(state.ws, "cam1").intensities)
    # the same bench, an equal one decoded anew, one with only the count or
    # snapshot changed: the held frame
    assert state.view("cam1") is held
    state.ws = Workspace.from_dict(state.ws.to_dict(), physics=state.ws.physics)
    assert state.view("cam1") is held
    state.ws = take_snapshot(state.ws)
    assert state.view("cam1") is held
    assert frames == ["cam1"]
    # a knob turn, a move or a park: a new frame, held in its place
    pose = state.ws.component("lens").pose
    for change in (lambda ws: turn_knob(ws, "oc", "h", 1.0),
                   lambda ws: move_component(ws, "lens", pose.shifted(dy=0.2)),
                   lambda ws: park_component(ws, "bpf")):
        state.ws = change(state.ws)
        drawn = state.view("cam1")
        assert drawn is not held and drawn is state.view("cam1")
        np.testing.assert_array_equal(drawn.intensities,
                                      camera_view(state.ws, "cam1").intensities)
        held = drawn
    assert frames == ["cam1"] * 4
    # each camera holds its own; a replaced state holds none
    state.view("cam2")
    fresh = dataclasses.replace(state)
    assert fresh.view("cam1") is not held
    assert frames == ["cam1"] * 4 + ["cam2", "cam1"]


def test_recover_displacement_needs_a_snapshot(state):
    state.ws = dataclasses.replace(state.ws, snapshot=None)
    with pytest.raises(NoSnapshotError):
        recover_displacement(state)


def test_recover_drift_resurrects_a_crept_cavity(state):
    # 30-60 knob-deg creep per axis, the band the drift scenario injects;
    # the zoom search spans 65, so heavier creep needs a wider first round
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    assert surveillance_tick(state)["status"] == "signal_lost"
    report = recover_drift(state, rng=np.random.default_rng(4))
    assert report.success
    assert report.iterations <= 60
    assert report.ratio >= 0.9
    assert report.details["rounds"]  # zoom schedule actually ran
    # every round climbs on intensity alone, with no reference width
    assert all(r["sigma_ref_px"] is None for r in report.details["rounds"])
    assert cavity_response(state.ws).mode_order == 0
    assert surveillance_tick(state)["status"] == "ok"


def test_recover_drift_renders_one_frame_per_evaluation_and_one_per_round(
        state, frames):
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    report = recover_drift(state, rng=np.random.default_rng(4))
    assert report.success
    # Frozen for rng 4: rounds of 18 and 8 evaluations. The first round
    # spends its budget, so its ratio read renders the best readings; the
    # second's reuses the frame of the evaluation that stopped it.
    assert report.iterations == 26
    assert len(frames) == 27


def test_each_drift_round_counts_the_model_steps_it_evaluated(state, built,
                                                            monkeypatch):
    vertices, rounds = [], []
    model_vertex = align._model_vertex

    def spy(*args):
        vertex, tried = model_vertex(*args)
        if vertex is not None:
            vertices.append(tuple(vertex))
        return vertex, tried

    optimize_mode = pipeline.optimize_mode

    def recorded(*args, **kwargs):
        taken = len(vertices)
        ws, trace = optimize_mode(*args, **kwargs)
        rounds.append((trace, vertices[taken:]))
        return ws, trace

    monkeypatch.setattr(align, "_model_vertex", spy)
    monkeypatch.setattr(pipeline, "optimize_mode", recorded)
    state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
    report = recover_drift(state, rng=np.random.default_rng(5))
    assert len(vertices) == 3  # rounds of 18 and 12 evaluations, 1 and 2 steps
    summaries = report.details["rounds"]
    assert len(summaries) == len(rounds)
    for (trace, taken), summary in zip(rounds, summaries):
        params = [it.params for it in trace.iterations]
        assert all(vertex in params for vertex in taken)
        assert summary["model_steps"] == trace.meta["model_steps"] == len(taken)
    # step 11 scores quality too, so its search takes no model step and its
    # trace.jsonl event has no count
    [mode] = [e for e in built.log if e["action"] == "optimize mode"]
    assert "model_steps" not in mode["measurement"]


def test_recover_drift_succeeds_exactly_when_the_ratio_clears_90_percent(built):
    # The full budget mostly succeeds; eight evaluations mostly do not.
    outcomes = set()
    for trial in range(4):
        for max_iters in (60, 8):
            state = dataclasses.replace(
                built, ws=reseed(built.ws, trial), log=list(built.log))
            state.ws = randomize_knobs(state.ws, ["ic", "oc"], 30.0, 60.0)
            report = recover_drift(state, rng=np.random.default_rng(trial),
                                   max_iters=max_iters)
            assert report.success == (report.ratio >= 0.9)
            outcomes.add(report.success)
    assert outcomes == {True, False}
    with pytest.raises(WorkspaceError):
        recover_drift(state, max_iters=0)


def test_construction_renders_each_bench_state_once(layout, frames):
    # Frozen for seed 42. A routine that renders again a bench state it has
    # just measured raises the count.
    run_construction(layout, 42)
    assert len(frames) == 78


@pytest.mark.parametrize("removed, step, role", [
    ("ndf", StepId.PLACE_CAMS_NDF, "neutral-density filter"),
    ("cam1", StepId.PLACE_CAMS_NDF, "main-axis camera"),
    ("cam2", StepId.PLACE_CAMS_NDF, "side-arm camera"),
    ("oc", StepId.PLACE_OC_SPATIAL_OPT, "output mirror"),
    ("bb", StepId.PLACE_BB, "beam block"),
    ("bs", StepId.PLACE_BS_REFERENCE, "beam splitter"),
    ("lens", StepId.REMOVE_BS_PLACE_LENS_SPATIAL_OPT, "pump lens"),
    ("ic", StepId.PLACE_IC, "input mirror"),
    ("bpf", StepId.PLACE_BPF, "line filter"),
    ("crystal", StepId.PLACE_CRYSTAL, "gain crystal"),
])
def test_construction_error_carries_the_failing_step(layout, removed, step, role):
    raw = copy.deepcopy(layout.raw)
    raw["components"] = [c for c in raw["components"] if c["id"] != removed]
    with pytest.raises(ConstructionError) as err:
        run_construction(validate_layout(raw), 42)
    assert err.value.step == step
    assert f"layout declares no {role}" in str(err.value)
    assert err.value.log  # diagnostics include the progress so far
    assert err.value.state.current_step == int(step) - 1


def test_construction_succeeds_without_placement_noise():
    raw = default_layout()
    raw["placement_noise_sigma_mm"] = 0.0
    built = run_construction(validate_layout(raw), 7)
    assert built.current_step == int(StepId.LASING_VERIFIED)
    assert built.baseline["mode_order"] == 0


def test_omitted_mirror_transmission_builds_like_its_default():
    # An input mirror that omits pump_transmission passes half the pump, in
    # the tracer and in step 9's reference scale alike.
    baselines = []
    for params in ({}, {"pump_transmission": 0.5}):
        raw = default_layout()
        ic = next(c for c in raw["components"] if c["id"] == "ic")
        del ic["params"]["pump_transmission"], ic["params"]["pump_reflectivity"]
        ic["params"].update(params)
        baselines.append(run_construction(validate_layout(raw), 42).baseline)
    assert baselines[0] == baselines[1]


def test_power_curve_recovers_the_configured_lasing_law():
    fit = measure_power_curve(make_cavity(), np.linspace(0.0, 2.0, 11))
    assert fit.threshold == pytest.approx(1.0, rel=1e-9)
    assert fit.slope == pytest.approx(0.3, rel=1e-9)
    assert len(fit.points) == 11
    below = [p for p, out in fit.points if out == 0.0]
    assert max(below) <= 1.0


def test_power_curve_needs_a_lasing_branch():
    with pytest.raises(NoLasingError):
        measure_power_curve(make_cavity(), np.linspace(0.0, 0.9, 5))
