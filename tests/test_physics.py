import dataclasses
import functools
import math

import numpy as np
import pytest

from _benches import (bench, camera, lens, make_cavity, mirror, primary_hit,
                      pump)
from cavforge import physics
from cavforge.errors import MissingComponentError, TraceError, WorkspaceError
from cavforge.physics import (CameraFrame, PhysicsConfig, beam_radius,
                              camera_view, cavity_response,
                              fluorescence_power, q_at_waist, trace_beam)
from cavforge.simcore import (Component, ComponentKind, Pose, Workspace,
                              inject_displacement, set_knob_readings)
from cavforge.vision import beam_stats, centroid, sensor_center_px


def _splitter_bench():
    bs = Component(id="bs", kind=ComponentKind.BEAM_SPLITTER, pose=Pose(0, 0),
                   params={"split_ratio": 0.4, "arm_camera": "cam2"})
    return bench([
        pump(),
        (bs, Pose(120.0, 0.0)),
        camera("cam2", 120.0, y=100.0, gain_pump=0.5),
        mirror("oc", ComponentKind.MIRROR_OC, 150.0,
               pump_transmission=0.5, pump_reflectivity=0.5),
    ])


def test_beam_radius_round_trip_and_growth():
    w0, lam = 0.3, 8.08e-4
    q = q_at_waist(w0, lam)
    assert beam_radius(q, lam) == pytest.approx(w0, rel=1e-12)
    z_r = math.pi * w0 * w0 / lam
    expected = w0 * math.sqrt(1.0 + (500.0 / z_r) ** 2)
    assert beam_radius(q + 500.0, lam) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("waist_mm", [1e-200, 1e200])
def test_beam_radius_rejects_a_rayleigh_range_out_of_float_range(waist_mm):
    # z_R underflows to 0 or overflows to inf, so 1/q has no negative imaginary part
    lam = 8.08e-4
    for q in (q_at_waist(waist_mm, lam), q_at_waist(waist_mm, lam) + 500.0):
        with pytest.raises(TraceError, match="Rayleigh range"):
            beam_radius(q, lam)


def test_trace_requires_a_pump():
    with pytest.raises(TraceError):
        trace_beam(bench([camera("cam", 100.0)]))


def test_trace_is_deterministic():
    ws = set_knob_readings(_splitter_bench(), "oc", 13.0, -7.0)
    a, b = trace_beam(ws), trace_beam(ws)
    assert a.primary_at == b.primary_at
    assert [(h.camera_id, h.u_mm, h.v_mm, h.power) for h in a.hits["cam2"]] \
        == [(h.camera_id, h.u_mm, h.v_mm, h.power) for h in b.hits["cam2"]]


def test_mirror_retro_reflection_hand_value():
    # The pump runs along y=0 and reflects off a mirror tilted 0.1 degrees
    # at x=150. The retro ray leaves with slope 2*tilt, travels 30 mm back
    # to the splitter and 100 mm down the folded arm, so the side camera
    # sees it 2*radians(0.1)*(-130) mm off its axis; the forward pass put a
    # zero-offset spot there first.
    ws = _splitter_bench()
    ws = set_knob_readings(ws, "oc", 72.0, 0.0)  # 72 knob-deg = 0.1 deg tilt
    hits = trace_beam(ws).hits["cam2"]
    assert [h.n_bounces for h in hits] == [0, 1]
    assert hits[0].u_mm == pytest.approx(0.0, abs=1e-12)
    tilt = math.radians(ws.component("oc").knobs.tilt_h_deg)
    assert hits[1].u_mm == pytest.approx(2.0 * tilt * (-130.0), abs=1e-12)
    assert hits[1].v_mm == 0.0
    # forward 2.0 * 0.6 through the splitter, halved at the mirror, then
    # the 0.4 arm pick-off
    assert hits[1].power == pytest.approx(2.0 * 0.6 * 0.5 * 0.4, rel=1e-12)


def test_retro_spot_is_linear_in_knob_reading():
    ws = _splitter_bench()

    def retro_u(reading):
        probed = set_knob_readings(ws, "oc", reading, 0.0)
        hits = [h for h in trace_beam(probed).hits["cam2"] if h.n_bounces == 1]
        return hits[0].u_mm

    u0, u1, u2 = retro_u(0.0), retro_u(40.0), retro_u(80.0)
    assert u2 - u1 == pytest.approx(u1 - u0, abs=1e-12)
    assert u1 != u0


def test_lens_stack_matches_paraxial_matrix_oracle():
    # independent check: the ray trace through lens/free-space stacks must
    # equal the product of [[1,L],[0,1]] and [[1,0],[-1/f,1]] matrices
    rng = np.random.default_rng(12)
    for _ in range(5):
        n_lens = int(rng.integers(1, 5))
        xs = np.sort(rng.uniform(80.0, 620.0, n_lens))
        focals = rng.uniform(100.0, 500.0, n_lens)
        y0, z0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        yaw = float(rng.uniform(-0.2, 0.2))
        x_cam = 700.0
        items = [pump(y=y0, yaw=yaw),
                 camera("cam", x_cam, body_halfwidth_mm=40.0)]
        items += [lens(f"l{i}", float(xs[i]), float(focals[i]))
                  for i in range(n_lens)]
        ws = inject_displacement(bench(items), "pump", dz=z0)

        def propagate(r0, s0):
            vec = np.array([r0, s0])
            x = 0.0
            for xe, f in zip(xs, focals):
                vec = np.array([[1.0, xe - x], [0.0, 1.0]]) @ vec
                assert abs(vec[0]) < 8.0  # stays inside every aperture
                vec = np.array([[1.0, 0.0], [-1.0 / f, 1.0]]) @ vec
                x = xe
            return (np.array([[1.0, x_cam - x], [0.0, 1.0]]) @ vec)[0]

        hit = primary_hit(trace_beam(ws), "cam")
        slope = math.tan(math.radians(ws.component("pump").pose.yaw))
        assert hit is not None
        assert abs(hit.u_mm - propagate(y0, slope)) < 1e-9
        assert abs(hit.v_mm - propagate(z0, 0.0)) < 1e-9


@pytest.mark.parametrize("order", ["placed", "reversed", "shuffled"])
@pytest.mark.parametrize("retro", [False, True])
def test_a_tie_goes_to_the_component_earlier_in_the_workspace(retro, order):
    # cameras a and b sit at the same x and both admit the beam: the pump's
    # own, or its reflection off a tilted mirror travelling back past the
    # pump's aperture; c, further along, must never see it
    if retro:
        ws = bench([pump(x=50.0), mirror("m", ComponentKind.MIRROR_OC, 300.0, tilt_h_deg=2.0),
                    camera("a", 10.0, y=-20.0), camera("b", 10.0, y=-20.0)])
        beam_order = ["a", "b", "pump", "m"]
    else:
        ws = bench([pump(), camera("a", 300.0), camera("b", 300.0), camera("c", 500.0)])
        beam_order = ["pump", "a", "b", "c"]
    comps = ws.components
    if order == "reversed":
        comps = comps[::-1]
    elif order == "shuffled":
        comps = comps[1::2] + comps[::2]
    # the workspace restores beam order, (x, placement seq), from any order,
    # so a, placed before b, comes first and takes the tie
    ws = dataclasses.replace(ws, components=comps)
    assert [c.id for c in ws.components] == beam_order
    hits = trace_beam(ws).hits
    assert list(hits) == ["a"]
    assert [h.n_bounces for h in hits["a"]] == [int(retro)]


def test_off_aperture_component_is_passed_by():
    ws = bench([pump(y=12.0), lens("l", 200.0, 100.0),
                camera("cam", 400.0, body_halfwidth_mm=20.0)])
    hit = primary_hit(trace_beam(ws), "cam")
    assert hit.u_mm == pytest.approx(12.0, abs=1e-12)  # 12 mm past the lens rim: no kick


def test_beam_block_and_bandpass_terminate_the_pump():
    bb = Component(id="bb", kind=ComponentKind.BEAM_BLOCK, pose=Pose(0, 0))
    ws = bench([pump(), (bb, Pose(100.0, 0.0)), camera("cam", 300.0)])
    assert primary_hit(trace_beam(ws), "cam") is None
    bpf = Component(id="bpf", kind=ComponentKind.BPF, pose=Pose(0, 0),
                    params={"passband": "laser"})
    ws = bench([pump(), (bpf, Pose(100.0, 0.0)), camera("cam", 300.0)])
    assert not centroid(camera_view(ws, "cam")).detected


def test_ndf_scales_power_and_prevents_saturation():
    ndf = Component(id="ndf", kind=ComponentKind.NDF, pose=Pose(0, 0),
                    params={"transmittance": 0.01})
    filtered = bench([pump(), (ndf, Pose(60.0, 0.0)),
                      camera("cam", 300.0, gain_pump=35.0)])
    frame = camera_view(filtered, "cam")
    # peak lands between pixel centers, so the sample sits a hair below
    # gain * power = 35 * 2 * 0.01
    assert frame.intensities.max() == pytest.approx(0.7, rel=1e-3)
    assert not beam_stats(frame).saturated
    bare = bench([pump(), camera("cam", 300.0, gain_pump=35.0)])
    assert beam_stats(camera_view(bare, "cam")).saturated


def test_splitter_feeds_side_camera_and_attenuates_main_line():
    bs = Component(id="bs", kind=ComponentKind.BEAM_SPLITTER, pose=Pose(0, 0),
                   params={"split_ratio": 0.4, "arm_camera": "cam2"})
    ws = bench([pump(), (bs, Pose(120.0, 0.0)),
                camera("cam2", 120.0, y=100.0, gain_pump=0.25),
                camera("cam1", 300.0, gain_pump=0.25)])
    tr = trace_beam(ws)
    side = tr.hits["cam2"][0]
    assert side.u_mm == pytest.approx(0.0, abs=1e-12)
    assert side.v_mm == pytest.approx(0.0, abs=1e-12)
    assert side.power == pytest.approx(2.0 * 0.4)
    assert primary_hit(tr, "cam1").power == pytest.approx(2.0 * 0.6)


def test_camera_view_maps_table_offset_to_pixels():
    ws = bench([pump(y=0.5), camera("cam", 300.0, gain_pump=0.35)])
    frame = camera_view(ws, "cam")
    spot = beam_stats(frame)
    expected = (0.5 / frame.pixel_pitch_mm + (frame.width - 1) / 2.0,
                (frame.height - 1) / 2.0)
    assert spot.centroid_px[0] == pytest.approx(expected[0], abs=0.05)
    assert spot.centroid_px[1] == pytest.approx(expected[1], abs=0.05)
    # rendered spot size follows the propagated beam radius (the noise
    # floor trims the far tail, so the second moment sits a touch low)
    w_px = beam_radius(q_at_waist(0.3, 8.08e-4) + 300.0, 8.08e-4) / frame.pixel_pitch_mm
    assert spot.sigma_px[0] == pytest.approx(w_px / 2.0, rel=0.08)


def test_cavity_response_frozen_alignment_table():
    # all errors zero: metric 0, threshold at its configured floor
    cav = cavity_response(make_cavity())
    assert cav.misalignment == 0.0
    assert cav.threshold == 1.0
    assert cav.lasing and cav.mode_order == 0
    assert cav.output_power == pytest.approx(0.3, rel=1e-12)

    # one mirror at 0.03 degrees: metric 1.5, second transverse band
    cav = cavity_response(make_cavity(tilt_oc_deg=0.03))
    assert cav.misalignment == pytest.approx(1.5, rel=1e-9)
    assert cav.threshold == pytest.approx(1.1125, rel=1e-9)
    assert cav.output_power == pytest.approx(0.26625, rel=1e-9)
    assert cav.mode_order == 1

    # transverse lens offset of one reference unit: metric 1, still mode 0
    cav = cavity_response(make_cavity(lens_dy=0.3))
    assert cav.misalignment == pytest.approx(1.0, rel=1e-9)
    assert cav.threshold == pytest.approx(1.05, rel=1e-9)
    assert cav.mode_order == 0

    # crystal angle error adds in quadrature with mirror tilt
    cav = cavity_response(make_cavity(tilt_oc_deg=0.02, theta_err_deg=0.2))
    assert cav.misalignment == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert cav.mode_order == 1


def test_cavity_passes_cutoff_and_threshold_gates():
    assert not cavity_response(make_cavity(pump_power=0.9)).lasing
    cav = cavity_response(make_cavity(tilt_oc_deg=0.08))  # metric 4: cut off
    assert cav.misalignment == pytest.approx(4.0, rel=1e-9)
    assert not cav.lasing and cav.output_power == 0.0
    assert cav.mode_order == 4
    ws = make_cavity()
    incomplete = dataclasses.replace(
        ws, components=tuple(c for c in ws.components if c.id != "crystal"))
    with pytest.raises(MissingComponentError):
        cavity_response(incomplete)


def _with_band_edges(ws, edges):
    return dataclasses.replace(
        ws, physics=dataclasses.replace(ws.physics, mode_band_edges=edges))


def test_the_mode_band_counts_reaching_an_edge():
    ws = make_cavity(tilt_oc_deg=0.03)
    m = cavity_response(ws).misalignment
    assert 0.0 < m < math.inf
    assert cavity_response(_with_band_edges(ws, (m / 2, m, 2 * m))).mode_order == 2
    assert cavity_response(_with_band_edges(ws, (2 * m, 3 * m))).mode_order == 0
    # a beam that misses the lens has m = inf, past every edge
    missed = _with_band_edges(make_cavity(lens_dy=12.0), (1.0, 2.0, 3.0))
    assert math.isinf(cavity_response(missed).misalignment)
    assert cavity_response(missed).mode_order == 3


@pytest.mark.parametrize("tilt_oc_deg, order", [(0.0, 0), (0.03, 1)])
def test_laser_hits_carry_the_cavity_mode_order(monkeypatch, tilt_oc_deg, order):
    # without the line filter, cam1 sees the pump as well as the laser
    ws = make_cavity(tilt_oc_deg=tilt_oc_deg)
    ws = dataclasses.replace(ws, components=tuple(c for c in ws.components
                                                  if c.id != "bpf"))
    assert cavity_response(ws).mode_order == order
    rendered = []
    render = physics.render_frame

    def record(hits, cam):
        rendered.extend(hits)
        return render(hits, cam)

    monkeypatch.setattr(physics, "render_frame", record)
    camera_view(ws, "cam1")
    laser_orders = [h.mode_order for h in rendered if h.wavelength == "laser"]
    pump_orders = [h.mode_order for h in rendered if h.wavelength == "pump"]
    assert laser_orders and laser_orders == [order] * len(laser_orders)
    assert pump_orders and pump_orders == [0] * len(pump_orders)


def test_a_frame_indexes_its_bench_once(monkeypatch, built):
    # a copy of the seed-42 bench, so no kind index exists yet
    ws = dataclasses.replace(built.ws)
    names = ("_by_kind", "_aperture_table", "trace_beam", "cavity_response")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    index = functools.cached_property(
        counted("_by_kind", Workspace.__dict__["_by_kind"].func))
    index.__set_name__(Workspace, "_by_kind")
    monkeypatch.setattr(Workspace, "_by_kind", index)
    for name in names[1:]:
        monkeypatch.setattr(physics, name, counted(name, getattr(physics, name)))
    expected = camera_view(built.ws, "cam1")
    calls.update(dict.fromkeys(names, 0))
    frame = camera_view(ws, "cam1")
    # one pass finds the pump and the cavity; the laser trace reuses the
    # pump trace's aperture table; the traced entry points run once each
    assert calls == dict.fromkeys(names, 1)
    camera_view(ws, "cam2")
    assert calls["_by_kind"] == 1 and calls["_aperture_table"] == 2
    assert frame.intensities.tobytes() == expected.intensities.tobytes()


def test_beam_missing_the_lens_kills_the_metric():
    cav = cavity_response(make_cavity(lens_dy=12.0))
    assert math.isinf(cav.misalignment)
    assert not cav.lasing
    assert fluorescence_power(cav, PhysicsConfig()) == 0.0


def test_fluorescence_clamps_at_threshold_and_grades_in_misalignment():
    cfg = PhysicsConfig()
    below = cavity_response(make_cavity(pump_power=0.5))
    assert fluorescence_power(below, cfg) == pytest.approx(0.08 * 0.5)
    # above threshold the excited population saturates: the glow locks to
    # scale * p_threshold regardless of the misalignment
    for tilt in (0.0, 0.04):
        lasing = cavity_response(make_cavity(tilt_oc_deg=tilt))
        assert lasing.lasing
        assert fluorescence_power(lasing, cfg) == pytest.approx(0.08, rel=1e-9)
    # in the dark zone the glow falls off smoothly with the metric
    dark = [fluorescence_power(cavity_response(make_cavity(tilt_oc_deg=t)), cfg)
            for t in (0.1, 0.12, 0.16)]
    assert dark[0] > dark[1] > dark[2] > 0.0


def test_laser_spot_appears_behind_the_bandpass_when_lasing():
    frame = camera_view(make_cavity(), "cam1")
    stats = beam_stats(frame)
    assert stats.detected and not stats.saturated
    dark = camera_view(make_cavity(pump_power=0.0), "cam1")
    assert not beam_stats(dark).detected


def test_higher_mode_renders_wider_than_fundamental():
    base = beam_stats(camera_view(make_cavity(), "cam1"))
    shifted = beam_stats(camera_view(make_cavity(tilt_oc_deg=0.03), "cam1"))
    assert max(shifted.sigma_px) > 1.5 * max(base.sigma_px)


def test_camera_frame_rejects_nan():
    # NaN fails both range comparisons; the finiteness check then names
    # the fault, so NaN pixels never reach the frame kernels
    img = np.zeros((3, 4))
    img[1, 2] = np.nan
    with pytest.raises(WorkspaceError, match="non-finite"):
        CameraFrame(img, 0.01, "cam")


def test_a_hit_with_nan_power_fails_at_camera_view():
    ws = bench([pump(power=float("nan")), camera("cam", 300.0)])
    with pytest.raises(WorkspaceError, match="non-finite"):
        camera_view(ws, "cam")


def test_a_camera_view_draws_its_pixels_once_and_only_when_read(drawn):
    frame = camera_view(bench([pump(y=0.5), camera("cam", 300.0)]), "cam")
    assert (frame.height, frame.width, frame.pixel_pitch_mm) == (480, 640, 0.01)
    assert sensor_center_px(frame) == (319.5, 239.5)
    assert drawn == []
    assert beam_stats(frame).detected and centroid(frame).detected
    assert drawn and (480, 640) not in drawn  # only windows so far
    drawn.clear()
    pixels = frame.intensities
    assert frame.intensities is pixels
    assert drawn == [(480, 640)]
