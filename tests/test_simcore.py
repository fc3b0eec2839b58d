import math

import dataclasses
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavforge.errors import (DuplicateComponentError, NoKnobsError,
                             NoSnapshotError, OutOfBoundsError,
                             UnknownComponentError, WorkspaceError)
from cavforge.physics import camera_view
from cavforge.simcore import (PARK_Y, Component, ComponentKind, KnobPair, Pose,
                              Workspace, apply_knob_readings,
                              detect_displacement, inject_displacement,
                              knob_readings, move_component,
                              new_workspace, normalize_yaw, park_component,
                              place_component, randomize_knobs, reseed,
                              rotate_crystal, set_knob_bias,
                              set_knob_readings, take_snapshot, turn_knob)
from cavforge.vision import beam_stats, centroid


def _ndf(cid="f"):
    return Component(id=cid, kind=ComponentKind.NDF, pose=Pose(0, 0),
                     params={"transmittance": 0.5})


def _mirror(cid="m"):
    return Component(id=cid, kind=ComponentKind.MIRROR_OC, pose=Pose(0, 0),
                     knobs=KnobPair())


def _crystal(cid="x"):
    return Component(id=cid, kind=ComponentKind.CRYSTAL, pose=Pose(0, 0),
                     params={"theta_deg": 0.0})


def test_normalize_yaw_wraps_into_half_open_interval():
    assert normalize_yaw(0.0) == 0.0
    assert normalize_yaw(190.0) == -170.0
    assert normalize_yaw(-190.0) == 170.0
    assert normalize_yaw(540.0) == 180.0
    assert normalize_yaw(-180.0) == 180.0
    assert normalize_yaw(180.0) == 180.0


@given(st.floats(-1e6, 1e6), st.integers(-50, 50))
def test_normalize_yaw_period_and_range(yaw, k):
    wrapped = normalize_yaw(yaw)
    assert -180.0 < wrapped <= 180.0
    assert normalize_yaw(yaw + 360.0 * k) == pytest.approx(wrapped, abs=1e-6)


def test_pose_rejects_non_finite():
    with pytest.raises(WorkspaceError):
        Pose(float("nan"), 0.0)
    with pytest.raises(WorkspaceError):
        Pose(0.0, float("inf"))


def test_negative_sigma_rejected():
    with pytest.raises(WorkspaceError):
        new_workspace(0, placement_noise_sigma=-0.1)


def test_place_exact_at_zero_sigma_with_housing_offset():
    ws = new_workspace(3, placement_noise_sigma=0.0)
    comp = dataclasses.replace(_ndf(), housing_offset=0.1)
    ws = place_component(ws, comp, Pose(100.0, 2.0))
    pose = ws.component("f").pose
    assert pose.x == 100.0
    assert pose.y == pytest.approx(2.1, abs=1e-12)


def test_place_noise_is_seeded_and_repeatable():
    def achieved(seed):
        ws = place_component(new_workspace(seed), _ndf(), Pose(100.0, 0.0))
        return ws.component("f").pose

    a, b, c = achieved(5), achieved(5), achieved(6)
    assert (a.x, a.y) == (b.x, b.y)
    assert (a.x, a.y) != (c.x, c.y)
    assert a.x != 100.0 and a.y != 0.0


def test_placement_noise_statistics():
    # 400 placements at sigma 0.25: per-axis offsets must look like the
    # configured Gaussian, not a constant or a uniform.
    sigma = 0.25
    ws = new_workspace(11, placement_noise_sigma=sigma)
    targets = [Pose(30.0 + 1.7 * i, 0.0) for i in range(400)]
    for i, target in enumerate(targets):
        ws = place_component(ws, _ndf(f"f{i}"), target)
    dx = [ws.component(f"f{i}").pose.x - t.x for i, t in enumerate(targets)]
    dy = [ws.component(f"f{i}").pose.y - t.y for i, t in enumerate(targets)]
    offsets = np.asarray(dx + dy)
    assert abs(offsets.mean()) < 0.03
    assert np.std(offsets) == pytest.approx(sigma, rel=0.12)


def test_duplicate_and_second_pump_rejected():
    ws = place_component(new_workspace(0), _ndf(), Pose(50.0, 0.0))
    with pytest.raises(DuplicateComponentError):
        place_component(ws, _ndf(), Pose(80.0, 0.0))
    pump = Component(id="p1", kind=ComponentKind.PUMP_SOURCE, pose=Pose(0, 0))
    ws = place_component(ws, pump, Pose(0.0, 0.0))
    with pytest.raises(WorkspaceError):
        place_component(ws, dataclasses.replace(pump, id="p2"), Pose(10.0, 0.0))


def test_out_of_bounds_rejected():
    ws = new_workspace(0)
    with pytest.raises(OutOfBoundsError):
        place_component(ws, _ndf(), Pose(5000.0, 0.0))
    ws = place_component(ws, _ndf(), Pose(50.0, 0.0))
    with pytest.raises(OutOfBoundsError):
        move_component(ws, "f", Pose(50.0, 400.0))


def test_unknown_component_lookup():
    with pytest.raises(UnknownComponentError):
        new_workspace(0).component("ghost")


def test_components_stay_sorted_by_x():
    ws = new_workspace(0, placement_noise_sigma=0.0)
    ws = place_component(ws, _ndf("b"), Pose(200.0, 0.0))
    ws = place_component(ws, _ndf("a"), Pose(100.0, 0.0))
    assert [c.id for c in ws.components] == ["a", "b"]
    ws = move_component(ws, "a", Pose(300.0, 0.0))
    assert [c.id for c in ws.components] == ["b", "a"]
    ws = place_component(ws, _mirror(), Pose(150.0, 0.0))
    ws = place_component(ws, _crystal(), Pose(150.0, 5.0))  # ties m on x
    assert [c.id for c in ws.components] == ["m", "x", "b", "a"]
    # each mutator keeps beam order, leaves every component it does not
    # change the identical object, and counts one action per arm action
    # (set_knob_readings is two knob turns)
    mutators = [
        (lambda w: place_component(w, _ndf("c"), Pose(150.0, -5.0)), {"c"}, 1),
        (lambda w: move_component(w, "b", Pose(400.0, 0.0)), {"b"}, 1),
        (lambda w: park_component(w, "a"), {"a"}, 1),
        (lambda w: turn_knob(w, "m", "v", 3.0), {"m"}, 1),
        (lambda w: set_knob_readings(w, "m", 5.0, -5.0), {"m"}, 2),
        (lambda w: rotate_crystal(w, "x", 0.5), {"x"}, 1),
        (take_snapshot, set(), 1),
        (lambda w: inject_displacement(w, "b", dx=-120.0), {"b"}, 0),
        (lambda w: randomize_knobs(w, ["m"]), {"m"}, 0),
        (lambda w: set_knob_bias(w, "m", 7.0, -7.0), {"m"}, 0),
        (lambda w: reseed(w, 3), set(), 0),
    ]
    for mutate, changed, actions in mutators:
        after = mutate(ws)
        order = [(c.pose.x, c.seq) for c in after.components]
        assert order == sorted(order)
        for c in ws.components:
            if c.id not in changed:
                assert after.component(c.id) is c
        assert after.action_count == ws.action_count + actions
    assert [c.id for c in inject_displacement(ws, "b", dx=-120.0).components] \
        == ["b", "m", "x", "a"]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_beam_order_belongs_to_the_workspace_type(built, data):
    # the constructor, dataclasses.replace and from_dict each restore the
    # built bench's order from any permutation, and the cameras see the
    # same bench bit for bit
    ws = built.ws
    fields = {f.name: getattr(ws, f.name) for f in dataclasses.fields(Workspace)}
    saved = ws.to_dict()
    saved["components"] = data.draw(st.permutations(saved["components"]))
    shuffled = data.draw(st.permutations(ws.components))
    made = [Workspace(**{**fields, "components": shuffled}),
            dataclasses.replace(ws, components=tuple(shuffled)),
            Workspace.from_dict(saved, physics=ws.physics)]

    def seen(w):
        frames = [camera_view(w, cam) for cam in ("cam1", "cam2")]
        return [(repr(centroid(f)), repr(beam_stats(f))) for f in frames]

    expected = seen(ws)
    for w in made:
        assert w.components == ws.components
        assert seen(w) == expected


def test_a_knob_turn_keeps_beam_order_without_a_sort(built, monkeypatch):
    ws = built.ws
    for kind in ComponentKind:
        ws.find_kind(kind)  # the kind index exists before the turn
    sorts = []
    post_init = Workspace.__post_init__

    def counted(self):
        sorts.append(self)
        post_init(self)

    monkeypatch.setattr(Workspace, "__post_init__", counted)
    after = turn_knob(ws, "ic", "h", 7.5)
    assert sorts == []  # a knob turn moves no pose: nothing to re-sort
    order = [(c.pose.x, c.seq) for c in after.components]
    assert order == sorted(order)
    assert [c.id for c in after.components] == [c.id for c in ws.components]
    for old, new in zip(ws.components, after.components):
        if old.id == "ic":
            assert new.knobs.h_deg == old.knobs.h_deg + 7.5
            assert dataclasses.replace(new, knobs=old.knobs) == old
        else:
            assert new is old
    # the same value a sorting construction gives, with its own kind index
    fields = {f.name: getattr(after, f.name) for f in dataclasses.fields(Workspace)}
    assert Workspace(**fields) == after and len(sorts) == 1
    assert after.action_count == ws.action_count + 1
    for kind in ComponentKind:
        assert after.find_kind(kind) == [c for c in after.components if c.kind == kind]
    assert after.find_kind(ComponentKind.MIRROR_IC)[0] is after.component("ic")
    # a move still sorts
    moved = move_component(after, "ic", Pose(after.component("ic").pose.x + 1.0, 0.0))
    assert len(sorts) == 2
    assert moved.find_kind(ComponentKind.MIRROR_IC) == [moved.component("ic")]


def test_park_component_leaves_beam_line():
    ws = new_workspace(0, placement_noise_sigma=0.0)
    ws = place_component(ws, _ndf(), Pose(100.0, 0.0))
    ws = park_component(ws, "f")
    assert ws.component("f").pose.y == PARK_Y
    assert ws.component("f").pose.x == 100.0


def test_turn_knob_is_additive_and_counted():
    ws = place_component(new_workspace(0), _mirror(), Pose(100.0, 0.0))
    n0 = ws.action_count
    ws = turn_knob(ws, "m", "h", 10.0)
    ws = turn_knob(ws, "m", "h", 5.0)
    ws = turn_knob(ws, "m", "v", -4.0)
    knobs = ws.component("m").knobs
    assert knobs.h_deg == pytest.approx(15.0)
    assert knobs.v_deg == pytest.approx(-4.0)
    assert ws.action_count == n0 + 3
    with pytest.raises(WorkspaceError):
        turn_knob(ws, "m", "x", 1.0)
    with pytest.raises(NoKnobsError):
        turn_knob(place_component(ws, _ndf(), Pose(50.0, 0.0)), "f", "h", 1.0)


def test_set_knob_readings_absolute():
    ws = place_component(new_workspace(0), _mirror(), Pose(100.0, 0.0))
    ws = set_knob_readings(ws, "m", 30.0, -40.0)
    n = ws.action_count
    ws = set_knob_readings(ws, "m", 10.0, 10.0)
    knobs = ws.component("m").knobs
    assert (knobs.h_deg, knobs.v_deg) == (10.0, 10.0)
    assert ws.action_count == n + 2


def test_set_knob_readings_turns_only_the_knobs_that_change():
    ws = place_component(new_workspace(0), _mirror(), Pose(100.0, 0.0))
    ws = set_knob_readings(ws, "m", 10.0, 10.0)
    # a mirror already there leaves the workspace as it was: no action
    assert set_knob_readings(ws, "m", 10.0, 10.0) is ws
    one = set_knob_readings(ws, "m", 10.0, -2.0)
    knobs = one.component("m").knobs
    assert (knobs.h_deg, knobs.v_deg) == (10.0, -2.0)
    assert one.action_count == ws.action_count + 1


def test_knob_readings_round_trip_through_apply():
    ws = place_component(new_workspace(0), _mirror("a"), Pose(100.0, 0.0))
    ws = place_component(ws, _mirror("b"), Pose(200.0, 0.0))
    ws = set_knob_readings(ws, "a", 12.5, -3.0)
    saved = knob_readings(ws, ["a", "b"])
    assert saved == {"a": (12.5, -3.0), "b": (0.0, 0.0)}
    moved = set_knob_readings(set_knob_readings(ws, "a", 40.0, 7.0), "b", -9.0, 2.0)
    n = moved.action_count
    back = apply_knob_readings(moved, saved)
    assert knob_readings(back, ["a", "b"]) == saved
    assert back.action_count == n + 4  # two knob turns per mirror
    with pytest.raises(NoKnobsError):
        knob_readings(place_component(ws, _ndf(), Pose(50.0, 0.0)), ["f"])


def test_tilt_combines_reading_and_hidden_bias():
    pair = KnobPair(h_deg=20.0, v_deg=0.0, tilt_per_turn_deg=0.5,
                    bias_h_deg=16.0, bias_v_deg=-36.0)
    assert pair.tilt_h_deg == pytest.approx(36.0 / 360.0 * 0.5)
    assert pair.tilt_v_deg == pytest.approx(-0.05)


def test_bias_is_invisible_to_dial_readings():
    ws = place_component(new_workspace(0), _mirror(), Pose(100.0, 0.0))
    n0 = ws.action_count
    ws2 = set_knob_bias(ws, "m", 25.0, -10.0)
    before, after = ws.component("m").knobs, ws2.component("m").knobs
    assert (after.h_deg, after.v_deg) == (before.h_deg, before.v_deg)
    assert after.tilt_h_deg != before.tilt_h_deg
    assert ws2.action_count == n0


def test_randomize_knobs_moves_bias_within_band():
    ws = place_component(new_workspace(9), _mirror(), Pose(100.0, 0.0))
    before = ws.component("m").knobs
    n0 = ws.action_count
    ws2 = randomize_knobs(ws, ["m"], 30.0, 60.0)
    after = ws2.component("m").knobs
    assert 30.0 <= abs(after.bias_h_deg - before.bias_h_deg) <= 60.0
    assert 30.0 <= abs(after.bias_v_deg - before.bias_v_deg) <= 60.0
    assert (after.h_deg, after.v_deg) == (before.h_deg, before.v_deg)
    assert ws2.action_count == n0
    # same stream, same draw
    again = randomize_knobs(ws, ["m"], 30.0, 60.0).component("m").knobs
    assert (again.bias_h_deg, again.bias_v_deg) == (after.bias_h_deg,
                                                    after.bias_v_deg)


def test_randomize_knobs_validation():
    ws = place_component(new_workspace(0), _mirror(), Pose(100.0, 0.0))
    with pytest.raises(WorkspaceError):
        randomize_knobs(ws, [])
    with pytest.raises(WorkspaceError):
        randomize_knobs(ws, ["m"], 60.0, 30.0)
    ws = place_component(ws, _ndf(), Pose(50.0, 0.0))
    with pytest.raises(NoKnobsError):
        randomize_knobs(ws, ["f"])


def test_rotate_crystal_sets_absolute_angle():
    crystal = Component(id="x", kind=ComponentKind.CRYSTAL, pose=Pose(0, 0),
                        params={"theta_deg": 0.0})
    ws = place_component(new_workspace(0), crystal, Pose(100.0, 0.0))
    ws = rotate_crystal(ws, "x", 1.4)
    ws = rotate_crystal(ws, "x", 0.6)
    assert ws.component("x").param("theta_deg") == 0.6
    with pytest.raises(WorkspaceError):
        rotate_crystal(place_component(ws, _ndf(), Pose(50.0, 0.0)), "f", 1.0)


def test_inject_displacement_is_exact_and_uncounted():
    ws = place_component(new_workspace(0, placement_noise_sigma=0.0),
                         _ndf(), Pose(100.0, 0.0))
    n0, rng0 = ws.action_count, ws.rng_state
    ws2 = inject_displacement(ws, "f", dx=0.5, dy=-8.25)
    pose = ws2.component("f").pose
    assert (pose.x, pose.y) == (100.5, -8.25)
    assert ws2.action_count == n0
    assert ws2.rng_state is rng0


def test_snapshot_detects_only_suprathreshold_displacement():
    ws = place_component(new_workspace(0, placement_noise_sigma=0.0),
                         _ndf(), Pose(100.0, 0.0))
    with pytest.raises(NoSnapshotError):
        detect_displacement(ws)
    ws = take_snapshot(ws)
    assert detect_displacement(ws) == []
    nudged = inject_displacement(ws, "f", dy=0.4)
    assert detect_displacement(nudged) == []
    shoved = inject_displacement(ws, "f", dx=3.0, dy=4.0)
    assert detect_displacement(shoved) == [("f", pytest.approx(5.0))]


def test_reseed_replays_the_noise_stream():
    def run(ws):
        ws = place_component(ws, _ndf("a"), Pose(100.0, 0.0))
        ws = move_component(ws, "a", Pose(120.0, 1.0))
        return ws.component("a").pose

    fresh = run(new_workspace(21))
    recycled = run(reseed(new_workspace(99), 21))
    assert (fresh.x, fresh.y) == (recycled.x, recycled.y)


def test_replay_determinism_full_state():
    def run():
        ws = new_workspace(17)
        ws = place_component(ws, _mirror(), Pose(150.0, 0.0))
        ws = place_component(ws, _ndf(), Pose(60.0, 0.0))
        ws = turn_knob(ws, "m", "h", 12.5)
        ws = move_component(ws, "f", Pose(70.0, 0.5))
        ws = take_snapshot(ws)
        return ws.to_dict()

    assert run() == run()


def test_workspace_serialization_round_trip():
    ws = new_workspace(8, placement_noise_sigma=0.2)
    ws = place_component(ws, _mirror(), Pose(150.0, 0.0))
    ws = take_snapshot(ws)
    back = Workspace.from_dict(ws.to_dict())
    assert back.to_dict() == ws.to_dict()
    # the restored stream continues exactly where the original left off
    a = place_component(ws, _ndf(), Pose(60.0, 0.0)).component("f").pose
    b = place_component(back, _ndf(), Pose(60.0, 0.0)).component("f").pose
    assert (a.x, a.y) == (b.x, b.y)
