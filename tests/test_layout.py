import dataclasses
import json
import math
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavforge.errors import LayoutError
from cavforge.layout import (apply_overrides, build_workspace, default_layout,
                             load_layout, validate_layout)
from cavforge.physics import PhysicsConfig
from cavforge.simcore import COMPONENT_PARAMS, ComponentKind, new_workspace


def _valid():
    return default_layout()


def test_default_layout_validates():
    layout = validate_layout(_valid())
    assert layout.seed == 42
    assert layout.placement_noise_sigma == 0.1
    assert len(layout.records) == 11
    assert layout.record("lens").params["focal_length_mm"] == 100.0
    assert layout.raw == _valid()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(extra=1), "unknown layout fields"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.update(seed="42"), "seed must be an integer"),
    (lambda d: d.update(seed=True), "seed must be an integer"),
    (lambda d: d.update(placement_noise_sigma_mm=-0.1), "placement_noise_sigma_mm"),
    (lambda d: d.update(tilt_per_turn_deg=0.0), "tilt_per_turn_deg"),
    (lambda d: d.update(table_bounds_mm=[[0, 0], [-1, 1]]), "increasing"),
    (lambda d: d.update(table_bounds_mm="wide"), "table_bounds_mm"),
    (lambda d: d.update(physics=[1]), "physics must be an object"),
    (lambda d: d["physics"].update(gravity=9.8), "unknown physics fields"),
    (lambda d: d["physics"].update(p_threshold="x"), "physics.p_threshold"),
    (lambda d: d["physics"].update(mode_band_edges=3), "physics.mode_band_edges"),
    (lambda d: d["physics"].update(max_bounces=1.5), "physics.max_bounces"),
    (lambda d: d["physics"].update(pump_wavelength_mm=0), "physics.pump_wavelength_mm"),
    (lambda d: d["physics"].update(laser_wavelength_mm=0), "physics.laser_wavelength_mm"),
    (lambda d: d["physics"].update(pump_waist_mm=0), "physics.pump_waist_mm"),
    (lambda d: d["physics"].update(laser_waist_mm=0), "physics.laser_waist_mm"),
    (lambda d: d["physics"].update(ref_tilt_deg=0), "physics.ref_tilt_deg"),
    (lambda d: d["physics"].update(ref_lens_offset_mm=0), "physics.ref_lens_offset_mm"),
    (lambda d: d["physics"].update(ref_crystal_deg=0), "physics.ref_crystal_deg"),
    (lambda d: d.update(components=[]), "non-empty list"),
    (lambda d: d.update(table_bounds_mm=[[-50, float("inf")], [-250, 250]]),
     "table_bounds_mm must be a finite number"),
    (lambda d: d.update(table_bounds_mm=[[-50, 800], [float("nan"), 250]]),
     "table_bounds_mm must be a finite number"),
    (lambda d: d.update(seed=-1), "seed must be >= 0"),
    (lambda d: d["physics"].update(p_threshold=0), "physics.p_threshold must be > 0"),
    (lambda d: d["physics"].update(slope_efficiency=0), "physics.slope_efficiency"),
    (lambda d: d["physics"].update(m_cutoff=0), "physics.m_cutoff must be > 0"),
    (lambda d: d["physics"].update(threshold_curvature=-0.1),
     "physics.threshold_curvature must be >= 0"),
    (lambda d: d["physics"].update(fluorescence_scale=-0.1), "physics.fluorescence_scale"),
    (lambda d: d["physics"].update(aperture_mm=-1), "physics.aperture_mm must be > 0"),
    (lambda d: d["physics"].update(min_power_fraction=-1e-5),
     "physics.min_power_fraction must be >= 0"),
    (lambda d: d["physics"].update(min_power_fraction=1.5),
     "physics.min_power_fraction must be <= 1"),
    (lambda d: d["physics"].update(max_bounces=-1), "physics.max_bounces must be >= 0"),
])
def test_top_level_validation(mutate, message):
    data = _valid()
    mutate(data)
    with pytest.raises(LayoutError, match=message):
        validate_layout(data)


def _component(data, cid):
    return next(c for c in data["components"] if c["id"] == cid)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: _component(d, "lens").update(id="pump"), "duplicate component id"),
    (lambda d: _component(d, "lens").update(id=""), "non-empty string id"),
    (lambda d: _component(d, "lens").update(kind="Prism"), "unknown kind"),
    (lambda d: _component(d, "lens").update(color="red"), "unknown fields"),
    (lambda d: _component(d, "lens")["params"].update(tint=1), "unknown params"),
    (lambda d: _component(d, "lens")["params"].pop("focal_length_mm"),
     "needs focal_length_mm"),
    (lambda d: _component(d, "lens")["params"].update(focal_length_mm=0),
     "focal_length_mm"),
    (lambda d: _component(d, "ndf")["params"].update(transmittance=0.0),
     "transmittance"),
    (lambda d: _component(d, "ndf")["params"].update(transmittance=1.5),
     "transmittance"),
    (lambda d: _component(d, "bs")["params"].update(split_ratio=1.0),
     "split_ratio"),
    (lambda d: _component(d, "oc")["params"].update(pump_transmission=0.8,
                                                    pump_reflectivity=0.5),
     "pump_transmission"),
    (lambda d: _component(d, "cam1")["params"].update(width_px=3.5),
     "width_px"),
    (lambda d: _component(d, "cam1")["params"].update(width_px=4097),
     "width_px must be <= 4096"),
    (lambda d: _component(d, "cam1")["params"].update(height_px=4097),
     "height_px must be <= 4096"),
    (lambda d: _component(d, "cam1")["params"].update(pixel_pitch_mm=0),
     "pixel_pitch_mm"),
    (lambda d: _component(d, "cam1")["params"].update(gain_pump="x"),
     "gain_pump must be a finite number"),
    (lambda d: _component(d, "pump").update(nominal_x_mm=float("nan")),
     "finite number"),
    (lambda d: _component(d, "pump")["params"].update(waist_mm=0),
     "waist_mm must be > 0"),
    (lambda d: _component(d, "pump")["params"].update(waist_mm=-0.3),
     "waist_mm must be > 0.0"),
    (lambda d: _component(d, "pump")["params"].update(power=0), "power must be > 0"),
    (lambda d: _component(d, "pump")["params"].update(power=-1), "power must be > 0"),
    (lambda d: _component(d, "cam1")["params"].update(gain_pump=-1),
     "gain_pump must be >= 0"),
    (lambda d: _component(d, "cam1")["params"].update(gain_laser=-1),
     "gain_laser must be >= 0"),
    (lambda d: _component(d, "cam1")["params"].update(body_halfwidth_mm=0),
     "body_halfwidth_mm must be > 0"),
    (lambda d: _component(d, "lens")["params"].update(aperture_mm=0),
     "aperture_mm must be > 0"),
    (lambda d: _component(d, "ic")["params"].update(knob_jitter_deg=-1),
     "knob_jitter_deg must be >= 0"),
    (lambda d: _component(d, "bpf")["params"].update(passband="lazer"),
     "passband must be one of"),
])
def test_component_validation(mutate, message):
    data = _valid()
    mutate(data)
    with pytest.raises(LayoutError, match=message):
        validate_layout(data)


def test_a_sensor_of_4096_pixels_a_side_is_accepted():
    data = _valid()
    _component(data, "cam1")["params"].update(width_px=4096, height_px=4096)
    assert validate_layout(data).record("cam1").params["width_px"] == 4096


def test_exactly_one_pump_required():
    data = _valid()
    data["components"] = [c for c in data["components"] if c["id"] != "pump"]
    with pytest.raises(LayoutError, match="exactly one PumpSource"):
        validate_layout(data)
    data = _valid()
    clone = dict(_component(data, "pump"), id="pump2")
    data["components"].append(clone)
    with pytest.raises(LayoutError, match="exactly one PumpSource"):
        validate_layout(data)


def test_load_layout_file_round_trip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_valid()))
    layout = load_layout(path)
    assert layout.raw == _valid()
    with pytest.raises(LayoutError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        load_layout(bad)
    with pytest.raises(LayoutError, match="cannot read"):
        load_layout(tmp_path / "missing.json")


def test_apply_overrides_paths_and_values():
    data = apply_overrides(_valid(), [
        "seed=7",
        "physics.slope_efficiency=0.25",
        "components.lens.params.focal_length_mm=120",
        "components.ndf.params.transmittance=0.02",
    ])
    layout = validate_layout(data)
    assert layout.seed == 7
    assert layout.physics.slope_efficiency == 0.25
    assert layout.record("lens").params["focal_length_mm"] == 120
    assert layout.record("ndf").params["transmittance"] == 0.02
    # unquoted non-JSON stays a string
    data = apply_overrides(_valid(), ["components.bpf.params.passband=laser"])
    assert _component(data, "bpf")["params"]["passband"] == "laser"


def test_apply_overrides_rejects_bad_paths():
    with pytest.raises(LayoutError, match="key=value"):
        apply_overrides(_valid(), ["seed"])
    with pytest.raises(LayoutError, match="no component with id"):
        apply_overrides(_valid(), ["components.ghost.params.x=1"])
    with pytest.raises(LayoutError, match="ends on a list"):
        apply_overrides(_valid(), ["components.lens=1"])


def test_apply_overrides_does_not_mutate_input():
    data = _valid()
    apply_overrides(data, ["seed=9"])
    assert data["seed"] == 42


def test_template_knobs_follow_layout():
    data = _valid()
    data["tilt_per_turn_deg"] = 0.25
    layout = validate_layout(data)
    oc = layout.template("oc")
    assert oc.knobs.tilt_per_turn_deg == 0.25
    assert (oc.knobs.h_deg, oc.knobs.v_deg) == (0.0, 0.0)
    assert layout.template("ndf").knobs is None
    with pytest.raises(LayoutError):
        layout.template("ghost")


def test_build_workspace_bolts_down_only_the_pump():
    layout = validate_layout(_valid())
    ws = build_workspace(layout)
    assert [c.id for c in ws.components] == ["pump"]
    pose = ws.component("pump").pose
    assert (pose.x, pose.y) == (0.0, 0.0)
    assert pose.yaw == pytest.approx(0.02)
    assert ws.placement_noise_sigma == 0.1
    assert ws.physics is layout.physics
    # seed override swaps the noise stream, default uses the layout seed
    assert build_workspace(layout).rng_state == new_workspace(42).rng_state
    assert build_workspace(layout, 7).rng_state == new_workspace(7).rng_state


def _declared_targets():
    """(``--set`` path, name the error must give, type, allowed, other params)
    for every parameter declared for the kind of a stock component (its first
    of that kind) and every PhysicsConfig field."""
    targets = []
    comps = default_layout()["components"]
    for kind, declared in COMPONENT_PARAMS.items():
        i, rec = next((i, c) for i, c in enumerate(comps) if c["kind"] == kind.value)
        for name, (ptype, _, allowed) in declared.items():
            others = {k: v for k, v in rec["params"].items() if k != name}
            targets.append((f"components.{rec['id']}.params.{name}",
                            f"components[{i}]", name, ptype, allowed, others))
    hints = typing.get_type_hints(PhysicsConfig)
    for f in dataclasses.fields(PhysicsConfig):
        targets.append((f"physics.{f.name}", f"physics.{f.name}", f.name,
                        hints[f.name], f.metadata["allowed"], {}))
    return targets


def _admits(ptype, allowed, others, name, value):
    """Whether ``value`` is of the declared type inside the declared range."""
    def number(v):
        finite = abs(v) <= sys.float_info.max if type(v) is int else math.isfinite(v)
        return (finite and (allowed.lo < v or (v == allowed.lo and not allowed.lo_open))
                and (v < allowed.hi or (v == allowed.hi and not allowed.hi_open)))

    if ptype is str:
        return type(value) is str and (allowed is None or value in allowed)
    if ptype is tuple:
        return (type(value) is list and all(type(v) in (int, float) and number(v)
                                            for v in value)
                and all(a < b for a, b in zip(value, value[1:])))
    if type(value) not in ((int,) if ptype is int else (int, float)) or not number(value):
        return False
    # the one cross-field rule a single value can break on a stock mirror
    partner = {"pump_transmission": "pump_reflectivity",
               "pump_reflectivity": "pump_transmission"}.get(name)
    return partner not in others or value + others[partner] <= 1.0 + 1e-12


def _assert_accepted_exactly_inside_its_range(target, value):
    path, where, name, ptype, allowed, others = target
    data = apply_overrides(_valid(), [f"{path}={json.dumps(value)}"])
    try:
        validate_layout(data)
    except LayoutError as exc:
        assert not _admits(ptype, allowed, others, name, value), exc
        assert where in str(exc) and name in str(exc), exc
    else:
        assert _admits(ptype, allowed, others, name, value), (path, value)


_TARGETS = _declared_targets()
# Each declared range's ends, a step either side of them, and every type.
_EDGES = [0, 1, -1, 0.0, -0.0, 1.0, 0.5, -1e-300, 1.0 + 2**-52, 1e-200, 1e308, 10**400,
          float("nan"), float("inf"), float("-inf"), True, False, None,
          "pump", "laser", "lazer", "", [], [1.3, 2.3], [2, 1], [0.5, float("nan")],
          4096, 4097]
_VALUES = st.one_of(
    st.sampled_from(_EDGES), st.floats(), st.integers(), st.booleans(),
    st.text(max_size=6), st.none(),
    st.lists(st.one_of(st.floats(), st.integers(-5, 5), st.sampled_from(_EDGES[:15])),
             max_size=5),
)


def test_every_declared_value_at_the_edges_of_its_range():
    for target in _TARGETS:
        for value in _EDGES:
            _assert_accepted_exactly_inside_its_range(target, value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_TARGETS), _VALUES)
def test_declared_values_are_accepted_exactly_inside_their_range(target, value):
    _assert_accepted_exactly_inside_its_range(target, value)
