"""Layout files: the declarative table description consumed by the CLI and
pipeline.

A layout lists every component with its nominal position and kind-specific
parameters, plus global noise/knob settings and optional physics overrides.
Validation is strict: unknown fields anywhere are rejected so a typo cannot
silently change an experiment.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .errors import LayoutError
from .physics import PhysicsConfig
from .simcore import (ANY, COMPONENT_PARAMS, DEFAULT_TABLE_BOUNDS, KNOB_DEG, NONNEGATIVE,
                      TILT_PER_TURN, Component, ComponentKind, KnobPair, Pose, Workspace,
                      rng_state_from_seed)

SCHEMA_VERSION = 1

# The scalar top-level settings: type, the value a layout that omits one
# reads (simcore's default), and the values allowed.
_SETTINGS = {
    "seed": (int, 0, NONNEGATIVE),
    "placement_noise_sigma_mm": (float, Workspace.placement_noise_sigma, NONNEGATIVE),
    "tilt_per_turn_deg": (float, KnobPair.tilt_per_turn_deg, TILT_PER_TURN),
}
_TOP_FIELDS = {"schema_version", *_SETTINGS, "table_bounds_mm", "physics", "components"}
_RECORD_FIELDS = {
    "id", "kind", "nominal_x_mm", "nominal_y_mm", "nominal_z_mm", "yaw_deg",
    "housing_offset_mm", "params",
}
# Each physics field's type and the values a layout may override it with.
_PHYSICS_FIELDS = {f.name: (get_type_hints(PhysicsConfig)[f.name], f.metadata["allowed"])
                   for f in fields(PhysicsConfig)}


@dataclass(frozen=True)
class ComponentRecord:
    id: str
    kind: ComponentKind
    x: float
    y: float
    z: float
    yaw: float
    housing_offset: float
    params: dict

    def nominal_pose(self) -> Pose:
        return Pose(self.x, self.y, self.z, self.yaw)


@dataclass(frozen=True)
class Layout:
    seed: int
    placement_noise_sigma: float
    tilt_per_turn_deg: float
    table_bounds: tuple
    physics: PhysicsConfig
    records: tuple
    raw: dict = field(repr=False, default_factory=dict)

    def record(self, component_id: str) -> ComponentRecord:
        for r in self.records:
            if r.id == component_id:
                return r
        raise LayoutError(f"layout has no component {component_id!r}")

    def records_of_kind(self, kind: ComponentKind):
        return [r for r in self.records if r.kind == kind]

    def template(self, component_id: str) -> Component:
        """A component ready to hand to place_component."""
        rec = self.record(component_id)
        knobs = None
        if rec.kind in (ComponentKind.MIRROR_IC, ComponentKind.MIRROR_OC):
            knobs = KnobPair(0.0, 0.0, self.tilt_per_turn_deg)
        return Component(
            id=rec.id,
            kind=rec.kind,
            pose=rec.nominal_pose(),
            knobs=knobs,
            params=dict(rec.params),
            housing_offset=rec.housing_offset,
        )


def _require_number(value, where, allowed=ANY) -> float:
    # The comparison fails for NaN, infinities and ints too large for a float.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise LayoutError(f"{where} must be a finite number, got {value!r}")
    bound = allowed.violation(value)
    if bound is not None:
        raise LayoutError(f"{where} must be {bound}")
    return float(value)


def check_value(value, kind, allowed, where):
    """Raise LayoutError unless ``value`` is a ``kind`` that ``allowed`` admits.

    ``float`` takes any finite number and ``int`` an integer, inside the
    Interval ``allowed``; ``tuple`` takes an increasing list of such numbers;
    ``str`` takes one of the ``allowed`` strings, or any string if None.
    """
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise LayoutError(f"{where} must be a list of numbers")
        items = [_require_number(v, where, allowed) for v in value]
        if any(a >= b for a, b in zip(items, items[1:])):
            raise LayoutError(f"{where} must be increasing")
    elif kind is float:
        _require_number(value, where, allowed)
    elif not isinstance(value, kind) or isinstance(value, bool):
        name = "an integer" if kind is int else "a string"
        raise LayoutError(f"{where} must be {name}, got {value!r}")
    elif kind is int:
        _require_number(value, where, allowed)
    elif allowed is not None and value not in allowed:
        raise LayoutError(f"{where} must be one of {list(allowed)}, got {value!r}")


def check_knobs(knobs: dict, where: str) -> None:
    """Raise LayoutError unless each :class:`KnobPair` field in ``knobs`` is a
    number in its interval: ``TILT_PER_TURN`` for ``tilt_per_turn_deg``,
    ``KNOB_DEG`` for the readings and biases."""
    for f in fields(KnobPair):
        if f.name in knobs:
            allowed = TILT_PER_TURN if f.name == "tilt_per_turn_deg" else KNOB_DEG
            check_value(knobs[f.name], float, allowed, f"{where}.knobs.{f.name}")


def check_seed(seed) -> None:
    """Raise LayoutError unless ``seed`` is a value the layout's ``seed`` admits."""
    kind, _, allowed = _SETTINGS["seed"]
    check_value(seed, kind, allowed, "seed")


def validate_layout(data: dict) -> Layout:
    """Validate a layout dict and return the typed form.

    Raises LayoutError on unknown fields, duplicate ids, bad kinds, or
    out-of-range values.
    """
    if not isinstance(data, dict):
        raise LayoutError("layout must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise LayoutError(f"unknown layout fields: {sorted(unknown)}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise LayoutError(f"schema_version must be {SCHEMA_VERSION}")
    settings = {}
    for name, (kind, default, allowed) in _SETTINGS.items():
        settings[name] = data.get(name, default)
        check_value(settings[name], kind, allowed, name)
    try:
        (xmin, xmax), (ymin, ymax) = data.get("table_bounds_mm", DEFAULT_TABLE_BOUNDS)
    except (TypeError, ValueError) as exc:
        raise LayoutError("table_bounds_mm must be [[xmin,xmax],[ymin,ymax]]") from exc
    bounds = ((xmin, xmax), (ymin, ymax))
    for pair in bounds:
        check_value(pair, tuple, ANY, "table_bounds_mm")

    physics = _validate_physics(data.get("physics", {}))

    comps = data.get("components")
    if not isinstance(comps, list) or not comps:
        raise LayoutError("components must be a non-empty list")
    records = []
    seen = set()
    for i, rec in enumerate(comps):
        where = f"components[{i}]"
        if not isinstance(rec, dict):
            raise LayoutError(f"{where} must be an object")
        unknown = set(rec) - _RECORD_FIELDS
        if unknown:
            raise LayoutError(f"{where} has unknown fields: {sorted(unknown)}")
        cid = rec.get("id")
        if not isinstance(cid, str) or not cid:
            raise LayoutError(f"{where} needs a non-empty string id")
        if cid in seen:
            raise LayoutError(f"duplicate component id {cid!r}")
        seen.add(cid)
        params = rec.get("params", {})
        kind = validate_component(rec.get("kind"), params, where)
        records.append(ComponentRecord(
            id=cid,
            kind=kind,
            x=_require_number(rec.get("nominal_x_mm", 0.0), f"{where}.nominal_x_mm"),
            y=_require_number(rec.get("nominal_y_mm", 0.0), f"{where}.nominal_y_mm"),
            z=_require_number(rec.get("nominal_z_mm", 0.0), f"{where}.nominal_z_mm"),
            yaw=_require_number(rec.get("yaw_deg", 0.0), f"{where}.yaw_deg"),
            housing_offset=_require_number(rec.get("housing_offset_mm", 0.0),
                                           f"{where}.housing_offset_mm"),
            params=dict(params),
        ))
    n_pumps = sum(1 for r in records if r.kind == ComponentKind.PUMP_SOURCE)
    if n_pumps != 1:
        raise LayoutError(f"layout must declare exactly one PumpSource, found {n_pumps}")
    return Layout(
        seed=settings["seed"],
        placement_noise_sigma=float(settings["placement_noise_sigma_mm"]),
        tilt_per_turn_deg=float(settings["tilt_per_turn_deg"]),
        table_bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        physics=physics,
        records=tuple(records),
        raw=copy.deepcopy(data),
    )


def validate_component(kind, params, where) -> ComponentKind:
    """Check one component's kind and params; return the kind.

    Layout records and the components of a saved workspace both pass here.
    """
    try:
        kind = ComponentKind(kind)
    except ValueError:
        raise LayoutError(f"{where} has unknown kind {kind!r}") from None
    if not isinstance(params, dict):
        raise LayoutError(f"{where} params must be an object")
    declared = COMPONENT_PARAMS[kind]
    unknown = set(params) - set(declared)
    if unknown:
        raise LayoutError(f"{where} ({kind.value}) has unknown params: {sorted(unknown)}")
    for key, value in params.items():
        ptype, _, allowed = declared[key]
        check_value(value, ptype, allowed, f"{where}.{key}")
    if kind == ComponentKind.LENS and "focal_length_mm" not in params:
        raise LayoutError(f"{where}: lens needs focal_length_mm")
    t, r = params.get("pump_transmission"), params.get("pump_reflectivity")
    if t is not None and r is not None and t + r > 1.0 + 1e-12:
        raise LayoutError(f"{where}: pump_transmission + pump_reflectivity > 1")
    return kind


def _validate_physics(raw) -> PhysicsConfig:
    """PhysicsConfig with the layout's overrides, each checked against its field."""
    if not isinstance(raw, dict):
        raise LayoutError("physics must be an object")
    unknown = set(raw) - set(_PHYSICS_FIELDS)
    if unknown:
        raise LayoutError(f"unknown physics fields: {sorted(unknown)}")
    for name, value in raw.items():
        check_value(value, *_PHYSICS_FIELDS[name], f"physics.{name}")
    return replace(PhysicsConfig(), **{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in raw.items()})


def read_layout(path) -> dict:
    """The raw, unvalidated layout dict stored in a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise LayoutError(f"cannot read layout file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LayoutError(f"layout file {path} is not valid JSON: {exc}") from exc


def load_layout(path) -> Layout:
    return validate_layout(read_layout(path))


def apply_overrides(data: dict, assignments) -> dict:
    """Apply ``--set path=value`` assignments to a layout dict.

    Paths are dot-separated. Inside ``components`` the next path element is
    a component id rather than an index, e.g.
    ``components.lens.params.focal_length_mm=120``.
    """
    out = copy.deepcopy(data)
    for item in assignments or []:
        if "=" not in item:
            raise LayoutError(f"--set expects key=value, got {item!r}")
        path, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        keys = path.split(".")
        node = out
        for j, key in enumerate(keys[:-1]):
            if isinstance(node, list):
                node = _component_by_id(node, key, path)
            elif key in node:
                node = node[key]
            else:
                node[key] = {}
                node = node[key]
        last = keys[-1]
        if isinstance(node, list):
            raise LayoutError(f"--set path {path!r} ends on a list")
        node[last] = value
    return out


def _component_by_id(records, cid, path):
    for rec in records:
        if isinstance(rec, dict) and rec.get("id") == cid:
            return rec
    raise LayoutError(f"--set path {path!r}: no component with id {cid!r}")


def default_layout() -> dict:
    """The stock single-cavity table used by the CLI when no layout is given."""
    return {
        "schema_version": 1,
        "seed": 42,
        "placement_noise_sigma_mm": 0.1,
        "tilt_per_turn_deg": 0.5,
        "physics": {},
        "components": [
            {"id": "pump", "kind": "PumpSource", "nominal_x_mm": 0.0,
             "yaw_deg": 0.02, "params": {"power": 2.0, "waist_mm": 0.3}},
            {"id": "ndf", "kind": "NDF", "nominal_x_mm": 60.0,
             "params": {"transmittance": 0.01}},
            {"id": "bs", "kind": "BeamSplitter", "nominal_x_mm": 120.0,
             "params": {"split_ratio": 0.4, "arm_camera": "cam2"}},
            {"id": "bb", "kind": "BeamBlock", "nominal_x_mm": 150.0, "params": {}},
            {"id": "lens", "kind": "Lens", "nominal_x_mm": 200.0,
             "housing_offset_mm": 0.1, "params": {"focal_length_mm": 100.0}},
            {"id": "ic", "kind": "Mirror_IC", "nominal_x_mm": 260.0,
             "params": {"pump_transmission": 0.7, "pump_reflectivity": 0.3,
                        "knob_jitter_deg": 40.0}},
            {"id": "crystal", "kind": "Crystal", "nominal_x_mm": 300.0,
             "params": {"theta_deg": 0.0, "theta_opt_deg": 1.3}},
            {"id": "oc", "kind": "Mirror_OC", "nominal_x_mm": 360.0,
             "housing_offset_mm": 0.1,
             "params": {"pump_transmission": 0.5, "pump_reflectivity": 0.5,
                        "substrate_focal_mm": -500.0, "knob_jitter_deg": 40.0}},
            {"id": "bpf", "kind": "BPF", "nominal_x_mm": 400.0,
             "params": {"passband": "laser"}},
            {"id": "cam1", "kind": "Camera", "nominal_x_mm": 440.0,
             "params": {"gain_pump": 35.0, "gain_laser": 2.0}},
            {"id": "cam2", "kind": "Camera", "nominal_x_mm": 120.0,
             "nominal_y_mm": 100.0, "params": {"gain_pump": 35.0}},
        ],
    }


def build_workspace(layout: Layout, seed=None) -> Workspace:
    """An initial workspace for the layout: the pump is bolted down at its
    exact nominal pose, everything else waits on the rack."""
    pumps = layout.records_of_kind(ComponentKind.PUMP_SOURCE)
    if not pumps:
        raise LayoutError("layout has no pump source")
    pump = layout.template(pumps[0].id)
    return Workspace(
        components=(pump,),
        rng_state=rng_state_from_seed(layout.seed if seed is None else seed),
        placement_noise_sigma=layout.placement_noise_sigma,
        table_bounds=layout.table_bounds,
        physics=layout.physics,
    )
