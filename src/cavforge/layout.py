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
import math
from dataclasses import dataclass, field

from .errors import LayoutError
from .physics import PhysicsConfig
from .simcore import (
    Component,
    ComponentKind,
    KnobPair,
    Pose,
    Workspace,
    rng_state_from_seed,
)

SCHEMA_VERSION = 1

_TOP_FIELDS = {
    "schema_version", "seed", "placement_noise_sigma_mm", "tilt_per_turn_deg",
    "table_bounds_mm", "physics", "components",
}
_RECORD_FIELDS = {
    "id", "kind", "nominal_x_mm", "nominal_y_mm", "nominal_z_mm", "yaw_deg",
    "housing_offset_mm", "params",
}
_PARAMS_BY_KIND = {
    ComponentKind.PUMP_SOURCE: {"power", "waist_mm"},
    ComponentKind.MIRROR_IC: {"pump_transmission", "pump_reflectivity",
                              "substrate_focal_mm", "knob_jitter_deg", "aperture_mm"},
    ComponentKind.MIRROR_OC: {"pump_transmission", "pump_reflectivity",
                              "substrate_focal_mm", "knob_jitter_deg", "aperture_mm"},
    ComponentKind.LENS: {"focal_length_mm", "aperture_mm"},
    ComponentKind.BEAM_SPLITTER: {"split_ratio", "arm_camera", "aperture_mm"},
    ComponentKind.NDF: {"transmittance", "aperture_mm"},
    ComponentKind.BPF: {"passband", "aperture_mm"},
    ComponentKind.BEAM_BLOCK: {"aperture_mm"},
    ComponentKind.CRYSTAL: {"theta_deg", "theta_opt_deg", "aperture_mm"},
    ComponentKind.CAMERA: {"width_px", "height_px", "pixel_pitch_mm",
                           "body_halfwidth_mm", "gain_pump", "gain_laser"},
}
_PHYSICS_FIELDS = set(PhysicsConfig().to_dict().keys())


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


def _require_number(value, where, minimum=None, maximum=None, allow_equal=True):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise LayoutError(f"{where} must be a finite number, got {value!r}")
    v = float(value)
    if minimum is not None and (v < minimum or (not allow_equal and v == minimum)):
        raise LayoutError(f"{where} must be {'>' if not allow_equal else '>='} {minimum}")
    if maximum is not None and v > maximum:
        raise LayoutError(f"{where} must be <= {maximum}")
    return v


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
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise LayoutError("seed must be an integer")
    sigma = _require_number(data.get("placement_noise_sigma_mm", 0.1),
                            "placement_noise_sigma_mm", minimum=0.0)
    tpt = _require_number(data.get("tilt_per_turn_deg", 0.5),
                          "tilt_per_turn_deg", minimum=0.0, allow_equal=False)
    bounds_raw = data.get("table_bounds_mm", [[-50.0, 800.0], [-250.0, 250.0]])
    try:
        (xmin, xmax), (ymin, ymax) = bounds_raw
        bounds = ((float(xmin), float(xmax)), (float(ymin), float(ymax)))
    except (TypeError, ValueError) as exc:
        raise LayoutError("table_bounds_mm must be [[xmin,xmax],[ymin,ymax]]") from exc
    if bounds[0][0] >= bounds[0][1] or bounds[1][0] >= bounds[1][1]:
        raise LayoutError("table bounds must be increasing intervals")

    phys_raw = data.get("physics", {})
    if not isinstance(phys_raw, dict):
        raise LayoutError("physics must be an object")
    unknown = set(phys_raw) - _PHYSICS_FIELDS
    if unknown:
        raise LayoutError(f"unknown physics fields: {sorted(unknown)}")
    physics = PhysicsConfig.from_dict({**PhysicsConfig().to_dict(), **phys_raw})

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
        try:
            kind = ComponentKind(rec.get("kind"))
        except ValueError:
            raise LayoutError(f"{where} has unknown kind {rec.get('kind')!r}") from None
        params = rec.get("params", {})
        if not isinstance(params, dict):
            raise LayoutError(f"{where} params must be an object")
        allowed = _PARAMS_BY_KIND[kind]
        unknown = set(params) - allowed
        if unknown:
            raise LayoutError(f"{where} ({kind.value}) has unknown params: {sorted(unknown)}")
        _validate_params(kind, params, where)
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
        seed=seed,
        placement_noise_sigma=sigma,
        tilt_per_turn_deg=tpt,
        table_bounds=bounds,
        physics=physics,
        records=tuple(records),
        raw=copy.deepcopy(data),
    )


def _validate_params(kind: ComponentKind, params: dict, where: str):
    if kind == ComponentKind.LENS:
        if "focal_length_mm" not in params:
            raise LayoutError(f"{where}: lens needs focal_length_mm")
        _require_number(params["focal_length_mm"], f"{where}.focal_length_mm",
                        minimum=0.0, allow_equal=False)
    if kind == ComponentKind.NDF and "transmittance" in params:
        _require_number(params["transmittance"], f"{where}.transmittance",
                        minimum=0.0, maximum=1.0, allow_equal=False)
    if kind == ComponentKind.BEAM_SPLITTER and "split_ratio" in params:
        v = _require_number(params["split_ratio"], f"{where}.split_ratio", 0.0, 1.0)
        if v in (0.0, 1.0):
            raise LayoutError(f"{where}: split_ratio must be strictly inside (0,1)")
    if kind in (ComponentKind.MIRROR_IC, ComponentKind.MIRROR_OC):
        t = params.get("pump_transmission")
        r = params.get("pump_reflectivity")
        if t is not None:
            _require_number(t, f"{where}.pump_transmission", 0.0, 1.0)
        if r is not None:
            _require_number(r, f"{where}.pump_reflectivity", 0.0, 1.0)
        if t is not None and r is not None and t + r > 1.0 + 1e-12:
            raise LayoutError(f"{where}: pump_transmission + pump_reflectivity > 1")
    if kind == ComponentKind.CAMERA:
        for key in ("width_px", "height_px"):
            if key in params:
                v = params[key]
                if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                    raise LayoutError(f"{where}.{key} must be a positive integer")
        if "pixel_pitch_mm" in params:
            _require_number(params["pixel_pitch_mm"], f"{where}.pixel_pitch_mm",
                            0.0, allow_equal=False)


def load_layout(path) -> Layout:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LayoutError(f"cannot read layout file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LayoutError(f"layout file {path} is not valid JSON: {exc}") from exc
    return validate_layout(data)


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
    pump_rec = pumps[0]
    pump = Component(
        id=pump_rec.id,
        kind=ComponentKind.PUMP_SOURCE,
        pose=pump_rec.nominal_pose(),
        params=dict(pump_rec.params),
        housing_offset=pump_rec.housing_offset,
        seq=0,
    )
    return Workspace(
        components=(pump,),
        rng_state=rng_state_from_seed(layout.seed if seed is None else seed),
        placement_noise_sigma=layout.placement_noise_sigma,
        table_bounds=layout.table_bounds,
        physics=layout.physics,
    )
