"""Optical-table state and the arm-level operations that change it.

A :class:`Workspace` is a value: every operation returns a new workspace and
leaves its input untouched, which is what makes seeded replay bit-exact. The
random stream lives inside the workspace as serialized PCG64 state, so a
sequence of operations on equal workspaces produces equal workspaces.

Units are millimetres and degrees throughout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateComponentError,
    NoKnobsError,
    NoSnapshotError,
    OutOfBoundsError,
    UnknownComponentError,
    WorkspaceError,
)

DEFAULT_TABLE_BOUNDS = ((-50.0, 800.0), (-250.0, 250.0))
PARK_Y = 200.0
# A component farther than this from its snapshot pose counts as displaced.
_DISPLACEMENT_TOLERANCE_MM = 1.0


def normalize_yaw(yaw_deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    wrapped = float((yaw_deg + 180.0) % 360.0 - 180.0)
    if wrapped == -180.0:
        wrapped = 180.0
    return wrapped


@dataclass(frozen=True)
class Pose:
    """Position and in-plane orientation of a component's optical center."""

    x: float
    y: float
    z: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z", "yaw"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise WorkspaceError(f"pose field {name} must be finite, got {v!r}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def shifted(self, dx=0.0, dy=0.0, dz=0.0, dyaw=0.0) -> "Pose":
        return Pose(self.x + dx, self.y + dy, self.z + dz, self.yaw + dyaw)

    def to_dict(self):
        return {"x": self.x, "y": self.y, "z": self.z, "yaw": self.yaw}

    @classmethod
    def from_dict(cls, d):
        return cls(d["x"], d["y"], d.get("z", 0.0), d.get("yaw", 0.0))


@dataclass(frozen=True)
class KnobPair:
    """Two adjustment knobs on a mirror mount.

    Readings are cumulative dial rotation in degrees. The mount seat adds an
    unknown bias on each axis (the dial zero says nothing about where the
    mirror actually points), so the physical tilt is
    ``(reading + bias) / 360 * tilt_per_turn_deg``. Controllers read and turn
    the dials; the bias is only visible to the optics model, which is what
    makes alignment a search rather than arithmetic. ``h`` tilts in-plane
    (camera x), ``v`` tilts out of plane (camera y).
    """

    h_deg: float = 0.0
    v_deg: float = 0.0
    tilt_per_turn_deg: float = 0.5
    bias_h_deg: float = 0.0
    bias_v_deg: float = 0.0

    def __post_init__(self):
        if self.tilt_per_turn_deg <= 0:
            raise WorkspaceError("tilt_per_turn_deg must be positive")

    @property
    def tilt_h_deg(self) -> float:
        return (self.h_deg + self.bias_h_deg) / 360.0 * self.tilt_per_turn_deg

    @property
    def tilt_v_deg(self) -> float:
        return (self.v_deg + self.bias_v_deg) / 360.0 * self.tilt_per_turn_deg

    def to_dict(self):
        return {
            "h_deg": self.h_deg,
            "v_deg": self.v_deg,
            "tilt_per_turn_deg": self.tilt_per_turn_deg,
            "bias_h_deg": self.bias_h_deg,
            "bias_v_deg": self.bias_v_deg,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["h_deg"], d["v_deg"], d["tilt_per_turn_deg"],
                   d.get("bias_h_deg", 0.0), d.get("bias_v_deg", 0.0))


class ComponentKind(str, Enum):
    PUMP_SOURCE = "PumpSource"
    MIRROR_IC = "Mirror_IC"
    MIRROR_OC = "Mirror_OC"
    LENS = "Lens"
    BEAM_SPLITTER = "BeamSplitter"
    NDF = "NDF"
    BPF = "BPF"
    BEAM_BLOCK = "BeamBlock"
    CRYSTAL = "Crystal"
    CAMERA = "Camera"


# Every parameter a component may declare, by kind: its type and the value a
# component that omits it reads. ``None`` marks a parameter with no fixed
# default: a lens must declare ``focal_length_mm``; the physics falls back to
# a PhysicsConfig field for ``aperture_mm`` and ``waist_mm`` and to
# 1 - ``pump_transmission`` for ``pump_reflectivity``; a mirror without
# ``substrate_focal_mm`` has a flat substrate, and a splitter without
# ``arm_camera`` feeds no camera.
_MIRROR_PARAMS = {
    "pump_transmission": (float, 0.5),
    "pump_reflectivity": (float, None),
    "substrate_focal_mm": (float, None),
    "knob_jitter_deg": (float, 0.0),
    "aperture_mm": (float, None),
}

COMPONENT_PARAMS = {
    ComponentKind.PUMP_SOURCE: {
        "power": (float, 1.0),
        "waist_mm": (float, None),
    },
    ComponentKind.MIRROR_IC: _MIRROR_PARAMS,
    ComponentKind.MIRROR_OC: _MIRROR_PARAMS,
    ComponentKind.LENS: {
        "focal_length_mm": (float, None),
        "aperture_mm": (float, None),
    },
    ComponentKind.BEAM_SPLITTER: {
        "split_ratio": (float, 0.5),
        "arm_camera": (str, None),
        "aperture_mm": (float, None),
    },
    ComponentKind.NDF: {
        "transmittance": (float, 1.0),
        "aperture_mm": (float, None),
    },
    ComponentKind.BPF: {
        "passband": (str, "laser"),
        "aperture_mm": (float, None),
    },
    ComponentKind.BEAM_BLOCK: {
        "aperture_mm": (float, None),
    },
    ComponentKind.CRYSTAL: {
        "theta_deg": (float, 0.0),
        "theta_opt_deg": (float, 0.0),
        "aperture_mm": (float, None),
    },
    ComponentKind.CAMERA: {
        "width_px": (int, 640),
        "height_px": (int, 480),
        "pixel_pitch_mm": (float, 0.01),
        "body_halfwidth_mm": (float, 15.0),
        "gain_pump": (float, 1.0),
        "gain_laser": (float, 1.0),
    },
}


@dataclass(frozen=True)
class Component:
    """One item on the table. ``params`` hold kind-specific scalars."""

    id: str
    kind: ComponentKind
    pose: Pose
    knobs: KnobPair | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    housing_offset: float = 0.0
    seq: int = 0

    def param(self, key):
        """The declared value of ``key``, else its COMPONENT_PARAMS default.

        Raises KeyError for a name the component's kind does not have.
        """
        return self.params.get(key, COMPONENT_PARAMS[self.kind][key][1])

    def to_dict(self):
        d = {
            "id": self.id,
            "kind": self.kind.value,
            "pose": self.pose.to_dict(),
            "params": dict(self.params),
            "housing_offset": self.housing_offset,
            "seq": self.seq,
        }
        if self.knobs is not None:
            d["knobs"] = self.knobs.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            id=d["id"],
            kind=ComponentKind(d["kind"]),
            pose=Pose.from_dict(d["pose"]),
            knobs=KnobPair.from_dict(d["knobs"]) if "knobs" in d else None,
            params=dict(d.get("params", {})),
            housing_offset=d.get("housing_offset", 0.0),
            seq=d.get("seq", 0),
        )


def rng_state_from_seed(seed: int):
    """PCG64 bit-generator state for ``seed``, as ``Workspace.rng_state`` holds it."""
    return np.random.Generator(np.random.PCG64(seed)).bit_generator.state


def _generator(state):
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = state
    return g


def _jsonable_rng_state(state):
    # PCG64 state contains arbitrary-size ints; json handles those natively.
    return {
        "bit_generator": state["bit_generator"],
        "state": {"state": int(state["state"]["state"]), "inc": int(state["state"]["inc"])},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


@dataclass(frozen=True)
class Workspace:
    """Everything on the table plus the seeded noise stream.

    ``components`` is kept sorted by pose.x (beam-path order, stable on
    ties). ``physics`` is the simulation constant block consumed by the
    optics layer; it rides along opaquely here.
    """

    components: tuple[Component, ...] = ()
    rng_state: Mapping[str, Any] = field(default_factory=lambda: rng_state_from_seed(0))
    placement_noise_sigma: float = 0.1
    table_bounds: tuple = DEFAULT_TABLE_BOUNDS
    snapshot: Mapping[str, Pose] | None = None
    action_count: int = 0
    physics: Any = None

    def component(self, component_id: str) -> Component:
        for c in self.components:
            if c.id == component_id:
                return c
        raise UnknownComponentError(f"no component with id {component_id!r}")

    def has(self, component_id: str) -> bool:
        return any(c.id == component_id for c in self.components)

    def find_kind(self, kind: ComponentKind) -> list[Component]:
        return [c for c in self.components if c.kind == kind]

    def to_dict(self):
        d = {
            "components": [c.to_dict() for c in self.components],
            "rng_state": _jsonable_rng_state(self.rng_state),
            "placement_noise_sigma": self.placement_noise_sigma,
            "table_bounds": [list(self.table_bounds[0]), list(self.table_bounds[1])],
            "action_count": self.action_count,
        }
        if self.snapshot is not None:
            d["snapshot"] = {k: p.to_dict() for k, p in sorted(self.snapshot.items())}
        return d

    @classmethod
    def from_dict(cls, d, physics=None):
        snapshot = None
        if "snapshot" in d:
            snapshot = {k: Pose.from_dict(p) for k, p in d["snapshot"].items()}
        return cls(
            components=tuple(Component.from_dict(c) for c in d["components"]),
            # decoding through the bit generator rejects a malformed state
            rng_state=_generator(d["rng_state"]).bit_generator.state,
            placement_noise_sigma=d["placement_noise_sigma"],
            table_bounds=(
                tuple(d["table_bounds"][0]),
                tuple(d["table_bounds"][1]),
            ),
            snapshot=snapshot,
            action_count=d["action_count"],
            physics=physics,
        )


def new_workspace(seed: int, placement_noise_sigma: float = 0.1,
                  table_bounds=DEFAULT_TABLE_BOUNDS, physics=None) -> Workspace:
    if placement_noise_sigma < 0:
        raise WorkspaceError("placement_noise_sigma must be >= 0")
    return Workspace(
        rng_state=rng_state_from_seed(seed),
        placement_noise_sigma=placement_noise_sigma,
        table_bounds=table_bounds,
        physics=physics,
    )


def _check_bounds(ws: Workspace, target: Pose):
    (xmin, xmax), (ymin, ymax) = ws.table_bounds
    if not (xmin <= target.x <= xmax and ymin <= target.y <= ymax):
        raise OutOfBoundsError(
            f"target ({target.x:.1f}, {target.y:.1f}) outside table bounds"
        )


def _sorted_components(components: Iterable[Component]) -> tuple[Component, ...]:
    return tuple(sorted(components, key=lambda c: (c.pose.x, c.seq)))


def _replace_component(ws: Workspace, updated: Component, extra=None) -> Workspace:
    comps = [updated if c.id == updated.id else c for c in ws.components]
    kwargs = {"components": _sorted_components(comps),
              "action_count": ws.action_count + 1}
    if extra:
        kwargs.update(extra)
    return dataclasses.replace(ws, **kwargs)


def place_component(ws: Workspace, component: Component, target: Pose) -> Workspace:
    """Pick a new component and set it down at ``target``.

    The achieved pose is the target plus Gaussian actuation noise on x and y
    and the systematic housing offset on y. Mirrors declaring a
    ``knob_jitter_deg`` param arrive with a seeded random mount bias, since
    nothing constrains the seat angle during transport; their dials read
    whatever the template carried (normally zero).
    """
    if ws.has(component.id):
        raise DuplicateComponentError(f"component {component.id!r} already placed")
    if component.kind == ComponentKind.PUMP_SOURCE and ws.find_kind(ComponentKind.PUMP_SOURCE):
        raise WorkspaceError("workspace already has a pump source")
    _check_bounds(ws, target)
    g = _generator(ws.rng_state)
    dx = g.normal(0.0, ws.placement_noise_sigma)
    dy = g.normal(0.0, ws.placement_noise_sigma)
    knobs = component.knobs
    jitter = 0.0 if knobs is None else float(component.param("knob_jitter_deg"))
    if jitter > 0.0:
        knobs = dataclasses.replace(
            knobs,
            bias_h_deg=g.uniform(-jitter, jitter),
            bias_v_deg=g.uniform(-jitter, jitter),
        )
    pose = Pose(target.x + dx, target.y + dy + component.housing_offset,
                target.z, target.yaw)
    seq = 1 + max((c.seq for c in ws.components), default=0)
    placed = dataclasses.replace(component, pose=pose, knobs=knobs, seq=seq)
    return dataclasses.replace(
        ws,
        components=_sorted_components(ws.components + (placed,)),
        rng_state=g.bit_generator.state,
        action_count=ws.action_count + 1,
    )


def move_component(ws: Workspace, component_id: str, target: Pose) -> Workspace:
    """Re-grip an existing component and set it down at ``target``.

    Fresh actuation noise applies on x and y; knob state is preserved.
    """
    comp = ws.component(component_id)
    _check_bounds(ws, target)
    g = _generator(ws.rng_state)
    dx = g.normal(0.0, ws.placement_noise_sigma)
    dy = g.normal(0.0, ws.placement_noise_sigma)
    pose = Pose(target.x + dx, target.y + dy, target.z, target.yaw)
    moved = dataclasses.replace(comp, pose=pose)
    return _replace_component(ws, moved, extra={"rng_state": g.bit_generator.state})


def park_component(ws: Workspace, component_id: str) -> Workspace:
    """Move a component well off the beam path (removal equivalent)."""
    comp = ws.component(component_id)
    return move_component(ws, component_id,
                          Pose(comp.pose.x, PARK_Y, comp.pose.z, comp.pose.yaw))


def turn_knob(ws: Workspace, component_id: str, axis: str, delta_deg: float) -> Workspace:
    """Rotate one mount knob by ``delta_deg`` (additive, no backlash)."""
    comp = ws.component(component_id)
    if comp.knobs is None:
        raise NoKnobsError(f"component {component_id!r} has no knobs")
    if axis not in ("h", "v"):
        raise WorkspaceError(f"knob axis must be 'h' or 'v', got {axis!r}")
    knobs = comp.knobs
    if axis == "h":
        knobs = dataclasses.replace(knobs, h_deg=knobs.h_deg + delta_deg)
    else:
        knobs = dataclasses.replace(knobs, v_deg=knobs.v_deg + delta_deg)
    return _replace_component(ws, dataclasses.replace(comp, knobs=knobs))


def set_knob_readings(ws: Workspace, component_id: str, h_deg: float, v_deg: float) -> Workspace:
    """Turn both knobs to absolute readings (two knob actions)."""
    comp = ws.component(component_id)
    if comp.knobs is None:
        raise NoKnobsError(f"component {component_id!r} has no knobs")
    ws = turn_knob(ws, component_id, "h", h_deg - comp.knobs.h_deg)
    return turn_knob(ws, component_id, "v", v_deg - ws.component(component_id).knobs.v_deg)


def knob_readings(ws: Workspace, component_ids) -> dict:
    """Dial readings ``{id: (h_deg, v_deg)}`` of the listed mirrors, in order."""
    readings = {}
    for cid in component_ids:
        knobs = ws.component(cid).knobs
        if knobs is None:
            raise NoKnobsError(f"component {cid!r} has no knobs")
        readings[cid] = (knobs.h_deg, knobs.v_deg)
    return readings


def apply_knob_readings(ws: Workspace, readings) -> Workspace:
    """Turn each mirror's knobs to its readings, as :func:`knob_readings`
    returns them, one mirror after another."""
    for cid, (h, v) in readings.items():
        ws = set_knob_readings(ws, cid, h, v)
    return ws


def rotate_crystal(ws: Workspace, component_id: str, theta_deg: float) -> Workspace:
    """Set a crystal's mount rotation to an absolute angle."""
    comp = ws.component(component_id)
    if comp.kind != ComponentKind.CRYSTAL:
        raise WorkspaceError(f"component {component_id!r} is not a crystal")
    if not np.isfinite(theta_deg):
        raise WorkspaceError("theta_deg must be finite")
    params = dict(comp.params)
    params["theta_deg"] = float(theta_deg)
    return _replace_component(ws, dataclasses.replace(comp, params=params))


def inject_displacement(ws: Workspace, component_id: str,
                        dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> Workspace:
    """External disturbance: offset a pose exactly, leaving snapshot and
    noise stream untouched. Not an arm action, so the action count holds."""
    comp = ws.component(component_id)
    moved = dataclasses.replace(comp, pose=comp.pose.shifted(dx, dy, dz))
    comps = [moved if c.id == component_id else c for c in ws.components]
    return dataclasses.replace(ws, components=_sorted_components(comps))


def randomize_knobs(ws: Workspace, component_ids, min_deg: float = 30.0,
                    max_deg: float = 60.0) -> Workspace:
    """Disturb each listed mirror's pointing by a random magnitude in
    [min_deg, max_deg] knob-degrees with random sign, per axis.

    The disturbance lands in the mount bias, not the dial readings: it
    models creep of the seat itself, so the dials afterwards still show
    their old values and recovery has to re-search. Seeded from the
    workspace stream; not an arm action.
    """
    ids = list(component_ids)
    if not ids:
        raise WorkspaceError("randomize_knobs needs at least one component id")
    if not (0 <= min_deg <= max_deg):
        raise WorkspaceError("need 0 <= min_deg <= max_deg")
    g = _generator(ws.rng_state)
    for cid in ids:
        comp = ws.component(cid)
        if comp.knobs is None:
            raise NoKnobsError(f"component {cid!r} has no knobs")
        knobs = comp.knobs
        for axis in ("h", "v"):
            magnitude = g.uniform(min_deg, max_deg)
            sign = 1.0 if g.integers(0, 2) == 1 else -1.0
            delta = sign * magnitude
            if axis == "h":
                knobs = dataclasses.replace(knobs, bias_h_deg=knobs.bias_h_deg + delta)
            else:
                knobs = dataclasses.replace(knobs, bias_v_deg=knobs.bias_v_deg + delta)
        comp = dataclasses.replace(comp, knobs=knobs)
        comps = [comp if c.id == cid else c for c in ws.components]
        ws = dataclasses.replace(ws, components=_sorted_components(comps))
    return dataclasses.replace(ws, rng_state=g.bit_generator.state)


def set_knob_bias(ws: Workspace, component_id: str, bias_h_deg: float,
                  bias_v_deg: float) -> Workspace:
    """External disturbance: set a mount's hidden seat error exactly.

    Like :func:`inject_displacement` this is scenario scaffolding, not an arm
    action: dial readings, the noise stream, and the action count all stay
    untouched. The controller cannot observe the change except through the
    optics.
    """
    comp = ws.component(component_id)
    if comp.knobs is None:
        raise NoKnobsError(f"component {component_id!r} has no knobs")
    if not (np.isfinite(bias_h_deg) and np.isfinite(bias_v_deg)):
        raise WorkspaceError("knob bias must be finite")
    knobs = dataclasses.replace(comp.knobs, bias_h_deg=float(bias_h_deg),
                                bias_v_deg=float(bias_v_deg))
    comps = [dataclasses.replace(comp, knobs=knobs) if c.id == component_id else c
             for c in ws.components]
    return dataclasses.replace(ws, components=_sorted_components(comps))


def reseed(ws: Workspace, seed: int) -> Workspace:
    """Swap in a fresh seeded noise stream, leaving the table untouched.

    Useful for running independent perturbation trials from one built
    workspace: each trial reseeds its copy so the draws do not correlate.
    """
    return dataclasses.replace(ws, rng_state=rng_state_from_seed(seed))


def take_snapshot(ws: Workspace) -> Workspace:
    """Record every component pose as the last-known-good reference."""
    snap = {c.id: c.pose for c in ws.components}
    return dataclasses.replace(ws, snapshot=snap,
                               action_count=ws.action_count + 1)


def detect_displacement(ws: Workspace):
    """Compare current poses against the snapshot.

    Returns a list of ``(component_id, distance_mm)`` for components whose
    x,y Euclidean deviation exceeds ``_DISPLACEMENT_TOLERANCE_MM``, in
    beam-path order.
    """
    if ws.snapshot is None:
        raise NoSnapshotError("no snapshot taken")
    out = []
    for c in ws.components:
        ref = ws.snapshot.get(c.id)
        if ref is None:
            continue
        d = float(np.hypot(c.pose.x - ref.x, c.pose.y - ref.y))
        if d > _DISPLACEMENT_TOLERANCE_MM:
            out.append((c.id, d))
    return out
