"""Optical-table state and the arm-level operations that change it.

A :class:`Workspace` is a value: every operation returns a new workspace and
leaves its input untouched, which is what makes seeded replay bit-exact. The
random stream lives inside the workspace as serialized PCG64 state, so a
sequence of operations on equal workspaces produces equal workspaces.

Units are millimetres and degrees throughout.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

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


@dataclass(frozen=True)
class Interval:
    """The numbers a layout value may take: ``lo`` to ``hi``, each end open or closed."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def violation(self, v) -> str | None:
        """The bound ``v`` breaks, such as ``'> 0.0'``, or None if it has none."""
        if v < self.lo or (self.lo_open and v == self.lo):
            return f"{'>' if self.lo_open else '>='} {self.lo}"
        if v > self.hi or (self.hi_open and v == self.hi):
            return f"{'<' if self.hi_open else '<='} {self.hi}"
        return None


ANY = Interval()
POSITIVE = Interval(0.0, lo_open=True)
NONNEGATIVE = Interval(0.0)
UNIT = Interval(0.0, 1.0)
OPEN_UNIT = Interval(0.0, 1.0, lo_open=True, hi_open=True)
TRANSMITTANCE = Interval(0.0, 1.0, lo_open=True)
# a sensor side in pixels; each spot's factors span the whole side
SENSOR_PX = Interval(0.0, 4096.0, lo_open=True)
# A knob's dial reading or seat bias in degrees, a million turns either way,
# and the size of a seat jitter or disturbance. Stock runs stay within a few
# hundred degrees; the bound keeps every tilt the optics square finite.
KNOB_DEG = Interval(-3.6e8, 3.6e8)
KNOB_SPAN_DEG = Interval(0.0, KNOB_DEG.hi)
# a knob turn tilts its mirror by at most a full circle
TILT_PER_TURN = Interval(0.0, 360.0, lo_open=True)
# Each term physics.cavity_response squares is an error over a ref_* scale:
# a mirror tilt below 1.1e9 degrees (KNOB_DEG readings and biases, at most
# 360 degrees a turn, plus a yaw), a lens offset below 1.5 apertures, a
# crystal angle error of at most 720 degrees. Under these bounds each
# quotient stays below 1.5e150, so its square and the sum stay finite.
REF_SCALE = Interval(1e-50)
APERTURE_MM = Interval(0.0, 1e100, lo_open=True)
CRYSTAL_DEG = Interval(-360.0, 360.0)

# Every parameter a component may declare, by kind: its type, the value a
# component that omits it reads, and the values it allows (an Interval for a
# number; for a string the allowed strings, or None for any). A default of
# ``None`` marks a parameter with no fixed default: a lens must declare
# ``focal_length_mm``; the physics falls back to a PhysicsConfig field for
# ``aperture_mm`` and ``waist_mm`` and to 1 - ``pump_transmission`` for
# ``pump_reflectivity``; a mirror without ``substrate_focal_mm`` has a flat
# substrate, and a splitter without ``arm_camera`` feeds no camera.
_MIRROR_PARAMS = {
    "pump_transmission": (float, 0.5, UNIT),
    "pump_reflectivity": (float, None, UNIT),
    "substrate_focal_mm": (float, None, ANY),
    "knob_jitter_deg": (float, 0.0, KNOB_SPAN_DEG),
    "aperture_mm": (float, None, APERTURE_MM),
}

COMPONENT_PARAMS = {
    ComponentKind.PUMP_SOURCE: {
        "power": (float, 1.0, POSITIVE),
        "waist_mm": (float, None, POSITIVE),
    },
    ComponentKind.MIRROR_IC: _MIRROR_PARAMS,
    ComponentKind.MIRROR_OC: _MIRROR_PARAMS,
    ComponentKind.LENS: {
        "focal_length_mm": (float, None, POSITIVE),
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.BEAM_SPLITTER: {
        "split_ratio": (float, 0.5, OPEN_UNIT),
        "arm_camera": (str, None, None),
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.NDF: {
        "transmittance": (float, 1.0, TRANSMITTANCE),
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.BPF: {
        "passband": (str, "laser", ("pump", "laser")),
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.BEAM_BLOCK: {
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.CRYSTAL: {
        "theta_deg": (float, 0.0, CRYSTAL_DEG),
        "theta_opt_deg": (float, 0.0, CRYSTAL_DEG),
        "aperture_mm": (float, None, APERTURE_MM),
    },
    ComponentKind.CAMERA: {
        "width_px": (int, 640, SENSOR_PX),
        "height_px": (int, 480, SENSOR_PX),
        "pixel_pitch_mm": (float, 0.01, POSITIVE),
        "body_halfwidth_mm": (float, 15.0, POSITIVE),
        "gain_pump": (float, 1.0, NONNEGATIVE),
        "gain_laser": (float, 1.0, NONNEGATIVE),
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


# Seeds each generator ``_generator`` builds, so building one draws no OS
# entropy; the state it is given replaces the seeded one at once.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _generator(state):
    g = np.random.Generator(np.random.PCG64(_PLACEHOLDER_SEED))
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

    ``components`` are in beam order, by ``(pose.x, seq)``: every
    construction restores it, ``dataclasses.replace`` and :meth:`from_dict`
    (a loaded ``state.json``) included, and a component change that keeps
    its ``(pose.x, seq)`` keeps it without a sort. ``physics`` is the
    simulation constant block consumed by the optics layer; it rides along
    opaquely here.
    """

    components: tuple[Component, ...] = ()
    rng_state: Mapping[str, Any] = field(default_factory=lambda: rng_state_from_seed(0))
    placement_noise_sigma: float = 0.1
    table_bounds: tuple = DEFAULT_TABLE_BOUNDS
    snapshot: Mapping[str, Pose] | None = None
    action_count: int = 0
    physics: Any = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(
            sorted(self.components, key=lambda c: (c.pose.x, c.seq))))

    def component(self, component_id: str) -> Component:
        for c in self.components:
            if c.id == component_id:
                return c
        raise UnknownComponentError(f"no component with id {component_id!r}")

    def has(self, component_id: str) -> bool:
        return any(c.id == component_id for c in self.components)

    def find_kind(self, kind: ComponentKind) -> list[Component]:
        return list(self._by_kind.get(kind, ()))

    @functools.cached_property
    def _by_kind(self):
        # every kind's components in one pass, the first time one is asked
        # for; not a field, so equality, repr and to_dict never see it
        index = {}
        for c in self.components:
            index.setdefault(c.kind, []).append(c)
        return index

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


_WORKSPACE_FIELDS = tuple(f.name for f in dataclasses.fields(Workspace))


def _swap(ws: Workspace, updated: Component, **changes) -> Workspace:
    """``ws`` with ``updated`` in place of the component with its id.

    When ``updated`` keeps the beam-order key ``(pose.x, seq)``, as a knob
    turn does, the components stay in order and the new workspace is built
    without ``__post_init__``'s sort.
    """
    comps = list(ws.components)
    k = [c.id for c in comps].index(updated.id)
    in_order = (comps[k].pose.x, comps[k].seq) == (updated.pose.x, updated.seq)
    comps[k] = updated
    if not in_order:
        return dataclasses.replace(ws, components=comps, **changes)
    new = object.__new__(Workspace)
    vars(new).update({name: getattr(ws, name) for name in _WORKSPACE_FIELDS},
                     components=tuple(comps), **changes)
    return new


def _knobs(ws: Workspace, component_id: str) -> tuple[Component, KnobPair]:
    """The component ``component_id`` and its knobs; NoKnobsError if it has none."""
    comp = ws.component(component_id)
    if comp.knobs is None:
        raise NoKnobsError(f"component {component_id!r} has no knobs")
    return comp, comp.knobs


def _grip(ws: Workspace):
    """The noise stream after one set-down, and its actuation error ``dx, dy``."""
    g = _generator(ws.rng_state)
    return g, g.normal(0.0, ws.placement_noise_sigma), g.normal(0.0, ws.placement_noise_sigma)


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
    g, dx, dy = _grip(ws)
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
    return dataclasses.replace(ws, components=ws.components + (placed,),
                               rng_state=g.bit_generator.state,
                               action_count=ws.action_count + 1)


def move_component(ws: Workspace, component_id: str, target: Pose) -> Workspace:
    """Re-grip an existing component and set it down at ``target``.

    Fresh actuation noise applies on x and y; knob state is preserved.
    """
    comp = ws.component(component_id)
    _check_bounds(ws, target)
    g, dx, dy = _grip(ws)
    pose = Pose(target.x + dx, target.y + dy, target.z, target.yaw)
    return _swap(ws, dataclasses.replace(comp, pose=pose),
                 rng_state=g.bit_generator.state, action_count=ws.action_count + 1)


def park_component(ws: Workspace, component_id: str) -> Workspace:
    """Move a component well off the beam path (removal equivalent)."""
    comp = ws.component(component_id)
    return move_component(ws, component_id,
                          Pose(comp.pose.x, PARK_Y, comp.pose.z, comp.pose.yaw))


def turn_knob(ws: Workspace, component_id: str, axis: str, delta_deg: float) -> Workspace:
    """Rotate one mount knob by ``delta_deg`` (additive, no backlash)."""
    comp, knobs = _knobs(ws, component_id)
    if axis not in ("h", "v"):
        raise WorkspaceError(f"knob axis must be 'h' or 'v', got {axis!r}")
    name = f"{axis}_deg"
    knobs = dataclasses.replace(knobs, **{name: getattr(knobs, name) + delta_deg})
    return _swap(ws, dataclasses.replace(comp, knobs=knobs),
                 action_count=ws.action_count + 1)


def set_knob_readings(ws: Workspace, component_id: str, h_deg: float, v_deg: float) -> Workspace:
    """Turn the knobs to absolute readings, one knob action per axis whose
    reading changes; a mirror already there returns ``ws`` itself."""
    _, knobs = _knobs(ws, component_id)
    if h_deg != knobs.h_deg:
        ws = turn_knob(ws, component_id, "h", h_deg - knobs.h_deg)
    if v_deg != knobs.v_deg:
        ws = turn_knob(ws, component_id, "v", v_deg - knobs.v_deg)
    return ws


def knob_readings(ws: Workspace, component_ids) -> dict:
    """Dial readings ``{id: (h_deg, v_deg)}`` of the listed mirrors, in order."""
    pairs = {cid: _knobs(ws, cid)[1] for cid in component_ids}
    return {cid: (k.h_deg, k.v_deg) for cid, k in pairs.items()}


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
    return _swap(ws, dataclasses.replace(comp, params=params),
                 action_count=ws.action_count + 1)


def inject_displacement(ws: Workspace, component_id: str,
                        dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> Workspace:
    """External disturbance: offset a pose exactly, leaving snapshot and
    noise stream untouched. Not an arm action, so the action count holds."""
    comp = ws.component(component_id)
    return _swap(ws, dataclasses.replace(comp, pose=comp.pose.shifted(dx, dy, dz)))


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
        comp, knobs = _knobs(ws, cid)
        for axis in ("h", "v"):
            magnitude = g.uniform(min_deg, max_deg)
            sign = 1.0 if g.integers(0, 2) == 1 else -1.0
            name = f"bias_{axis}_deg"
            knobs = dataclasses.replace(knobs, **{name: getattr(knobs, name) + sign * magnitude})
        ws = _swap(ws, dataclasses.replace(comp, knobs=knobs))
    return dataclasses.replace(ws, rng_state=g.bit_generator.state)


def set_knob_bias(ws: Workspace, component_id: str, bias_h_deg: float,
                  bias_v_deg: float) -> Workspace:
    """External disturbance: set a mount's hidden seat error exactly.

    Like :func:`inject_displacement` this is scenario scaffolding, not an arm
    action: dial readings, the noise stream, and the action count all stay
    untouched. The controller cannot observe the change except through the
    optics.
    """
    comp, knobs = _knobs(ws, component_id)
    if not (np.isfinite(bias_h_deg) and np.isfinite(bias_v_deg)):
        raise WorkspaceError("knob bias must be finite")
    knobs = dataclasses.replace(knobs, bias_h_deg=float(bias_h_deg),
                                bias_v_deg=float(bias_v_deg))
    return _swap(ws, dataclasses.replace(comp, knobs=knobs))


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
