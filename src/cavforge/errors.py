"""Exception types raised by workspace operations, optics, and the pipeline."""


class CavforgeError(Exception):
    """Base class for all package errors."""


class LayoutError(CavforgeError):
    """Layout file is malformed, has unknown fields, or fails validation."""


class WorkspaceError(CavforgeError):
    """Invalid workspace operation."""


class DuplicateComponentError(WorkspaceError):
    pass


class UnknownComponentError(WorkspaceError):
    pass


class OutOfBoundsError(WorkspaceError):
    pass


class NoKnobsError(WorkspaceError):
    pass


class NoSnapshotError(WorkspaceError):
    pass


class TraceError(CavforgeError):
    """Beam trace cannot run (for example, no pump source)."""


class MissingComponentError(CavforgeError):
    """An operation requires a component kind that is not on the table."""


class BeamLostError(CavforgeError):
    """No spot detected where the procedure requires one."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class SaturationError(CavforgeError):
    """Camera frame saturated where an unsaturated measurement is required."""


class DegenerateResponseError(CavforgeError):
    """Probe move produced no measurable beam response."""


class NoLasingError(CavforgeError):
    """No lasing found anywhere in the scanned range."""


class ConstructionError(CavforgeError):
    """A pipeline step failed; carries the step, the reason without the
    step, and the event log so far."""

    def __init__(self, step, message, log=None, state=None):
        super().__init__(f"step {int(step)}: {message}")
        self.step = step
        self.reason = message
        self.log = log or []
        self.state = state
