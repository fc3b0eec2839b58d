"""Spans around cavforge's public functions, installed from outside the program.

The program itself carries no instrumentation. ``Tracer.install`` rebinds each
function listed in ``FUNCTIONS`` at every cavforge module that holds it by
name (``camera_view`` is bound in ``physics``, ``align``, ``pipeline``,
``trials`` and ``cli``), and wraps the ``GaussianProcess`` methods on the
class. ``uninstall`` puts the originals back.

With ``spans=False`` only ``physics.camera_view`` is wrapped, to count the
frames an operation renders; that is what the untraced run pays for. With
``spans=True`` every listed function records a span: its name, the span that
called it, the operation it belongs to, and its start and end. Spans stay in
memory and are written out once, at the end of the run. A span's self time
is its duration minus the durations of the spans it called directly.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time

import numpy as np

# Functions that each add one to ``Workspace.action_count``. The other
# simcore operations either call these (``park_component``,
# ``set_knob_readings``) or are not arm actions.
ACTIONS = ("place_component", "move_component", "turn_knob", "rotate_crystal",
           "take_snapshot")

FUNCTIONS = {
    "cavforge._kernels": ("render_spot", "frame_moments"),
    "cavforge.physics": ("camera_view", "render_frame", "trace_beam",
                         "cavity_response"),
    "cavforge.vision": ("beam_stats", "centroid", "log_transform",
                        "subtract_reference"),
    "cavforge.align": ("bayesian_optimize", "spatial_optimize",
                       "align_resonator", "optimize_mode", "crystal_sweep",
                       "measure_beam_path"),
    "cavforge.simcore": ACTIONS + ("park_component", "set_knob_readings",
                                   "inject_displacement", "randomize_knobs",
                                   "set_knob_bias", "reseed",
                                   "detect_displacement"),
    "cavforge.pipeline": ("run_construction", "recover_drift",
                          "recover_displacement", "surveillance_tick",
                          "measure_power_curve"),
    "cavforge.cli": ("main",),
    "cavforge.frameio": ("write_pgm",),
    "cavforge.layout": ("validate_layout", "build_workspace"),
}
METHODS = {("cavforge.align", "GaussianProcess"): ("fit", "predict")}

FRAMES = "physics.camera_view"
BAYES = "align.bayesian_optimize"
OBJECTIVE = "align.bayesian_optimize.objective"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[1].lstrip("_")


class Tracer:
    """Call counts and span times of the wrapped functions, per run."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.op = -1
        self.frames = 0
        self.records = []        # (op, span, parent, name, t0, t1)
        self.stats = {}          # name -> [calls, self_s]
        self.kernel_bytes = 0
        self.predict_rows = 0
        self.evals = 0
        self.useful_evals = 0
        self.propose_s = 0.0
        self.mismatches = []
        self._stack = []         # [span index, time spent in child spans]
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "cavforge" or name.startswith("cavforge."))]
        replacement = {}
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[module_name]
            for fname in names:
                if not self.spans and (module_name, fname) != ("cavforge.physics",
                                                               "camera_view"):
                    continue
                orig = getattr(home, fname)
                replacement[id(orig)] = self._wrap(f"{_layer(module_name)}.{fname}", orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped)
        if self.spans:
            for (module_name, cls_name), names in METHODS.items():
                cls = getattr(sys.modules[module_name], cls_name)
                for meth in names:
                    orig = vars(cls)[meth]
                    name = f"{_layer(module_name)}.{cls_name}.{meth}"
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        if not self.spans:
            def counted(*args, **kwargs):
                self.frames += 1
                return fn(*args, **kwargs)
            return counted
        if name == BAYES:
            return self._wrap_bayes(self._span(name, fn))
        if name == "kernels.render_spot":
            before = self._count_written
        elif name == "kernels.frame_moments":
            before = self._count_read
        elif name == "align.GaussianProcess.predict":
            before = self._count_rows
        elif name == FRAMES:
            before = self._count_frame
        else:
            before = None
        return self._span(name, fn, before)

    def _count_written(self, args):
        self.kernel_bytes += 2 * args[0].nbytes   # the frame, read and written

    def _count_read(self, args):
        self.kernel_bytes += args[0].nbytes        # the frame, read

    def _count_rows(self, args):
        self.predict_rows += np.atleast_2d(np.asarray(args[1])).shape[0]

    def _count_frame(self, args):
        self.frames += 1

    def _span(self, name, fn, before=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else -1
            frame = [len(records), 0.0]
            records.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                records[frame[0]] = (self.op, frame[0], parent, name, t0, t1)
                stats[0] += 1
                stats[1] += duration - frame[1]

        return traced

    def _wrap_bayes(self, traced_bayes):
        """Count objective calls apart from the optimizer's own trace.

        The objective gets a span of its own, so the optimizer's remaining
        time is the time it spends choosing probes (``propose_s``).
        """
        clock = time.perf_counter

        def bayes(objective, *args, **kwargs):
            seen = {"evals": 0, "useful": 0, "best": math.inf, "busy": 0.0}

            def counted(x):
                t0 = clock()
                value = float(objective(x))
                seen["busy"] += clock() - t0
                seen["evals"] += 1
                if value < seen["best"]:
                    seen["best"] = value
                    seen["useful"] += 1
                return value

            traced_objective = self._span(OBJECTIVE, counted)
            t0 = clock()
            result = traced_bayes(traced_objective, *args, **kwargs)
            self.propose_s += clock() - t0 - seen["busy"]
            self.evals += seen["evals"]
            self.useful_evals += seen["useful"]
            self.check_evals(seen["evals"], result[2])
            return result

        return bayes

    # -- cross-checks and output ------------------------------------------

    def check_evals(self, counted: int, trace) -> None:
        """The objective calls counted here against the program's OptTrace."""
        if counted != len(trace.iterations):
            self.mismatches.append(
                f"bayesian_optimize called its objective {counted} times but "
                f"its OptTrace records {len(trace.iterations)} evaluations")

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def actions(self) -> int:
        return sum(self.calls(f"simcore.{fname}") for fname in ACTIONS)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for name, s in self.stats.items()
                   if name.startswith(layer + "."))

    def write_spans(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = min((r[4] for r in self.records), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name",
                                            "start_s", "end_s"]}) + "\n")
            for op, span, parent, name, t0, t1 in self.records:
                fh.write(json.dumps([op, span, parent, name,
                                     round(t0 - origin, 9),
                                     round(t1 - origin, 9)]) + "\n")
