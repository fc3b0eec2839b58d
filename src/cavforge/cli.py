"""Command-line entry point.

Commands cover the whole instrument life cycle: ``build`` runs the
construction sequence from a layout file, ``perturb`` injects the two
disturbance scenarios into a saved state, ``recover`` dispatches the
matching recovery routine, ``trial-batch`` runs the seeded statistics
batteries, and ``power-curve`` / ``render`` export measurements from a
saved state. All artifacts land inside the ``--out`` directory; identical
invocations write byte-identical files. ``diff-trace`` reads two runs'
``trace.jsonl`` files and reports where they first differ; it writes
nothing.

Exit codes: 0 success, 1 domain failure (failed step, exhausted recovery,
unknown component; for ``diff-trace``, traces that differ), 2 usage or
parse error (bad flags, malformed JSON, invalid layout or saved state, an
unreadable trace).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import trials
from .errors import CavforgeError, ConstructionError, LayoutError
from .frameio import write_csv, write_pgm
from .layout import (apply_overrides, check_knobs, check_seed, check_value,
                     default_layout, read_layout, validate_layout)
from .pipeline import (
    PipelineState,
    measure_power_curve,
    recover_displacement,
    recover_drift,
    run_construction,
    surveillance_tick,
)
from .simcore import (ANY, KNOB_SPAN_DEG, ComponentKind, Interval,
                      inject_displacement, randomize_knobs)

# a power curve fits a line through at least two samples
_CURVE_POINTS = Interval(2)
_TRIAL_COUNT = Interval(1)


def _load_layout(args):
    data = default_layout() if args.layout is None else read_layout(args.layout)
    return validate_layout(apply_overrides(data, args.overrides))


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _state_path(args) -> Path:
    return Path(args.out) / "state.json"


def _load_state(args) -> PipelineState:
    path = _state_path(args)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CavforgeError(f"no build state at {path}; run build first") from exc
    except json.JSONDecodeError as exc:
        raise LayoutError(f"state file {path} is not valid JSON: {exc}") from exc
    return PipelineState.from_dict(data)


def _save_state(args, state: PipelineState) -> None:
    _write_json(_state_path(args), state.to_dict())


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_frames(out: Path, state: PipelineState, raw_csv: bool = False) -> list:
    written = []
    for cam in state.ws.find_kind(ComponentKind.CAMERA):
        frame = state.view(cam.id)
        path = out / f"{cam.id}_step{state.current_step}.pgm"
        write_pgm(frame, path)
        written.append(path.name)
        if raw_csv:
            csv_path = path.with_suffix(".csv")
            write_csv(frame, csv_path)
            written.append(csv_path.name)
    return written


def cmd_build(args) -> int:
    layout = _load_layout(args)
    seed = layout.seed if args.seed is None else args.seed
    out = _ensure_out(args)
    try:
        state = run_construction(layout, seed)
    except ConstructionError as exc:
        _write_jsonl(out / "trace.jsonl", exc.log)
        if exc.state is not None:
            _save_state(args, exc.state)
        print(f"build failed at step {int(exc.step)}: {exc.reason}", file=sys.stderr)
        return 1
    _save_state(args, state)
    _write_jsonl(out / "trace.jsonl", state.log)
    _write_json(out / "baseline.json", state.baseline)
    _write_frames(out, state)
    print(json.dumps({"status": "ok", "seed": seed,
                      "step": state.current_step,
                      "mode_order": state.baseline["mode_order"],
                      "output_power": state.baseline["output_power"]},
                     sort_keys=True))
    return 0


def cmd_perturb(args) -> int:
    state = _load_state(args)
    if args.kind == "displace":
        if not args.component_id:
            raise LayoutError("perturb displace requires --id")
        check_value(args.dx, float, ANY, "--dx")
        check_value(args.dy, float, ANY, "--dy")
        state.ws = inject_displacement(state.ws, args.component_id,
                                       dx=args.dx, dy=args.dy)
    else:
        check_value(args.min_deg, float, KNOB_SPAN_DEG, "--min")
        check_value(args.max_deg, float, Interval(args.min_deg, KNOB_SPAN_DEG.hi), "--max")
        mirrors = [c.id for c in state.ws.components if c.knobs is not None]
        state.ws = randomize_knobs(state.ws, mirrors, args.min_deg, args.max_deg)
        # the disturbance adds to the biases: refuse a sum a load would reject
        for i, comp in enumerate(state.ws.components):
            if comp.knobs is not None:
                check_knobs(comp.knobs.to_dict(), f"workspace.components[{i}]")
    tick = surveillance_tick(state)
    _save_state(args, state)
    print(json.dumps(tick, sort_keys=True))
    return 0


def cmd_recover(args) -> int:
    state = _load_state(args)
    tick = surveillance_tick(state)
    if tick["status"] == "signal_lost":
        rng = None
        if args.seed is not None:
            rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
        report = recover_drift(state, rng=rng)
    else:
        report = recover_displacement(state)
    _save_state(args, state)
    payload = {"tick": tick, **report.to_dict()}
    _write_json(Path(args.out) / "recovery.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0 if report.success else 1


def cmd_trial_batch(args) -> int:
    check_value(args.n_trials, int, _TRIAL_COUNT, "-n")
    layout = _load_layout(args)
    seed = layout.seed if args.seed is None else args.seed
    out = _ensure_out(args)
    rows = trials.run_trials(args.experiment, layout, seed, args.n_trials)
    summary = rows + trials.aggregate(rows)
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=trials.FIELDS)
        writer.writeheader()
        writer.writerows(summary)
    for agg in trials.aggregate(rows):
        print(json.dumps(agg, sort_keys=True))
    return 0


def cmd_power_curve(args) -> int:
    check_value(args.points, int, _CURVE_POINTS, "--points")
    state = _load_state(args)
    out = _ensure_out(args)
    pump = state.ws.find_kind(ComponentKind.PUMP_SOURCE)[0]
    operating = float(pump.param("power"))
    powers = np.linspace(0.0, operating, args.points)
    curve = measure_power_curve(state.ws, powers)
    with open(out / "power_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pump_power", "output_power"])
        for p, o in curve.points:
            writer.writerow([f"{p:.10g}", f"{o:.10g}"])
    _write_json(out / "power_curve.json",
                {"threshold": curve.threshold, "slope": curve.slope})
    print(json.dumps({"threshold": curve.threshold, "slope": curve.slope},
                     sort_keys=True))
    return 0


def cmd_render(args) -> int:
    state = _load_state(args)
    out = _ensure_out(args)
    written = _write_frames(out, state, raw_csv=args.raw_csv)
    print(json.dumps({"written": written}, sort_keys=True))
    return 0


def _read_trace(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise LayoutError(f"cannot read trace {path}: {exc}") from exc
    events = []
    for number, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LayoutError(f"{path} line {number} is not valid JSON: {exc}") from exc
        if not isinstance(event, dict):
            raise LayoutError(f"{path} line {number} is not a JSON object")
        events.append(event)
    return events


_ABSENT = object()


def _first_difference(a, b, key=""):
    """``(key, a_value, b_value)`` at the first leaf where two JSON values
    differ, keys in sorted order and lists by index, or ``None``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(a.keys() | b.keys()):
            found = _first_difference(a.get(name, _ABSENT), b.get(name, _ABSENT),
                                      f"{key}.{name}" if key else name)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            found = _first_difference(a[i] if i < len(a) else _ABSENT,
                                      b[i] if i < len(b) else _ABSENT, f"{key}[{i}]")
            if found:
                return found
        return None
    # repr tells 1 from 1.0 and matches NaN with NaN
    return None if repr(a) == repr(b) else (key, a, b)


def _shown(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value, sort_keys=True)


def cmd_diff_trace(args) -> int:
    a, b = _read_trace(args.trace_a), _read_trace(args.trace_b)
    for index in range(max(len(a), len(b))):
        ea = a[index] if index < len(a) else _ABSENT
        eb = b[index] if index < len(b) else _ABSENT
        found = _first_difference(ea, eb)
        if found is None:
            continue
        key, va, vb = found
        event = eb if ea is _ABSENT else ea
        print(f"event {index} differs: step {_shown(event.get('step', _ABSENT))}, "
              f"action {_shown(event.get('action', _ABSENT))}")
        print(f"key: {key or '(whole event)'}")
        print(f"A: {_shown(va)}")
        print(f"B: {_shown(vb)}")
        return 1
    print(f"identical: {len(a)} events")
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--layout", default=None, metavar="PATH",
                        help="layout JSON file (defaults to the stock table)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the layout seed")
    common.add_argument("--out", default="cavforge_out", metavar="DIR",
                        help="artifact directory (created if absent)")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a layout field, e.g. "
                             "components.ndf.params.transmittance=0.05")

    parser = argparse.ArgumentParser(
        prog="cavforge",
        description="Simulated robotic construction and upkeep of a "
                    "small laser resonator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="run the construction sequence to lasing")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("perturb", parents=[common],
                       help="disturb a completed build")
    p.add_argument("kind", choices=("displace", "knobs"))
    p.add_argument("--id", dest="component_id", default=None,
                   help="component to displace")
    p.add_argument("--dx", type=float, default=0.0)
    p.add_argument("--dy", type=float, default=0.0)
    p.add_argument("--min", dest="min_deg", type=float, default=30.0)
    p.add_argument("--max", dest="max_deg", type=float, default=60.0)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("recover", parents=[common],
                       help="classify the disturbance and recover")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("trial-batch", parents=[common],
                       help="run a seeded statistics battery")
    p.add_argument("experiment", choices=trials.EXPERIMENTS)
    p.add_argument("-n", "--n-trials", type=int, default=10)
    p.set_defaults(func=cmd_trial_batch)

    p = sub.add_parser("power-curve", parents=[common],
                       help="sweep the pump and fit the output curve")
    p.add_argument("--points", type=int, default=11)
    p.set_defaults(func=cmd_power_curve)

    p = sub.add_parser("render", parents=[common],
                       help="export the current camera frames")
    p.add_argument("--csv", dest="raw_csv", action="store_true",
                   help="also dump raw intensities as CSV")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("diff-trace",
                       help="report the first event where two trace.jsonl files differ")
    p.add_argument("trace_a", metavar="A")
    p.add_argument("trace_b", metavar="B")
    p.set_defaults(func=cmd_diff_trace)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        return args.func(args)
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
