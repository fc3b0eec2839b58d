"""Run one cavforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
One process runs one operation at a time, in whole rounds of the workload's
inputs, for ``--seconds`` to the nearest round. Outputs of every distinct
input are checked (``checks.py``); a repeated input must reproduce its first
output exactly. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
runs one round untraced, then the same rounds traced, checks that the
outputs agree, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object; the
lines before it, and ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``,
record the environment. The traced run also writes every span to
``perfbench/out/spans-<workload>-seed<seed>.jsonl.gz``.
"""

import os

# Pin BLAS threads before NumPy loads: one operation at a time, on at most
# one core of BLAS work, whatever the machine has.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
clock = time.perf_counter


@dataclasses.dataclass
class Op:
    item: object
    seconds: float
    frames: int
    traced_actions: int = 0
    account: object = None       # workloads.Account, None when the op failed
    error: str = ""


def run_rounds(wl, items, seconds, tracer, errors, keep=None):
    """Whole rounds of ``items`` for ``seconds``, to the nearest round.

    At least one round runs; another starts only if ending after it would
    land closer to ``seconds`` than stopping now. The first output of each
    distinct input is kept in ``keep`` for the checks; later ones are
    reduced to their fingerprint and dropped.
    """
    ops = []
    rounds = 0
    start = clock()
    while True:
        for item in items:
            tracer.op = len(ops)
            frames0, actions0 = tracer.frames, tracer.actions()
            t0 = clock()
            try:
                raw = wl.operate(item)
            except errors as exc:
                ops.append(Op(item, clock() - t0, tracer.frames - frames0,
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            op = Op(item, clock() - t0, tracer.frames - frames0,
                    traced_actions=tracer.actions() - actions0)
            op.account = wl.account(raw)
            ops.append(op)
            if keep is not None and repr(item) not in keep:
                keep[repr(item)] = raw
            else:
                wl.discard(raw)
        rounds += 1
        elapsed = clock() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return ops, elapsed


def consistency(ops):
    """Messages for inputs whose outputs or frame counts differ between runs."""
    first = {}
    problems = []
    for op in ops:
        key = repr(op.item)
        seen = (op.error or op.account.fingerprint, op.frames)
        if first.setdefault(key, seen) != seen:
            problems.append(f"input {key} gave a different output when run again")
    return problems


def action_mismatches(ops):
    """Traced simcore actions against the program's ``action_count`` change."""
    return [f"input {op.item!r}: traced simcore actions {op.traced_actions} != "
            f"action_count change {op.account.actions}"
            for op in ops
            if op.account is not None and op.traced_actions != op.account.actions]


def environment():
    import numpy
    import scipy
    from cavforge import _kernels
    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def end_to_end(ops, elapsed, setup_s):
    """Per operation that did not fail."""
    done = [op for op in ops if op.account is not None]
    n = len(done)
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(op.seconds for op in done), "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "frames_per_op": (sum(op.frames for op in done) / n, "count"),
        "evals_per_op": (sum(op.account.evals for op in done) / n, "count"),
        "actions_per_op": (sum(op.account.actions for op in done) / n, "count"),
    }


def per_layer(tracer, ops, untraced_ops, quality_name):
    """Per attempted operation of the traced phase, failed ones included."""
    done = [op for op in ops if op.account is not None]
    n = len(ops)
    m = {}

    def calls_and_self(name):
        m[f"{name}.calls"] = (tracer.calls(name) / n, "calls/op")
        m[f"{name}.self_s"] = (tracer.self_s(name) / n, "s/op")

    for name in ("kernels.render_spot", "kernels.frame_moments"):
        calls_and_self(name)
    m["kernels.mb_computed"] = (tracer.kernel_bytes / 1e6 / n, "MB/op")
    for name in ("camera_view", "render_frame", "trace_beam", "cavity_response"):
        calls_and_self(f"physics.{name}")
    for name in ("beam_stats", "centroid", "log_transform", "subtract_reference"):
        calls_and_self(f"vision.{name}")
    calls_and_self("align.bayesian_optimize")
    m["align.bayesian_optimize.propose_s"] = (tracer.propose_s / n, "s/op")
    m["align.bayesian_optimize.evals"] = (tracer.evals / n, "evals/op")
    m["align.bayesian_optimize.useful_evals"] = (tracer.useful_evals / n, "evals/op")
    m["align.bayesian_optimize.useful_ratio"] = (
        tracer.useful_evals / tracer.evals if tracer.evals else 0.0, "fraction")
    calls_and_self("align.GaussianProcess.fit")
    calls_and_self("align.GaussianProcess.predict")
    m["align.GaussianProcess.predict.rows"] = (tracer.predict_rows / n, "rows/op")
    for name in ("spatial_optimize", "align_resonator", "optimize_mode",
                 "crystal_sweep", "measure_beam_path"):
        calls_and_self(f"align.{name}")
    m["simcore.actions"] = (tracer.actions() / n, "actions/op")
    for name in ("move_component", "turn_knob", "set_knob_readings"):
        m[f"simcore.{name}.calls"] = (tracer.calls(f"simcore.{name}") / n, "calls/op")
    m["simcore.self_s"] = (tracer.layer_self_s("simcore") / n, "s/op")
    m["pipeline.run_construction.self_s"] = (
        tracer.self_s("pipeline.run_construction") / n, "s/op")
    m["pipeline.recover_drift.self_s"] = (
        tracer.self_s("pipeline.recover_drift") / n, "s/op")
    calls_and_self("pipeline.surveillance_tick")
    calls_and_self("pipeline.measure_power_curve")
    m["cli.main.self_s"] = (tracer.self_s("cli.main") / n, "s/op")
    calls_and_self("frameio.write_pgm")
    calls_and_self("layout.validate_layout")
    quality = statistics.fmean(op.account.quality for op in done) if quality_name else 0.0
    m["output_power"] = (quality if quality_name == "output_power" else 0.0, "power")
    m["restored_ratio"] = (quality if quality_name == "restored_ratio" else 0.0,
                           "fraction")
    # Tracing overhead: the same round, untraced and then traced.
    traced_round = [op for op in ops[:len(untraced_ops)] if op.account is not None]
    untraced_round = [op for op in untraced_ops if op.account is not None]
    m["trace.overhead_s"] = (
        statistics.median(op.seconds for op in traced_round)
        - statistics.median(op.seconds for op in untraced_round), "s/op")
    m["trace.spans"] = (len(tracer.records) / n, "spans/op")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "drift", "placement"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def measure(wl, items, args, errors):
    """The timed phase, and the outputs of the first input run again.

    Returns the timed operations, the timed phase's length, the tracer, the
    first output of each distinct input, and the operations of the untraced
    round a traced run compares against.
    """
    from tracer import Tracer

    if args.trace:
        counter = Tracer(spans=False)
        counter.install()
        try:
            again, _ = run_rounds(wl, items, 0, counter, errors)
        finally:
            counter.uninstall()
    tracer = Tracer(spans=bool(args.trace))
    kept = {}
    tracer.install()
    try:
        ops, elapsed = run_rounds(wl, items, args.seconds, tracer, errors, kept)
        if not args.trace:
            again, _ = run_rounds(wl, items[:1], 0, tracer, errors)
    finally:
        tracer.uninstall()
    return ops, elapsed, tracer, kept, again


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cavforge" / "__init__.py").is_file():
        print(f"error: no cavforge sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = clock()
    import workloads
    from checks import CheckFailed
    import_s = clock() - t0

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            wl.setup()
            setups.append(clock() - t0)
        items = wl.inputs(args.seed)
        ops, elapsed, tracer, kept, again = measure(wl, items, args,
                                                    workloads.DOMAIN_ERRORS)

        problems = consistency(again + ops) + tracer.mismatches
        for raw in kept.values():
            try:
                wl.check(raw)
            except CheckFailed as exc:
                problems.append(str(exc))
            finally:
                wl.discard(raw)
        failed = [op for op in ops if op.account is None]
        if len(failed) == len(ops):
            print("error: every operation failed: " + failed[0].error, file=sys.stderr)
            return 1
        quality = [op.account.quality for op in ops if op.account is not None]
        if args.trace:
            problems += action_mismatches(ops)
            metrics = per_layer(tracer, ops, again, wl.quality)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            metrics = end_to_end(ops, elapsed, import_s + statistics.median(setups))

        env = environment()
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "environment": env,
                "import_s": import_s, "setup_repeats_s": setups,
                "elapsed_s": elapsed, "distinct_inputs": len(items),
                "attempted": len(ops), "failed": len(failed),
                "errors": sorted({op.error for op in failed}),
                "problems": problems,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "op_seconds": [op.seconds for op in ops],
            }, indent=1) + "\n")

        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("# environment " + json.dumps(env, sort_keys=True))
        print(f"# attempted={len(ops)} failed={len(failed)} distinct={len(items)} "
              f"elapsed_s={elapsed:.3f} setup_repeats_s="
              + ",".join(f"{s:.3f}" for s in setups))
        if wl.quality and not args.trace:
            print(f"# {wl.quality} {statistics.fmean(quality):.10g}")
        for k, (v, u) in metrics.items():
            print(f"# {k} {v:.6g} {u}")
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
