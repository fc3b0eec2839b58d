"""The trajectory battery: drift recoveries and build powers, as one JSON object.

A change to the search trajectories moves which drift recoveries fail and
what power each build reaches. This script measures both, so two versions
can be compared by running it on each:

    PYTHONPATH=src python tests/trajectory_report.py > report.json

It uses only public ``cavforge`` names, runs each drift trial through
``_benches.drift_trial`` (as the artifact manifest does), and is not
collected by pytest.

``drift`` runs the benchmark's drift trials on the default layout's build.
Trial i reseeds the built workspace from ``SeedSequence([tag, i])``, creeps
the input and output mirrors by ``randomize_knobs(30, 60)``, ticks, recovers
and ticks again. The recovery generator is S0 = ``SeedSequence([303, i,
2])`` (the benchmark's own) or Sk = ``SeedSequence([303, i, 2, k])`` for
k = 1..11; the held-out tags 505, 606, 707, 808 and 909 replace 303 on
S0-style streams. Each failure is listed with its trial, ratio, the status
of the tick that follows and the transverse mode the cavity lases in. The
set S0-S2 plus tags 505 and 606 is also counted on its own. Each stream
reports its failures, its mean evaluations, the model steps its searches
took (the ``model_steps`` of each round's summary), the recoveries that
reach a third and a fourth round, and the rounds rolled back to the best
round's readings; the pooled mean evaluations come with the totals.

``builds`` lists the output power and mode order of builds of seeds 1-28,
with their median, mean and minimum.
"""

import json
import statistics
import sys

import cavforge
from _benches import drift_trial
from cavforge import physics

TRIALS = range(72)
TAG = 303
EXTRA_STREAMS = range(1, 12)
HELD_OUT = (505, 606, 707, 808, 909)
# the drift streams earlier trajectory changes were judged on
ROADMAP_RECOVERY = ("S0", "S1", "S2")
ROADMAP_HELD_OUT = ("505", "606")
ROADMAP_STREAMS = ROADMAP_RECOVERY + ROADMAP_HELD_OUT
BUILD_SEEDS = range(1, 29)


def streams():
    """(name, reseed tag, recovery-stream suffix) of each drift stream."""
    yield "S0", TAG, ()
    for k in EXTRA_STREAMS:
        yield f"S{k}", TAG, (k,)
    for tag in HELD_OUT:
        yield str(tag), tag, ()


def _rollbacks(rounds) -> int:
    """Rounds of one recovery that ended no better than the best before
    them, so ``recover_drift`` turned the knobs back to its readings."""
    best, count = float("inf"), 0
    for r in rounds:
        if r["best_objective"] < best:
            best = r["best_objective"]
        else:
            count += 1
    return count


def drift_report() -> dict:
    layout = cavforge.validate_layout(cavforge.default_layout())
    state = cavforge.run_construction(layout)
    per_stream = {}
    failures = []
    total_evaluations = 0
    for name, tag, suffix in streams():
        failed = evaluations = steps = rollbacks = 0
        reached = {3: 0, 4: 0}
        for trial in TRIALS:
            run, _, after, report = drift_trial(state, tag, trial, suffix)
            evaluations += report.iterations
            rounds = report.details["rounds"]
            steps += sum(r.get("model_steps", 0) for r in rounds)
            rollbacks += _rollbacks(rounds)
            for n in reached:
                reached[n] += len(rounds) >= n
            if not report.success:
                failed += 1
                mode = physics.cavity_response(run.ws).mode_order
                failures.append({"stream": name, "trial": trial,
                                 "ratio": round(report.ratio, 6),
                                 "after": after["status"], "mode_order": mode})
        per_stream[name] = {"failed": failed,
                            "mean_evaluations": round(evaluations / len(TRIALS), 3),
                            "model_steps": steps,
                            "reached_round_3": reached[3],
                            "reached_round_4": reached[4],
                            "rollbacks": rollbacks}
        total_evaluations += evaluations
    roadmap = [f for f in failures if f["stream"] in ROADMAP_STREAMS]
    return {
        "recoveries": len(per_stream) * len(TRIALS),
        "failed": len(failures),
        "mean_evaluations": round(total_evaluations / (len(per_stream) * len(TRIALS)), 3),
        "failures": failures,
        "roadmap_set": {
            "streams": list(ROADMAP_STREAMS),
            "recoveries": len(ROADMAP_STREAMS) * len(TRIALS),
            "failed": len(roadmap),
            "S0-S2_failed": sum(f["stream"] in ROADMAP_RECOVERY for f in roadmap),
            "held_out_failed": sum(f["stream"] in ROADMAP_HELD_OUT for f in roadmap),
        },
        "per_stream": per_stream,
    }


def build_report() -> dict:
    layout = cavforge.validate_layout(cavforge.default_layout())
    seeds = {}
    for seed in BUILD_SEEDS:
        try:
            baseline = cavforge.run_construction(layout, seed).baseline
        except cavforge.ConstructionError as exc:
            seeds[seed] = {"failed_step": int(exc.step), "error": str(exc)}
            continue
        seeds[seed] = {"output_power": baseline["output_power"],
                       "mode_order": baseline["mode_order"]}
    powers = [s["output_power"] for s in seeds.values() if "output_power" in s]
    return {
        "seeds": seeds,
        "fundamental": sum(s.get("mode_order") == 0 for s in seeds.values()),
        "median_power": statistics.median(powers) if powers else None,
        "mean_power": statistics.fmean(powers) if powers else None,
        "min_power": min(powers, default=None),
    }


def main() -> int:
    json.dump({"drift": drift_report(), "builds": build_report()}, sys.stdout,
              indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
