"""Run membound benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from ./src.  A run
sets up its inputs from --seed, then repeats whole rounds of library calls
while the next round fits in --seconds (at least one), checking every
output (checks.py).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, each metric a
``{"value", "unit"}`` pair.  --trace 0 reports the end-to-end metrics;
--trace 1 runs one untraced round, then traced rounds, and reports the
per-layer metrics, writing the spans to perfbench/out/.  ``--workload all``
runs every workload in turn, each in a fresh process.  A failed check
makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 5
NAMES = ("frontier", "filter-gf2", "filter-gfq")

# Per-workload stage figures, reported with the per-layer metrics (from the
# untraced round of a traced run): each exists on only some workloads.
STAGES = {
    "stage.sweep_points_per_s": ("sweep", "rate", "points/s"),
    "stage.point_solves_per_s": ("point", "rate", "points/s"),
    "stage.tiny_oracle_s": ("tiny", "seconds", "s"),
    "stage.build_keys_per_s": ("build", "rate", "keys/s"),
    "stage.two_sided_builds_per_s": ("two_sided", "rate", "builds/s"),
    "stage.query_elems_per_s": ("query", "rate", "elements/s"),
    "stage.roundtrips_per_s": ("roundtrip", "rate", "roundtrips/s"),
}


def import_library():
    """Import membound from ./src, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import membound
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import membound from {SRC}: {exc}")
    if not os.path.realpath(membound.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: membound was imported from {membound.__file__}, not {SRC}")


def measure_setup(make_inputs, seed: int):
    """Median over repeats of a fresh interpreter's import plus input generation."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, membound"], env=env, check=True)
        inputs = make_inputs(seed)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), inputs


def _ok(rnd):
    return [op for op in rnd.ops if not op.failed]


def call_medians(rounds) -> list[float]:
    """Per call of the round, the median of its time over the rounds.

    Every round makes the same calls in the same order; a spike that slows
    one call in one round moves the median less than it moves that round.
    """
    return [
        statistics.median(rnd.ops[i].seconds for rnd in rounds)
        for i, op in enumerate(rounds[0].ops)
        if not op.failed
    ]


def end_to_end(rounds, setup_s: float) -> dict[str, tuple[float, str]]:
    bits = {rnd.bits_per_key for rnd in rounds}
    checks.require(len(bits) == 1, f"rounds on the same inputs stored {sorted(bits)} bits per key")
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(call_medians(rounds)), "s"),
        "bits_per_key": (bits.pop(), "bits/key"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def stage_metrics(rnd) -> dict[str, tuple[float, str]]:
    out = {}
    for name, (kind, how, unit) in STAGES.items():
        ops = [op for op in _ok(rnd) if op.kind == kind]
        seconds = sum(op.seconds for op in ops)
        if how == "seconds":
            out[name] = (seconds, unit)
        else:
            out[name] = (sum(op.units for op in ops) / seconds if seconds else 0.0, unit)
    return out


def per_layer(tracer, reference, rounds, traced_wall: float, span_cost: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced round; ``reference`` is the untraced round."""
    summary = tracer.summary()
    r = len(rounds)

    def span(name, key="total_s"):
        return summary[name][key] / r if name in summary else 0.0

    quality = [q for rnd in rounds for q in rnd.quality]
    candidates = sum(rnd.candidates for rnd in rounds)
    tiny_s = span("bruteforce.optimal_tiny_tester")
    testers = sum(op.units for op in rounds[0].ops if op.kind == "tiny")
    layers = {}
    for name, row in summary.items():
        if name != "top":
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"] / r
    wall = traced_wall / r
    out = {
        "galois.sample_s": (span("galois.WordStream") + span("galois.sample_field_elements"), "s"),
        "galois.sampled_words": (span("galois.sample_field_elements", "note"), "count"),
        "galois.nullspace_s": (span("galois.nullspace_of_matrix"), "s"),
        "galois.nullspace_cells": (span("galois.nullspace_of_matrix", "note"), "count"),
        "filter.build_self_s": (span("filter.build", "self_s"), "s"),
        "filter.candidates_tried": (candidates / r, "count"),
        "filter.candidate_hit_ratio": (sum(rnd.scans_ok for rnd in rounds) / candidates if candidates else 0.0, "ratio"),
        "filter.query_self_s": (span("filter.query_many", "self_s"), "s"),
        "filter.measure_rates_self_s": (span("filter.measure_rates", "self_s"), "s"),
        "filter.serialize_s": (span("filter.serialize"), "s"),
        "filter.deserialize_s": (span("filter.deserialize"), "s"),
        "rate_distortion.solve_binary_s": (span("rate_distortion.solve_binary"), "s"),
        "rate_distortion.solve_logloss_s": (span("rate_distortion.solve_logloss"), "s"),
        "rate_distortion.metric_value_calls": (span("rate_distortion.metric_value", "calls"), "count"),
        "rate_distortion.closed_form_gap": (max((q["gap"] for q in quality), default=0.0), "bits/key"),
        "rate_distortion.max_budget_excess": (max((q["excess"] for q in quality), default=0.0), "budget"),
        "rate_distortion.support_atoms": (max((q["atoms"] for q in quality), default=0), "count"),
        "bruteforce.tiny_s": (tiny_s, "s"),
        "bruteforce.testers_enumerated": (testers, "count"),
        "bruteforce.testers_per_s": (testers / tiny_s if tiny_s else 0.0, "1/s"),
    }
    for layer in ("rate_distortion", "bruteforce", "galois", "filter"):
        out[layer + ".self_s"] = (layers.get(layer, 0.0), "s")
    out["bench.self_s"] = (wall - span("top"), "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - reference.wall_s, "s")
    out["trace.spans"] = (len(tracer.spans) / r, "count")
    out["trace.span_cost_s"] = (len(tracer.spans) / r * span_cost, "s")
    out.update(stage_metrics(reference))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_library()
    import spans
    from workloads import WORKLOADS, Round

    make_inputs, round_fn = WORKLOADS[name]
    setup_s, inputs = measure_setup(make_inputs, seed)
    done = []  # every round started, the untraced reference round included
    rounds = []  # the rounds the metrics come from

    def timed_round():
        rnd = Round()
        done.append(rnd)  # before the calls, so a failed check still counts them
        begin = time.perf_counter()
        round_fn(inputs, rnd)
        rnd.wall_s = time.perf_counter() - begin
        return rnd

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    tracer = spans.Tracer()
    start = time.perf_counter()
    try:
        if trace:
            reference = timed_round()
            tracer.install()
        # Stop before a round that would end past --seconds, judged by the
        # last round's length, so a run lasts at most about --seconds.
        while not rounds or time.perf_counter() - start + rounds[-1].wall_s <= seconds:
            rounds.append(timed_round())
        tracer.uninstall()
        if trace:
            wall = sum(rnd.wall_s for rnd in rounds)
            metrics = per_layer(tracer, reference, rounds, wall, spans.span_cost())
        else:
            metrics = end_to_end(rounds, setup_s)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        metrics = {}
    finally:
        tracer.uninstall()
    result["attempted"] = sum(len(rnd.ops) for rnd in done)
    result["failed"] = sum(op.failed for rnd in done for op in rnd.ops)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if tracer.spans:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))
    for key, metric in result["metrics"].items():
        print(f"{name:12s} {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{name:12s} rounds {len(rounds)}, attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run each workload in a fresh process, one after the other."""
    status = 0
    for name in NAMES:
        sys.stdout.flush()
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
