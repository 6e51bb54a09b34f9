#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload solve|serve|mutate [--seed N] \\
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the measuring binary
dmf_perfbench (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/perfbench on first use, runs the workload with inputs generated from the seed,
checks every answer, and prints each metric with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the run is traced and the metrics are the per-layer ones.
Exits nonzero, without a result line, when the build or the run fails,
and with "correct": false and a nonzero code on any wrong answer or when
the exact work counters differ between the two executions of the
workload's counter prefix that every run makes.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing beside the sources
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "serve", "mutate")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds dmf_perfbench; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: %s" % " ".join(step))
    return os.path.join(out_dir, "dmf_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_report(raw, metrics, units, trace):
    n = len(raw["latency_ms"])
    attempted = raw["attempted"]
    print("perfbench %s seed=%d trace=%d: %d attempted, %d failed" %
          (raw["workload"], raw["seed"], trace, attempted, raw["failed"]))
    for name in units:
        print("  %-38s %14.6g %s" % (name, metrics[name], units[name]))
    if not trace:
        print("  latency_p90_ms: %d samples, %d beyond it" %
              (n, stats.beyond(n, 90)))
        # Higher tails, where the sample count supports them (ungated:
        # host stalls make them unrepeatable on shared machines).
        for p in stats.TAIL_CHOICES:
            if p > 90 and stats.beyond(n, p) >= stats.TAIL_SUPPORT:
                print("  latency_p%g_ms %.6g ms (%d beyond it)" %
                      (p, stats.percentile(raw["latency_ms"], p),
                       stats.beyond(n, p)))
        print("  failed_fraction %.6g (%d of %d)" %
              (raw["failed"] / max(1, attempted), raw["failed"], attempted))
        print("  setup_s is the median of %d set-ups" % len(raw["setup_s"]))
    else:
        spans = stats.parse_spans(raw["spans"])
        print("  %d spans; self time by layer:" % len(spans))
        for layer, ms in sorted(stats.layer_self_ms(spans).items()):
            print("    %-12s %12.3f ms" % (layer, ms))
    for message in raw["errors"]:
        print("  error: %s" % message)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: perfbench/seeds.json)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        with open(os.path.join(HERE, "seeds.json")) as f:
            args.seed = json.load(f)["default_seed"]

    spec = load_spec()
    out_dir = build_dir()
    binary = build(out_dir)
    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--raw", raw_path]
    # A run takes about --seconds plus its set-ups and, traced, probes.
    timeout_s = 2 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: dmf_perfbench took more than %g s" %
                         timeout_s)
    if proc.returncode != 0:
        raise SystemExit("perfbench: dmf_perfbench exited with %d" %
                         proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)

    trace = bool(args.trace)
    metrics = stats.per_layer(raw) if trace else stats.end_to_end(raw)
    units = stats.PER_LAYER_UNITS if trace else stats.END_TO_END_UNITS
    mismatches = stats.counter_mismatches(raw)
    failed = raw["failed"]
    for name in mismatches:
        raw["errors"].append("exact counter %s differs between two "
                             "executions of the same inputs" % name)
    print_report(raw, metrics, units, trace)
    correct = failed == 0 and not mismatches
    result = stats.result_line(correct, raw["attempted"], failed, metrics,
                               units)
    problems = stats.schema_problems(result, spec, trace)
    if problems:
        raise SystemExit("perfbench: bad result: %s" % "; ".join(problems))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
