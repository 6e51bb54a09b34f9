#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the JSON artifacts a CI run just produced (BENCH_e1.json,
BENCH_e13.json, ..., BENCH_e17.json) against the committed
reference artifacts in bench/baselines/ and fails when throughput
regresses beyond the threshold:

  * every scenario carrying a `throughput_qps` field is compared;
  * a scenario is a REGRESSION when current < (1 - threshold) * baseline
    (default threshold 0.25, i.e. a >25% drop);
  * scenarios whose baseline also carries a `speedup` field (e.g. the
    e14c repair-vs-rebuild ratio) gate that ratio the same way — unlike
    absolute qps it is machine-class independent, so it guards wins
    like "repair is Nx a full rebuild" directly;
  * metrics in LOWER_METRICS (e.g. the e15 `p99_over_p50` tail ratio)
    gate the other direction — regression when current grows past
    (1 + slack) * baseline — and are likewise machine-class
    independent;
  * a baseline scenario absent from the current artifacts is MISSING
    and fails the gate — a bench that silently skips (or renames) a
    scenario must not read as "no regression"; retire it from the
    baseline intentionally instead;
  * scenarios without a baseline yet are reported as NEW and pass.

Override: set BENCH_REGRESSION_OVERRIDE=1 (the CI workflow sets it when
the PR carries the `allow-bench-regression` label) to report the table
but exit 0 — for PRs that knowingly trade throughput, together with a
baseline refresh.

Refreshing the baseline: copy the new artifacts over
bench/baselines/BENCH_*.json in the same PR that changes the
performance envelope, and say why in the PR description.

Caveat: the gate compares absolute qps, so the baselines are only
meaningful for the machine class that produced them. The generous 25%
threshold absorbs same-class runner noise; if CI moves to a different
runner class (or the gate fires on every PR without a code cause),
refresh the baselines from a CI artifact of that class rather than a
dev machine.

Usage:
  check_bench_regression.py [--baseline-dir bench/baselines]
                            [--current-dir .] [--threshold 0.25]
                            [--output bench_regression_report.md]
"""

import argparse
import json
import os
import sys

ARTIFACTS = [
    "BENCH_e1.json",
    "BENCH_e13.json",
    "BENCH_e14.json",
    "BENCH_e15.json",
    "BENCH_e17.json",
]
METRIC = "throughput_qps"
RATIO_METRIC = "speedup"
# Lower-is-better metrics with their slack: fail when
# current > (1 + slack) * baseline. The e15 p99/p50 tail ratio is
# machine-class independent (both quantiles scale with the machine),
# so it guards latency-tail shape the way `speedup` guards repair
# wins; the generous 1.0 slack (2x) absorbs scheduler noise in the
# tail while still catching a convoy/queueing bug.
LOWER_METRICS = {"p99_over_p50": 1.0}


def load_scenarios(path):
    """scenario name -> record, for one artifact file ([] if absent)."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        records = json.load(f)
    return {r["scenario"]: r for r in records if "scenario" in r}


def compare(baseline, current, threshold):
    """Yields (scenario, base_qps, cur_qps, ratio, status) rows."""
    for name, base in sorted(baseline.items()):
        for metric in (METRIC, RATIO_METRIC, *LOWER_METRICS):
            if metric not in base:
                continue
            label = name if metric == METRIC else f"{name}[{metric}]"
            base_val = float(base[metric])
            cur = current.get(name)
            if cur is None or metric not in cur:
                yield label, base_val, None, None, "MISSING"
                continue
            cur_val = float(cur[metric])
            ratio = cur_val / base_val if base_val > 0 else float("inf")
            if metric in LOWER_METRICS:
                # Lower is better: regression when the ratio grows past
                # the metric's own slack.
                ok = ratio <= 1.0 + LOWER_METRICS[metric]
            else:
                ok = ratio >= 1.0 - threshold
            yield label, base_val, cur_val, ratio, "OK" if ok else "REGRESSION"
    for name in sorted(set(current) - set(baseline)):
        if METRIC in current[name]:
            yield name, None, float(current[name][METRIC]), None, "NEW"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--output", default="bench_regression_report.md")
    args = parser.parse_args()

    rows = []
    missing_artifacts = []
    for artifact in ARTIFACTS:
        baseline = load_scenarios(os.path.join(args.baseline_dir, artifact))
        current = load_scenarios(os.path.join(args.current_dir, artifact))
        if baseline is None:
            missing_artifacts.append(
                f"no baseline {artifact} (add it under {args.baseline_dir}/)")
            continue
        if current is None:
            missing_artifacts.append(
                f"current run produced no {artifact} — did the bench crash?")
            continue
        rows.extend(compare(baseline, current, args.threshold))

    lines = [
        "# Benchmark regression gate",
        "",
        f"Gate: current >= {1.0 - args.threshold:.2f}x baseline "
        f"`{METRIC}` per scenario.",
        "",
        "| scenario | baseline qps | current qps | ratio | status |",
        "|---|---|---|---|---|",
    ]
    regressions = []
    missing_scenarios = []
    for name, base_qps, cur_qps, ratio, status in rows:
        fmt = lambda x: "-" if x is None else f"{x:.2f}"
        lines.append(
            f"| {name} | {fmt(base_qps)} | {fmt(cur_qps)} | "
            f"{fmt(ratio)} | {status} |")
        if status == "REGRESSION":
            regressions.append((name, ratio))
        elif status == "MISSING":
            missing_scenarios.append(name)
    for note in missing_artifacts:
        lines.append(f"\n**WARNING**: {note}")

    override = os.environ.get("BENCH_REGRESSION_OVERRIDE", "") not in ("", "0")
    if regressions or missing_scenarios:
        lines.append("")
        verdict = (
            "Regressions OVERRIDDEN by the `allow-bench-regression` label."
            if override
            else "FAIL: refresh bench/baselines/ intentionally (with "
            "justification) or apply the `allow-bench-regression` label.")
        lines.append(verdict)
    report = "\n".join(lines) + "\n"
    with open(args.output, "w") as f:
        f.write(report)
    print(report)

    if missing_artifacts and not override:
        # A silently absent artifact must not pass the gate: a crashed
        # bench binary would otherwise read as "no regression".
        print("bench gate: missing artifacts", file=sys.stderr)
        return 1
    if missing_scenarios and not override:
        # Same logic per scenario: a bench that silently skipped one of
        # its gated scenarios is a coverage loss, not a pass.
        for name in missing_scenarios:
            print(f"bench gate: {name} missing from current artifacts",
                  file=sys.stderr)
        return 1
    if regressions and not override:
        for name, ratio in regressions:
            print(f"bench gate: {name} at {ratio:.2f}x baseline",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
