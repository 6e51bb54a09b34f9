"""Metric derivation for the repo benchmark.

The measuring binary (perfbench/src) writes one raw report per run: samples,
exact counters and, in a traced run, spans. This module turns a raw
report into the named metrics BENCHMARK.json lists, computes span self
times, and checks the result line against the benchmark's schema.
"""

import math
import statistics

# The tail percentiles a run may report, lowest first.
TAIL_CHOICES = (50.0, 90.0, 99.0, 99.9)
# A percentile is supported when at least this many samples lie beyond it.
TAIL_SUPPORT = 10

# name -> unit, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "value_ratio_min": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, which direction is better).
PER_LAYER = {
    "serve.overhead_p50_ms": ("ms", "lower"),
    "serve.overhead_p99_ms": ("ms", "lower"),
    "serve.shed_fraction": ("fraction", "lower"),
    "serve.generator_lag_p99_ms": ("ms", "lower"),
    "serve.saturation_qps": ("1/s", "higher"),
    "engine.queue_wait_p50_ms": ("ms", "lower"),
    "engine.queue_wait_p99_ms": ("ms", "lower"),
    "engine.exec_p50_ms": ("ms", "lower"),
    "engine.sherman_share": ("fraction", "higher"),
    "engine.stale_fraction": ("fraction", "lower"),
    "engine.refresh_wait_ms": ("ms", "lower"),
    "engine.repair_p50_ms": ("ms", "lower"),
    "engine.rebuild_p50_ms": ("ms", "lower"),
    "maxflow.iterations_per_query": ("count", "lower"),
    "maxflow.almost_route_calls_per_query": ("count", "lower"),
    "maxflow.us_per_iteration": ("us", "lower"),
    "maxflow.route_ms": ("ms", "lower"),
    "maxflow.nonconverged_fraction": ("fraction", "lower"),
    "maxflow.rounds_per_query": ("rounds", "lower"),
    "maxflow.hierarchy_build_ms": ("ms", "lower"),
    "maxflow.hierarchy_repair_ms": ("ms", "lower"),
    "capprox.apply_us": ("us", "lower"),
    "capprox.potentials_us": ("us", "lower"),
    "capprox.sample_ms_per_tree": ("ms", "lower"),
    "capprox.estimate_alpha_ms": ("ms", "lower"),
    "capprox.trees_repaired_per_batch": ("count", "lower"),
    "capprox.trees_reused_fraction": ("fraction", "higher"),
    "graph.publish_capacity_ms": ("ms", "lower"),
    "graph.publish_topology_ms": ("ms", "lower"),
    "baselines.dinic_ms": ("ms", "lower"),
    "baselines.tree_reroute_us": ("us", "lower"),
    "trace.latency_p50_overhead": ("fraction", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}

# The exact work counters: identical whenever the same code runs the
# same inputs.
EXACT_COUNTERS = (
    "engine.sherman_share",
    "maxflow.iterations_per_query",
    "maxflow.almost_route_calls_per_query",
    "maxflow.rounds_per_query",
    "maxflow.nonconverged_fraction",
    "capprox.trees_repaired_per_batch",
    "capprox.trees_reused_fraction",
)


def percentile(values, p):
    """The p-th percentile (0..100), interpolating between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n):
    """The highest percentile in TAIL_CHOICES with at least TAIL_SUPPORT
    samples beyond it, or None when even the median lacks them."""
    best = None
    for p in TAIL_CHOICES:
        if beyond(n, p) >= TAIL_SUPPORT:
            best = p
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# Samples per block, and the most blocks, of blocked_percentile.
BLOCK_SAMPLES = 1000
MAX_BLOCKS = 10


def blocked_percentile(values, p):
    """The median, over consecutive equal blocks of the samples in the
    order they were taken, of each block's p-th percentile. A run has
    min(MAX_BLOCKS, n // BLOCK_SAMPLES) blocks, and at least one, so a
    run with fewer than 2 * BLOCK_SAMPLES samples is one block and this
    is the plain percentile. A host stall that slows a few blocks then
    moves the result much less than it moves the percentile of the
    whole run."""
    blocks = max(1, min(MAX_BLOCKS, len(values) // BLOCK_SAMPLES))
    size = len(values) // blocks
    return statistics.median(
        percentile(values[b * size:(b + 1) * size], p)
        for b in range(blocks))


# --- spans -------------------------------------------------------------------

def parse_spans(raw_spans):
    """[name, id, parent, query, start_ns, end_ns, work] rows -> dicts."""
    keys = ("name", "id", "parent", "query", "start", "end", "work")
    return [dict(zip(keys, row)) for row in raw_spans]


def covered_length(interval, children):
    """Length of the part of `interval` that the child intervals cover."""
    start, end = interval
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) -
        covered_length((s["start"], s["end"]), children.get(s["id"], []))
        for s in spans
    }


def layer_self_ms(spans):
    """Layer (the span name's prefix) -> total self time in ms."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]] * 1e-6
    return out


def span_durations(spans, name, per_work=False):
    """Durations in ns of the spans called `name`; divided by each span's
    work count when per_work is set (spans with no work are skipped)."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        duration = s["end"] - s["start"]
        if per_work:
            if s["work"] > 0:
                out.append(duration / s["work"])
        else:
            out.append(duration)
    return out


# --- metrics -----------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of an untraced run. A run whose every answer
    failed has no samples; its metrics read 0 (it is reported incorrect)."""
    latency = raw["latency_ms"]

    def latency_pct(p):
        return blocked_percentile(latency, p) if latency else 0.0

    return {
        "setup_s": median(raw["setup_s"]),
        "throughput_qps": (raw["ok"] / raw["measured_s"]
                           if raw["measured_s"] > 0 else 0.0),
        "latency_p50_ms": latency_pct(50),
        "latency_p90_ms": latency_pct(90),
        "value_ratio_min": min(raw["value_ratios"], default=0.0),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    spans = parse_spans(raw["spans"])
    samples = raw["samples"]
    scalars = raw["scalars"]
    # A probe that runs once reports its counts as scalars.
    counters = {**scalars, **raw["counters"]}

    def sample_pct(name, p):
        values = samples.get(name, [])
        return percentile(values, p) if values else 0.0

    def span_ms(name):
        return median(span_durations(spans, name)) * 1e-6

    def span_us(name):
        return median(span_durations(spans, name)) * 1e-3

    untraced = raw["latency_ms"]
    traced = raw["traced_latency_ms"]
    common = min(len(untraced), len(traced))
    overhead = 0.0
    if common:
        overhead = (percentile(traced[:common], 50) /
                    percentile(untraced[:common], 50) - 1.0)

    return {
        "serve.overhead_p50_ms": sample_pct("serve.overhead_ms", 50),
        "serve.overhead_p99_ms": sample_pct("serve.overhead_ms", 99),
        "serve.shed_fraction": scalars.get("serve.shed_fraction", 0.0),
        "serve.generator_lag_p99_ms": sample_pct("serve.generator_lag_ms",
                                                 99),
        "serve.saturation_qps": scalars.get("serve.saturation_qps", 0.0),
        "engine.queue_wait_p50_ms": sample_pct("engine.queue_wait_ms", 50),
        "engine.queue_wait_p99_ms": sample_pct("engine.queue_wait_ms", 99),
        "engine.exec_p50_ms": sample_pct("engine.exec_ms", 50),
        "engine.sherman_share": counters.get("engine.sherman_share", 0.0),
        "engine.stale_fraction": scalars.get("engine.stale_fraction", 0.0),
        "engine.refresh_wait_ms": sample_pct("engine.refresh_wait_ms", 50),
        "engine.repair_p50_ms": sample_pct("engine.repair_ms", 50),
        "engine.rebuild_p50_ms": sample_pct("engine.rebuild_ms", 50),
        "maxflow.iterations_per_query":
            counters.get("maxflow.iterations_per_query", 0.0),
        "maxflow.almost_route_calls_per_query":
            counters.get("maxflow.almost_route_calls_per_query", 0.0),
        "maxflow.us_per_iteration": median(span_durations(
            spans, "maxflow.almost_route", per_work=True)) * 1e-3,
        "maxflow.route_ms": span_ms("maxflow.route"),
        "maxflow.nonconverged_fraction":
            counters.get("maxflow.nonconverged_fraction", 0.0),
        "maxflow.rounds_per_query":
            counters.get("maxflow.rounds_per_query", 0.0),
        "maxflow.hierarchy_build_ms": span_ms("maxflow.hierarchy_build"),
        "maxflow.hierarchy_repair_ms":
            sample_pct("maxflow.hierarchy_repair_ms", 50),
        "capprox.apply_us": span_us("capprox.apply_into"),
        "capprox.potentials_us": span_us("capprox.potentials_into"),
        "capprox.sample_ms_per_tree": median(span_durations(
            spans, "capprox.sample_virtual_trees", per_work=True)) * 1e-6,
        "capprox.estimate_alpha_ms": span_ms("capprox.estimate_alpha"),
        "capprox.trees_repaired_per_batch":
            counters.get("capprox.trees_repaired_per_batch", 0.0),
        "capprox.trees_reused_fraction":
            counters.get("capprox.trees_reused_fraction", 0.0),
        "graph.publish_capacity_ms": span_ms("graph.publish_capacity"),
        "graph.publish_topology_ms": span_ms("graph.publish_topology"),
        "baselines.dinic_ms": span_ms("baselines.dinic"),
        "baselines.tree_reroute_us": span_us("baselines.tree_reroute"),
        "trace.latency_p50_overhead": overhead,
    }


def exact_counters(counters):
    return {k: counters[k] for k in EXACT_COUNTERS if k in counters}


def counter_mismatches(raw):
    """Names of the exact counters that the two executions of the
    counter prefix in one run disagree on; a counter only one of them
    reports disagrees too."""
    first = exact_counters(raw["counters"])
    repeat = exact_counters(raw["counters_repeat"])
    return sorted(k for k in first.keys() | repeat.keys()
                  if first.get(k) != repeat.get(k))


# --- output schema -----------------------------------------------------------

def result_line(correct, attempted, failed, metrics, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def schema_problems(result, spec, trace):
    """Why `result` does not meet the benchmark's output contract for the
    metric lists in `spec` (BENCHMARK.json); empty when it does."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    if set(metrics) != set(want):
        problems.append("metric names differ from BENCHMARK.json: %s" %
                        sorted(set(metrics) ^ set(want)))
    for name, unit in want.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append("%s: expected unit %s" % (name, unit))
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("%s is not a finite number" % name)
    return problems
