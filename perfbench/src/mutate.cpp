// Workload `mutate`: writes beside reads on a 2-worker FlowEngine over
// make_family("gnp", 2048). A closed-loop writer applies a fixed, seeded
// sequence of MutationBatches and waits for each version to be served:
// three capacity-only batches (8 edges, +/-2% jitter), which take the
// incremental repair path, then one topology batch (one added edge),
// which takes the full rebuild; the sequence runs twice per episode. A
// closed-loop reader issues exact max_flow reads until the last batch is
// served. Episodes restart from the generated graph until the budget is
// spent, so a faster refresh changes how many episodes run, never how
// much the graph grows.
//
// Also here: the mutation probe other workloads' traced runs use.
#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "bench.h"
#include "graph/graph_store.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr dmf::NodeId kNodes = 2048;
constexpr int kCycles = 2;  // (3 capacity + 1 topology) batches each
constexpr int kReadPairs = 256;
// Reads made on version 0 before the writer starts; the exact counters
// come from them.
constexpr int kCounterPrefix = 16;

struct Batch {
  dmf::MutationBatch batch;
  bool topology = false;
};

std::vector<Batch> make_batches(const dmf::Graph& g, int cycles,
                                std::uint64_t seed) {
  dmf::Rng rng(seed ^ 0xba7c4ULL);
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  std::vector<Batch> out;
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < 3; ++k) {
      Batch b;
      for (int j = 0; j < 8; ++j) {
        const auto e = static_cast<dmf::EdgeId>(rng.next_below(m));
        const double jitter =
            0.98 + 0.04 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
        b.batch.set_capacity(e, g.capacity(e) * jitter);
      }
      out.push_back(std::move(b));
    }
    Batch b;
    b.topology = true;
    const auto u = static_cast<dmf::NodeId>(rng.next_below(n));
    auto v = static_cast<dmf::NodeId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    b.batch.add_edge(u, v, 1.0 + static_cast<double>(rng.next_below(8)));
    out.push_back(std::move(b));
  }
  return out;
}

// Applies one batch and waits until its version is served, recording
// the publish time, the refresh latency and the refresh's wait.
void apply_batch(Report& report, Tracer& tracer, dmf::FlowEngine& engine,
                 const Batch& b, std::uint32_t query) {
  const dmf::RebuildStats before = engine.stats().rebuild;
  const Span root(tracer, "bench.batch", 0, query);
  const std::int64_t start = now_ns();
  dmf::ApplyResult applied;
  {
    const Span s(tracer,
                 b.topology ? "graph.publish_topology" : "graph.publish_capacity",
                 root.id(), query);
    applied = engine.apply(b.batch);
  }
  const std::int64_t published = now_ns();
  bool served = false;
  {
    const Span s(tracer, "engine.wait_for_version", root.id(), query);
    served = engine.wait_for_version(applied.version, 120.0);
  }
  const std::int64_t done = now_ns();
  if (!served) {
    report.fail("batch for version " + std::to_string(applied.version) +
                " was never served");
    return;
  }
  const dmf::RebuildStats after = engine.stats().rebuild;
  const double refresh_ms = ms_between(start, done);
  report.samples[b.topology ? "graph.publish_topology_ms"
                            : "graph.publish_capacity_ms"]
      .push_back(ms_between(start, published));
  report.samples[b.topology ? "engine.rebuild_ms" : "engine.repair_ms"]
      .push_back(refresh_ms);
  report.samples["engine.refresh_wait_ms"].push_back(
      refresh_ms - (after.seconds_total - before.seconds_total) * 1e3);
  if (after.repairs_completed > before.repairs_completed) {
    report.samples["maxflow.hierarchy_repair_ms"].push_back(
        (after.repair_seconds_total - before.repair_seconds_total) * 1e3 /
        static_cast<double>(after.repairs_completed -
                            before.repairs_completed));
  }
}

// Exact counters of the refreshes so far (deterministic: the writer
// waits for every version, so refreshes never coalesce).
void set_repair_counters(std::map<std::string, double>& out,
                         const dmf::RebuildStats& r) {
  out["capprox.trees_repaired_per_batch"] =
      r.repairs_completed > 0 ? static_cast<double>(r.trees_repaired) /
                                    static_cast<double>(r.repairs_completed)
                              : 0.0;
  const auto trees = r.trees_repaired + r.trees_reused;
  out["capprox.trees_reused_fraction"] =
      trees > 0 ? static_cast<double>(r.trees_reused) /
                      static_cast<double>(trees)
                : 0.0;
}

struct Read {
  int pair = 0;
  dmf::GraphVersion version = 0;
  double value = 0.0;
  double latency_ms = 0.0;
  double seconds = 0.0;
  bool ok = false;
  bool backwards = false;  // served_version below an earlier read's
  std::string solver;
  double rounds = 0.0;
};

struct EpisodeTotals {
  std::int64_t served = 0;
  std::int64_t stale = 0;
};

// One episode: set-up, then the writer's batch sequence beside the
// reader. Returns the reads; adds the set-up time and the measured
// window to the report, and the refresh counters to `counters` unless
// it is null. `after` runs on the engine before it is torn down (the
// traced episode's probes).
std::vector<Read> run_episode(
    Report& report, Tracer& tracer, const dmf::Graph& g,
    const std::vector<Batch>& batches,
    const std::vector<std::pair<dmf::NodeId, dmf::NodeId>>& pairs,
    std::map<std::tuple<dmf::GraphVersion, int>, double>& expected,
    EpisodeTotals& totals, std::map<std::string, double>* counters,
    const std::function<void(dmf::FlowEngine&)>& after) {
  dmf::EngineOptions options;
  options.threads = 2;
  const std::int64_t setup_start = now_ns();
  dmf::FlowEngine engine(dmf::Graph(g), options);
  report.setup_s.push_back(ms_between(setup_start, now_ns()) * 1e-3);

  std::vector<Read> reads;
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  const std::int64_t window_start = now_ns();
  std::thread reader([&] {
    dmf::GraphVersion last = 0;
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      Read r;
      r.pair = i % static_cast<int>(pairs.size());
      const auto [s, t] = pairs[static_cast<std::size_t>(r.pair)];
      // Timed from before the span opens to after it is recorded, so a
      // traced read's latency includes what tracing costs.
      const std::int64_t start = now_ns();
      dmf::Result<dmf::MaxFlowApproxResult> res;
      {
        const Span span(tracer, "engine.submit", 0,
                        static_cast<std::uint32_t>(i + 1));
        res =
            engine.submit(dmf::MaxFlowQuery{s, t, 0.0, /*exact=*/true}).get();
      }
      r.latency_ms = ms_between(start, now_ns());
      r.ok = res.ok();
      r.version = res.served_version;
      r.seconds = res.seconds;
      r.solver = res.solver;
      if (r.ok) {
        r.value = res->value;
        r.rounds = res->rounds;
      }
      r.backwards = r.version < last;
      last = std::max(last, r.version);
      reads.push_back(std::move(r));
      completed.store(i + 1, std::memory_order_release);
    }
  });
  while (completed.load(std::memory_order_acquire) < kCounterPrefix) {
    std::this_thread::yield();
  }
  try {
    for (std::size_t k = 0; k < batches.size(); ++k) {
      apply_batch(report, tracer, engine, batches[k],
                  static_cast<std::uint32_t>(1'000'000 + k));
    }
  } catch (...) {
    stop.store(true, std::memory_order_release);
    reader.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const double window_s = ms_between(window_start, now_ns()) * 1e-3;
  if (!tracer.enabled()) report.measured_s += window_s;

  const dmf::EngineStats stats = engine.stats();
  totals.served += stats.queries_served;
  totals.stale += stats.queries_served_stale;
  if (counters != nullptr) set_repair_counters(*counters, stats.rebuild);
  // Exact values per (version, pair), computed once for all episodes:
  // every episode walks the same graph versions.
  for (const Read& r : reads) {
    const auto key = std::make_tuple(r.version, r.pair);
    if (r.ok && expected.count(key) == 0) {
      const auto [s, t] = pairs[static_cast<std::size_t>(r.pair)];
      expected[key] =
          exact_value(*engine.store()->snapshot(r.version).graph, s, t);
    }
  }
  if (after) after(engine);
  return reads;
}

// Checks every read; an untraced episode's reads feed the end-to-end
// samples, a traced one's the traced latencies. Adds the prefix's exact
// counters to `counters` unless it is null.
void check_reads(Report& report, const std::vector<Read>& reads,
                 const std::map<std::tuple<dmf::GraphVersion, int>, double>&
                     expected,
                 std::map<std::string, double>* counters, bool traced) {
  PrefixCounters prefix;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const Read& r = reads[i];
    ++report.attempted;
    if (!r.ok) {
      report.fail("read " + std::to_string(i) + " failed");
      continue;
    }
    if (r.backwards) {
      report.fail("read " + std::to_string(i) +
                  ": served_version went backwards");
      continue;
    }
    const double want = expected.at(std::make_tuple(r.version, r.pair));
    if (!(std::abs(r.value - want) <= 1e-9 * std::max(1.0, want))) {
      report.fail("read " + std::to_string(i) + ": wrong max-flow value");
      continue;
    }
    ++report.ok;
    report.value_ratios.push_back(r.value / want);
    if (traced) {
      report.traced_latency_ms.push_back(r.latency_ms);
      continue;
    }
    report.latency_ms.push_back(r.latency_ms);
    report.samples["engine.exec_ms"].push_back(r.seconds * 1e3);
    report.samples["engine.queue_wait_ms"].push_back(r.latency_ms -
                                                     r.seconds * 1e3);
    if (static_cast<int>(i) < kCounterPrefix) {
      // Exact solvers run no gradient steps.
      prefix.add(r.solver == "sherman-approx", 0.0, r.rounds, true);
    }
  }
  if (counters != nullptr) prefix.write(*counters);
}

}  // namespace

void probe_mutation(Report& report, dmf::FlowEngine& engine,
                    std::uint64_t seed) {
  const std::vector<Batch> batches =
      make_batches(*engine.snapshot().graph, 1, seed);
  const dmf::RebuildStats before = engine.stats().rebuild;
  apply_batch(report, report.tracer, engine, batches.front(), 2'000'000);
  apply_batch(report, report.tracer, engine, batches.back(), 2'000'001);
  dmf::RebuildStats delta = engine.stats().rebuild;
  delta.repairs_completed -= before.repairs_completed;
  delta.trees_repaired -= before.trees_repaired;
  delta.trees_reused -= before.trees_reused;
  // Scalars, not counters: the probe runs once, so nothing repeats it.
  set_repair_counters(report.scalars, delta);
}

void run_mutate(Report& report) {
  const RunOptions& opts = report.options;
  const dmf::Graph g = make_gnp(kNodes, kGraphSeed);
  const std::vector<Batch> batches = make_batches(g, kCycles, opts.seed);
  const auto pairs = random_pairs(kNodes, kReadPairs, opts.seed ^ 0x4ead5ULL);
  std::map<std::tuple<dmf::GraphVersion, int>, double> expected;
  EpisodeTotals totals;

  // Untraced episodes until the budget (a third of it in a traced run)
  // is spent, at least two, whose exact counters must agree; a traced
  // run then adds one traced episode and the probes on its engine.
  const double untraced_s = opts.trace ? opts.seconds / 3.0 : opts.seconds;
  Tracer off(false);
  const std::int64_t start = now_ns();
  for (int episode = 0;
       episode < 2 || ms_between(start, now_ns()) < untraced_s * 1e3;
       ++episode) {
    std::map<std::string, double>* counters =
        episode == 0   ? &report.counters
        : episode == 1 ? &report.counters_repeat
                       : nullptr;
    const std::vector<Read> reads = run_episode(
        report, off, g, batches, pairs, expected, totals, counters, {});
    check_reads(report, reads, expected, counters, /*traced=*/false);
  }
  report.scalars["engine.stale_fraction"] =
      totals.served > 0 ? static_cast<double>(totals.stale) /
                              static_cast<double>(totals.served)
                        : 0.0;
  if (!opts.trace) return;

  EpisodeTotals traced_totals;
  const std::vector<Read> reads = run_episode(
      report, report.tracer, g, batches, pairs, expected, traced_totals,
      /*counters=*/nullptr, [&](dmf::FlowEngine& engine) {
        probe_solver_layers(report, engine, {pairs.front()});
        probe_serve(report, engine, opts.seconds / 10.0);
        probe_build(report, g, engine.options(), opts.seed);
      });
  check_reads(report, reads, expected, /*counters=*/nullptr,
              /*traced=*/true);
}

}  // namespace perfbench
