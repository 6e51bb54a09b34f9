// Shared pieces of dmf_perfbench, the repo benchmark's measuring binary:
// the run options, the in-memory span recorder, the raw report every workload
// fills, and the workload and probe entry points.
//
// This binary measures; perfbench/run.py turns the raw report into named
// metrics. A workload records plain samples (latencies, per-layer
// timings) and, in a traced run, spans around each call it makes into
// a library layer. Nothing under src/ is instrumented: every span is
// taken here, at a public function of one of the layers serve, engine,
// maxflow, capprox, graph and baselines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "graph/graph.h"
#include "maxflow/almost_route.h"
#include "maxflow/sherman.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the first call (process-relative, monotonic).
std::int64_t now_ns();

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string raw_path;
};

// One finished span. `work` is an exact count attached by the caller
// (gradient iterations of an almost_route call, trees sampled, ...).
struct SpanRecord {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t query = 0;   // shared by every span of one query
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double work = 0.0;
};

// Spans stay in memory and are written once, with the report, when the
// run ends. A disabled tracer records nothing and hands out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::uint32_t next_id() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  void record(const SpanRecord& span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// Times one call into a layer: construction starts the span, destruction
// records it. Costs two clock reads and one lock when tracing is on, and
// nothing but a branch when it is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint32_t parent = 0,
       std::uint32_t query = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return record_.id; }
  void set_work(double work) { record_.work = work; }

 private:
  Tracer& tracer_;
  SpanRecord record_;
};

// Everything one run measured. run.py derives the metrics from it.
struct Report {
  explicit Report(const RunOptions& opts) : options(opts), tracer(opts.trace) {}

  RunOptions options;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;     // engine errors, non-200s, wrong answers
  std::vector<std::string> errors;  // first few failure messages
  std::vector<double> setup_s;      // one per set-up
  std::vector<double> latency_ms;   // per operation, untraced phase
  std::vector<double> traced_latency_ms;  // the same operation, traced
  double measured_s = 0.0;          // wall time the operations ran in
  std::int64_t ok = 0;              // correct answers
  std::vector<double> value_ratios;  // max-flow answer / exact Dinic value
  double peak_rss_mb = 0.0;
  // Exact work counters over a fixed, seed-determined prefix of the
  // workload, and the same counters from a second execution of that
  // prefix in this run. They must be equal: same inputs, same work.
  std::map<std::string, double> counters;
  std::map<std::string, double> counters_repeat;
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  Tracer tracer;

  // Counts `count` failed operations, keeping the first few messages.
  void fail(const std::string& message, std::int64_t count = 1);
  void write_json(const std::string& path) const;
};

// --- inputs ------------------------------------------------------------------

// Each workload serves one fixed graph instance, generated from this
// seed; the run's --seed draws everything else (queries, arrival times,
// mutation batches). Per-graph cost differences would otherwise swamp
// run-to-run comparisons at these sample counts.
inline constexpr std::uint64_t kGraphSeed = 1;

// The `gnp` and `grid` graph families of the experiment harness: G(n, 4/n)
// made connected, and a side x side grid, capacities uniform in [1, 8].
dmf::Graph make_gnp(dmf::NodeId n, std::uint64_t seed);
dmf::Graph make_grid(int side, std::uint64_t seed);

// `count` random (s, t) pairs with s != t.
std::vector<std::pair<dmf::NodeId, dmf::NodeId>> random_pairs(
    dmf::NodeId n, int count, std::uint64_t seed);

// A zero-sum demand over `terminals` distinct random nodes.
std::vector<double> random_demand(dmf::NodeId n, int terminals,
                                  std::uint64_t seed);

double exact_value(const dmf::Graph& g, dmf::NodeId s, dmf::NodeId t);

// Checks a max-flow answer: feasible (|f_e| <= c_e (1 + 1e-9)),
// conserving, and carrying `value` from s to t. Empty string when it holds.
std::string check_st_flow(const dmf::Graph& g, dmf::NodeId s, dmf::NodeId t,
                          double value, const std::vector<double>& flow);
// Checks that `flow` routes `demand` exactly (to rounding).
std::string check_routes(const dmf::Graph& g, const std::vector<double>& demand,
                         const std::vector<double>& flow);

// --- workloads (one file each) -----------------------------------------------

void run_solve(Report& report);
void run_serve(Report& report);
void run_mutate(Report& report);

// --- probes: per-layer calls on a workload's own engine and graph -------------

// The serve-layer probe used on workloads that do not cross HTTP: a
// ServeApp on `engine`, a short open loop of exact queries, then a short
// closed loop. Fills the serve.* samples and scalars.
void probe_serve(Report& report, dmf::FlowEngine& engine, double seconds);

// Times one capacity-only and one topology batch through `engine`
// (publish, refresh wait, repair), filling the graph.* and refresh
// samples and the capprox.trees_* scalars. Used on workloads that do
// not mutate.
void probe_mutation(Report& report, dmf::FlowEngine& engine,
                    std::uint64_t seed);

// Direct calls into the solver-layer functions on the engine's serving
// hierarchy, which must not be swapped while this object lives.
class SolverLayers {
 public:
  explicit SolverLayers(const dmf::FlowEngine& engine);

  // The engine's own solver configuration on its own hierarchy.
  [[nodiscard]] const dmf::ShermanSolver& solver() const { return solver_; }

  // One call each of maxflow.almost_route, capprox.apply_into,
  // capprox.potentials_into and baselines.tree_reroute on `demand`, and
  // of baselines.dinic when s != t, each inside its own span.
  void trace_calls(Tracer& tracer, const std::vector<double>& demand,
                   dmf::NodeId s, dmf::NodeId t, std::uint32_t parent,
                   std::uint32_t query);

 private:
  const dmf::ShermanHierarchy& hierarchy_;
  dmf::ShermanSolver solver_;
  dmf::AlmostRouteOptions almost_route_;
  std::vector<double> y_, pi_, work_a_, work_b_;
};

// The solver-layer probe for workloads whose queries never reach the
// solver: maxflow.route plus SolverLayers::trace_calls on the unit s-t
// demand of each pair, under one root span per pair.
void probe_solver_layers(Report& report, const dmf::FlowEngine& engine,
                         const std::vector<std::pair<dmf::NodeId, dmf::NodeId>>&
                             pairs);

// Times the hierarchy build pieces on `g` with the engine's options:
// maxflow.hierarchy_build, capprox.sample_virtual_trees and
// capprox.estimate_alpha.
void probe_build(Report& report, const dmf::Graph& g,
                 const dmf::EngineOptions& options, std::uint64_t seed);

// Exact work of the answers in a workload's fixed, seed-determined
// prefix, which every run completes: identical on every run with the
// same seed.
struct PrefixCounters {
  double answers = 0.0;
  double by_sherman = 0.0;
  double iterations = 0.0;
  double rounds = 0.0;
  double nonconverged = 0.0;
  double routes = 0.0;  // answers that report their AlmostRoute calls
  double almost_route_calls = 0.0;

  void add(bool sherman, double gradient_iterations, double answer_rounds,
           bool converged);
  void add_route_calls(int calls);
  void write(std::map<std::string, double>& counters) const;
};

// Stale share from the engine's counters.
void set_stale_fraction(Report& report, const dmf::EngineStats& stats);

double peak_rss_mb();

}  // namespace perfbench
