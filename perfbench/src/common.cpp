// Span recorder, raw report writer, input generators, answer checks and
// main().
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baselines/dinic.h"
#include "bench.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void Tracer::record(const SpanRecord& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(Tracer& tracer, const char* name, std::uint32_t parent,
           std::uint32_t query)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  record_.name = name;
  record_.id = tracer_.next_id();
  record_.parent = parent;
  record_.query = query;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!tracer_.enabled()) return;
  record_.end_ns = now_ns();
  tracer_.record(record_);
}

void Report::fail(const std::string& message, std::int64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(message);
}

namespace {

dmf::serve::Json numbers(const std::vector<double>& values) {
  return dmf::serve::JsonArray(values.begin(), values.end());
}

dmf::serve::Json number_map(const std::map<std::string, double>& m) {
  dmf::serve::JsonObject out;
  for (const auto& [key, value] : m) out.emplace_back(key, value);
  return out;
}

}  // namespace

void Report::write_json(const std::string& path) const {
  using dmf::serve::Json;
  using dmf::serve::JsonArray;
  using dmf::serve::JsonObject;
  JsonObject sample_map;
  for (const auto& [key, values] : samples) {
    sample_map.emplace_back(key, numbers(values));
  }
  // Spans as [name, id, parent, query, start_ns, end_ns, work].
  JsonArray span_rows;
  for (const SpanRecord& s : tracer.spans()) {
    span_rows.emplace_back(JsonArray{
        s.name, static_cast<std::int64_t>(s.id),
        static_cast<std::int64_t>(s.parent),
        static_cast<std::int64_t>(s.query), s.start_ns, s.end_ns, s.work});
  }
  const Json doc = JsonObject{
      {"workload", options.workload},
      {"seed", options.seed},
      {"trace", options.trace ? 1 : 0},
      {"seconds", options.seconds},
      {"attempted", attempted},
      {"failed", failed},
      {"ok", ok},
      {"errors", JsonArray(errors.begin(), errors.end())},
      {"measured_s", measured_s},
      {"peak_rss_mb", peak_rss_mb},
      {"setup_s", numbers(setup_s)},
      {"latency_ms", numbers(latency_ms)},
      {"traced_latency_ms", numbers(traced_latency_ms)},
      {"value_ratios", numbers(value_ratios)},
      {"counters", number_map(counters)},
      {"counters_repeat", number_map(counters_repeat)},
      {"scalars", number_map(scalars)},
      {"samples", std::move(sample_map)},
      {"spans", std::move(span_rows)},
  };
  std::ofstream out(path);
  out << doc.dump() << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

dmf::Graph make_gnp(dmf::NodeId n, std::uint64_t seed) {
  dmf::Rng rng(seed);
  return dmf::make_gnp_connected(n, 4.0 / static_cast<double>(n), {1, 8},
                                 rng);
}

dmf::Graph make_grid(int side, std::uint64_t seed) {
  dmf::Rng rng(seed);
  return dmf::make_grid(side, side, {1, 8}, rng);
}

std::vector<std::pair<dmf::NodeId, dmf::NodeId>> random_pairs(
    dmf::NodeId n, int count, std::uint64_t seed) {
  dmf::Rng rng(seed);
  const auto nodes = static_cast<std::uint64_t>(n);
  std::vector<std::pair<dmf::NodeId, dmf::NodeId>> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto s = static_cast<dmf::NodeId>(rng.next_below(nodes));
    auto t = static_cast<dmf::NodeId>(rng.next_below(nodes - 1));
    if (t >= s) ++t;
    out.emplace_back(s, t);
  }
  return out;
}

std::vector<double> random_demand(dmf::NodeId n, int terminals,
                                  std::uint64_t seed) {
  dmf::Rng rng(seed);
  std::vector<dmf::NodeId> chosen;
  while (static_cast<int>(chosen.size()) < terminals) {
    const auto v = static_cast<dmf::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (std::find(chosen.begin(), chosen.end(), v) == chosen.end()) {
      chosen.push_back(v);
    }
  }
  std::vector<double> demand(static_cast<std::size_t>(n), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < chosen.size(); ++i) {
    // Integer amounts in [-8, 8] \ {0} keep the zero sum exact.
    auto amount = static_cast<double>(rng.next_below(16)) - 8.0;
    if (amount >= 0.0) amount += 1.0;
    demand[static_cast<std::size_t>(chosen[i])] = amount;
    sum += amount;
  }
  if (sum == 0.0) {
    demand[static_cast<std::size_t>(chosen[0])] += 1.0;
    sum = 1.0;
  }
  demand[static_cast<std::size_t>(chosen.back())] = -sum;
  return demand;
}

double exact_value(const dmf::Graph& g, dmf::NodeId s, dmf::NodeId t) {
  return dmf::dinic_max_flow_value(g, s, t);
}

std::string check_st_flow(const dmf::Graph& g, dmf::NodeId s, dmf::NodeId t,
                          double value, const std::vector<double>& flow) {
  if (flow.size() == static_cast<std::size_t>(g.num_edges()) &&
      !dmf::is_feasible(g, flow, 1e-9)) {
    return "an edge carries more than its capacity";
  }
  return check_routes(g, dmf::st_demand(g.num_nodes(), s, t, value), flow);
}

std::string check_routes(const dmf::Graph& g, const std::vector<double>& demand,
                         const std::vector<double>& flow) {
  if (flow.size() != static_cast<std::size_t>(g.num_edges())) {
    return "flow has the wrong length";
  }
  double scale = 1.0;
  for (const double d : demand) scale = std::max(scale, std::abs(d));
  const std::vector<double> div = dmf::flow_divergence(g, flow);
  for (std::size_t v = 0; v < div.size(); ++v) {
    if (!(std::abs(div[v] - demand[v]) <= 1e-6 * scale)) {
      return "flow does not meet the demand at node " + std::to_string(v);
    }
  }
  return {};
}

void PrefixCounters::add(bool sherman, double gradient_iterations,
                         double answer_rounds, bool converged) {
  answers += 1.0;
  by_sherman += sherman ? 1.0 : 0.0;
  iterations += gradient_iterations;
  rounds += answer_rounds;
  nonconverged += converged ? 0.0 : 1.0;
}

void PrefixCounters::add_route_calls(int calls) {
  routes += 1.0;
  almost_route_calls += calls;
}

void PrefixCounters::write(std::map<std::string, double>& counters) const {
  if (answers == 0.0) return;
  counters["engine.sherman_share"] = by_sherman / answers;
  counters["maxflow.iterations_per_query"] = iterations / answers;
  counters["maxflow.almost_route_calls_per_query"] =
      routes > 0.0 ? almost_route_calls / routes : 0.0;
  counters["maxflow.rounds_per_query"] = rounds / answers;
  counters["maxflow.nonconverged_fraction"] = nonconverged / answers;
  counters["prefix_answers"] = answers;
}

void set_stale_fraction(Report& report, const dmf::EngineStats& stats) {
  report.scalars["engine.stale_fraction"] =
      stats.queries_served > 0
          ? static_cast<double>(stats.queries_served_stale) /
                static_cast<double>(stats.queries_served)
          : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dmf_perfbench --workload solve|serve|mutate "
               "--seed N --seconds S --trace 0|1 --raw PATH\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--raw") {
      opts.raw_path = value;
    } else {
      usage();
    }
  }
  if (opts.raw_path.empty() || !(opts.seconds > 0.0)) usage();
  perfbench::now_ns();  // fix the clock origin
  perfbench::Report report(opts);
  try {
    if (opts.workload == "solve") {
      perfbench::run_solve(report);
    } else if (opts.workload == "serve") {
      perfbench::run_serve(report);
    } else if (opts.workload == "mutate") {
      perfbench::run_mutate(report);
    } else {
      usage();
    }
    report.peak_rss_mb = perfbench::peak_rss_mb();
    report.write_json(opts.raw_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmf_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
