// Workload `solve`: one closed-loop client on a 1-worker FlowEngine over
// make_family("gnp", 256). Three queries in four are max_flow on distinct
// s-t pairs, one in four is a route of a zero-sum demand over 8 random
// terminals; no query repeats, so memoization cannot register as a gain.
// Nearly all the time goes to AlmostRoute's soft-max passes and R / R^T.
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "bench.h"
#include "graph/flow.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr dmf::NodeId kNodes = 256;
constexpr int kSetups = 9;
// Exact counters cover the first kCounterPrefix queries, which every run
// completes whatever its length; a second engine re-runs them to check
// that the counters repeat.
constexpr int kCounterPrefix = 8;
// An untraced run completes at least this many queries, so its p90 has
// at least 10 samples beyond it.
constexpr int kUntracedMinimum = 100;
constexpr int kTracedMinimum = 8;

struct Query {
  bool route = false;
  dmf::NodeId s = 0;
  dmf::NodeId t = 0;
  std::vector<double> demand;  // route queries only
};

struct Answer {
  double latency_ms = 0.0;
  dmf::Result<dmf::MaxFlowApproxResult> max_flow;
  dmf::Result<dmf::RouteResult> route;
};

// The seed's query sequence, drawn as far as it is read. Every stream
// with one seed yields the same queries.
class QueryStream {
 public:
  explicit QueryStream(std::uint64_t seed) : rng_(seed ^ 0x51a7e5ULL) {}

  const Query& at(std::size_t i) {
    while (queries_.size() <= i) draw();
    return queries_[i];
  }

 private:
  void draw() {
    Query q;
    if (queries_.size() % 4 == 3) {
      q.route = true;
      q.demand = random_demand(kNodes, 8, rng_());
    } else {
      // Distinct pairs: 3/4 of n(n-1)/2 = 24480 max_flow queries, far
      // more than any run reaches at seconds a query.
      while (true) {
        q.s = static_cast<dmf::NodeId>(rng_.next_below(kNodes));
        q.t = static_cast<dmf::NodeId>(rng_.next_below(kNodes));
        if (q.s == q.t) continue;
        if (used_.insert(std::minmax(q.s, q.t)).second) break;
      }
    }
    queries_.push_back(std::move(q));
  }

  dmf::Rng rng_;
  std::set<std::pair<dmf::NodeId, dmf::NodeId>> used_;
  std::deque<Query> queries_;  // deque: references stay valid
};

Answer submit(dmf::FlowEngine& engine, const Query& q) {
  Answer a;
  const std::int64_t start = now_ns();
  if (q.route) {
    a.route = engine.submit(dmf::RouteQuery{q.demand}).get();
  } else {
    a.max_flow = engine.submit(dmf::MaxFlowQuery{q.s, q.t}).get();
  }
  a.latency_ms = ms_between(start, now_ns());
  return a;
}

double seconds_of(const Answer& a, const Query& q) {
  return q.route ? a.route.seconds : a.max_flow.seconds;
}

// The exact work counters of the first kCounterPrefix answers.
void write_counters(QueryStream& queries, const std::vector<Answer>& answers,
                    std::map<std::string, double>& out) {
  PrefixCounters counters;
  for (std::size_t i = 0; i < answers.size() && i < kCounterPrefix; ++i) {
    const Answer& a = answers[i];
    if (queries.at(i).route) {
      if (!a.route.ok()) continue;
      const dmf::RouteResult& r = *a.route;
      counters.add(true, r.gradient_iterations, r.rounds, r.converged);
      counters.add_route_calls(r.almost_route_calls);
    } else {
      if (!a.max_flow.ok()) continue;
      const dmf::MaxFlowApproxResult& r = *a.max_flow;
      counters.add(a.max_flow.solver == "sherman-approx",
                   r.gradient_iterations, r.rounds, r.converged);
    }
  }
  counters.write(out);
}

// Checks every answer and records latencies and ratios.
void check_answers(Report& report, const dmf::Graph& g, double epsilon,
                   QueryStream& queries, const std::vector<Answer>& answers) {
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Query& q = queries.at(i);
    const Answer& a = answers[i];
    ++report.attempted;
    report.latency_ms.push_back(a.latency_ms);
    const double exec_ms = seconds_of(a, q) * 1e3;
    report.samples["engine.exec_ms"].push_back(exec_ms);
    report.samples["engine.queue_wait_ms"].push_back(a.latency_ms - exec_ms);
    std::string problem;
    if (q.route) {
      if (!a.route.ok()) {
        problem = "route failed: " + a.route.message;
      } else {
        problem = check_routes(g, q.demand, a.route->flow);
      }
    } else if (!a.max_flow.ok()) {
      problem = "max_flow failed: " + a.max_flow.message;
    } else {
      const double exact = exact_value(g, q.s, q.t);
      const double ratio = a.max_flow->value / exact;
      report.value_ratios.push_back(ratio);
      if (!(ratio >= 1.0 - epsilon - 1e-9)) {
        problem = "max_flow value below (1-eps) * Dinic";
      } else {
        problem = check_st_flow(g, q.s, q.t, a.max_flow->value,
                                a.max_flow->flow);
      }
    }
    if (!problem.empty()) {
      report.fail("query " + std::to_string(i) + ": " + problem);
      continue;
    }
    ++report.ok;
  }
}

// Closed loop over the query stream until `budget_s` has passed and at
// least `minimum` queries completed.
std::vector<Answer> closed_loop(dmf::FlowEngine& engine, QueryStream& queries,
                                double budget_s, int minimum,
                                double* wall_s) {
  std::vector<Answer> answers;
  const std::int64_t start = now_ns();
  while (static_cast<int>(answers.size()) < minimum ||
         ms_between(start, now_ns()) < budget_s * 1e3) {
    answers.push_back(submit(engine, queries.at(answers.size())));
  }
  *wall_s = ms_between(start, now_ns()) * 1e-3;
  return answers;
}

// The traced pass: the engine call, then the same query re-executed
// layer by layer on the engine's own hierarchy. The re-executed solver
// call must equal the engine's answer bitwise, which shows the per-layer
// calls measure the computation the engine ran.
void traced_pass(Report& report, dmf::FlowEngine& engine,
                 QueryStream& queries, double budget_s) {
  Tracer& tracer = report.tracer;
  SolverLayers layers(engine);
  const dmf::ShermanSolver& solver = layers.solver();
  const dmf::NodeId n = engine.hierarchy().graph().num_nodes();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; static_cast<int>(i) < kTracedMinimum ||
                          ms_between(start, now_ns()) < budget_s * 1e3;
       ++i) {
    const Query& q = queries.at(i);
    const auto qid = static_cast<std::uint32_t>(i + 1);
    // The traced latency runs from before the spans open to after the
    // engine call's span is recorded, so it includes what tracing costs.
    const std::int64_t traced_start = now_ns();
    const Span root(tracer, "bench.query", 0, qid);
    Answer a;
    {
      const Span s(tracer, "engine.submit", root.id(), qid);
      a = submit(engine, q);
    }
    report.traced_latency_ms.push_back(ms_between(traced_start, now_ns()));
    const std::vector<double> demand =
        q.route ? q.demand : dmf::st_demand(n, q.s, q.t, 1.0);
    bool same = false;
    if (q.route) {
      Span s(tracer, "maxflow.route", root.id(), qid);
      const dmf::RouteResult again = solver.route(q.demand);
      s.set_work(again.gradient_iterations);
      same = a.route.ok() && again.flow == a.route->flow &&
             again.congestion == a.route->congestion &&
             again.gradient_iterations == a.route->gradient_iterations;
    } else {
      Span s(tracer, "maxflow.max_flow", root.id(), qid);
      const dmf::MaxFlowApproxResult again = solver.max_flow(q.s, q.t);
      s.set_work(again.gradient_iterations);
      same = a.max_flow.ok() && again.value == a.max_flow->value &&
             again.flow == a.max_flow->flow &&
             again.gradient_iterations == a.max_flow->gradient_iterations;
    }
    if (!same) {
      report.fail("traced query " + std::to_string(i) +
                  ": re-executed solver call differs from the engine");
    }
    // Route queries have no s-t pair, so no Dinic call (s == t == 0).
    layers.trace_calls(tracer, demand, q.s, q.t, root.id(), qid);
  }
}

}  // namespace

void run_solve(Report& report) {
  const RunOptions& opts = report.options;
  const dmf::Graph g = make_gnp(kNodes, kGraphSeed);
  QueryStream queries(opts.seed);

  dmf::EngineOptions options;
  options.threads = 1;
  options.sample_threads = 1;
  std::unique_ptr<dmf::FlowEngine> engine;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const std::int64_t start = now_ns();
    engine = std::make_unique<dmf::FlowEngine>(dmf::Graph(g), options);
    report.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
  }

  // Untraced runs measure for the whole budget; a traced run splits it
  // between an untraced pass (the overhead baseline), the traced pass
  // and the probes.
  const double untraced_s = opts.trace ? opts.seconds / 3.0 : opts.seconds;
  double wall_s = 0.0;
  const std::vector<Answer> answers =
      closed_loop(*engine, queries, untraced_s,
                  opts.trace ? kCounterPrefix : kUntracedMinimum, &wall_s);
  report.measured_s = wall_s;
  check_answers(report, g, engine->options().sherman.epsilon, queries,
                answers);
  set_stale_fraction(report, engine->stats());
  write_counters(queries, answers, report.counters);
  {
    // The counter prefix once more, on an engine of its own.
    dmf::FlowEngine again(dmf::Graph(g), options);
    QueryStream same(opts.seed);
    double unused_s = 0.0;
    write_counters(same,
                   closed_loop(again, same, 0.0, kCounterPrefix, &unused_s),
                   report.counters_repeat);
  }
  if (!opts.trace) return;

  traced_pass(report, *engine, queries, opts.seconds / 3.0);
  probe_build(report, g, engine->options(), opts.seed);
  probe_serve(report, *engine, opts.seconds / 10.0);
  probe_mutation(report, *engine, opts.seed);
}

}  // namespace perfbench
