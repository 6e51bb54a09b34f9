// Per-layer probes: direct calls into the solver, approximator, baseline
// and build functions on a workload's own engine and graph, each inside
// a span. The solve workload makes the solver-layer calls per query in
// its traced pass; serve and mutate, whose queries never reach the
// solver, make them here on a few unit s-t demands.
#include <memory>

#include "baselines/dinic.h"
#include "baselines/tree_routing.h"
#include "bench.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "graph/flow.h"
#include "maxflow/almost_route.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace perfbench {

SolverLayers::SolverLayers(const dmf::FlowEngine& engine)
    : hierarchy_(engine.hierarchy()),
      // Non-owning: the engine keeps its serving hierarchy alive.
      solver_(std::shared_ptr<const dmf::ShermanHierarchy>(
                  &hierarchy_, [](const dmf::ShermanHierarchy*) {}),
              engine.options().sherman),
      almost_route_(engine.options().sherman.almost_route) {
  almost_route_.alpha = hierarchy_.alpha();  // as ShermanSolver::route sets it
}

void SolverLayers::trace_calls(Tracer& tracer,
                               const std::vector<double>& demand,
                               dmf::NodeId s, dmf::NodeId t,
                               std::uint32_t parent, std::uint32_t query) {
  const dmf::CongestionApproximator& approx = hierarchy_.approximator();
  const dmf::CsrGraph& csr = hierarchy_.csr();
  {
    Span span(tracer, "maxflow.almost_route", parent, query);
    span.set_work(
        dmf::almost_route(csr, approx, demand, almost_route_).iterations);
  }
  {
    const Span span(tracer, "capprox.apply_into", parent, query);
    approx.apply_into(demand, 1.0, y_, work_a_);
  }
  {
    const Span span(tracer, "capprox.potentials_into", parent, query);
    approx.potentials_into(y_, pi_, work_b_);
  }
  {
    const Span span(tracer, "baselines.tree_reroute", parent, query);
    (void)dmf::route_demand_on_spanning_tree(csr, hierarchy_.mwst(), demand);
  }
  if (s != t) {
    const Span span(tracer, "baselines.dinic", parent, query);
    (void)dmf::dinic_max_flow(csr, s, t);
  }
}

void probe_solver_layers(
    Report& report, const dmf::FlowEngine& engine,
    const std::vector<std::pair<dmf::NodeId, dmf::NodeId>>& pairs) {
  Tracer& tracer = report.tracer;
  SolverLayers layers(engine);
  const dmf::Graph& g = engine.hierarchy().graph();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    const auto qid = static_cast<std::uint32_t>(3'000'000 + i);
    const Span root(tracer, "bench.probe", 0, qid);
    const std::vector<double> demand = dmf::st_demand(g.num_nodes(), s, t, 1.0);
    {
      Span span(tracer, "maxflow.route", root.id(), qid);
      const dmf::RouteResult routed = layers.solver().route(demand);
      span.set_work(routed.gradient_iterations);
      const std::string problem = check_routes(g, demand, routed.flow);
      if (!problem.empty()) report.fail("solver probe: " + problem);
    }
    layers.trace_calls(tracer, demand, s, t, root.id(), qid);
  }
}

void probe_build(Report& report, const dmf::Graph& g,
                 const dmf::EngineOptions& options, std::uint64_t seed) {
  Tracer& tracer = report.tracer;
  dmf::ShermanOptions sherman = options.sherman;
  sherman.hierarchy.threads =
      options.sample_threads > 0 ? options.sample_threads : options.threads;
  dmf::Rng rng(seed ^ 0xb011dULL);
  const int repeats = g.num_nodes() <= 512 ? 3 : 1;
  for (int k = 0; k < repeats; ++k) {
    const auto qid = static_cast<std::uint32_t>(4'000'000 + k);
    const Span root(tracer, "bench.build", 0, qid);
    std::unique_ptr<dmf::ShermanHierarchy> h;
    {
      const Span span(tracer, "maxflow.hierarchy_build", root.id(), qid);
      h = std::make_unique<dmf::ShermanHierarchy>(g, sherman, rng);
    }
    {
      Span span(tracer, "capprox.sample_virtual_trees", root.id(), qid);
      const int trees = h->approximator().num_trees();
      (void)dmf::sample_virtual_trees(g, trees, sherman.hierarchy, rng);
      span.set_work(trees);
    }
    {
      const Span span(tracer, "capprox.estimate_alpha", root.id(), qid);
      (void)dmf::estimate_alpha(g, h->approximator(), sherman.alpha_samples,
                                rng);
    }
  }
}

}  // namespace perfbench
