// E13: micro-benchmarks of the core data-structure operations
// (google-benchmark). These are the per-iteration costs behind the
// wall-clock of the pipeline: BFS, tree loads, R apply / R^T apply and
// the link soft-max of an AlmostRoute iteration, LSST construction,
// j-tree and virtual-tree sampling, and the exact baselines.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "engine/engine.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "jtree/jtree.h"
#include "lsst/akpw.h"
#include "maxflow/softmax.h"
#include "util/rng.h"

namespace {

using namespace dmf;

Graph bench_graph(std::int64_t n) {
  Rng rng(static_cast<std::uint64_t>(n) * 2 + 1);
  return make_gnp_connected(static_cast<NodeId>(n),
                            4.0 / static_cast<double>(n), {1, 10}, rng);
}

void BM_BfsTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_bfs_tree(g, 0).height);
  }
}
BENCHMARK(BM_BfsTree)->Arg(256)->Arg(1024)->Arg(4096);

// The same BFS over the packed CSR rows — the layout every solver hot
// loop now traverses. Identical output (CSR preserves adjacency order);
// the delta against BM_BfsTree is pure representation.
void BM_CsrBfsTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_bfs_tree(csr, 0).height);
  }
}
BENCHMARK(BM_CsrBfsTree)->Arg(256)->Arg(1024)->Arg(4096);

// Publish-time cost of packing a snapshot's CSR view (what
// GraphStore::apply pays on a structural batch).
void BM_CsrBuild(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    const CsrGraph csr(g);
    benchmark::DoNotOptimize(csr.degree(0));
  }
}
BENCHMARK(BM_CsrBuild)->Arg(256)->Arg(1024)->Arg(4096);

// Weighted-degree sweep: per-node capacity accumulation, adjacency
// vectors vs CSR rows.
void BM_AdjacencyWeightedSweep(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    double total = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) total += g.weighted_degree(v);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AdjacencyWeightedSweep)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CsrWeightedSweep(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CsrGraph csr(g);
  for (auto _ : state) {
    double total = 0.0;
    for (NodeId v = 0; v < csr.num_nodes(); ++v) {
      total += csr.weighted_degree(v);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CsrWeightedSweep)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TreeEdgeLoads(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const RootedTree tree = bfs_spanning_tree(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree_edge_loads(g, tree).size());
  }
}
BENCHMARK(BM_TreeEdgeLoads)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AkpwLsst(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const Multigraph mg = Multigraph::from_graph(g);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        akpw_low_stretch_tree(mg, AkpwOptions{}, rng).tree_edges.size());
  }
}
BENCHMARK(BM_AkpwLsst)->Arg(256)->Arg(1024);

// The hierarchy options the FlowEngine samples with: structural
// capacity quantization at its default width of 1 octave.
HierarchyOptions engine_hierarchy_options() {
  HierarchyOptions options;
  options.capacity_bucket_octaves =
      EngineOptions{}.capacity_quantization_octaves;
  return options;
}

// One virtual tree, single-threaded, at the engine's settings; n = 2048 is
// the size the mutate workload rebuilds and repairs.
void BM_SampleVirtualTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const HierarchyOptions options = engine_hierarchy_options();
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_virtual_tree(g, options, rng).levels);
  }
}
BENCHMARK(BM_SampleVirtualTree)->Arg(256)->Arg(1024)->Arg(2048);

// One level-0 j-tree (Madry's construction with the Lemma 8.2 random cut
// set) over an AKPW tree of the quantized base multigraph, with the j the
// hierarchy picks at beta = 4.
void BM_BuildJTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const HierarchyOptions options = engine_hierarchy_options();
  Multigraph core = Multigraph::from_graph(g);
  for (std::size_t i = 0; i < core.num_edges(); ++i) {
    MultiEdge& e = core.edge_mutable(i);
    e.cap = structural_capacity(e.cap, options.capacity_bucket_octaves, 0.5);
    e.length = 1.0 / e.cap;
  }
  Rng rng(17);
  const LowStretchTreeResult lsst =
      akpw_low_stretch_tree(core, options.akpw, rng);
  const RootedTree tree = tree_from_multigraph_edges(
      core, lsst.tree_edges, 0, TreeLinkId::kMultigraphEdge);
  const std::vector<double> sizes(static_cast<std::size_t>(g.num_nodes()),
                                  1.0);
  JTreeOptions jopt;
  jopt.j = std::max(1, static_cast<int>(static_cast<double>(g.num_nodes()) /
                                        (4.0 * options.beta)));
  jopt.sqrt_target = std::sqrt(static_cast<double>(g.num_nodes()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_jtree(core, tree, sizes, jopt, rng).portal_count);
  }
}
BENCHMARK(BM_BuildJTree)->Arg(256)->Arg(2048);

void BM_ApproximatorApply(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  Rng rng(13);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 8, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  const std::vector<double> b =
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx.congestion_norm(b));
  }
}
BENCHMARK(BM_ApproximatorApply)->Arg(256)->Arg(1024)->Arg(4096);

// The approximator a solver samples for g: ceil(3 log2 n) trees (24 at
// n = 256, ShermanOptions' default) at the engine's settings.
CongestionApproximator bench_approximator(const Graph& g) {
  const int trees = static_cast<int>(
      std::ceil(3.0 * std::log2(static_cast<double>(g.num_nodes()))));
  Rng rng(19);
  return CongestionApproximator::from_samples(
      sample_virtual_trees(g, trees, engine_hierarchy_options(), rng));
}

// A zero-sum demand of integers in [-8, 8] \ {0} on every node but the
// last, which takes the balance.
std::vector<double> bench_demand(NodeId n) {
  Rng rng(23);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  double sum = 0.0;
  for (std::size_t v = 0; v + 1 < b.size(); ++v) {
    const double amount = static_cast<double>(rng.next_below(8) + 1);
    b[v] = rng.next_below(2) == 0 ? amount : -amount;
    sum += b[v];
  }
  b.back() = -sum;
  return b;
}

// AlmostRoute's R application, y = scale R b, into reused buffers: one
// bottom-up pass per tree.
void BM_ApproximatorApplyInto(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CongestionApproximator approx = bench_approximator(g);
  const std::vector<double> b = bench_demand(g.num_nodes());
  std::vector<double> y_flat;
  std::vector<double> workspace;
  for (auto _ : state) {
    approx.apply_into(b, 2.0, y_flat, workspace);
    benchmark::DoNotOptimize(y_flat.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ApproximatorApplyInto)->Arg(256)->Arg(2048);

// AlmostRoute's R^T application, pi = R^T price, into reused buffers: one
// top-down pass per tree.
void BM_ApproximatorPotentialsInto(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CongestionApproximator approx = bench_approximator(g);
  Rng rng(29);
  std::vector<double> price(approx.inv_link_cap_flat().size());
  for (double& p : price) p = rng.next_double(-1.0, 1.0);
  std::vector<double> pi;
  std::vector<double> workspace;
  for (auto _ : state) {
    approx.potentials_into(price, pi, workspace);
    benchmark::DoNotOptimize(pi.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ApproximatorPotentialsInto)->Arg(256)->Arg(2048);

// AlmostRoute's link soft-max, smax(2 alpha R r) over the T * n link
// terms with each tree's root left out, through the library entry point
// (the widest clone this CPU runs). The terms are scaled to
// max |y| = 355, AlmostRoute's operating point 16 eps^-1 ln n at
// eps = 1/4, n = 256, so the one-exp branch runs.
void BM_LinkSoftmax(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CongestionApproximator approx = bench_approximator(g);
  const std::vector<double> b = bench_demand(g.num_nodes());
  std::vector<double> y_flat;
  std::vector<double> workspace;
  approx.apply_into(b, 355.0 / approx.congestion_norm(b), y_flat, workspace);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::size_t> roots;
  for (int t = 0; t < approx.num_trees(); ++t) {
    roots.push_back(static_cast<std::size_t>(t) * n +
                    static_cast<std::size_t>(approx.tree(t).root));
  }
  SoftmaxTerms terms;
  for (auto _ : state) {
    symmetric_softmax(y_flat, roots, terms);
    benchmark::DoNotOptimize(terms.sum);
    benchmark::DoNotOptimize(terms.pos.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(y_flat.size()));
}
BENCHMARK(BM_LinkSoftmax)->Arg(256)->Arg(2048);

void BM_DinicExact(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dinic_max_flow_value(g, 0, g.num_nodes() - 1));
  }
}
BENCHMARK(BM_DinicExact)->Arg(256)->Arg(1024)->Arg(4096);

// An exact read as the engine serves it: the CSR and its slot tables are
// built once per snapshot and one workspace is reused, so only the
// search is timed.
void BM_DinicExactRead(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CsrGraph csr(g);
  const ResidualSlots slots(csr);
  DinicWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dinic_max_flow(csr, slots, 0,
                                            g.num_nodes() - 1, workspace));
  }
}
BENCHMARK(BM_DinicExactRead)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
