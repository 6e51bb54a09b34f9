// E13: micro-benchmarks of the core data-structure operations
// (google-benchmark). These are the per-iteration costs behind the
// wall-clock of the pipeline: BFS, tree loads, R apply / R^T apply,
// LSST construction, j-tree and virtual-tree sampling, and the exact
// baselines.
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
