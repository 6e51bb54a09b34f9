// Tests for the exact max-flow baselines (Dinic, push-relabel), flow
// utilities, and max-weight spanning-tree routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>

#include "baselines/adapters.h"
#include "baselines/dinic.h"
#include "baselines/push_relabel.h"
#include "baselines/tree_routing.h"
#include "engine/engine.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "reference_dinic.h"
#include "util/rng.h"

namespace dmf {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof out);
  return out;
}

TEST(Dinic, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  const MaxFlowResult r = dinic_max_flow(g, 0, 1);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  EXPECT_DOUBLE_EQ(r.edge_flow[0], 5.0);
}

TEST(Dinic, PathBottleneck) {
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 10.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 3.0);
}

TEST(Dinic, ParallelPaths) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 5.0);
}

TEST(Dinic, UndirectedEdgeBidirectional) {
  // In an undirected graph, flow can use {1,2} in either direction.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 1, 1.0);  // created "backwards" on purpose
  g.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 3, 0), 1.0);
}

TEST(Dinic, FlowIsConservedAndFeasible) {
  Rng rng(31);
  const Graph g = make_gnp_connected(40, 0.15, {1, 9}, rng);
  const MaxFlowResult r = dinic_max_flow(g, 0, 39);
  EXPECT_TRUE(is_feasible(g, r.edge_flow));
  EXPECT_NEAR(max_conservation_violation(g, r.edge_flow, 0, 39), 0.0, 1e-9);
  EXPECT_NEAR(flow_value(g, r.edge_flow, 0), r.value, 1e-9);
}

TEST(Dinic, MinCutMatchesFlow) {
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp_connected(30, 0.2, {1, 7}, rng);
    const MinCutResult cut = dinic_min_cut(g, 0, 29);
    EXPECT_TRUE(cut.source_side[0]);
    EXPECT_FALSE(cut.source_side[29]);
    // Capacity of edges crossing the cut equals the flow value.
    double crossing = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const EdgeEndpoints ep = g.endpoints(e);
      if (cut.source_side[static_cast<std::size_t>(ep.u)] !=
          cut.source_side[static_cast<std::size_t>(ep.v)]) {
        crossing += g.capacity(e);
      }
    }
    EXPECT_NEAR(crossing, cut.capacity, 1e-6);
  }
}

TEST(Dinic, BarbellBridgeLimitsFlow) {
  Rng rng(41);
  const Graph g = make_barbell(8, {10, 10}, 3.0, rng);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 15), 3.0);
}

TEST(Dinic, LayeredBottleneckValue) {
  Rng rng(43);
  NodeId s = 0;
  NodeId t = 0;
  const Graph g = make_layered_bottleneck(6, 5, 1000.0, 12.0, rng, &s, &t);
  EXPECT_NEAR(dinic_max_flow_value(g, s, t), 12.0, 1e-6);
}

// The augmenting search keeps its path on the heap: a 300k-hop s-t path
// must fit a worker thread's default stack (a recursive DFS overflows it).
TEST(Dinic, LongPathFitsAWorkerStack) {
  Rng rng(71);
  const NodeId n = 300000;
  const Graph g = make_path(n, {1, 9}, rng);
  const CsrGraph csr(g);
  MaxFlowResult flow;
  MinCutResult cut;
  std::thread worker([&] {
    flow = dinic_max_flow(csr, 0, n - 1);
    cut = dinic_min_cut(csr, 0, n - 1);
  });
  worker.join();
  double bottleneck = g.capacity(0);
  for (EdgeId e = 1; e < g.num_edges(); ++e) {
    bottleneck = std::min(bottleneck, g.capacity(e));
  }
  EXPECT_EQ(flow.value, bottleneck);
  const auto saturated =
      std::count(flow.edge_flow.begin(), flow.edge_flow.end(), bottleneck);
  EXPECT_EQ(saturated, g.num_edges());
  EXPECT_EQ(cut.capacity, bottleneck);
  EXPECT_TRUE(cut.source_side[0]);
  EXPECT_FALSE(cut.source_side[static_cast<std::size_t>(n - 1)]);
}

// One graph per parity family; integer capacities except the last, whose
// fractional jitter makes every bottleneck and flow sum round.
Graph parity_family(int family, Rng& rng) {
  switch (family) {
    case 0:
      return make_gnp_connected(60, 0.06, {1, 9}, rng);
    case 1:
      return make_gnp_connected(36, 0.5, {1, 9}, rng);
    case 2:
      return make_grid(8, 6, {1, 9}, rng);
    case 3:
      return make_torus(7, 6, {1, 9}, rng);
    case 4:
      return make_barbell(9, {2, 9}, 3.0, rng);
    case 5:
      return make_complete(14, {1, 9}, rng);
    case 6:
      return make_random_regular(40, 3, {1, 9}, rng);
    case 7: {
      // Tree plus chords, with parallel copies of random edges.
      Graph g = make_tree_plus_chords(48, 16, {1, 9}, rng);
      const auto m = static_cast<std::uint64_t>(g.num_edges());
      for (int k = 0; k < 12; ++k) {
        const EdgeEndpoints ep =
            g.endpoints(static_cast<EdgeId>(rng.next_below(m)));
        g.add_edge(ep.u, ep.v, draw_capacity({1, 9}, rng));
      }
      return g;
    }
    default: {
      Graph g = make_gnp_connected(48, 0.12, {1, 9}, rng);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        g.set_capacity(e, g.capacity(e) * rng.next_double(0.5, 1.5));
      }
      return g;
    }
  }
}

// The slot-based, sink-levelled Dinic returns bit for bit what the
// textbook forward-levelled search (tests/reference_dinic.h) returns:
// 9 families x 4 graphs x 8 random s-t pairs.
TEST(Dinic, BitwiseParityWithForwardLevelledReference) {
  for (int family = 0; family < 9; ++family) {
    for (int seed = 0; seed < 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "family " << family << " #" << seed);
      Rng rng(static_cast<std::uint64_t>(family * 1000 + seed + 97));
      const Graph g = parity_family(family, rng);
      const CsrGraph csr(g);
      const auto n = static_cast<std::uint64_t>(g.num_nodes());
      for (int pair = 0; pair < 8; ++pair) {
        const auto s = static_cast<NodeId>(rng.next_below(n));
        auto t = static_cast<NodeId>(rng.next_below(n - 1));
        if (t >= s) ++t;
        SCOPED_TRACE(testing::Message() << "s=" << s << " t=" << t);
        const MaxFlowResult got = dinic_max_flow(csr, s, t);
        const MaxFlowResult want = reference::forward_dinic_max_flow(csr, s, t);
        ASSERT_EQ(bits(got.value), bits(want.value));
        ASSERT_EQ(got.edge_flow.size(), want.edge_flow.size());
        for (std::size_t e = 0; e < got.edge_flow.size(); ++e) {
          ASSERT_EQ(bits(got.edge_flow[e]), bits(want.edge_flow[e]))
              << "edge " << e;
        }
        EXPECT_EQ(bits(dinic_max_flow_value(csr, s, t)), bits(want.value));
        const MinCutResult got_cut = dinic_min_cut(csr, s, t);
        const MinCutResult want_cut =
            reference::forward_dinic_min_cut(csr, s, t);
        ASSERT_EQ(bits(got_cut.capacity), bits(want_cut.capacity));
        ASSERT_EQ(got_cut.source_side, want_cut.source_side);
      }
    }
  }
}

// One workspace serves a sequence of graphs of different sizes (large,
// small, large): each workspace-form result is bitwise that of the fresh
// form and of the reference. The complete graphs make a BFS phase label
// all n nodes and then scan more slots of the same row, so the branch-free
// store reaches queue[n]; the fresh form's workspace is sized exactly, so
// ASan builds check the n + 1 sizing.
TEST(Dinic, WorkspaceReuseAcrossGraphsIsBitwiseFresh) {
  Rng rng(101);
  const Graph graphs[] = {make_gnp_connected(90, 0.08, {1, 9}, rng),
                          make_complete(9, {1, 9}, rng),
                          make_grid(9, 7, {1, 9}, rng),
                          make_complete(5, {1, 9}, rng),
                          make_gnp_connected(90, 0.08, {1, 9}, rng)};
  DinicWorkspace ws;
  for (const Graph& g : graphs) {
    const CsrGraph csr(g);
    const ResidualSlots slots(csr);
    const auto n = static_cast<std::uint64_t>(g.num_nodes());
    for (int pair = 0; pair < 6; ++pair) {
      const auto s = static_cast<NodeId>(rng.next_below(n));
      auto t = static_cast<NodeId>(rng.next_below(n - 1));
      if (t >= s) ++t;
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " s=" << s << " t=" << t);
      const MaxFlowResult got = dinic_max_flow(csr, slots, s, t, ws);
      const MaxFlowResult fresh = dinic_max_flow(csr, s, t);
      const MaxFlowResult want = reference::forward_dinic_max_flow(csr, s, t);
      ASSERT_EQ(bits(got.value), bits(fresh.value));
      ASSERT_EQ(bits(got.value), bits(want.value));
      ASSERT_EQ(got.edge_flow.size(), want.edge_flow.size());
      for (std::size_t e = 0; e < got.edge_flow.size(); ++e) {
        ASSERT_EQ(bits(got.edge_flow[e]), bits(fresh.edge_flow[e]))
            << "edge " << e;
        ASSERT_EQ(bits(got.edge_flow[e]), bits(want.edge_flow[e]))
            << "edge " << e;
      }
      EXPECT_EQ(bits(dinic_max_flow_value(csr, slots, s, t, ws)),
                bits(want.value));
    }
  }
}

// Slot tables must belong to the graph they were built from.
TEST(Dinic, WorkspaceFormRejectsMismatchedSlotTables) {
  Rng rng(103);
  const Graph small = make_complete(6, {1, 9}, rng);
  const Graph large = make_grid(6, 6, {1, 9}, rng);
  const CsrGraph small_csr(small);
  const CsrGraph large_csr(large);
  const ResidualSlots small_slots(small_csr);
  DinicWorkspace ws;
  EXPECT_THROW(dinic_max_flow(large_csr, small_slots, 0, 5, ws),
               RequirementError);
  EXPECT_THROW(dinic_max_flow_value(small_csr, small_slots, 2, 2, ws),
               RequirementError);
}

TEST(PushRelabel, AgreesWithDinicOnRandomGraphs) {
  Rng rng(47);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = make_gnp_connected(25, 0.2, {1, 10}, rng);
    const NodeId s = 0;
    const NodeId t = g.num_nodes() - 1;
    const double dinic = dinic_max_flow_value(g, s, t);
    const MaxFlowResult pr = push_relabel_max_flow(g, s, t);
    EXPECT_NEAR(pr.value, dinic, 1e-6) << "trial " << trial;
    EXPECT_TRUE(is_feasible(g, pr.edge_flow, 1e-9));
    EXPECT_NEAR(max_conservation_violation(g, pr.edge_flow, s, t), 0.0, 1e-9);
  }
}

TEST(PushRelabel, AgreesOnGridAndRegular) {
  Rng rng(53);
  const Graph grid = make_grid(6, 6, {1, 5}, rng);
  EXPECT_NEAR(push_relabel_max_flow(grid, 0, 35).value,
              dinic_max_flow_value(grid, 0, 35), 1e-6);
  const Graph reg = make_random_regular(24, 3, {1, 6}, rng);
  EXPECT_NEAR(push_relabel_max_flow(reg, 0, 23).value,
              dinic_max_flow_value(reg, 0, 23), 1e-6);
}

TEST(FlowUtils, DivergenceSignsAndValue) {
  Graph g(3);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 4.0);
  const std::vector<double> f = {2.0, 2.0};
  const std::vector<double> div = flow_divergence(g, f);
  EXPECT_DOUBLE_EQ(div[0], 2.0);   // source sends 2
  EXPECT_DOUBLE_EQ(div[1], 0.0);   // conserved
  EXPECT_DOUBLE_EQ(div[2], -2.0);  // sink receives 2
  EXPECT_DOUBLE_EQ(flow_value(g, f, 0), 2.0);
}

TEST(FlowUtils, CongestionAndScaling) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 8.0);
  std::vector<double> f = {4.0, -4.0};
  EXPECT_DOUBLE_EQ(max_congestion(g, f), 2.0);
  EXPECT_FALSE(is_feasible(g, f));
  const double factor = scale_to_feasible(g, f);
  EXPECT_DOUBLE_EQ(factor, 0.5);
  EXPECT_TRUE(is_feasible(g, f));
}

TEST(TreeRouting, MaxWeightTreePrefersHeavyEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(0, 2, 10.0);
  const RootedTree tree = max_weight_spanning_tree(g, 0);
  // The capacity-1 edge must be excluded.
  for (NodeId v = 0; v < 3; ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) {
      EXPECT_GT(g.capacity(e), 1.0);
    }
  }
}

TEST(TreeRouting, RoutesDemandExactly) {
  Rng rng(59);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp_connected(30, 0.15, {1, 9}, rng);
    const RootedTree tree = max_weight_spanning_tree(g, 0);
    std::vector<double> b(30, 0.0);
    b[3] = 5.0;
    b[17] = -2.0;
    b[29] = -3.0;
    const std::vector<double> flow =
        route_demand_on_spanning_tree(g, tree, b);
    const std::vector<double> div = flow_divergence(g, flow);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(div[static_cast<std::size_t>(v)],
                  b[static_cast<std::size_t>(v)], 1e-9);
    }
  }
}

TEST(TreeRouting, NonTreeEdgesCarryNoFlow) {
  Rng rng(61);
  const Graph g = make_complete(8, {1, 5}, rng);
  const RootedTree tree = max_weight_spanning_tree(g, 0);
  std::vector<double> b(8, 0.0);
  b[1] = 1.0;
  b[6] = -1.0;
  const std::vector<double> flow = route_demand_on_spanning_tree(g, tree, b);
  std::vector<char> is_tree_edge(static_cast<std::size_t>(g.num_edges()), 0);
  for (NodeId v = 0; v < 8; ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) is_tree_edge[static_cast<std::size_t>(e)] = 1;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!is_tree_edge[static_cast<std::size_t>(e)]) {
      EXPECT_DOUBLE_EQ(flow[static_cast<std::size_t>(e)], 0.0);
    }
  }
}

TEST(ExactAdapter, MatchesDinicAndRejectsNonExactKinds) {
  Rng rng(67);
  const Graph g = make_gnp_connected(20, 0.2, {1, 9}, rng);
  const MaxFlowApproxResult exact =
      exact_max_flow_adapter(SolverKind::kDinic, g, 0, 19);
  EXPECT_DOUBLE_EQ(exact.value, dinic_max_flow_value(g, 0, 19));
  EXPECT_TRUE(exact.converged);
  // Neither the approximate solver nor the CONGEST simulation is an exact
  // baseline; asking for one must throw, not return value 0.
  EXPECT_THROW(exact_max_flow_adapter(SolverKind::kSherman, g, 0, 19),
               RequirementError);
  EXPECT_THROW(exact_max_flow_adapter(SolverKind::kCongestSim, g, 0, 19),
               RequirementError);
}

// The engine prices exact reads with the BFS height its hierarchy
// computed once per snapshot; the rounds must equal what the Graph
// overload derives from a fresh BFS, on the built snapshot, after a
// capacity repair, and after a topology rebuild that changes the height.
TEST(ExactAdapter, EngineExactReadsReportGraphOverloadRounds) {
  Rng rng(73);
  const Graph g = make_grid(12, 6, {1, 9}, rng);
  EngineOptions options;
  options.threads = 1;
  options.sherman.num_trees = 4;
  options.seed = 20261018;
  FlowEngine engine(g, options);
  const auto check_reads = [&engine](const Graph& current) {
    const NodeId last = current.num_nodes() - 1;
    const NodeId pairs[][2] = {{0, last}, {5, 40}, {last, 13}, {30, 31}};
    for (const auto& pair : pairs) {
      const NodeId s = pair[0];
      const NodeId t = pair[1];
      const Result<MaxFlowApproxResult> read =
          engine.submit(MaxFlowQuery{s, t, 0.0, true}).get();
      ASSERT_TRUE(read.ok()) << read.message;
      const MaxFlowApproxResult want =
          exact_max_flow_adapter(SolverKind::kDinic, current, s, t);
      EXPECT_EQ(read.value().rounds, want.rounds);
      EXPECT_EQ(bits(read.value().value), bits(want.value));
      EXPECT_EQ(read.value().flow, want.flow);
    }
  };
  check_reads(g);

  MutationBatch capacities;
  capacities.set_capacity(0, 7.5).set_capacity(9, 0.25);
  ASSERT_TRUE(engine.wait_for_version(engine.apply(capacities).version, 120));
  check_reads(Graph(engine.graph()));

  // A chord between opposite corners shortens the BFS tree from node 0.
  const Graph before_chord(engine.graph());
  MutationBatch chord;
  chord.add_edge(0, before_chord.num_nodes() - 1, 2.0);
  ASSERT_TRUE(engine.wait_for_version(engine.apply(chord).version, 120));
  const Graph after_chord(engine.graph());
  EXPECT_LT(build_bfs_tree(after_chord, 0).height,
            build_bfs_tree(before_chord, 0).height);
  check_reads(after_chord);
}

// Property sweep: Dinic value equals push-relabel value across families.
class ExactSolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverAgreement, ValuesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  Graph g;
  switch (GetParam() % 4) {
    case 0: g = make_gnp_connected(20, 0.25, {1, 8}, rng); break;
    case 1: g = make_grid(5, 4, {1, 8}, rng); break;
    case 2: g = make_tree_plus_chords(20, 8, {1, 8}, rng); break;
    default: g = make_random_regular(20, 4, {1, 8}, rng); break;
  }
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  EXPECT_NEAR(push_relabel_max_flow(g, s, t).value,
              dinic_max_flow_value(g, s, t), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Families, ExactSolverAgreement,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace dmf
