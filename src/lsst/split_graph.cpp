#include "lsst/split_graph.h"

#include <algorithm>
#include <cmath>

namespace dmf {

namespace {

using Arrival = SplitWorkspace::Arrival;

// A binary min-heap on Arrival::key that takes exactly the steps of
// libstdc++'s std::push_heap / std::pop_heap with std::greater (the
// std::priority_queue this decomposition was defined with). Arrivals with
// equal keys but different nodes are common, and the order they pop in
// decides BFS parents, so the step sequence is part of the result; only
// the child choice is made branch-free.
void sift_up(std::vector<Arrival>& heap, std::size_t hole, Arrival value) {
  Arrival* h = heap.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(h[parent].key > value.key)) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = value;
}

Arrival pop_min(std::vector<Arrival>& heap) {
  Arrival* h = heap.data();
  const Arrival top = h[0];
  const std::size_t len = heap.size() - 1;  // heap size after the pop
  if (len > 0) {
    // Move the hole from the root down to a leaf along the smaller
    // children, then sift the former last element up from there.
    const Arrival value = h[len];
    std::size_t hole = 0;
    std::size_t child = 0;
    while (child < (len - 1) / 2) {
      child = 2 * (child + 1);
      child -= static_cast<std::size_t>(h[child].key > h[child - 1].key);
      h[hole] = h[child];
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * (child + 1);
      h[hole] = h[child - 1];
      hole = child - 1;
    }
    sift_up(heap, hole, value);
  }
  heap.pop_back();
  return top;
}

}  // namespace

SplitResult split_graph(const Multigraph& g,
                        const std::vector<char>& edge_allowed, double rho,
                        Rng& rng) {
  DMF_REQUIRE(edge_allowed.size() == g.num_edges(),
              "split_graph: allowed mask size mismatch");
  const MultiAdjacency adj(g, edge_allowed);
  SplitWorkspace ws;
  SplitResult result;
  split_graph(g.num_nodes(), adj, rho, rng, ws, result);
  return result;
}

void split_graph(NodeId num_nodes, const MultiAdjacency& adj, double rho,
                 Rng& rng, SplitWorkspace& ws, SplitResult& result) {
  DMF_REQUIRE(rho >= 1.0, "split_graph: rho must be >= 1");
  const NodeId n = num_nodes;
  const auto nn = static_cast<std::size_t>(n);

  result.cluster.assign(nn, -1);
  result.parent.assign(nn, kInvalidNode);
  result.parent_edge.assign(nn, kNoMultiEdge);
  result.count = 0;
  result.rounds = 0.0;

  const int log_n = std::max(
      1, static_cast<int>(std::ceil(std::log2(std::max<NodeId>(2, n)))));
  const int stages = 2 * log_n;
  const int delay_cap = std::max(0, static_cast<int>(rho) / stages);

  // Per-stage arrays start clear and are cleared again through `touched`
  // after each stage, so a stage costs its own work, not O(n).
  ws.best_time.assign(nn, -1);
  ws.best_rank.assign(nn, -1);
  ws.stage_cluster.assign(nn, -1);
  ws.touched.clear();
  // Ascending ids, compacted in place as nodes get covered.
  std::vector<NodeId>& uncovered = ws.uncovered;
  uncovered.resize(nn);
  for (NodeId v = 0; v < n; ++v) uncovered[static_cast<std::size_t>(v)] = v;

  for (int t = 1; t <= stages && !uncovered.empty(); ++t) {
    // Budget for this stage.
    const double budget_d =
        rho * (1.0 - static_cast<double>(t - 1) / stages);
    const int budget = std::max(0, static_cast<int>(std::floor(budget_d)));
    result.rounds += budget_d;

    // Source sampling (Figure 4 step 2a): fraction 12*2^(t/2)/n.
    const double fraction =
        12.0 * std::pow(2.0, static_cast<double>(t) / 2.0) /
        static_cast<double>(std::max<NodeId>(1, n));
    std::size_t want = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(uncovered.size())));
    want = std::clamp<std::size_t>(want, 1, uncovered.size());

    rng.sample_indices(uncovered.size(), want, ws.picks);
    std::vector<NodeId>& sources = ws.sources;
    sources.clear();
    for (const std::size_t i : ws.picks) sources.push_back(uncovered[i]);
    std::sort(sources.begin(), sources.end());  // rank == id order

    // Multi-source unit-length Dijkstra with per-source delays; first
    // arrival (lexicographic (time, source rank)) claims a node.
    std::vector<Arrival>& heap = ws.heap;
    const auto push = [&heap](const Arrival& a) {
      heap.push_back(a);
      sift_up(heap, heap.size() - 1, a);
    };
    heap.clear();
    for (std::size_t r = 0; r < sources.size(); ++r) {
      const int delay =
          std::min(static_cast<int>(rng.next_int(0, delay_cap)), budget);
      push({delay, static_cast<int>(r), sources[r]});
    }
    int* best_time = ws.best_time.data();
    int* best_rank = ws.best_rank.data();
    int* stage_cluster = ws.stage_cluster.data();
    const int* cluster = result.cluster.data();
    while (!heap.empty()) {
      const Arrival a = pop_min(heap);
      const auto vi = static_cast<std::size_t>(a.node);
      if (stage_cluster[vi] != -1 || cluster[vi] != -1) continue;
      const int time = a.time_step();
      const int rank = a.source_rank();
      if (time > budget) continue;
      if (best_time[vi] == -1) ws.touched.push_back(a.node);
      stage_cluster[vi] = rank;
      best_time[vi] = time;
      best_rank[vi] = rank;
      for (const auto& [to, edge] : adj.row(a.node)) {
        const auto ti = static_cast<std::size_t>(to);
        if (stage_cluster[ti] != -1 || cluster[ti] != -1) continue;
        // Record the tree link on first improvement; the settled check
        // above guarantees the final parent matches the winning arrival.
        const int ntime = time + 1;
        if (ntime > budget) continue;
        if (best_time[ti] == -1 || ntime < best_time[ti] ||
            (ntime == best_time[ti] && rank < best_rank[ti])) {
          if (best_time[ti] == -1) ws.touched.push_back(to);
          best_time[ti] = ntime;
          best_rank[ti] = rank;
          result.parent[ti] = a.node;
          result.parent_edge[ti] = edge;
          push({ntime, rank, to});
        }
      }
    }

    // Commit stage clusters with global ids, in increasing node id (only
    // nodes uncovered at the stage start can have been claimed).
    ws.stage_to_global.assign(sources.size(), -1);
    for (const NodeId v : uncovered) {
      const auto vi = static_cast<std::size_t>(v);
      if (stage_cluster[vi] == -1) continue;
      auto& global =
          ws.stage_to_global[static_cast<std::size_t>(stage_cluster[vi])];
      if (global == -1) global = result.count++;
      result.cluster[vi] = global;
    }
    // Cluster centers have no parent inside the cluster.
    for (const NodeId s : sources) {
      const auto si = static_cast<std::size_t>(s);
      if (result.cluster[si] != -1 &&
          stage_cluster[si] != -1) {
        // Only reset if s claimed itself (it may have been grabbed by a
        // neighboring source first).
        if (result.parent[si] != kInvalidNode &&
            stage_cluster[static_cast<std::size_t>(result.parent[si])] !=
                stage_cluster[si]) {
          // parent from an earlier relaxation that lost; clear it.
          result.parent[si] = kInvalidNode;
          result.parent_edge[si] = kNoMultiEdge;
        }
      }
    }
    for (const NodeId v : ws.touched) {
      const auto vi = static_cast<std::size_t>(v);
      best_time[vi] = -1;
      best_rank[vi] = -1;
      stage_cluster[vi] = -1;
    }
    ws.touched.clear();
    // Drop the covered nodes from the uncovered list.
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&result](NodeId v) {
                                     return result.cluster[static_cast<
                                                std::size_t>(v)] != -1;
                                   }),
                    uncovered.end());
  }

  // Any stragglers (possible only if rho budgets truncate to 0) become
  // singleton clusters.
  for (const NodeId v : uncovered) {
    result.cluster[static_cast<std::size_t>(v)] = result.count++;
  }

  // Repair parents: a node's parent must be its own cluster-mate claimed
  // strictly earlier; arrivals guarantee this except for stale
  // relaxations, which we clear (node becomes its cluster's center —
  // cannot happen for non-source nodes, but be defensive).
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = result.parent[vi];
    if (p != kInvalidNode &&
        result.cluster[static_cast<std::size_t>(p)] != result.cluster[vi]) {
      result.parent[vi] = kInvalidNode;
      result.parent_edge[vi] = kNoMultiEdge;
    }
  }
}

}  // namespace dmf
