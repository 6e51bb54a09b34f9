// Algorithm SplitGraph (Figure 4 of the paper; from Blelloch et al.):
// a low-diameter decomposition of an unweighted (multi)graph by randomly
// delayed parallel BFS.
//
// Stage t = 1..2logN samples a source set S_t among the still-uncovered
// nodes (the sampling fraction grows ~2^(t/2), so the process provably
// covers everything), gives each source a random start delay, and grows
// BFS regions until the per-stage budget rho*(1 - (t-1)/(2logN)) runs
// out. A node joins the cluster of the first BFS that reaches it (ties by
// source id). Cluster radius is at most rho, and each edge is cut with
// probability O(log N / rho) — the property Partition (partition.h)
// checks per weight class.
//
// Distributed implementation note (§7): BFS growth maps 1:1 onto CONGEST
// rounds (one hop per round, collisions resolved by id, no congestion
// since each edge carries at most one winning traversal per direction);
// the round cost charged for a run is O(rho * log N) per stage set.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"
#include "util/rng.h"

namespace dmf {

struct SplitResult {
  // Cluster label per node, in [0, count). Every node is covered.
  std::vector<int> cluster;
  // BFS-tree parent within the cluster (kInvalidNode at cluster centers).
  std::vector<NodeId> parent;
  // Multigraph edge index used to reach the parent (kNoMultiEdge at
  // centers).
  std::vector<std::size_t> parent_edge;
  int count = 0;
  // Simulated CONGEST rounds consumed (sum of per-stage BFS budgets).
  double rounds = 0.0;
};

// Decompose g (restricted to edges with edge_allowed[i] != 0) with target
// radius rho. Isolated nodes (w.r.t. allowed edges) become singleton
// clusters.
SplitResult split_graph(const Multigraph& g,
                        const std::vector<char>& edge_allowed, double rho,
                        Rng& rng);

// Scratch for the workspace form below; reused across calls and stages.
struct SplitWorkspace {
  // Heap entry ordered by (time, source rank), packed into one key so a
  // comparison is one integer compare; both fields are non-negative.
  // Ties on the key keep the heap's order (see split_graph.cpp).
  struct Arrival {
    std::uint64_t key = 0;
    NodeId node = kInvalidNode;

    Arrival(int time, int source_rank, NodeId v)
        : key(static_cast<std::uint64_t>(static_cast<std::uint32_t>(time))
                  << 32 |
              static_cast<std::uint32_t>(source_rank)),
          node(v) {}
    [[nodiscard]] int time_step() const { return static_cast<int>(key >> 32); }
    [[nodiscard]] int source_rank() const {
      return static_cast<int>(key & 0xffffffffU);
    }
  };

  std::vector<NodeId> uncovered;
  std::vector<std::size_t> picks;
  std::vector<NodeId> sources;
  std::vector<Arrival> heap;  // binary min-heap on key
  std::vector<int> best_time;
  std::vector<int> best_rank;
  std::vector<int> stage_cluster;
  std::vector<NodeId> touched;  // nodes whose per-stage entries are set
  std::vector<int> stage_to_global;
};

// Workspace form over a prebuilt adjacency of the allowed edges (callers
// that split the same graph repeatedly build it once). Same draws and
// same result as split_graph; `out` is overwritten.
void split_graph(NodeId num_nodes, const MultiAdjacency& allowed_adjacency,
                 double rho, Rng& rng, SplitWorkspace& ws, SplitResult& out);

}  // namespace dmf
