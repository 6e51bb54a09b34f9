// Dinic over the CSR slots, levelled by distance to the sink.
//
// Slot layout. Slot i of row v is the arc v -> neighbors[i] of edge
// edge_ids[i]. It carries cap[i] (the edge's capacity, gathered once)
// and flow[i], the net flow from v to neighbors[i]; the edge's other
// slot rev[i] (reverse_half_edges) always holds exactly -flow[i]. So the
// residual of slot i is cap[i] - flow[i], and the residual of the
// opposite arc neighbors[i] -> v is cap[i] + flow[i], read from the same
// slot.
//
// Phases. The BFS runs from t over incoming residual arcs and labels
// dist[u] = residual distance from u to t. It stops the moment s is
// labelled: every node closer to t than s already has its exact label,
// and no augmenting path of the phase touches a node at s's distance or
// beyond, so the rest of the graph is never expanded. The DFS then runs
// from s in CSR order over arcs with dist[to] == dist[v] - 1 and
// residual > kEps, keeping a current arc per node and making one
// augmentation per descent. It is iterative: an explicit slot stack
// holds the path, and a dead end pops its slot and advances the
// parent's current arc, so path length never touches the call stack.
//
// Why results equal forward-levelled Dinic bit for bit. A node the DFS
// reaches at depth k has dist D - k (D = dist[s]) and is k steps from s,
// so its forward level is exactly k; every arc it takes is therefore also
// forward-admissible. The forward-admissible arcs it skips lead to nodes
// with dist > D - k - 1, which cannot reach t within the phase (pushes
// only add arcs that step back a level), so forward Dinic explores them,
// finds a dead end and advances past them with no other effect. Both
// searches thus find the same shortest paths in the same arc order,
// push the same bottlenecks, and leave the same flows, which is what
// tests/reference_dinic.h checks against the forward-levelled original.
#include "baselines/dinic.h"

#include <algorithm>
#include <limits>

namespace dmf {

namespace {

class Residual {
 public:
  explicit Residual(const CsrGraph& g)
      : graph_(g),
        offsets_(g.offsets().data()),
        targets_(g.neighbor_array().data()),
        rev_(reverse_half_edges(g)) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const Span<const EdgeId> edge_ids = g.edge_id_array();
    const double* capacities = g.capacities_data();
    cap_.resize(edge_ids.size());
    for (std::size_t i = 0; i < edge_ids.size(); ++i) {
      cap_[i] = capacities[static_cast<std::size_t>(edge_ids[i])];
    }
    flow_.assign(edge_ids.size(), 0.0);
    dist_.assign(n, kUnlabelled);
    iter_.assign(n, 0);
    queue_.resize(n);
  }

  double run(NodeId s, NodeId t) {
    double total = 0.0;
    while (bfs(s, t)) {
      std::copy(offsets_, offsets_ + iter_.size(), iter_.begin());
      while (true) {
        const double pushed = augment(s, t);
        if (pushed <= kEps) break;
        total += pushed;
      }
    }
    return total;
  }

  // Net flow per undirected edge in its endpoints(e).u -> v direction:
  // the flow of the slot in u's row.
  [[nodiscard]] std::vector<double> undirected_flows() const {
    const EdgeEndpoints* eps = graph_.endpoints_data();
    const EdgeId* edge_ids = graph_.edge_id_array().data();
    std::vector<double> out(static_cast<std::size_t>(graph_.num_edges()));
    for (std::size_t v = 0; v < dist_.size(); ++v) {
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const auto e = static_cast<std::size_t>(edge_ids[i]);
        if (static_cast<std::size_t>(eps[e].u) == v) out[e] = flow_[i];
      }
    }
    return out;
  }

  // Nodes reachable from s in the residual graph (call after run()).
  [[nodiscard]] std::vector<char> residual_reachable(NodeId s) {
    std::vector<char> seen(dist_.size(), 0);
    seen[static_cast<std::size_t>(s)] = 1;
    queue_[0] = s;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const auto v = static_cast<std::size_t>(queue_[head]);
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const NodeId to = targets_[i];
        if (cap_[i] - flow_[i] > kEps && !seen[static_cast<std::size_t>(to)]) {
          seen[static_cast<std::size_t>(to)] = 1;
          queue_[tail++] = to;
        }
      }
    }
    return seen;
  }

 private:
  static constexpr double kEps = 1e-12;
  static constexpr int kUnlabelled = -1;

  // Labels dist[] backwards from t; true iff s is reachable.
  bool bfs(NodeId s, NodeId t) {
    std::fill(dist_.begin(), dist_.end(), kUnlabelled);
    dist_[static_cast<std::size_t>(t)] = 0;
    queue_[0] = t;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const auto w = static_cast<std::size_t>(queue_[head]);
      const int next = dist_[w] + 1;
      for (std::size_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
        // Slot i is w -> u; the arc u -> w has residual cap + flow[i].
        const NodeId u = targets_[i];
        if (dist_[static_cast<std::size_t>(u)] == kUnlabelled &&
            cap_[i] + flow_[i] > kEps) {
          dist_[static_cast<std::size_t>(u)] = next;
          if (u == s) return true;
          queue_[tail++] = u;
        }
      }
    }
    return false;
  }

  // One descent from s along current arcs. Returns the bottleneck pushed
  // along the s-t path it found, or 0 once s's arcs are exhausted.
  double augment(NodeId s, NodeId t) {
    path_.clear();
    NodeId v = s;
    while (v != t) {
      const auto vi = static_cast<std::size_t>(v);
      const int want = dist_[vi] - 1;
      const std::size_t end = offsets_[vi + 1];
      std::size_t it = iter_[vi];
      while (it < end &&
             !(cap_[it] - flow_[it] > kEps &&
               dist_[static_cast<std::size_t>(targets_[it])] == want)) {
        ++it;
      }
      iter_[vi] = it;
      if (it < end) {
        path_.push_back(it);
        v = targets_[it];
        continue;
      }
      if (path_.empty()) return 0.0;
      // Dead end: retreat to the slot's owner and skip that slot.
      const std::size_t slot = path_.back();
      path_.pop_back();
      v = targets_[rev_[slot]];
      ++iter_[static_cast<std::size_t>(v)];
    }
    double pushed = std::numeric_limits<double>::infinity();
    for (const std::size_t slot : path_) {
      pushed = std::min(pushed, cap_[slot] - flow_[slot]);
    }
    for (const std::size_t slot : path_) {
      flow_[slot] += pushed;
      flow_[rev_[slot]] -= pushed;
    }
    return pushed;
  }

  const CsrGraph& graph_;
  const std::size_t* offsets_;     // n + 1 row boundaries (borrowed)
  const NodeId* targets_;          // 2m slot targets (borrowed)
  std::vector<std::size_t> rev_;   // 2m: the edge's slot in the other row
  std::vector<double> cap_;        // 2m: capacity of the slot's edge
  std::vector<double> flow_;       // 2m: net flow out along the slot
  std::vector<int> dist_;          // n: residual distance to t
  std::vector<std::size_t> iter_;  // n: current arc (slot index)
  std::vector<NodeId> queue_;      // n: BFS queue
  std::vector<std::size_t> path_;  // slots of the current descent
};

}  // namespace

MaxFlowResult dinic_max_flow(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_max_flow: bad terminals");
  Residual residual(g);
  MaxFlowResult result;
  result.value = residual.run(s, t);
  result.edge_flow = residual.undirected_flows();
  return result;
}

MaxFlowResult dinic_max_flow(const Graph& g, NodeId s, NodeId t) {
  const CsrGraph csr(g);
  return dinic_max_flow(csr, s, t);
}

double dinic_max_flow_value(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_max_flow: bad terminals");
  Residual residual(g);
  return residual.run(s, t);
}

double dinic_max_flow_value(const Graph& g, NodeId s, NodeId t) {
  const CsrGraph csr(g);
  return dinic_max_flow_value(csr, s, t);
}

MinCutResult dinic_min_cut(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_min_cut: bad terminals");
  Residual residual(g);
  MinCutResult result;
  result.capacity = residual.run(s, t);
  result.source_side = residual.residual_reachable(s);
  return result;
}

MinCutResult dinic_min_cut(const Graph& g, NodeId s, NodeId t) {
  const CsrGraph csr(g);
  return dinic_min_cut(csr, s, t);
}

}  // namespace dmf
