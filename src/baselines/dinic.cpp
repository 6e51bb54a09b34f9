// Dinic over the CSR slots, levelled by distance to the sink.
//
// Slot layout. Slot i of row v is the arc v -> neighbors[i] of edge
// edge_ids[i]. It carries cap[i] (the edge's capacity) and flow[i], the
// net flow from v to neighbors[i]; the edge's other slot rev[i] always
// holds exactly -flow[i]. So the residual of slot i is cap[i] - flow[i],
// and the residual of the opposite arc neighbors[i] -> v is
// cap[i] + flow[i], read from the same slot. rev, cap and the slot of
// each edge in its u endpoint's row depend only on the graph; they live
// in ResidualSlots, built once per graph, and flow extraction is a
// gather of m values through the last of them. flow, the labels, the
// current arcs and the BFS queue live in a reusable DinicWorkspace.
//
// Phases. The BFS runs from t over incoming residual arcs and labels
// dist[u] = residual distance from u to t. It stops after the row in
// which s gets labelled: every node closer to t than s already has its
// exact label, and no augmenting path of the phase touches a node at
// s's distance or beyond, so the rest of the graph is never expanded.
// The DFS then runs from s in CSR order over arcs with
// dist[to] == dist[v] - 1 and residual > kEps, keeping a current arc per
// node and making one augmentation per descent. It is iterative: an
// explicit slot stack holds the path, and a dead end pops its slot and
// advances the parent's current arc, so path length never touches the
// call stack.
//
// The BFS row scan has no data-dependent branch. Per slot it computes
// take = (u unlabelled) & (residual > kEps), stores
// dist[u] = take ? next : dist[u] and queue[tail] = u, and advances tail
// by take; dist[s] is tested once per finished row. The queue therefore
// has n + 1 entries: once all n nodes are labelled, the next slot still
// stores to queue[n]. Finishing the row labels the nodes after s in it
// with dist[s] as well. That changes nothing: the DFS starts at s and
// only ever steps to a node labelled dist[v] - 1 < dist[s], so it never
// looks at a node labelled dist[s] or left unlabelled.
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

ResidualSlots::ResidualSlots(const CsrGraph& g)
    : reverse(reverse_half_edges(g)) {
  const std::size_t* offsets = g.offsets().data();
  const EdgeId* edge_ids = g.edge_id_array().data();
  const EdgeEndpoints* eps = g.endpoints_data();
  const double* capacities = g.capacities_data();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  capacity.resize(reverse.size());
  u_slot.resize(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const auto e = static_cast<std::size_t>(edge_ids[i]);
      capacity[i] = capacities[e];
      if (static_cast<std::size_t>(eps[e].u) == v) u_slot[e] = i;
    }
  }
}

namespace {

// One run's view of the graph, its slot tables and a workspace.
class Residual {
 public:
  Residual(const CsrGraph& g, const ResidualSlots& slots, DinicWorkspace& ws)
      : n_(static_cast<std::size_t>(g.num_nodes())),
        offsets_(g.offsets().data()),
        targets_(g.neighbor_array().data()),
        rev_(slots.reverse.data()),
        cap_(slots.capacity.data()),
        path_(ws.path) {
    const std::size_t slot_count = g.neighbor_array().size();
    DMF_REQUIRE(slots.capacity.size() == slot_count &&
                    slots.reverse.size() == slot_count &&
                    slots.u_slot.size() ==
                        static_cast<std::size_t>(g.num_edges()),
                "dinic_max_flow: slot tables do not match the graph");
    ws.flow.assign(slot_count, 0.0);
    ws.dist.resize(n_);
    ws.iter.resize(n_);
    ws.queue.resize(n_ + 1);
    flow_ = ws.flow.data();
    dist_ = ws.dist.data();
    iter_ = ws.iter.data();
    queue_ = ws.queue.data();
  }

  double run(NodeId s, NodeId t) {
    double total = 0.0;
    while (bfs(s, t)) {
      std::copy(offsets_, offsets_ + n_, iter_);
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
  [[nodiscard]] std::vector<double> undirected_flows(
      const ResidualSlots& slots) const {
    std::vector<double> out(slots.u_slot.size());
    for (std::size_t e = 0; e < out.size(); ++e) {
      out[e] = flow_[slots.u_slot[e]];
    }
    return out;
  }

  // Nodes reachable from s in the residual graph (call after run()).
  [[nodiscard]] std::vector<char> residual_reachable(NodeId s) {
    std::vector<char> seen(n_, 0);
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

  // Labels dist[] backwards from t; true iff s is reachable. Branch-free
  // per slot (see the file comment); queue_ has n + 1 entries.
  bool bfs(NodeId s, NodeId t) {
    std::fill(dist_, dist_ + n_, kUnlabelled);
    const auto si = static_cast<std::size_t>(s);
    dist_[static_cast<std::size_t>(t)] = 0;
    queue_[0] = t;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const auto w = static_cast<std::size_t>(queue_[head]);
      const int next = dist_[w] + 1;
      for (std::size_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
        // Slot i is w -> u; the arc u -> w has residual cap + flow[i].
        const NodeId u = targets_[i];
        const auto ui = static_cast<std::size_t>(u);
        const int label = dist_[ui];
        const bool take =
            (label == kUnlabelled) & (cap_[i] + flow_[i] > kEps);
        dist_[ui] = take ? next : label;
        queue_[tail] = u;
        tail += static_cast<std::size_t>(take);
      }
      if (dist_[si] != kUnlabelled) return true;
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

  std::size_t n_;
  const std::size_t* offsets_;      // n + 1 row boundaries (borrowed)
  const NodeId* targets_;           // 2m slot targets (borrowed)
  const std::size_t* rev_;          // 2m: ResidualSlots::reverse
  const double* cap_;               // 2m: ResidualSlots::capacity
  double* flow_ = nullptr;          // 2m: DinicWorkspace::flow
  int* dist_ = nullptr;             // n: DinicWorkspace::dist
  std::size_t* iter_ = nullptr;     // n: DinicWorkspace::iter
  NodeId* queue_ = nullptr;         // n + 1: DinicWorkspace::queue
  std::vector<std::size_t>& path_;  // DinicWorkspace::path
};

}  // namespace

MaxFlowResult dinic_max_flow(const CsrGraph& g, const ResidualSlots& slots,
                             NodeId s, NodeId t, DinicWorkspace& ws) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_max_flow: bad terminals");
  Residual residual(g, slots, ws);
  MaxFlowResult result;
  result.value = residual.run(s, t);
  result.edge_flow = residual.undirected_flows(slots);
  return result;
}

double dinic_max_flow_value(const CsrGraph& g, const ResidualSlots& slots,
                            NodeId s, NodeId t, DinicWorkspace& ws) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_max_flow: bad terminals");
  Residual residual(g, slots, ws);
  return residual.run(s, t);
}

MaxFlowResult dinic_max_flow(const CsrGraph& g, NodeId s, NodeId t) {
  DinicWorkspace ws;
  return dinic_max_flow(g, ResidualSlots(g), s, t, ws);
}

MaxFlowResult dinic_max_flow(const Graph& g, NodeId s, NodeId t) {
  const CsrGraph csr(g);
  return dinic_max_flow(csr, s, t);
}

double dinic_max_flow_value(const CsrGraph& g, NodeId s, NodeId t) {
  DinicWorkspace ws;
  return dinic_max_flow_value(g, ResidualSlots(g), s, t, ws);
}

double dinic_max_flow_value(const Graph& g, NodeId s, NodeId t) {
  const CsrGraph csr(g);
  return dinic_max_flow_value(csr, s, t);
}

MinCutResult dinic_min_cut(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_min_cut: bad terminals");
  const ResidualSlots slots(g);
  DinicWorkspace ws;
  Residual residual(g, slots, ws);
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
